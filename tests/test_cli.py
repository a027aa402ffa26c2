"""Command line behavior: report structure, determinism, exit codes, and
the golden-diff harness."""
import argparse
import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import orthogonal_pairwise
import qproduct.catalog as catalog_module
import qproduct.cli as cli
import qproduct.convolutional as conv_module
import qproduct.cyclic as cyclic_module
import qproduct.product as product_module
import qproduct.quantum as quantum_module
from qproduct.cli import main
from qproduct.matrix import Matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def _bounds(cert: dict) -> list:
    return [cert["lower"], cert["upper"], cert["exact"]]


def _keys(node):
    """Every dict key in a JSON payload, at any depth."""
    if isinstance(node, dict):
        yield from node
        for value in node.values():
            yield from _keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _keys(value)


def strip_time(payload: dict) -> dict:
    payload = dict(payload)
    payload.pop("generated_at", None)
    return payload


def test_field_verb(capsys):
    code, payload = run_json(capsys, "field", "--q", "8")
    assert code == 0
    assert payload["report"]["field"]["modulus"] == "x^3 + x + 1"
    assert payload["tool"] == "qproduct"


def test_build_verb_reports_distance_and_flags(capsys):
    code, payload = run_json(capsys, "build", "--code", "hamming_dual(3,2)")
    assert code == 0
    rep = payload["report"]["code"]
    assert rep["dimension"] == 3 and rep["length"] == 7
    assert rep["distance"]["lower"] == 4 and rep["distance"]["exact"]
    assert rep["self_orthogonal"]["euclidean"] is True
    assert rep["field_spec"]["modulus"] == "x + 1"


def test_build_from_matrix_file(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2 3\n1 0 1\n0 1 1\n")
    code, payload = run_json(capsys, "build", "--matrix-file", str(path))
    assert code == 0
    assert payload["report"]["code"]["dimension"] == 2


def test_matrix_file_with_extra_rows_is_an_error(capsys, tmp_path):
    """A header promising r rows must be followed by exactly r rows, so a
    file is never read as a shorter code, given directly or by a JSON
    descriptor."""
    path = tmp_path / "m.txt"
    path.write_text("2 1 3\n1 0 1\n0 1 1\n")
    desc = tmp_path / "code.json"
    desc.write_text(json.dumps({"field": 2, "kind": "linear", "generator": "m.txt"}))
    for source in (("--matrix-file", str(path)), ("--code-json", str(desc))):
        code, payload = run_json(capsys, "build", *source)
        assert code == 1
        assert payload["error"] == {"type": "ValueError", "message": "expected 1 rows, got 2"}


def test_deeply_nested_descriptor_is_a_descriptor_error(capsys):
    depth = 10**4
    code, payload = run_json(capsys, "build", "--code",
                             "additive(" * depth + "hamming(3,2)" + ")" * depth)
    assert code == 1
    assert payload["error"] == {"type": "DescriptorError",
                                "message": "descriptor nested too deeply"}


def test_dual_verb(capsys):
    code, payload = run_json(capsys, "dual", "--code", "quaternary_hamming_dual_5",
                             "--kind", "hermitian")
    assert code == 0
    rep = payload["report"]
    assert rep["dual"]["dimension"] == 3
    assert rep["dual"]["distance"]["lower"] == 3


def test_distance_verb_with_flags(capsys):
    code, payload = run_json(capsys, "distance", "--code",
                             "dual(product(hamming_dual(3,2), hamming_dual(3,2)))",
                             "--budget", "100")
    assert code == 0
    cert = payload["report"]["distance"]
    assert cert["exact"] and cert["lower"] == 3
    assert cert["lower_method"] == "column-independence"


def test_product_verb_conformance(capsys):
    code, payload = run_json(capsys, "product", "--code1", "hamming_dual(3,2)",
                             "--code2", "hamming_dual(3,2)")
    assert code == 0
    rep = payload["report"]
    assert rep["product"]["distance"]["exact"] and rep["product"]["distance"]["lower"] == 16
    conf = rep["conformance"]
    assert conf["dual_generator_matches"] is True
    assert conf["dual_dimension"] == 40
    assert _bounds(conf["dual_distance"]) == [3, 3, True]
    assert not {"dual_distance_ceiling", "ceiling_respected"} & conf.keys()
    assert rep["self_orthogonality_transfer"] is True


def test_product_verb_certifies_a_product_above_the_budget(capsys):
    """rs(13,7) (x) rs(13,6) has 13^42 words; its distance is the
    "product" certificate 7 * 6, met by a witness of the product, and no
    part of the report carries an uncertified prediction."""
    code, payload = run_json(capsys, "product", "--code1", "rs(13,7)", "--code2", "rs(13,6)")
    assert code == 0
    cert = payload["report"]["product"]["distance"]
    assert {k: cert[k] for k in ("lower", "upper", "lower_method", "exact")} == {
        "lower": 42, "upper": 42, "lower_method": "product", "exact": True}
    assert catalog_module.parse_descriptor("product(rs(13,7), rs(13,6))").contains(cert["witness"])
    assert not {"claimed", "claimed_distance"} & set(_keys(payload))


def test_product_verb_certifies_the_dual_of_a_product_above_the_budget(capsys):
    """The dual of rs(13,7) (x) rs(13,6) has 13^102 words.  The search
    finds no word of weight <= 4, and the product-dual theorem reads it
    exact at 7 = min(7, 8), its factor duals' BCH bounds, with a witness
    a (x) e_0 of the dual; no key of the report names a ceiling."""
    code, payload = run_json(capsys, "product", "--code1", "rs(13,7)", "--code2", "rs(13,6)")
    assert code == 0
    cert = payload["report"]["conformance"]["dual_distance"]
    assert {k: cert[k] for k in ("lower", "upper", "lower_method", "exact")} == {
        "lower": 7, "upper": 7, "lower_method": "bch-rectangle", "exact": True}
    prod = catalog_module.parse_descriptor("product(rs(13,7), rs(13,6))")
    assert prod.dual().contains(cert["witness"])
    assert not [k for k in _keys(payload) if "ceiling" in k]


def test_product_additive_verb(capsys):
    code, payload = run_json(capsys, "product-additive", "--code1", "simplex(2,2)",
                             "--code2", "additive(quaternary_hamming_dual_5)")
    assert code == 0
    rep = payload["report"]
    assert rep["product"]["log_p_size"] == 8
    assert rep["conformance"]["dual_dimension"] == 22
    assert rep["self_orthogonality_transfer"] is True


def test_spectrum_verb(capsys):
    code, payload = run_json(capsys, "spectrum", "--code1", "rs(8,3)",
                             "--code2", "rs(8,4)", "--dual")
    assert code == 0
    rep = payload["report"]
    assert len(rep["support"]) == 7
    assert rep["free_positions"] == 20
    first_data_row = rep["support"][-1].split()
    assert first_data_row[:2] == ["0", "0"]  # vertical stripe of width 2
    assert len(rep["dual_support"]) == 7


def test_spectrum_takes_the_euclidean_dual_of_a_cyclic_code(capsys):
    """dual(rs(7,3)) keeps the zeros {-i mod 6 : i not in {0, 1}}, so its
    spectrum is that of cyclic(7, 6, 1, 2, 3, 4)."""
    reports = []
    for code1 in ("dual(rs(7,3))", "cyclic(7, 6, 1, 2, 3, 4)"):
        code, payload = run_json(capsys, "spectrum", "--code1", code1, "--code2", "rs(7,4)",
                                 "--dual")
        assert code == 0
        reports.append(payload["report"])
    assert reports[0] == reports[1] and reports[0]["factors"] == [[6, 2], [6, 3]]


def test_spectrum_kind_applies_only_to_the_dual(capsys):
    code, payload = run_json(capsys, "spectrum", "--code1", "rs(8,3)", "--code2", "rs(8,4)",
                             "--kind", "hermitian")
    assert code == 1
    assert payload["error"] == {"type": "DescriptorError",
                                "message": "--kind applies only to --dual"}


def test_qecc_css_verb(capsys):
    code, payload = run_json(capsys, "qecc", "--construction", "css", "--code",
                             "product(hamming_dual(3,2), hamming_dual(3,2))")
    assert code == 0
    q = payload["report"]["qecc"]
    assert (q["n"], q["k"], q["alphabet"]) == (49, 31, 2)
    assert q["distance"]["lower"] == 3 and q["distance"]["exact"]


def test_qecc_rs_product_verb(capsys):
    code, payload = run_json(capsys, "qecc", "--construction", "rs-product",
                             "--q", "5", "--mu1", "1", "--mu2", "1")
    assert code == 0
    rep = payload["report"]
    assert (rep["qecc"]["n"], rep["qecc"]["k"]) == (16, 14)
    assert rep["rate_comparison"]["product_construction_wins"] is True
    assert rep["predicted"]["expected_dual_distance"] == 2


def test_qecc_rs_product_certifies_the_dual_once(capsys):
    code, payload = run_json(capsys, "qecc", "--construction", "rs-product",
                             "--q", "7", "--mu1", "2", "--mu2", "2")
    assert code == 0
    rep = payload["report"]
    assert "dual_certificate" not in rep
    assert rep["qecc"]["distance"]["lower_method"] == "bch-rectangle"
    assert rep["qecc"]["distance"]["lower"] == rep["predicted"]["expected_dual_distance"] == 3


def test_qecc_reads_the_quantum_distance_of_an_impure_code(capsys, tmp_path):
    """hamming_dual(3,2) padded by two zero coordinates, plus 0000000 11, is
    [[9,1,3]]: the dual's weight-2 words lie in the code, so they are
    stabilizers, and the distance is 3, with no witness."""
    rows = [[1, 0, 1, 0, 1, 0, 1, 0, 0], [0, 1, 1, 0, 0, 1, 1, 0, 0],
            [0, 0, 0, 1, 1, 1, 1, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1, 1]]
    desc = tmp_path / "code.json"
    desc.write_text(json.dumps({"field": 2, "generator": rows}))
    code, payload = run_json(capsys, "qecc", "--construction", "css", "--code-json", str(desc))
    assert code == 0
    q = payload["report"]["qecc"]
    assert (q["n"], q["k"]) == (9, 1)
    assert _bounds(q["distance"]) == [3, 3, True]
    assert q["distance"]["lower_method"] == "exhaustive" and "witness" not in q["distance"]


@pytest.mark.parametrize("mu1,mu2,named", [("3", "0", "mu2 = 0"), ("3", "7", "mu2 = 7"),
                                           ("-1", "3", "mu1 = -1"), ("0", "3", "mu1 = 0")])
def test_qecc_rs_product_rejects_a_dimension_out_of_range(capsys, monkeypatch, mu1, mu2, named):
    """Over GF(8), 1 <= mu1 < 3.5 and 1 <= mu2 <= 6; the error names the
    dimension given, not a designed distance, and nothing is built."""
    monkeypatch.setattr(cyclic_module, "rs_code", None)
    code, payload = run_json(capsys, "qecc", "--construction", "rs-product",
                             "--q", "8", "--mu1", mu1, "--mu2", mu2)
    assert code == 1
    assert payload["error"]["type"] == "ValueError"
    assert payload["error"]["message"].startswith(named)


@pytest.mark.parametrize("construction,stray", [
    ("rs-product", ["--code", "hamming(3,2)"]), ("rs-product", ["--code-json", "code.json"]),
    ("rs-product", ["--matrix-file", "code.txt"]), ("rs-product", ["--additive"]),
    ("css", ["--q", "7"]), ("css", ["--mu1", "1"]), ("css", ["--mu2", "0"]),
    ("rs-product", ["--budget", "1"])],
    # the ids keep the numbering the cases have always had; rs-product-stray4
    # was --refine-distance, an option the CLI no longer has
    ids=["rs-product-stray0", "rs-product-stray1", "rs-product-stray2", "rs-product-stray3",
         "css-stray5", "css-stray6", "css-stray7", "rs-product-budget"])
def test_qecc_rejects_the_other_constructions_options(capsys, construction, stray):
    """rs-product reads only --q, --mu1 and --mu2 (its certificate needs
    no budget), and every other construction only the code source; an
    option of the other kind is named, not ignored."""
    own = (["--q", "7", "--mu1", "1", "--mu2", "2"] if construction == "rs-product"
           else ["--code", "hamming_dual(3,2)"])
    code, payload = run_json(capsys, "qecc", "--construction", construction, *own, *stray)
    assert code == 1
    assert payload["error"]["type"] == "DescriptorError"
    assert payload["error"]["message"] == (f"{stray[0]} does not apply to "
                                           f"--construction {construction}")


def _verbs(parser, prefix=()):
    """Each leaf verb of ``parser`` by its words, with its own parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(prefix), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _verbs(sub, (*prefix, name))


def test_budget_is_offered_only_where_a_distance_is_certified():
    offered = {verb for verb, parser in _verbs(cli.build_parser())
               if "--budget" in parser._option_string_actions}
    assert offered == {"build", "dual", "distance", "product", "product-additive", "qecc",
                       "conv build", "conv tailbite"}


@pytest.mark.parametrize("argv", [
    ["field", "--q", "8"], ["spectrum", "--code1", "rs(8,3)", "--code2", "rs(8,4)"],
    ["conv", "check", "--code1", "hamming_dual(3,2)", "--code2", "hamming_dual(3,2)"],
    ["reproduce-paper"]], ids=["field", "spectrum", "conv-check", "reproduce-paper"])
def test_verbs_that_read_no_budget_reject_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--budget", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 1" in capsys.readouterr().err


def test_additive_view_takes_the_certificate_of_its_linear_code(capsys):
    """Above the budget the additive view of rs(16,5) has rs(16,5)'s words,
    so it reads its exact BCH certificate, not the search's [5, null]."""
    code, payload = run_json(capsys, "build", "--code", "additive(rs(16,5))")
    assert code == 0
    cert = payload["report"]["code"]["distance"]
    assert _bounds(cert) == [5, 5, True] and cert["lower_method"] == "bch"
    assert catalog_module.parse_descriptor("additive(rs(16,5))").contains(cert["witness"])


def test_product_verb_ceiling_ignores_full_space_factor(capsys):
    # cyclic(2,1) is the full space GF(2)^1: its dual is the zero code
    code, payload = run_json(capsys, "product", "--code1", "hamming(3,2)",
                             "--code2", "cyclic(2,1)")
    assert code == 0
    conf = payload["report"]["conformance"]
    assert _bounds(conf["dual_distance"]) == [4, 4, True]
    assert not {"dual_distance_ceiling", "ceiling_respected"} & conf.keys()


def test_product_verb_ceiling_reads_an_inexact_factor_dual(capsys):
    # the duals of rs(8,4) and rs(8,7) read [5, 5] and [2, 2] by their BCH
    # bounds at any budget; the product dual is the lighter, rs(8,7)'s
    # weight-2 word, which the search finds (the test_product examples check
    # an inexact factor dual)
    code, payload = run_json(capsys, "product", "--code1", "rs(8,4)", "--code2", "rs(8,7)",
                             "--budget", "1")
    assert code == 0
    conf = payload["report"]["conformance"]
    assert _bounds(conf["dual_distance"]) == [2, 2, True]
    assert not {"dual_distance_ceiling", "ceiling_respected"} & conf.keys()


def test_conv_build_verb(capsys):
    code, payload = run_json(capsys, "conv", "build", "--code1", "hamming_dual(3,2)",
                             "--code2", "hamming_dual(3,2)", "--t", "1")
    assert code == 0
    band = payload["report"]["band"]
    assert band["frame"] == 42 and band["overlap"] == 7
    assert band["self_orthogonal_band"] is True
    assert band["window_factorization"] is True
    assert payload["report"]["band"]["free_distance_upper_bound"] == 3


@pytest.mark.parametrize("code1,code2,frame_params", [
    ("hamming_dual(3,2)", "hamming_dual(3,2)", {"n": 42, "k": 24, "m": 7}),
    ("simplex(2,2)", "additive(quaternary_hamming_dual_5)", {"n": 10, "k": 2, "m": 5})])
def test_conv_build_reports_the_quantum_frame_params(capsys, code1, code2, frame_params):
    """k is the frame less the stabilizers ``qecc`` counts: twice the 9
    binary rows under CSS, QECC(42N, 24N), and the 8 additive rows once
    under the symplectic kind; no second reading sits beside it."""
    code, payload = run_json(capsys, "conv", "build", "--code1", code1, "--code2", code2,
                             "--t", "1")
    assert code == 0
    band = payload["report"]["band"]
    assert band["frame_params"] == frame_params
    assert not {"alternative_frame_params", "frame_params_disagree"} & band.keys()


def test_conv_check_verb(capsys):
    """The report is the band block alone; its verdict and the exit code
    agree with the pure-Python pairwise check of a three-block window, and
    only a self-orthogonal band reports frame parameters."""
    verdicts = []
    for code1, code2, t in (("hamming_dual(3,2)", "hamming_dual(3,2)", 2),
                            ("simplex(2,2)", "additive(quaternary_hamming_dual_5)", 1),
                            ("hamming_dual(3,2)", "hamming(3,2)", 1)):
        code, payload = run_json(capsys, "conv", "check", "--code1", code1, "--code2", code2,
                                 "--t", str(t))
        assert set(payload["report"]) == {"band"}
        c2 = catalog_module.parse_descriptor(code2)
        s = conv_module.conv_from_product(catalog_module.parse_descriptor(code1), c2, t,
                                          c2.kinds[0])
        band = payload["report"]["band"]
        verdict = band["self_orthogonal_band"]
        assert verdict is orthogonal_pairwise(conv_module.band_window(s, 3), s.kind)
        assert code == (0 if verdict else 1)
        assert ("frame_params" in band) is verdict
        verdicts.append(verdict)
    assert verdicts == [True, True, False]


def test_conv_tailbite_of_a_band_that_is_not_self_orthogonal_is_an_error(capsys):
    code, payload = run_json(capsys, "conv", "tailbite", "--code1", "hamming_dual(3,2)",
                             "--code2", "hamming(3,2)", "--blocks", "2")
    assert code == 1
    assert payload["error"]["type"] == "ValueError"
    assert "self-orthogonal" in payload["error"]["message"]


def test_conv_tailbite_verb(capsys):
    code, payload = run_json(capsys, "conv", "tailbite", "--code1", "hamming_dual(3,2)",
                             "--code2", "hamming_dual(3,2)", "--t", "1", "--blocks", "2")
    assert code == 0
    rep = payload["report"]
    assert rep["rank"] == 18 and not rep["rank_deficient"]
    assert (rep["qecc"]["n"], rep["qecc"]["k"]) == (84, 48)


def test_error_exit_is_structured(capsys):
    code, payload = run_json(capsys, "build", "--code", "no_such_code(1)")
    assert code == 1
    assert "error" in payload and "catalog" in payload["error"]["message"]


def test_usage_error_without_sources(capsys):
    code, payload = run_json(capsys, "build")
    assert code == 1
    assert "error" in payload


def test_empty_invocation_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_reports_are_deterministic(capsys):
    _, first = run_json(capsys, "build", "--code", "rs(5,3)")
    _, second = run_json(capsys, "build", "--code", "rs(5,3)")
    assert strip_time(first) == strip_time(second)


def test_out_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout = run_cli(capsys, "field", "--q", "4", "--out", str(out))
    assert code == 0 and stdout == ""
    payload = json.loads(out.read_text())
    assert payload["report"]["field"]["q"] == 4


def test_pretty_rendering(capsys):
    code, out = run_cli(capsys, "field", "--q", "9", "--pretty")
    assert code == 0
    assert "modulus: x^2 + 2*x + 2" in out


def test_reproduce_paper_passes(capsys):
    code, payload = run_json(capsys, "reproduce-paper")
    assert code == 0
    rep = payload["report"]
    assert rep["ok"] and not rep["failed"]
    assert set(rep["passed"]) == set(rep["pipelines"])


def test_reproduce_paper_detects_corruption(capsys, tmp_path, monkeypatch):
    golden = tmp_path / "golden"
    shutil.copytree(cli._golden_dir(), golden)
    target = golden / "hamming-dual-chain.json"
    payload = json.loads(target.read_text())
    payload["qecc"]["k"] = 2
    target.write_text(json.dumps(payload, indent=2, sort_keys=True))
    monkeypatch.setattr(cli, "_golden_dir", lambda: golden)
    code, out = run_json(capsys, "reproduce-paper")
    assert code == 1
    failed = out["report"]["failed"]
    assert list(failed) == ["hamming-dual-chain"]
    assert any("/qecc/k" in d for d in failed["hamming-dual-chain"])


def test_golden_diff_paths_name_each_difference():
    """A report equal to its golden has no diff; a changed leaf, an added
    key, a removed key and a list of another length are each named by
    their path, as the walk over the whole tree names them."""
    golden = json.loads((cli._golden_dir() / "rs-product-grid.json").read_text())
    assert cli._diff_paths(golden, copy.deepcopy(golden), prefix="rs-product-grid") == []
    changed = copy.deepcopy(golden)
    changed["q=4"][0]["rectangle_certificate"]["upper"] = 3
    changed["q=5"][1]["extra"] = True
    del changed["q=7"][2]["mu"]
    changed["q=8"].pop()
    assert cli._diff_paths(golden, changed, prefix="rs-product-grid") == [
        "rs-product-grid/q=4[0]/rectangle_certificate/upper: expected 2, got 3",
        "rs-product-grid/q=5[1]/extra (unexpected)",
        "rs-product-grid/q=7[2]/mu (missing)",
        "rs-product-grid/q=8 (length 18 != 17)",
    ]


def test_write_golden_regenerates_every_golden_byte_for_byte(capsys, tmp_path, monkeypatch):
    committed = cli._golden_dir()
    golden = tmp_path / "golden"  # an empty directory, not a copy of the goldens
    monkeypatch.setattr(cli, "_golden_dir", lambda: golden)
    code, payload = run_json(capsys, "reproduce-paper", "--write-golden")
    assert code == 0 and payload["report"]["written"] == str(golden)
    names = sorted(p.name for p in committed.glob("*.json"))
    assert len(names) == 8
    assert sorted(p.name for p in golden.iterdir()) == names
    for name in names:
        assert (golden / name).read_bytes() == (committed / name).read_bytes(), name


def _count_calls(monkeypatch, *names):
    """Count calls of the library functions ``names`` (module, function)
    through every module that holds them by name."""
    modules = (cli, catalog_module, conv_module, cyclic_module, product_module, quantum_module)
    calls = {}
    for home, name in names:
        real = getattr(home, name)
        calls[name] = 0

        def call(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, call)
    return calls


def test_rs_product_grid_builds_each_product_once(monkeypatch):
    """The grid's 33 entries build one product each, and hand it to the
    report and the dual certificate; each of the 2 + 3 + 5 + 6 distinct
    RS factors is built once per q and shared by its entries."""
    calls = _count_calls(monkeypatch, (product_module, "product"), (cyclic_module, "rs_code"))
    grid = cli.PIPELINES["rs-product-grid"](None)
    assert sum(len(entries) for entries in grid.values()) == 33
    assert calls == {"product": 33, "rs_code": 16}


def test_rs_product_grid_checks_each_factor_once(monkeypatch):
    """Each of the 16 distinct RS factors is shared by several of the 33
    entries; its self-orthogonality is read once off its zeros and kept,
    and each product's comes from its factors' flags, so the grid computes
    no Gram matrix."""
    grams = []
    gram = Matrix.gram

    def counted(m, other):
        grams.append((m.spec.q, m.ncols))
        return gram(m, other)

    monkeypatch.setattr(Matrix, "gram", counted)
    grid = cli.PIPELINES["rs-product-grid"](None)
    assert sum(len(entries) for entries in grid.values()) == 33
    assert grams == []


def test_rs_product_grid_eliminates_no_more_than_a_factor(monkeypatch):
    """RS factors and their duals have closed-form bases, and each
    product's basis and dual come from its factors' by the Kronecker
    lemmas, so the only eliminations in the grid are the two factor-sized
    ones inside each of the two ``product_kernel`` calls (q = 4), which
    build the product duals that are enumerated; q = 5 searches its duals
    from their kept parity rows, and q = 5, 7, 8 eliminate nothing."""
    import qproduct.code as code_module

    calls, inside = [], []
    rref, real_kernel = Matrix.rref, code_module.product_kernel

    def counted(m):
        calls.append((m.spec.q, m.ncols, bool(inside)))
        return rref(m)

    def kernel(a, b):
        inside.append(True)
        try:
            return real_kernel(a, b)
        finally:
            inside.pop()

    monkeypatch.setattr(Matrix, "rref", counted)
    monkeypatch.setattr(code_module, "product_kernel", kernel)
    cli.PIPELINES["rs-product-grid"](None)
    assert sorted(q for q, _, _ in calls) == [4] * 4
    assert all(within and n == q - 1 for q, n, within in calls)


def test_rs_product_grid_builds_product_duals_only_to_enumerate(monkeypatch):
    """Only the 2 entries with q = 4 eliminate their product's dual (one
    ``product_kernel`` each) to enumerate it; the 3 with q = 5 search it
    above the budget from its kept parity rows, which needs no basis, and
    the 28 with q = 7, 8 are certified from their factors' duals."""
    import qproduct.code as code_module

    fields = []
    real = code_module.product_kernel

    def counted(a, b):
        fields.append(a.spec.q)
        return real(a, b)

    monkeypatch.setattr(code_module, "product_kernel", counted)
    cli.PIPELINES["rs-product-grid"](None)
    assert sorted(fields) == [4, 4]


def test_qecc_rs_product_builds_the_product_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, (product_module, "product"), (cyclic_module, "rs_code"))
    code, payload = run_json(capsys, "qecc", "--construction", "rs-product",
                             "--q", "8", "--mu1", "3", "--mu2", "3")
    assert code == 0 and payload["report"]["qecc"]["distance"]["lower"] == 4
    assert calls == {"product": 1, "rs_code": 2}


def test_tail_biting_reports_build_each_code_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, (conv_module, "tail_biting"))
    code, _ = run_json(capsys, "conv", "tailbite", "--code1", "hamming_dual(3,2)",
                       "--code2", "hamming_dual(3,2)", "--t", "1", "--blocks", "3")
    assert code == 0 and calls == {"tail_biting": 1}
    report = cli.PIPELINES["tail-biting"](None)
    assert sorted(report) == ["N=2", "N=3"] and calls == {"tail_biting": 3}


def test_squared_length_example_is_the_hermitian_chain_pair():
    """The rate comparison's (n, k) pairs are the Hermitian codes of
    quaternary_hamming_dual_5 and of its square, as the hermitian-chain
    report builds them with their distances."""
    example = cli.PIPELINES["rate-comparison"](None)["squared_length_example"]
    chain = cli.PIPELINES["hermitian-chain"](None)
    assert example["base"] == [chain["qecc"]["n"], chain["qecc"]["k"]]
    assert example["squared"] == [chain["product_qecc"]["n"], chain["product_qecc"]["k"]]


@pytest.mark.parametrize("factor", ["cyclic(5)", "cyclic()", "rs(5,3,1)",
                                    "product(rs(5,3),rs(5,3))"])
def test_spectrum_bad_factor_is_a_descriptor_error(capsys, factor):
    code, payload = run_json(capsys, "spectrum", "--code1", factor, "--code2", "rs(5,3)")
    assert code == 1
    assert payload["error"]["type"] == "DescriptorError"


@pytest.mark.parametrize("descriptor", ["hamming_dual(0,2)", "cyclic(4,0)"])
def test_empty_length_descriptor_is_a_descriptor_error(capsys, descriptor):
    code, payload = run_json(capsys, "build", "--code", descriptor)
    assert code == 1
    assert payload["error"]["type"] == "DescriptorError"


@pytest.mark.parametrize("descriptor", ["dual(3)", "additive(3)", "product(3, 4)",
                                        "product(rs(5,3), 4)", "dual(hermitian)"])
def test_non_code_argument_is_a_descriptor_error(capsys, descriptor):
    code, payload = run_json(capsys, "build", "--code", descriptor)
    assert code == 1
    assert payload["error"]["type"] == "DescriptorError"
    assert payload["error"]["message"].startswith("bad arguments for ")


@pytest.mark.parametrize("verb", ["build", "distance"])
@pytest.mark.parametrize("source", ["--code", "--code-json"])
def test_additive_applies_only_to_a_matrix_file(capsys, tmp_path, verb, source):
    """--additive reads a matrix file as additive generators; a descriptor
    or code JSON says its own kind, so the flag is rejected, not ignored."""
    desc = tmp_path / "code.json"
    desc.write_text(json.dumps({"field": 2, "generator": [[1, 0, 1], [0, 1, 1]]}))
    value = "hamming(3,2)" if source == "--code" else str(desc)
    code, payload = run_json(capsys, verb, source, value, "--additive")
    assert code == 1
    assert payload["error"]["type"] == "DescriptorError"
    assert payload["error"]["message"].startswith("--additive applies only to --matrix-file")


ADDITIVE_BAND = ("--code1", "simplex(2,2)", "--code2", "additive(quaternary_hamming_dual_5)")


def test_conv_kind_defaults_to_the_kind_of_code2(capsys):
    _, linear = run_json(capsys, "conv", "check", "--code1", "hamming_dual(3,2)",
                         "--code2", "hamming_dual(3,2)")
    assert linear["report"]["band"]["kind"] == "euclidean"
    code, additive = run_json(capsys, "conv", "check", *ADDITIVE_BAND)
    assert code == 0 and additive["report"]["band"]["kind"] == "symplectic"


def test_conv_symplectic_kind_lifts_a_linear_code2(capsys):
    _, lifted = run_json(capsys, "conv", "build", "--code1", "simplex(2,2)",
                         "--code2", "quaternary_hamming_dual_5", "--kind", "symplectic")
    _, additive = run_json(capsys, "conv", "build", *ADDITIVE_BAND)
    assert lifted["report"] == additive["report"]
    assert lifted["report"]["band"]["self_orthogonal_band"] is True


@pytest.mark.parametrize("kind", ["euclidean", "hermitian"])
def test_conv_linear_kind_rejects_an_additive_code2(capsys, kind):
    code, payload = run_json(capsys, "conv", "build", *ADDITIVE_BAND, "--kind", kind)
    assert code == 1
    assert payload["error"]["type"] == "ValueError"
    assert f"not {kind}" in payload["error"]["message"]


def test_python_m_qproduct_reproduces_the_paper():
    """The package runs as ``python -m qproduct`` from its source tree, not
    only as the installed console script."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-m", "qproduct", "reproduce-paper"], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(result.stdout)["report"]["ok"] is True

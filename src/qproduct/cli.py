"""Command line front end: builds codes from catalog descriptors or
files, runs the product / dual / distance / quantum pipelines, emits
byte-stable JSON reports, and replays the bundled reference pipelines
against committed golden reports.
"""
from __future__ import annotations

import argparse
import datetime
import json
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import __version__
from .catalog import (DescriptorError, hamming_dual, load_code_json, parse_cyclic,
                      parse_descriptor, quaternary_hamming_dual_5, simplex)
from .code import DEFAULT_BUDGET, AdditiveCode, LinearCode, min_distance, spanned_code
from .convolutional import (ConvStabilizer, band_window_factorization_ok,
                            check_band_self_orthogonal, conv_from_product,
                            free_distance_upper_bound, tail_biting)
from .cyclic import RsProductReport, dual_support_map, product_spectrum_support, rs_code
from .galois import GF
from .matrix import InnerProductKind, from_text
from .product import dual_of_product_generator, product
from .quantum import (_KIND_BY_CONSTRUCTION, qecc, rate_comparison, rs_product_report,
                      rs_report_qecc, stabilizer_count)


def _field_block(spec) -> dict:
    return {"q": spec.q, "modulus": spec.modulus_str(), "generator": spec.generator}


def _selforth_flags(code) -> dict:
    """Self-orthogonality under each inner product the code takes: the
    Euclidean when linear, and over an even-degree field the Hermitian
    (linear codes) and the symplectic (every code)."""
    return {str(kind): _under(code, kind).is_self_orthogonal(kind) for kind in InnerProductKind
            if (code.linear or kind is InnerProductKind.SYMPLECTIC)
            and (kind is InnerProductKind.EUCLIDEAN or code.spec.ell % 2 == 0)}


def _code_block(code, budget=None, with_distance=True) -> dict:
    out = code.describe()
    out["field_spec"] = _field_block(code.spec)
    out["self_orthogonal"] = _selforth_flags(code)
    if with_distance:
        out["distance"] = min_distance(code, budget=budget).to_dict()
    return out


def _resolve_code(args):
    sources = [s for s in (args.code, args.code_json, args.matrix_file) if s]
    if len(sources) != 1:
        raise DescriptorError("exactly one of --code, --code-json, or --matrix-file must be given")
    if args.additive and not args.matrix_file:
        raise DescriptorError("--additive applies only to --matrix-file; use the additive(...) "
                              "descriptor or \"kind\": \"additive\" in --code-json")
    if args.code:
        return parse_descriptor(args.code)
    if args.code_json:
        return load_code_json(args.code_json)
    matrix = from_text(Path(args.matrix_file).read_text())
    if args.additive:
        return AdditiveCode(matrix.spec, matrix.array, n=matrix.ncols)
    return LinearCode(matrix)


def _under(code, kind: InnerProductKind):
    """``code`` lifted to its additive view when ``kind`` is symplectic and
    the code is linear; the library rejects any other kind the code does
    not take."""
    if kind is InnerProductKind.SYMPLECTIC and code.linear:
        return AdditiveCode.from_linear(code)
    return code


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a JSON-able report dict)

def cmd_field(args) -> dict:
    spec = GF(args.q)
    report = _field_block(spec)
    report["characteristic"] = spec.p
    report["degree"] = spec.ell
    if spec.ell % 2 == 0:
        report["quadratic_subfield"] = spec.frobenius_power
    return {"field": report}


def cmd_build(args) -> dict:
    code = _resolve_code(args)
    return {"code": _code_block(code, budget=args.budget)}


def cmd_dual(args) -> dict:
    code = _resolve_code(args)
    kind = InnerProductKind(args.kind)
    dual = code.dual(kind)
    return {
        "primal": _code_block(code, budget=args.budget),
        "kind": str(kind),
        "dual": _code_block(dual, budget=args.budget),
    }


def cmd_distance(args) -> dict:
    code = _resolve_code(args)
    cert = min_distance(code, budget=args.budget)
    return {"code": _code_block(code, with_distance=False), "distance": cert.to_dict()}


def _product_conformance(c1, c2, prod, kind, budget) -> dict:
    stacked = dual_of_product_generator(c1, c2, kind)
    dual = prod.dual(kind)
    return {
        "dual_generator_matches": spanned_code(kind, prod.spec, stacked.array, prod.n) == dual,
        "dual_dimension": dual.dim,
        "dual_distance": min_distance(dual, budget=budget).to_dict(),
    }


def cmd_product(args) -> dict:
    kind = InnerProductKind(args.kind)
    c1 = parse_descriptor(args.code1)
    c2 = _under(parse_descriptor(args.code2), kind)
    prod = product(c1, c2)
    report = {
        "factors": [_code_block(c1, budget=args.budget), _code_block(c2, budget=args.budget)],
        "kind": str(kind),
        "product": _code_block(prod, budget=args.budget),
        "conformance": _product_conformance(c1, c2, prod, kind, args.budget),
    }
    if c2.is_self_orthogonal(kind):  # checked on the product's own Gram matrix, not its factors
        report["self_orthogonality_transfer"] = prod._form(kind).gram(prod.basis).is_zero()
    return report


def _support_lines(mask) -> list[str]:
    """Rows j from high to low (the figures' vertical axis), i across."""
    n1 = len(mask)
    n2 = len(mask[0])
    lines = []
    for j in range(n2 - 1, -1, -1):
        lines.append(" ".join("0" if mask[i][j] else "*" for i in range(n1)))
    return lines


def cmd_spectrum(args) -> dict:
    if args.kind and not args.dual:
        raise DescriptorError("--kind applies only to --dual")
    c1 = parse_cyclic(args.code1)
    c2 = parse_cyclic(args.code2)
    if c1.spec != c2.spec:
        raise DescriptorError("spectrum factors must share one field")
    mask = product_spectrum_support(c1, c2)
    report = {
        "field_spec": _field_block(c1.spec),
        "factors": [[c1.n, c1.k], [c2.n, c2.k]],
        "free_positions": sum(1 for row in mask for m in row if not m),
        "support": _support_lines(mask),
    }
    if args.dual:
        kind = InnerProductKind(args.kind or "euclidean")
        frob = c1.spec.frobenius_power if kind is InnerProductKind.HERMITIAN else None
        n1, n2 = c1.n, c2.n
        dual_mask = tuple(
            tuple(not mask[dual_support_map(i, n1, kind, frob)][dual_support_map(j, n2, kind, frob)]
                  for j in range(n2))
            for i in range(n1))
        report["dual_support"] = _support_lines(dual_mask)
    return report


def cmd_qecc(args) -> dict:
    rs = args.construction == "rs-product"
    for name in (("code", "code_json", "matrix_file", "additive", "budget") if rs
                 else ("q", "mu1", "mu2")):  # the options only the other route reads
        value = getattr(args, name)
        if value is not None and value is not False:
            raise DescriptorError(f"--{name.replace('_', '-')} does not apply to "
                                  f"--construction {args.construction}")
    if rs:
        if args.q is None or args.mu1 is None or args.mu2 is None:
            raise DescriptorError("rs-product needs --q, --mu1, --mu2")
        predicted = rs_product_report(args.q, args.mu1, args.mu2)
        params = rs_report_qecc(predicted)
        rates = rate_comparison(args.q, args.mu1, args.mu2)
        return {"qecc": params.to_dict(), "rate_comparison": rates.to_dict(),
                "predicted": predicted.to_dict()}
    kind = _KIND_BY_CONSTRUCTION[args.construction]
    code = _under(_resolve_code(args), kind)
    params = qecc(code, kind, budget=args.budget)
    return {"source": _code_block(code, budget=args.budget), "qecc": params.to_dict()}


def _build_band(args) -> ConvStabilizer:
    c1 = parse_descriptor(args.code1)
    c2 = parse_descriptor(args.code2)
    kind = InnerProductKind(args.kind) if args.kind else c2.kinds[0]
    return conv_from_product(c1, _under(c2, kind), args.t, kind)


def _band_block(s: ConvStabilizer) -> dict:
    """The band and its orthogonality verdict; a self-orthogonal band also
    gets the quantum (n, k, m) per frame of its rows' stabilizers."""
    out = {
        "field_spec": _field_block(s.spec),
        "kind": str(s.kind),
        "block_shape": [s.block.nrows, s.block.ncols],
        "frame": s.frame,
        "overlap": s.overlap,
        "self_orthogonal_band": check_band_self_orthogonal(s),
    }
    if out["self_orthogonal_band"]:
        rows = s.rows_per_frame * (1 if s.kind is InnerProductKind.SYMPLECTIC else s.spec.ell)
        stabilizers, _ = stabilizer_count(s.spec, rows, s.kind)
        out["frame_params"] = {"n": s.frame, "k": s.frame - stabilizers, "m": s.overlap}
    fact = band_window_factorization_ok(s, 2)
    if fact is not None:
        out["window_factorization"] = fact
    return out


def cmd_conv(args) -> dict:
    s = _build_band(args)
    if args.conv_action == "build":
        report = _band_block(s)
        report["free_distance_upper_bound"] = free_distance_upper_bound(
            s, args.window, budget=args.budget)
        return {"band": report}
    if args.conv_action == "check":
        return {"band": _band_block(s)}
    # tailbite
    code = tail_biting(s, args.blocks)
    params = qecc(code, s.kind, args.budget)
    rank = code.dim
    return {
        "band": _band_block(s),
        "blocks": args.blocks,
        "tail_biting_code": _code_block(code, budget=args.budget, with_distance=False),
        "rank": rank,
        "expected_rank": args.blocks * s.rows_per_frame,
        "rank_deficient": rank < args.blocks * s.rows_per_frame,
        "qecc": params.to_dict(),
    }


# ---------------------------------------------------------------------------
# reference pipelines and golden reports

def _chain(code, kind, budget) -> dict:
    """The code, its dual under ``kind`` and the quantum code they give."""
    return {"code": _code_block(code, budget), "dual": _code_block(code.dual(kind), budget),
            "qecc": qecc(code, kind, budget).to_dict()}


def _pipeline_hamming_dual_chain(budget) -> dict:
    return _chain(hamming_dual(3, 2), InnerProductKind.EUCLIDEAN, budget)


def _pipeline_binary_product_chain(budget) -> dict:
    code = hamming_dual(3, 2)
    kind = InnerProductKind.EUCLIDEAN
    prod = product(code, code)
    return {
        "product": _code_block(prod, budget),
        **_product_conformance(code, code, prod, kind, budget),
        "qecc": qecc(prod, kind, budget).to_dict(),
    }


def _pipeline_hermitian_chain(budget) -> dict:
    code = quaternary_hamming_dual_5()
    kind = InnerProductKind.HERMITIAN
    prod = product(code, code)
    params = qecc(prod, kind, budget)
    return {
        **_chain(code, kind, budget),
        "product": _code_block(prod, budget),
        "product_dual_dimension": prod.dual(kind).k,
        "product_qecc": params.to_dict(),
    }


def _pipeline_additive_chain(budget) -> dict:
    c1 = simplex(2, 2)
    c2 = AdditiveCode.from_linear(quaternary_hamming_dual_5())
    kind = InnerProductKind.SYMPLECTIC
    prod = product(c1, c2)
    dual = prod.dual(kind)
    exhaustive = min_distance(dual, budget=budget)
    search = min_distance(dual, budget=0)  # forced onto the low-weight search
    params = qecc(prod, kind, budget)
    return {
        "factors": [_code_block(c1, budget), _code_block(c2, budget)],
        "product": _code_block(prod, budget),
        "dual_size": f"2^{dual.k_p}",
        "dual_distance_exhaustive": exhaustive.to_dict(),
        "dual_distance_search": {"lower": search.lower, "witness_weight": search.upper},
        "methods_agree": exhaustive.exact and search.exact and exhaustive.value == search.value,
        "qecc": params.to_dict(),
    }


def _pipeline_tail_biting(budget) -> dict:
    code = hamming_dual(3, 2)
    s = conv_from_product(code, code, 1, InnerProductKind.EUCLIDEAN)
    out = {}
    for blocks in (2, 3):
        tb = tail_biting(s, blocks)
        params = qecc(tb, s.kind, budget)
        out[f"N={blocks}"] = {
            "code": [tb.n, tb.k],
            "rank": tb.k,
            "expected_rank": blocks * s.rows_per_frame,
            "qecc": params.to_dict(),
        }
    return out


def _pipeline_conv_bands(budget) -> dict:
    code = hamming_dual(3, 2)
    out = {}
    for t in (1, 2):
        s = conv_from_product(code, code, t, InnerProductKind.EUCLIDEAN)
        block = _band_block(s)
        if t == 1:
            block["free_distance_upper_bound_w2"] = free_distance_upper_bound(s, 2, budget=budget)
        out[f"binary_t={t}"] = block
    c2 = AdditiveCode.from_linear(quaternary_hamming_dual_5())
    s = conv_from_product(simplex(2, 2), c2, 1, InnerProductKind.SYMPLECTIC)
    out["additive_t=1"] = _band_block(s)
    return out


def _pipeline_rs_product_grid(budget) -> dict:
    grid = {}
    for q in (4, 5, 7, 8):
        entries = []
        factors = {mu: rs_code(q, q - mu) for mu in range(1, q - 1)}  # each factor once
        for mu1 in range(1, q // 2):  # mu1 < (q-1)/2
            for mu2 in range(1, q - 1):
                rep = RsProductReport.of(factors[mu1], factors[mu2])
                entry = rep.to_dict()
                entry["mu"] = [mu1, mu2]
                entry["rectangle_certificate"] = rep.dual_certificate().to_dict()
                if q <= 5:  # enumerated or searched: the reference for the construction
                    cert = min_distance(rep.code.dual(InnerProductKind.EUCLIDEAN), budget=budget)
                    entry["certified_dual_distance"] = cert.to_dict()
                    entry["matches_stated"] = cert.exact and cert.value == rep.stated_dual_distance
                    entry["matches_corrected"] = (cert.exact
                                                  and cert.value == rep.expected_dual_distance)
                entries.append(entry)
        grid[f"q={q}"] = entries
    return grid


def _pipeline_rate_comparison(budget) -> dict:
    grid = []
    for q in (4, 5, 7, 8, 9):
        for mu in range(1, q - 1):
            rc = rate_comparison(q, mu, mu)
            grid.append(rc.to_dict())
    code = quaternary_hamming_dual_5()
    base, squared = ([c.n, c.n - stabilizer_count(c.spec, c.dim * c.field.ell,
                                                  InnerProductKind.HERMITIAN)[0]]
                     for c in (code, product(code, code)))  # Hermitian (n, k), no distance
    ratio = Fraction(squared[1], squared[0]) / Fraction(base[1], base[0])
    squared_example = {"base": base, "squared": squared, "rate_ratio": str(ratio),
                       "more_than_three_times": ratio > 3}
    return {"grid": grid, "squared_length_example": squared_example}


PIPELINES = {
    "hamming-dual-chain": _pipeline_hamming_dual_chain,
    "binary-product-chain": _pipeline_binary_product_chain,
    "hermitian-chain": _pipeline_hermitian_chain,
    "additive-chain": _pipeline_additive_chain,
    "tail-biting": _pipeline_tail_biting,
    "conv-bands": _pipeline_conv_bands,
    "rs-product-grid": _pipeline_rs_product_grid,
    "rate-comparison": _pipeline_rate_comparison,
}


def _diff_paths(expected, actual, prefix="") -> list[str]:
    if expected == actual:  # the same leaf comparisons, made in C
        return []
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                out.append(f"{prefix}/{key} (unexpected)")
            elif key not in actual:
                out.append(f"{prefix}/{key} (missing)")
            else:
                out.extend(_diff_paths(expected[key], actual[key], f"{prefix}/{key}"))
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{prefix} (length {len(expected)} != {len(actual)})"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(_diff_paths(e, a, f"{prefix}[{i}]"))
        return out
    return [f"{prefix}: expected {expected!r}, got {actual!r}"]


def _golden_dir() -> Path:
    return Path(str(resources.files("qproduct"))) / "golden"


def cmd_reproduce(args) -> dict:
    failures = {}
    golden_dir = _golden_dir()
    for name, builder in PIPELINES.items():
        report = builder(None)  # the goldens are written at the default budget
        path = golden_dir / f"{name}.json"
        if args.write_golden:
            golden_dir.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        elif not path.exists():
            failures[name] = ["golden report missing"]
        elif diffs := _diff_paths(json.loads(path.read_text()), report, prefix=name):
            failures[name] = diffs[:20]
    summary = {
        "pipelines": sorted(PIPELINES),
        "passed": sorted(set(PIPELINES) - set(failures)),
        "failed": dict(sorted(failures.items())),
        "ok": not failures,
    }
    if args.write_golden:
        summary["written"] = str(golden_dir)
    return summary


# ---------------------------------------------------------------------------
# rendering and entry point

def _render_pretty(report: dict, out) -> None:
    def walk(node, indent=0):
        pad = "  " * indent
        if isinstance(node, dict):
            for key, value in node.items():
                if isinstance(value, (dict, list)) and value and not _is_scalar_list(value):
                    print(f"{pad}{key}:", file=out)
                    walk(value, indent + 1)
                else:
                    print(f"{pad}{key}: {_fmt(value)}", file=out)
        elif isinstance(node, list):
            for value in node:
                if isinstance(value, (dict, list)):
                    walk(value, indent)
                    print(file=out)
                else:
                    print(f"{pad}- {_fmt(value)}", file=out)

    def _is_scalar_list(value):
        return isinstance(value, list) and all(not isinstance(v, (dict, list)) for v in value)

    def _fmt(value):
        if isinstance(value, list):
            return "[" + ", ".join(str(v) for v in value) + "]"
        return value

    walk(report)


def _emit(args, report: dict) -> None:
    envelope = {
        "tool": "qproduct",
        "version": __version__,
        "invocation": args._argv,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "report": report,
    }
    if getattr(args, "pretty", False):
        out = sys.stdout
        if args.out:
            out = open(args.out, "w")
        try:
            _render_pretty(report, out)
        finally:
            if args.out:
                out.close()
        return
    text = json.dumps(envelope, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _add_common(parser, budget: bool = False) -> None:
    if budget:  # only the verbs that certify a distance read it
        parser.add_argument("--budget", type=int, help="max codewords for exhaustive "
                            f"enumeration (default {DEFAULT_BUDGET})")
    parser.add_argument("--out", help="write the report to a file instead of stdout")
    parser.add_argument("--pretty", action="store_true", help="human-readable rendering")


def _add_code_source(parser) -> None:
    parser.add_argument("--code", help="catalog descriptor expression")
    parser.add_argument("--code-json", help="code descriptor JSON file")
    parser.add_argument("--matrix-file", help="matrix text file (header 'q r c', then r rows)")
    parser.add_argument("--additive", action="store_true",
                        help="treat a matrix file as additive generators")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qproduct",
        description="Self-orthogonal product codes and the quantum codes they induce")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="describe a built-in field")
    p.add_argument("--q", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("build", help="resolve a code and certify its parameters")
    _add_code_source(p)
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("dual", help="dual code under a chosen inner product")
    _add_code_source(p)
    p.add_argument("--kind", choices=[str(k) for k in InnerProductKind], default="euclidean")
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("distance", help="minimum-distance certificate")
    _add_code_source(p)
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("product", help="product code with conformance checks")
    p.add_argument("--code1", required=True)
    p.add_argument("--code2", required=True)
    p.add_argument("--kind", choices=["euclidean", "hermitian"], default="euclidean")
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("product-additive", help="prime-field (x) additive product")
    p.add_argument("--code1", required=True, help="factor over the prime field")
    p.add_argument("--code2", required=True, help="additive factor (additive(...) descriptor)")
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_product, kind="symplectic")

    p = sub.add_parser("spectrum", help="support grid of a bicyclic product spectrum")
    p.add_argument("--code1", required=True,
                   help="rs(q, delta), cyclic(q, n, roots...) or the euclidean dual(...) of one")
    p.add_argument("--code2", required=True)
    p.add_argument("--dual", action="store_true", help="also print the dual support")
    p.add_argument("--kind", choices=["euclidean", "hermitian"],
                   help="inner product of the dual support, with --dual (default euclidean)")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("qecc", help="derive quantum code parameters")
    p.add_argument("--construction", required=True,
                   choices=["css", "hermitian", "symplectic", "rs-product"])
    _add_code_source(p)
    p.add_argument("--q", type=int)
    p.add_argument("--mu1", type=int)
    p.add_argument("--mu2", type=int)
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_qecc)

    p = sub.add_parser("conv", help="convolutional stabilizer bands")
    conv_sub = p.add_subparsers(dest="conv_action", required=True)
    for action, extra in (("build", "build a band block and check it"),
                          ("check", "orthogonality verdict; exit 1 if the band is not "
                                    "self-orthogonal"),
                          ("tailbite", "wrap into a tail-biting block code")):
        cp = conv_sub.add_parser(action, help=extra)
        cp.add_argument("--code1", required=True)
        cp.add_argument("--code2", required=True)
        cp.add_argument("--t", type=int, default=1, help="overlap in multiples of n2")
        cp.add_argument("--kind", choices=[str(k) for k in InnerProductKind],
                        help="inner product of the band (default: code2's own, euclidean "
                             "for a linear code2 and symplectic for an additive one)")
        if action == "build":
            cp.add_argument("--window", type=int, default=2,
                            help="window blocks for the free-distance bound")
        if action == "tailbite":
            cp.add_argument("--blocks", type=int, required=True)
        _add_common(cp, budget=action != "check")
        cp.set_defaults(func=cmd_conv)

    p = sub.add_parser("reproduce-paper",
                       help="re-run the bundled reference pipelines and diff against goldens")
    p.add_argument("--write-golden", action="store_true",
                   help="regenerate the golden reports instead of diffing")
    _add_common(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = argv
    try:
        report = args.func(args)
    except (DescriptorError, ValueError, OSError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(error, indent=2, sort_keys=True))
        return 1
    _emit(args, report)
    if args.command == "reproduce-paper" and not report.get("ok", False) \
            and not args.write_golden:
        return 1
    if args.command == "conv" and args.conv_action == "check" \
            and not report["band"]["self_orthogonal_band"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

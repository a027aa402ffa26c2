"""The three workloads: seeded job lists over the public ``qproduct`` API and
the checks on every job's output.

A job is one input taken through to a checked result.  ``make_jobs``
returns ``(name, run)`` pairs; ``run()`` returns an :class:`Outcome`.  Every
job builds its codes afresh from plain inputs, so passes repeat the same
work and no pass profits from objects cached by an earlier one.  The
checks do not use the enumeration engine under test: golden reports, the
MacWilliams identity against a brute-force span of the (small) primal
code, and witnesses re-checked by membership or orthogonality.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path


@dataclass
class Outcome:
    certificates: list[tuple[int, int | None]] = field(default_factory=list)  # (lower, upper)
    problems: list[str] = field(default_factory=list)


def _weight(word) -> int:
    return sum(1 for v in word if v)


def _check_bounds(label: str, lower: int, upper: int | None, witness, out: Outcome) -> None:
    out.certificates.append((lower, upper))
    if upper is not None and lower > upper:
        out.problems.append(f"{label}: lower {lower} > upper {upper}")
    if witness is not None and _weight(witness) != upper:
        out.problems.append(f"{label}: witness weight {_weight(witness)} != upper {upper}")


def check_certificate(label: str, cert, code, out: Outcome) -> None:
    """Bounds in order, witness of weight ``upper`` that lies in ``code``."""
    _check_bounds(label, cert.lower, cert.upper, cert.witness, out)
    if cert.witness is not None and not code.contains(cert.witness):
        out.problems.append(f"{label}: witness is not a codeword")


def in_dual(code, word, kind: str) -> bool:
    """Membership of ``word`` in the dual of ``code``: orthogonality to every
    generator of ``code`` under the library's form, computed here."""
    spec = code.spec
    add, mul = spec.add, spec.mul
    conj = (lambda v: v) if kind == "euclidean" else spec.frobenius_q
    for g in code.describe()["generator"]:
        acc = 0
        for a, b in zip(g, word):
            if a and b:
                acc = add(acc, mul(a, conj(b)))
        if kind == "symplectic":
            acc = spec.trace_to_prime(acc)
        if acc:
            return False
    return True


def check_dual_certificate(label: str, cert, primal, kind: str, out: Outcome) -> None:
    """Like check_certificate, for a certificate of the dual of ``primal``."""
    _check_bounds(label, cert.lower, cert.upper, cert.witness, out)
    if cert.witness is not None and not in_dual(primal, cert.witness, kind):
        out.problems.append(f"{label}: witness is not in the {kind} dual")


def span_weights(code) -> dict[int, int]:
    """Weight distribution of a small code by brute force over its span,
    walked depth-first so that no list of codewords is held."""
    spec = code.spec
    desc = code.describe()
    scalars = range(spec.q if desc["kind"] == "linear" else spec.p)
    multiples = [[tuple(spec.mul(c, v) for v in row) for c in scalars]
                 for row in desc["generator"]]
    counts: dict[int, int] = {}

    def walk(depth: int, word: tuple) -> None:
        if depth == len(multiples):
            w = _weight(word)
            counts[w] = counts.get(w, 0) + 1
            return
        for m in multiples[depth]:
            walk(depth + 1, tuple(spec.add(a, b) for a, b in zip(word, m)))

    walk(0, (0,) * code.n)
    return counts


def macwilliams(weights: dict[int, int], n: int, q: int) -> dict[int, int] | None:
    """Dual weight distribution B_j = |C|^-1 sum_i A_i K_j(i) over an alphabet
    of size q (MacWilliams & Sloane, ch. 5); None if it is not integral."""
    size = sum(weights.values())
    out = {}
    for j in range(n + 1):
        total = sum(a * sum((-1) ** s * (q - 1) ** (j - s) * comb(i, s) * comb(n - i, j - s)
                            for s in range(j + 1))
                    for i, a in weights.items())
        if total % size:
            return None
        if total:
            out[j] = total // size
    return out


def random_rows(rng: random.Random, spec, n: int, rank: int, rows: int) -> list[list[int]]:
    """``rows`` x n generator of a random code of the given rank: a basis that
    is the identity on random pivot columns and random elsewhere, plus
    random combinations of it, in random order."""
    pivots = rng.sample(range(n), rank)
    basis = []
    for i in range(rank):
        row = [rng.randrange(spec.q) for _ in range(n)]
        for j, col in enumerate(pivots):
            row[col] = 1 if i == j else 0
        basis.append(row)
    out = [list(r) for r in basis]
    for _ in range(rows - rank):
        acc = [0] * n
        for r in basis:
            c = rng.randrange(spec.q)
            acc = [spec.add(a, spec.mul(c, v)) for a, v in zip(acc, r)]
        out.append(acc)
    rng.shuffle(out)
    return out


def nullspan(_name):
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# reproduce: the eight reference pipelines against their goldens

REPRODUCE_FIELDS = (2, 3, 4, 5, 7, 8)


def _certificate_dicts(node):
    if isinstance(node, dict):
        if {"lower", "upper", "lower_method"} <= node.keys():
            yield node
        for value in node.values():
            yield from _certificate_dicts(value)
    elif isinstance(node, list):
        for value in node:
            yield from _certificate_dicts(value)


def reproduce_jobs(lib, seed: int, span=nullspan):
    golden_dir = Path(lib.cli.__file__).parent / "golden"
    names = sorted(lib.cli.PIPELINES)
    random.Random(seed).shuffle(names)
    jobs = []
    for name in names:
        text = (golden_dir / f"{name}.json").read_text()
        jobs.append((name, _reproduce_job(lib, name, text, json.loads(text), span)))
    return jobs


def _reproduce_job(lib, name: str, golden_text: str, golden: dict, span):
    def run() -> Outcome:
        builder = lib.cli.PIPELINES[name]
        kwargs = {"budget": None}
        # pass `threads` only while the builders still require it
        if "threads" in inspect.signature(builder).parameters:
            kwargs["threads"] = 1
        with span(f"cli.pipeline.{name}"):
            report = builder(**kwargs)
        out = Outcome()
        with span("cli.golden_diff"):
            out.problems += lib.cli._diff_paths(golden, report, prefix=name)[:5]
            if json.dumps(report, indent=2, sort_keys=True) + "\n" != golden_text:
                out.problems.append(f"{name}: report is not byte-identical to its golden")
        for i, cert in enumerate(_certificate_dicts(report)):
            _check_bounds(f"{name}#{i}", cert["lower"], cert["upper"], cert.get("witness"), out)
        return out

    return run


# ---------------------------------------------------------------------------
# enumerate: transfer-construction products whose duals are scanned in full

ENUMERATE_FIELDS = (2, 3, 4, 5)

# (C2 descriptor, construction, field of C1, C1 length, C1 rank, C1 generator
# rows).  C1 is random; its shape is fixed so every seed scans the same
# number of words.  Full-space, zero and rank-deficient C1 are included.
# The five one-row rs(5,4) slots cost about the same for every seed; there
# are five so that the median job latency falls among them, not into the
# seed-dependent gap between the 0.08 s and the 0.15 s jobs.
ENUMERATE_SLOTS = (
    ("hamming_dual(3,2)", "css", 2, 4, 2, 2),                           # dual 2^22 words
    ("hamming_dual(3,2)", "css", 2, 3, 1, 1),                           # 2^18
    ("hamming_dual(3,2)", "css", 2, 3, 3, 3),                           # full-space C1, 2^12
    ("hamming_dual(3,2)", "css", 2, 2, 0, 1),                           # zero C1, 2^14
    ("quaternary_hamming_dual_5", "hermitian", 4, 2, 1, 1),             # 4^8
    ("quaternary_hamming_dual_5", "hermitian", 4, 2, 1, 2),             # rank-deficient, 4^8
    ("quaternary_hamming_dual_5", "hermitian", 4, 3, 3, 3),             # full-space C1, 4^9
    ("additive(quaternary_hamming_dual_5)", "symplectic", 2, 2, 1, 1),  # 2^16
    ("additive(quaternary_hamming_dual_5)", "symplectic", 2, 2, 1, 1),  # 2^16
    ("additive(quaternary_hamming_dual_5)", "symplectic", 2, 3, 3, 3),  # full-space C1, 2^18
    ("hamming(2,3)", "css", 3, 3, 1, 1),                                # tetracode, 3^10
    ("hamming(2,3)", "css", 3, 3, 1, 1),                                # 3^10
    ("hamming(2,3)", "css", 3, 3, 1, 2),                                # rank-deficient, 3^10
    ("hamming(2,3)", "css", 3, 4, 3, 3),                                # 3^10
    ("hamming(2,3)", "css", 3, 4, 3, 3),                                # 3^10
    ("rs(5,4)", "css", 5, 2, 1, 1),                                     # 5^7
    ("rs(5,4)", "css", 5, 2, 1, 1),                                     # 5^7
    ("rs(5,4)", "css", 5, 2, 1, 1),                                     # 5^7
    ("rs(5,4)", "css", 5, 2, 1, 1),                                     # 5^7
    ("rs(5,4)", "css", 5, 2, 1, 1),                                     # 5^7
    ("rs(5,4)", "css", 5, 2, 1, 2),                                     # rank-deficient, 5^7
    ("rs(5,4)", "css", 5, 2, 2, 2),                                     # full-space C1, 5^6
    ("rs(5,4)", "css", 5, 2, 0, 1),                                     # zero C1, 5^8
)


def enumerate_jobs(lib, seed: int, span=nullspan):
    rng = random.Random(seed)
    jobs = []
    for slot in ENUMERATE_SLOTS:
        desc, construction, q1, n1, rank, nrows = slot
        rows = random_rows(rng, lib.galois.GF(q1), n1, rank, nrows)
        name = f"{construction}:{desc}x[{n1},{rank}]_{q1}"
        jobs.append((name, _enumerate_job(lib, desc, construction, q1, n1, rows)))
    return jobs


def _enumerate_job(lib, desc: str, construction: str, q1: int, n1: int, rows):
    def run() -> Outcome:
        kind = lib.matrix.InnerProductKind
        c2 = lib.catalog.parse_descriptor(desc)
        c1 = lib.code.LinearCode.from_rows(lib.galois.GF(q1), rows, n=n1)
        if construction == "symplectic":
            prod = lib.product.product_additive(c1, c2)
            params = lib.quantum.symplectic_qecc(prod)
            dual = prod.symplectic_dual()
        else:
            prod = lib.product.product(c1, c2)
            if construction == "hermitian":
                params = lib.quantum.hermitian_qecc(prod)
                dual = prod.dual(kind.HERMITIAN)
            else:
                params = lib.quantum.css_qecc(prod)
                dual = prod.dual(kind.EUCLIDEAN)
        counts = lib.code.weight_enumerator(dual)
        stabilizer = lib.quantum.stabilizer_distance(prod, construction)

        out = Outcome()
        cert = params.distance
        check_certificate("qecc", cert, dual, out)
        if not cert.exact:
            out.problems.append(f"qecc: enumerable dual certified only as [{cert.lower}, {cert.upper}]")
        if counts != macwilliams(span_weights(prod), prod.n, prod.spec.q):
            out.problems.append("weight enumerator of the dual violates the MacWilliams identity")
        lightest = min((w for w in counts if w), default=None)
        if cert.exact and not cert.degenerate and cert.value != lightest:
            out.problems.append(f"certified distance {cert.value} != lightest dual word {lightest}")
        if stabilizer is None:
            if params.k != 0:
                out.problems.append(f"no stabilizer distance for a code with k = {params.k}")
        elif stabilizer < cert.lower or stabilizer not in counts:
            out.problems.append(f"stabilizer distance {stabilizer} below the certificate or absent")
        return out

    return run


# ---------------------------------------------------------------------------
# search: certification above the enumeration budget

SEARCH_FIELDS = (2, 3, 4, 7, 8, 9, 11)

# (q, mu1, mu2) for `qecc --construction rs-product`; true dual distance is
# 1 + min(mu1, mu2).  q = 13 and 16 are left out: one job there would
# dominate every pass.
RS_GRID = ((7, 1, 1), (7, 2, 2), (7, 2, 5), (8, 3, 3), (8, 3, 6), (9, 3, 5), (9, 3, 7),
           (11, 2, 3), (11, 4, 4))
# (q, n, rank, generator rows) of random linear codes above 2^24 words,
# including a rank-deficient generator and a full space
RANDOM_LINEAR = ((4, 20, 13, 13), (4, 24, 13, 13), (8, 14, 9, 9), (8, 20, 9, 11),
                 (9, 13, 8, 8), (9, 18, 8, 8), (9, 9, 9, 9))
# (n, GF(2)-rank) of random additive codes over GF(4), above 2^24 words; their
# cost swings with the distance found, so there is one, to keep p50 steady
RANDOM_ADDITIVE = ((20, 25),)
TAIL_BITING_BLOCKS = (2, 3, 4, 5, 6)
FREE_DISTANCE_WINDOWS = (2, 3, 4)


def search_jobs(lib, seed: int, span=nullspan):
    rng = random.Random(seed)
    jobs = [(f"rs-product:q={q},mu={m1},{m2}", _rs_job(lib, q, m1, m2)) for q, m1, m2 in RS_GRID]
    for i, (q, n, rank, nrows) in enumerate(RANDOM_LINEAR):
        rows = random_rows(rng, lib.galois.GF(q), n, rank, nrows)
        build = functools.partial(lib.code.LinearCode.from_rows, lib.galois.GF(q), rows, n=n)
        jobs.append((f"linear#{i}:[{n},{rank}]_{q}", _min_distance_job(lib, build)))
    binary, gf4 = lib.galois.GF(2), lib.galois.GF(4)
    for i, (n, rank) in enumerate(RANDOM_ADDITIVE):
        # a random GF(2)-basis of the expanded space, two digits per symbol
        bits = random_rows(rng, binary, 2 * n, rank, rank)
        rows = [[gf4.from_digits(r[2 * j:2 * j + 2]) for j in range(n)] for r in bits]
        build = functools.partial(lib.code.AdditiveCode, gf4, rows, n=n)
        jobs.append((f"additive#{i}:({n},2^{rank})_4", _min_distance_job(lib, build)))
    for blocks in TAIL_BITING_BLOCKS:
        jobs.append((f"tail-biting:N={blocks}", _tail_biting_job(lib, blocks)))
    for band in ("binary", "additive"):
        jobs.append((f"free-distance:{band}", _free_distance_job(lib, band)))
    return jobs


def _rs_job(lib, q: int, mu1: int, mu2: int):
    def run() -> Outcome:
        params = lib.quantum.rs_prod_qecc(q, mu1, mu2)
        dual_cert = lib.cyclic.rs_product_dual_certificate(q, q - mu1, q - mu2)
        out = Outcome()
        factors = [lib.cyclic.rs_code(q, q - mu).code for mu in (mu1, mu2)]
        prod = lib.product.product(*factors)
        true = 1 + min(mu1, mu2)
        for label, cert in (("qecc", params.distance), ("dual_certificate", dual_cert)):
            check_dual_certificate(label, cert, prod, "euclidean", out)
            if not cert.lower <= true <= (cert.upper or true):
                out.problems.append(f"{label}: [{cert.lower}, {cert.upper}] misses {true}")
        return out

    return run


def _min_distance_job(lib, build):
    """Certify the code that ``build()`` constructs from the job's rows."""
    def run() -> Outcome:
        code = build()
        out = Outcome()
        check_certificate("min_distance", lib.code.min_distance(code), code, out)
        return out

    return run


def _hamming_dual_band(lib):
    c = lib.catalog.hamming_dual(3, 2)
    return lib.convolutional.conv_from_product(c, c, 1, lib.matrix.InnerProductKind.EUCLIDEAN)


def _tail_biting_job(lib, blocks: int):
    def run() -> Outcome:
        band = _hamming_dual_band(lib)
        params = lib.convolutional.tail_biting_qecc(band, blocks)
        out = Outcome()
        code = lib.convolutional.tail_biting(band, blocks)
        check_dual_certificate("qecc", params.distance, code, "euclidean", out)
        return out

    return run


def _free_distance_job(lib, band: str):
    def run() -> Outcome:
        if band == "binary":
            s = _hamming_dual_band(lib)
        else:
            c2 = lib.catalog.parse_descriptor("additive(quaternary_hamming_dual_5)")
            s = lib.convolutional.conv_from_product(lib.catalog.simplex(2, 2), c2, 1,
                                                    lib.matrix.InnerProductKind.SYMPLECTIC)
        bounds = [lib.convolutional.free_distance_upper_bound(s, w) for w in FREE_DISTANCE_WINDOWS]
        out = Outcome()
        if any(b is None or b < 1 for b in bounds):
            out.problems.append(f"free-distance bounds {bounds} missing or below 1")
        elif any(a < b for a, b in zip(bounds, bounds[1:])):
            # a word inside a window stays a dual word of every wider window
            out.problems.append(f"free-distance bounds {bounds} grow with the window")
        return out

    return run


# name -> (fields built in set-up, job-list builder, minimum passes per run).
# The minimum pass count fixes the tail percentile (see run.tail); it is set
# so that the tail lands inside the cost band of one slow, seed-independent
# job: rs-product-grid on reproduce, the zero-C1 rs(5,4) job on enumerate,
# the additive free-distance band on search.
WORKLOADS = {
    "reproduce": (REPRODUCE_FIELDS, reproduce_jobs, 6),
    "enumerate": (ENUMERATE_FIELDS, enumerate_jobs, 6),
    "search": (SEARCH_FIELDS, search_jobs, 3),
}

#!/usr/bin/env python3
"""Time and first-use memory of the exhaustive scan, of a weight
enumerator found by the MacWilliams transform, of an exhaustive distance
certificate, of the low-weight search, of the Reed-Solomon product dual
certificate and of the matrix layer's rref, kernel and Gram matrix, per
shape.

    python3 scripts/scan_profile.py [--repeats 3]

Each shape runs in its own fresh interpreter, so that its first call pays
for the numpy kernels it touches for the first time, as the first call of
a long-running process would.

A scan shape is a field, a length, a number of generator rows, and with
or without a weight enumerator; its rows are random, seeded, and the same
on every run.  The transform shape is ``weight_enumerator`` of the
2^22-word Euclidean dual of hamming_dual(3,2) x [4,2]_2 (the CSS job of
the enumerate workload), found from one counted scan of the 2^6-word
product and the transform; each call starts without cached counts, and
the codes are built before the clock starts.  The min_distance shape is
the certificate of the (15, 2^22) symplectic dual of the additive-chain
pipeline, simplex(2,2) x the additive quaternary_hamming_dual_5: one
counted scan of the 2^8-word product, the transform, and a walk of the
dual that stops at its first word of the least weight; each call starts
without cached counts (compare the full walk of the random rows of the
same shape, ``scan q=4 n=15 rows=22``).  A search shape is the complete
weight-4 search of a code above the enumeration budget: the Euclidean
dual of an RS product rs(q, q-mu1) x rs(q, q-mu2), which no certificate
searches any more but which shows what the search costs at these sizes,
or the 91-column dual of the binary hamming_dual(3,2) band, the window
of its free-distance bound, where an early pair gives a weight-3 word.
The code is built before the clock starts; each call builds its table of
syndrome columns from the code's parity rows, with no elimination.  A
certificate shape is ``RsProductReport.dual_certificate`` of such a
product above the budget: ``code.product_dual_certificate`` over the two
factor duals, each certified by its BCH bound with a row of its rref basis
as witness; the report, with its product, is built before the clock
starts, and each call builds the two factor duals afresh.  For each shape this prints

  first_rss_kib  RSS growth over the first call (kernel code pages
                 faulted in plus the call's arrays), to its peak when the
                 call raised the process's peak RSS, in KiB
  first_ms       wall time of the first call
  ms             median wall time of the repeated calls (a search repeats
                 from the parity rows, building its syndrome table afresh)
  words_per_s    words scanned per second at that median (scans only)

A layer shape is ``Matrix.rref``, ``Matrix.kernel`` or the Euclidean
``Matrix.gram`` of a matrix with itself, on one of three matrices: the
54 x 252 GF(2) generator of tail_biting(band, 6), the band being
hamming_dual(3,2) x hamming_dual(3,2) with t = 1, before its elimination
(GF(2) rows packed into ints, a prime-field Gram as one int64 product);
13 x 24 random rows over GF(4) (the extension field's log/exp tables);
and the 6 x 10 check rows of rs(11, 7) (the int64 Gram over GF(11)).
Each matrix is built here and handed to its shape's interpreter as rows,
so that no elimination or Gram runs there before the first timed call.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (field order q = p^ell, length n, GF(p)-rows K, with counts): p^K words
SCAN_SHAPES = (
    (2, 28, 22, False),   # the binary 2^22-word dual of the enumerate workload
    (2, 28, 22, True),
    ("transform",),       # a dual of that shape: its weight enumerator by the transform
    (4, 15, 22, False),   # the (15, 2^22) symplectic dual of the additive chain
    ("min_distance",),    # that dual's certificate, stopped at its known minimum
    (4, 15, 22, True),
    (8, 30, 12, False),   # GF(8) with 3n > 64
    (2, 100, 14, True),   # p = 2 with n > 64: two lanes per plane
    (3, 16, 10, False),
    (3, 16, 10, True),
    (5, 8, 8, True),
    (9, 12, 8, True),     # odd characteristic, two digits per symbol
)

# ("rs", q, mu1, mu2) or ("band", window blocks); the RS dual distance is 1 + min(mu1, mu2)
SEARCH_SHAPES = (
    ("rs", 8, 3, 3),
    ("rs", 9, 3, 5),
    ("rs", 11, 3, 3),
    ("rs", 11, 3, 7),
    ("rs", 13, 3, 3),
    ("rs", 13, 3, 9),
    ("rs", 16, 3, 3),
    ("rs", 16, 3, 12),
    ("rs", 11, 4, 4),     # d >= 5: every pair is formed and sorted, nothing is found
    ("rs", 13, 5, 5),
    ("rs", 16, 7, 7),
    ("band", 2),          # 91 columns, weight 3 in the first chunk
)

# ("cert", q, mu1, mu2): the certificates of the qecc --construction rs-product verbs
CERT_SHAPES = (
    ("cert", 11, 3, 7),
    ("cert", 11, 4, 4),
    ("cert", 13, 3, 8),
    ("cert", 13, 5, 5),
    ("cert", 16, 3, 12),
    ("cert", 16, 7, 7),
)

LAYER_OPS = ("rref", "kernel", "gram")


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def first_and_repeats(call, repeats: int) -> tuple[int, float, float]:
    """RSS growth and time of the first call, and the median of the repeats."""
    def timed() -> float:
        t0 = time.perf_counter()
        call()
        return time.perf_counter() - t0

    before, peak_before = rss_bytes(), peak_rss_bytes()
    first = timed()
    # the peak counts only if the call raised it: a peak left over from the
    # imports would otherwise read as growth
    after, peak_after = rss_bytes(), peak_rss_bytes()
    growth = max(after, peak_after if peak_after > peak_before else after) - before
    return growth, first, statistics.median(timed() for _ in range(repeats))


def profile_scan(q: int, n: int, k: int, with_counts: bool, repeats: int) -> dict:
    """One scan shape, in this interpreter."""
    from qproduct.code import _exhaustive_scan
    from qproduct.galois import GF

    spec = GF(q)
    rng = random.Random(q * 1000 + n * 10 + k)
    rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
    growth, first, median = first_and_repeats(
        lambda: _exhaustive_scan(spec, rows, n, [0] * (n + 1) if with_counts else None), repeats)
    return {"shape": f"scan q={q} n={n} rows={k}{' counts' if with_counts else ''}",
            "first_rss_kib": round(growth / 1024), "first_ms": round(first * 1e3, 2),
            "ms": round(median * 1e3, 2), "words_per_s": round(spec.p**k / median)}


def profile_transform(repeats: int) -> dict:
    """The transform shape, in this interpreter."""
    from qproduct.catalog import hamming_dual
    from qproduct.code import LinearCode, weight_enumerator
    from qproduct.galois import GF
    from qproduct.matrix import InnerProductKind
    from qproduct.product import product

    prod = product(LinearCode.from_rows(GF(2), [[1, 1, 0, 0], [0, 0, 1, 1]]), hamming_dual(3, 2))
    dual = prod.dual(InnerProductKind.EUCLIDEAN)

    def enumerate_dual() -> None:
        prod._weights = dual._weights = None  # count afresh each time
        weight_enumerator(dual)

    growth, first, median = first_and_repeats(enumerate_dual, repeats)
    return {"shape": f"transform n={dual.n} dual=2^{dual.dim}",
            "first_rss_kib": round(growth / 1024), "first_ms": round(first * 1e3, 2),
            "ms": round(median * 1e3, 2), "words_per_s": ""}


def profile_min_distance(repeats: int) -> dict:
    """The min_distance shape, in this interpreter."""
    from qproduct.catalog import quaternary_hamming_dual_5, simplex
    from qproduct.code import AdditiveCode, min_distance
    from qproduct.product import product_additive

    prod = product_additive(simplex(2, 2), AdditiveCode.from_linear(quaternary_hamming_dual_5()))
    dual = prod.symplectic_dual()

    def certify() -> None:
        prod._weights = dual._weights = None  # count and walk afresh each time
        min_distance(dual)

    growth, first, median = first_and_repeats(certify, repeats)
    return {"shape": f"min_distance n={dual.n} dual=2^{dual.dim}",
            "first_rss_kib": round(growth / 1024), "first_ms": round(first * 1e3, 2),
            "ms": round(median * 1e3, 2), "words_per_s": ""}


def search_code(shape: tuple):
    """The code of a search shape."""
    from qproduct.catalog import hamming_dual
    from qproduct.code import spanned_code
    from qproduct.convolutional import band_window, conv_from_product
    from qproduct.cyclic import rs_code
    from qproduct.galois import GF
    from qproduct.matrix import InnerProductKind
    from qproduct.product import product

    euclidean = InnerProductKind.EUCLIDEAN
    if shape[0] == "rs":
        _, q, mu1, mu2 = shape
        return product(rs_code(GF(q), q - mu1), rs_code(GF(q), q - mu2)).dual(euclidean)
    s = conv_from_product(hamming_dual(3, 2), hamming_dual(3, 2), 1, euclidean)
    width = shape[1] * s.frame + s.overlap
    rows = band_window(s, shape[1] + 1).take_columns(range(width)).rows
    return spanned_code(euclidean, s.spec, rows, width).dual(euclidean)


def profile_search(shape: tuple, repeats: int) -> dict:
    """One search shape, in this interpreter."""
    from qproduct import code as code_module

    code = search_code(shape)
    found = []

    def search() -> None:
        code.__dict__.pop("_syndromes", None)  # search from the parity rows each time
        found.append(code_module.find_low_weight_word(code, 4))

    growth, first, median = first_and_repeats(search, repeats)
    weight = None if found[0] is None else sum(1 for v in found[0] if v)
    name = "rs q={} mu={},{}".format(*shape[1:]) if shape[0] == "rs" else "band"
    return {"shape": f"search {name} n={code.n} -> {weight}",
            "first_rss_kib": round(growth / 1024), "first_ms": round(first * 1e3, 2),
            "ms": round(median * 1e3, 2)}


def profile_certificate(shape: tuple, repeats: int) -> dict:
    """One certificate shape, in this interpreter."""
    from qproduct.code import enumeration_budget
    from qproduct.cyclic import rs_product_params

    _, q, mu1, mu2 = shape
    rep = rs_product_params(q, q - mu1, q - mu2)
    if q ** rep.dual_dimension <= enumeration_budget():
        raise AssertionError(f"{shape}: the dual is within the budget")
    certs = []

    def certify() -> None:
        for factor in rep.code._factors:
            factor._dual_cache.clear()  # build the factor duals afresh each time
        certs.append(rep.dual_certificate())

    growth, first, median = first_and_repeats(certify, repeats)
    cert = certs[0]
    return {"shape": f"cert rs q={q} mu={mu1},{mu2} n={rep.length} -> "
                     f"[{cert.lower}, {cert.upper}]",
            "first_rss_kib": round(growth / 1024), "first_ms": round(first * 1e3, 3),
            "ms": round(median * 1e3, 3)}


def layer_matrices() -> list[tuple[int, list]]:
    """(q, rows) of each layer matrix."""
    from qproduct import convolutional
    from qproduct.catalog import hamming_dual
    from qproduct.code import _check_rows
    from qproduct.galois import GF
    from qproduct.matrix import InnerProductKind

    band = convolutional.conv_from_product(hamming_dual(3, 2), hamming_dual(3, 2), 1,
                                           InnerProductKind.EUCLIDEAN)
    wrapped = []
    spanned_code = convolutional.spanned_code
    convolutional.spanned_code = lambda kind, spec, rows, n: wrapped.append(rows.tolist())
    try:
        convolutional.tail_biting(band, 6)  # its rows, before spanned_code reduces them
    finally:
        convolutional.spanned_code = spanned_code
    rng = random.Random(13 * 24)
    return [(2, wrapped[0]),
            (4, [[rng.randrange(4) for _ in range(24)] for _ in range(13)]),
            (11, _check_rows(GF(11), 10, range(6)).array.tolist())]


def profile_layer(op: str, q: int, rows: list, repeats: int) -> dict:
    """One layer shape, in this interpreter."""
    from qproduct.galois import GF
    from qproduct.matrix import Matrix

    m = Matrix(GF(q), rows, ncols=len(rows[0]))
    call = {"rref": m.rref, "kernel": m.kernel, "gram": lambda: m.gram(m)}[op]
    growth, first, median = first_and_repeats(call, repeats)
    return {"shape": f"{op} GF({q}) {m.nrows}x{m.ncols}",
            "first_rss_kib": round(growth / 1024), "first_ms": round(first * 1e3, 3),
            "ms": round(median * 1e3, 3)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--shape", help=argparse.SUPPRESS)  # JSON shape: run it here
    args = parser.parse_args()
    if args.shape:
        sys.path.insert(0, str(SRC))
        shape = json.loads(args.shape)
        if shape[0] == "transform":
            result = profile_transform(args.repeats)
        elif shape[0] == "min_distance":
            result = profile_min_distance(args.repeats)
        elif shape[0] in LAYER_OPS:
            result = profile_layer(*shape, args.repeats)
        elif shape[0] == "cert":
            result = profile_certificate(tuple(shape), args.repeats)
        elif isinstance(shape[0], str):
            result = profile_search(tuple(shape), args.repeats)
        else:
            result = profile_scan(*shape, args.repeats)
        print(json.dumps(result))
        return
    def run(shape: tuple) -> dict:
        out = subprocess.run([sys.executable, __file__, "--repeats", str(args.repeats),
                              "--shape", json.dumps(shape)],
                             check=True, capture_output=True, text=True).stdout
        return json.loads(out.splitlines()[-1])

    print(f"{'shape':<36} {'first_rss_kib':>13} {'first_ms':>9} {'ms':>9} {'words_per_s':>12}")
    for shape in SCAN_SHAPES:
        r = run(shape)
        print(f"{r['shape']:<36} {r['first_rss_kib']:>13} {r['first_ms']:>9} {r['ms']:>9} "
              f"{r['words_per_s']:>12}")
    print(f"\n{'shape':<44} {'first_rss_kib':>13} {'first_ms':>9} {'ms':>9}")
    for shape in SEARCH_SHAPES + CERT_SHAPES:
        r = run(shape)
        print(f"{r['shape']:<44} {r['first_rss_kib']:>13} {r['first_ms']:>9} {r['ms']:>9}")
    sys.path.insert(0, str(SRC))
    print(f"\n{'shape':<36} {'first_rss_kib':>13} {'first_ms':>9} {'ms':>9}")
    for q, rows in layer_matrices():
        for op in LAYER_OPS:
            r = run((op, q, rows))
            print(f"{r['shape']:<36} {r['first_rss_kib']:>13} {r['first_ms']:>9} {r['ms']:>9}")

if __name__ == "__main__":
    main()

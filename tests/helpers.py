"""Shared test oracles: brute-force enumerations and random code builders
that stay independent of the library's packed/Gray-code engines."""
from __future__ import annotations

import itertools
import random

from qproduct.code import AdditiveCode, LinearCode
from qproduct.galois import FieldSpec
from qproduct.matrix import InnerProductKind, Matrix


def brute_codewords(code):
    """Enumerate codewords by plain coefficient products (no Gray code,
    no packing): the independent oracle for every distance test."""
    spec = code.spec
    if isinstance(code, LinearCode):
        rows = list(code.generator.rows)
        radix = spec.q
    else:
        rows = list(code.generator.rows)
        radix = spec.p
    n = code.n
    for coeffs in itertools.product(range(radix), repeat=len(rows)):
        word = [0] * n
        for c, row in zip(coeffs, rows):
            if c:
                for i, v in enumerate(row):
                    if v:
                        word[i] = spec.add(word[i], spec.mul(c, v))
        yield tuple(word)


def brute_min_distance(code) -> int:
    """Exhaustive minimum distance; n+1 for zero-dimensional codes."""
    best = code.n + 1
    for word in brute_codewords(code):
        w = sum(1 for v in word if v)
        if 0 < w < best:
            best = w
    return best


def brute_weight_enumerator(code) -> dict[int, int]:
    counts: dict[int, int] = {}
    for word in brute_codewords(code):
        w = sum(1 for v in word if v)
        counts[w] = counts.get(w, 0) + 1
    return counts


def random_matrix(rng: random.Random, spec: FieldSpec, r: int, c: int) -> Matrix:
    return Matrix(spec, [[rng.randrange(spec.q) for _ in range(c)] for _ in range(r)], ncols=c)


def random_linear_code(rng: random.Random, spec: FieldSpec, n: int, kmax: int) -> LinearCode:
    k = rng.randint(1, kmax)
    return LinearCode(random_matrix(rng, spec, k, n))


def random_additive_code(rng: random.Random, spec: FieldSpec, n: int, kmax: int) -> AdditiveCode:
    k = rng.randint(1, kmax)
    rows = [[rng.randrange(spec.q) for _ in range(n)] for _ in range(k)]
    return AdditiveCode(spec, rows, n=n)


def check_certificate(code, cert) -> None:
    """Re-check a distance certificate's witness against the code."""
    assert cert.lower >= 1
    if cert.witness is not None:
        assert code.contains(cert.witness), "witness is not a codeword"
        weight = sum(1 for v in cert.witness if v)
        assert weight == cert.upper, "witness weight disagrees with the upper bound"
    if cert.exact and not cert.degenerate:
        assert cert.witness is not None


def orthogonal_pairwise(matrix: Matrix, kind: InnerProductKind) -> bool:
    """Direct pairwise orthogonality of all row pairs (oracle for gram)."""
    from qproduct.matrix import inner_product

    rows = matrix.rows
    for v in rows:
        for w in rows:
            if inner_product(matrix.spec, v, w, kind) != 0:
                return False
    return True

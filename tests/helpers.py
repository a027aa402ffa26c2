"""Shared test oracles: brute-force enumerations and random code builders
that stay independent of the library's blocked numpy scan."""
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


def gray_scan(spec: FieldSpec, rows, n: int, counts: list[int] | None = None):
    """The witness-order oracle for ``qproduct.code._exhaustive_scan``: the
    radix-p Gray walk of the GF(p)-span of rows, one word at a time.  Step
    t adds row v_p(t); returns the minimum weight over steps t >= 1 and the
    first word of that weight ((n + 1, None) without rows), and with
    ``counts`` tallies every word's weight, the zero word included."""
    p = spec.p
    nz = [tuple((i, v) for i, v in enumerate(r) if v) for r in rows]
    word = [0] * n
    weight = 0
    best_w, best = n + 1, None
    if counts is not None:
        counts[0] += 1
    for t in range(1, p ** len(rows)):
        tt, j = t, 0
        while tt % p == 0:
            tt //= p
            j += 1
        for i, v in nz[j]:
            old = word[i]
            new = spec.add(old, v)
            word[i] = new
            weight += (1 if new else 0) - (1 if old else 0)
        if counts is not None:
            counts[weight] += 1
        if weight < best_w:
            best_w, best = weight, tuple(word)
    return best_w, best


def low_weight_oracle(code, max_w: int = 4):
    """The witness-order oracle for ``qproduct.code.find_low_weight_word``:
    the same weight-1..4 search over the code's syndrome columns, one
    column pair at a time in pure Python.  Weights 3 and 4 walk the pair
    sums cols[c] + lam * cols[d] (c < d at distinct coordinates, then lam)
    in order, normalized by their leading entry; weight 3 returns the first
    sum parallel to a column, weight 4 the first sum parallel to an earlier
    one on disjoint coordinates, with the first such earlier sum."""
    if max_w < 1 or code.size() == 1:
        return None
    F = code.field
    add, mul, neg, inv = F.add, F.mul, F.neg, F.inv
    where, cols, _ = code._syndrome_columns()
    coord = [i for i, _ in where]

    def normalized(col):
        for v in col:
            if v:
                return tuple(mul(inv(v), x) for x in col), v
        return None

    def word(*terms):
        out = [0] * code.n
        for c, lam in terms:
            out[coord[c]] = code.spec.mul(lam, where[c][1])
        return tuple(out)

    norm = [normalized(c) for c in cols]
    for c, nc in enumerate(norm):
        if nc is None:
            return word((c, 1))
    if max_w < 2:
        return None
    seen = {}
    for c, (key, scale) in enumerate(norm):
        hit = seen.setdefault(key, c)
        if hit != c:
            return word((hit, 1), (c, neg(mul(norm[hit][1], inv(scale)))))
    if max_w < 3:
        return None

    def pair_sums():
        for c in range(len(cols)):
            for d in range(c + 1, len(cols)):
                if coord[d] == coord[c]:
                    continue
                for lam in range(1, F.q):
                    nc = normalized(tuple(add(a, mul(lam, b)) for a, b in zip(cols[c], cols[d])))
                    if nc is not None:
                        yield c, d, lam, nc

    for c, d, lam, (key, scale) in pair_sums():
        hit = seen.get(key)
        if hit is not None and coord[hit] != coord[c] and coord[hit] != coord[d]:
            return word((c, 1), (d, lam), (hit, neg(mul(scale, inv(norm[hit][1])))))
    if max_w < 4:
        return None
    pair_index = {}
    for c, d, lam, (key, scale) in pair_sums():
        pair = (coord[c], coord[d])
        for pc, pd, plam, pscale in pair_index.get(key, ()):
            if coord[pc] not in pair and coord[pd] not in pair:
                factor = neg(mul(pscale, inv(scale)))
                return word((pc, 1), (pd, plam), (c, factor), (d, mul(factor, lam)))
        pair_index.setdefault(key, []).append((c, d, lam, scale))
    return None


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

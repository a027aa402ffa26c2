"""Shared test oracles: brute-force enumerations, pure-Python linear
algebra and random code builders that stay independent of the library's
numpy scan, search and matrix layer."""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Sequence

from qproduct.code import AdditiveCode, LinearCode
from qproduct.galois import FieldSpec
from qproduct.matrix import InnerProductKind, Matrix, _require_even_degree


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
    where, cols = code._syndromes.where, code._syndromes.cols
    cols = cols.tolist()
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


def parity_rows(code) -> Matrix:
    """The rref of the rows over F whose F-kernel is the code: the kept
    parity rows (the form of the primal, for a dual), else the kernel of
    the basis."""
    if code._parity is None:
        return code.basis.kernel()
    return code._parity.rref()[0]


def count_kernels(monkeypatch) -> list[str]:
    """The names of the ``Matrix.kernel`` and ``code.product_kernel`` calls
    made from now on, the two ways a code's basis is eliminated."""
    import qproduct.code as code_module

    calls: list[str] = []
    kernel, product_kernel = Matrix.kernel, code_module.product_kernel
    monkeypatch.setattr(Matrix, "kernel", lambda m: calls.append("kernel") or kernel(m))
    monkeypatch.setattr(code_module, "product_kernel",
                        lambda a, b: calls.append("product_kernel") or product_kernel(a, b))
    return calls


def check_certificate(code, cert) -> None:
    """Re-check a distance certificate's witness against the code."""
    assert cert.lower >= 1
    if cert.witness is not None:
        assert code.contains(cert.witness), "witness is not a codeword"
        weight = sum(1 for v in cert.witness if v)
        assert weight == cert.upper, "witness weight disagrees with the upper bound"
    if cert.exact and not cert.degenerate:
        assert cert.witness is not None


def inner_product(spec: FieldSpec, v, w, kind: InnerProductKind = InnerProductKind.EUCLIDEAN) -> int:
    """The scalar oracle for the forms of ``Code._form``: the inner product
    of two coordinate vectors, a value in GF(q) for the Euclidean and
    Hermitian kinds and a prime-field value (< p) for the symplectic kind."""
    if len(v) != len(w):
        raise ValueError(f"length mismatch: {len(v)} vs {len(w)}")
    _require_even_degree(spec, kind)
    acc = 0
    for a, b in zip(v, w):
        if a and b:
            if kind is not InnerProductKind.EUCLIDEAN:
                b = spec.frobenius_q(b)
            acc = spec.add(acc, spec.mul(a, b))
    return spec.trace_to_prime(acc) if kind is InnerProductKind.SYMPLECTIC else acc


def orthogonal_pairwise(matrix: Matrix, kind: InnerProductKind) -> bool:
    """Direct pairwise orthogonality of all row pairs: the oracle for
    ``Code.is_self_orthogonal`` of the rows' span."""
    rows = matrix.rows
    for v in rows:
        for w in rows:
            if inner_product(matrix.spec, v, w, kind) != 0:
                return False
    return True


def orthogonal_to_rows(spec: FieldSpec, word, rows) -> bool:
    """Whether ``word`` is Euclidean-orthogonal to every row, by a plain
    loop over its support: the oracle for a dual word, independent of
    ``Matrix.gram`` and ``Matrix.kernel``."""
    support = [(i, v) for i, v in enumerate(word) if v]
    for row in rows:
        acc = 0
        for i, v in support:
            acc = spec.add(acc, spec.mul(v, row[i]))
        if acc:
            return False
    return True


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.spec, m.array.T)


def to_text(m: Matrix) -> str:
    """The matrix text format ``qproduct.matrix.from_text`` reads: header
    "q r c", then r rows of c integers."""
    lines = [f"{m.spec.q} {m.nrows} {m.ncols}"]
    lines.extend(" ".join(str(v) for v in row) for row in m.rows)
    return "\n".join(lines) + "\n"


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The matrix product a @ b over the field, entry by entry."""
    assert a.spec == b.spec and a.ncols == b.nrows
    spec = a.spec
    out = []
    for row in a.rows:
        out_row = []
        for col in zip(*b.rows) if b.nrows else [()] * b.ncols:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = spec.add(acc, spec.mul(x, y))
            out_row.append(acc)
        out.append(out_row)
    return Matrix(spec, out, ncols=b.ncols)


def rref_oracle(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """The row-by-row oracle for ``Matrix.rref``: leftmost pivots, rows
    scanned top-down, one entry at a time; zero rows dropped."""
    spec = m.spec
    add_, mul, neg, inv = spec.add, spec.mul, spec.neg, spec.inv
    rows = [list(r) for r in m.rows]
    pivots = []
    r = 0
    for col in range(m.ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        c = inv(rows[r][col])
        rows[r] = [mul(c, v) for v in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = neg(rows[i][col])
                rows[i] = [add_(cv, mul(c, pv)) for cv, pv in zip(rows[i], prow)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return Matrix(spec, rows[:r], ncols=m.ncols), tuple(pivots)


def kernel_oracle(m: Matrix) -> Matrix:
    """The two-elimination oracle for ``Matrix.kernel``: reduce, read one
    null vector off each free column, then reduce those vectors."""
    spec = m.spec
    red, pivots = rref_oracle(m)
    basis = []
    for f in (c for c in range(m.ncols) if c not in pivots):
        vec = [0] * m.ncols
        vec[f] = 1
        for t, pc in enumerate(pivots):
            vec[pc] = spec.neg(red.rows[t][f])
        basis.append(vec)
    return rref_oracle(Matrix(spec, basis, ncols=m.ncols))[0]


def kronecker_oracle(a: Matrix, b: Matrix) -> Matrix:
    """Block (i, j) of the Kronecker product is a[i][j] * b, entry by entry."""
    spec = a.spec
    rows = [[spec.mul(x, y) for x in arow for y in brow] for arow in a.rows for brow in b.rows]
    return Matrix(spec, rows, ncols=a.ncols * b.ncols)


def gram_oracle(a: Matrix, b: Matrix) -> Matrix:
    """Pairwise Euclidean inner products of the rows of a and b."""
    rows = [[inner_product(a.spec, v, w) for w in b.rows] for v in a.rows]
    return Matrix(a.spec, rows, ncols=b.nrows)


def flat_to_grid(vec, n1: int, n2: int) -> tuple[tuple[int, ...], ...]:
    """Product coordinate convention: flat index i*n2 + j -> grid[i][j]."""
    return tuple(tuple(vec[i * n2 + j] for j in range(n2)) for i in range(n1))


def root_of_unity(spec: FieldSpec, n: int) -> int:
    """The primitive n-th root of unity g^((q-1)/n), g the field's generator."""
    assert n > 0 and (spec.q - 1) % n == 0, f"{n} does not divide q-1 = {spec.q - 1}"
    return spec.power(spec.generator, (spec.q - 1) // n)


@dataclass(frozen=True)
class Spectrum2D:
    """Two-dimensional spectrum: evaluations of the word's bivariate
    polynomial at (alpha^i, beta^j)."""

    spec: FieldSpec
    grid: tuple[tuple[int, ...], ...]  # [i][j]
    alpha: int
    beta: int


def _check_order(spec: FieldSpec, x: int, n: int) -> None:
    if spec.power(x, n) != 1:
        raise ValueError(f"element {x} is not an order-{n} root of unity")
    for d in range(1, n):
        if n % d == 0 and spec.power(x, d) == 1:
            raise ValueError(f"element {x} has order < {n}")


def spectrum_2d(spec: FieldSpec, word: Sequence[Sequence[int]], alpha: int, beta: int) -> Spectrum2D:
    """Evaluate the bivariate polynomial with coefficient grid `word` at
    all points (alpha^i, beta^j)."""
    n1 = len(word)
    n2 = len(word[0]) if word else 0
    _check_order(spec, alpha, n1)
    _check_order(spec, beta, n2)
    apow = [spec.power(alpha, i) for i in range(n1)]
    bpow = [spec.power(beta, j) for j in range(n2)]
    grid = []
    for i in range(n1):
        row = []
        for j in range(n2):
            acc = 0
            for a in range(n1):
                xa = spec.power(apow[i], a)
                for b in range(n2):
                    w = word[a][b]
                    if w:
                        acc = spec.add(acc, spec.mul(w, spec.mul(xa, spec.power(bpow[j], b))))
            row.append(acc)
        grid.append(tuple(row))
    return Spectrum2D(spec=spec, grid=tuple(grid), alpha=alpha, beta=beta)


def inverse_spectrum_2d(sp) -> tuple[tuple[int, ...], ...]:
    """The coefficient grid of a ``Spectrum2D``, by the
    inverse 2-D transform: (n1*n2)^-1 sum_ij grid[i][j] alpha^-ia beta^-jb
    at [a][b]."""
    spec = sp.spec
    n1, n2 = len(sp.grid), len(sp.grid[0]) if sp.grid else 0
    ainv, binv = spec.inv(sp.alpha), spec.inv(sp.beta)
    scale = spec.inv(n1 * n2 % spec.p)  # a prime-field value is itself
    out = []
    for a in range(n1):
        row = []
        for b in range(n2):
            acc = 0
            for i in range(n1):
                for j in range(n2):
                    v = sp.grid[i][j]
                    if v:
                        term = spec.mul(v, spec.mul(spec.power(ainv, i * a),
                                                    spec.power(binv, j * b)))
                        acc = spec.add(acc, term)
            row.append(spec.mul(scale, acc))
        out.append(tuple(row))
    return tuple(out)


def cyclic_oracle(spec: FieldSpec, n: int, zeros) -> LinearCode:
    """The cyclic code of length n | q-1 generated by the polynomial
    g = prod_{z in zeros} (X - alpha^z), alpha = ``root_of_unity(spec, n)``,
    multiplied out one root at a time: its rows are the n - deg g shifts
    X^i g(X) of g's coefficients."""
    alpha = root_of_unity(spec, n)
    g = [1]  # little-endian coefficients
    for z in zeros:
        r = spec.neg(spec.power(alpha, z))
        g = [spec.add(a, spec.mul(r, b)) for a, b in zip([0] + g, g + [0])]  # g * (X + r)
    rows = [[0] * i + g + [0] * (n - len(g) - i) for i in range(n - len(g) + 1)]
    return LinearCode(Matrix(spec, rows, ncols=n))


def poly_is_irreducible(p: int, coeffs) -> bool:
    """Whether the monic polynomial with little-endian ``coeffs`` over GF(p)
    is irreducible, by brute force: no product of two monic polynomials of
    positive degree equals it."""
    deg = len(coeffs) - 1
    f = tuple(c % p for c in coeffs)

    def monic(d):
        for low in itertools.product(range(p), repeat=d):
            yield low + (1,)

    for d in range(1, deg // 2 + 1):
        for a in monic(d):
            for b in monic(deg - d):
                prod = [0] * (deg + 1)
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        prod[i + j] = (prod[i + j] + x * y) % p
                if tuple(prod) == f:
                    return False
    return True


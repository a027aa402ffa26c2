"""Cyclic and Reed-Solomon codes in the spectral regime n | q-1, their
bicyclic products, two-dimensional spectra, dual coordinate maps, and the
rectangle lower bound used to certify dual distances of products.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .code import DistanceCertificate, LinearCode, min_distance
from .galois import GF, FieldSpec
from .matrix import InnerProductKind, Matrix

# polynomials over GF(q) are little-endian coefficient tuples


def poly_trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def poly_mul(spec: FieldSpec, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    a, b = poly_trim(a), poly_trim(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                if bv:
                    out[i + j] = spec.add(out[i + j], spec.mul(av, bv))
    return poly_trim(out)


def poly_divmod(spec: FieldSpec, a: Sequence[int], b: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    a, b = list(poly_trim(a)), poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    inv_lead = spec.inv(b[-1])
    quot = [0] * max(0, len(a) - db)
    while len(poly_trim(a)) - 1 >= db:
        a = list(poly_trim(a))
        shift = len(a) - 1 - db
        c = spec.mul(a[-1], inv_lead)
        quot[shift] = c
        for i, bv in enumerate(b):
            a[shift + i] = spec.sub(a[shift + i], spec.mul(c, bv))
    return poly_trim(quot), poly_trim(a)


def poly_from_roots(spec: FieldSpec, roots: Sequence[int]) -> tuple[int, ...]:
    f: tuple[int, ...] = (1,)
    for r in roots:
        f = poly_mul(spec, f, (spec.neg(r), 1))
    return f


def poly_eval(spec: FieldSpec, f: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(poly_trim(f)):
        acc = spec.add(spec.mul(acc, x), c)
    return acc


def x_n_minus_1(spec: FieldSpec, n: int) -> tuple[int, ...]:
    f = [0] * (n + 1)
    f[0] = spec.neg(1)
    f[n] = 1
    return tuple(f)


def poly_monic(spec: FieldSpec, f: Sequence[int]) -> tuple[int, ...]:
    f = poly_trim(f)
    if not f:
        return f
    inv = spec.inv(f[-1])
    return tuple(spec.mul(inv, c) for c in f)


def reciprocal(spec: FieldSpec, f: Sequence[int]) -> tuple[int, ...]:
    return poly_trim(tuple(reversed(poly_trim(f))))


class CyclicCode:
    """Cyclic code of length n | q-1 with a fixed generator polynomial."""

    def __init__(self, spec: FieldSpec, n: int, gen_poly: Sequence[int],
                 claimed_distance: int | None = None):
        gen_poly = poly_monic(spec, gen_poly)
        quot, rem = poly_divmod(spec, x_n_minus_1(spec, n), gen_poly)
        if rem:
            raise ValueError("generator polynomial does not divide X^n - 1")
        self.spec = spec
        self.n = n
        self.gen_poly = gen_poly
        k = n - (len(gen_poly) - 1)
        rows = []
        for i in range(k):
            row = [0] * n
            for j, c in enumerate(gen_poly):
                row[i + j] = c
            rows.append(row)
        self.code = LinearCode(Matrix(spec, rows, ncols=n), claimed_distance=claimed_distance)

    @property
    def k(self) -> int:
        return self.code.k

    def __repr__(self) -> str:
        return f"CyclicCode[{self.n},{self.k}]_GF({self.spec.q})"


def cyclic_from_roots(q: int | FieldSpec, n: int, exponents: Sequence[int],
                      claimed_distance: int | None = None) -> CyclicCode:
    """Cyclic code with g(X) = prod (X - alpha^s) over the exponent set."""
    spec = q if isinstance(q, FieldSpec) else GF(q)
    if (spec.q - 1) % n != 0:
        raise ValueError(f"length {n} does not divide q-1 = {spec.q - 1}")
    exps = [e % n for e in exponents]
    if len(set(exps)) != len(exps):
        raise ValueError(f"duplicate root exponents in {list(exponents)}")
    alpha = spec.root_of_unity(n)
    g = poly_from_roots(spec, [spec.power(alpha, e) for e in exps])
    return CyclicCode(spec, n, g, claimed_distance=claimed_distance)


def rs_code(q: int | FieldSpec, delta: int) -> CyclicCode:
    """Reed-Solomon code [q-1, q-delta, delta] with roots alpha^0..alpha^(delta-2)."""
    spec = q if isinstance(q, FieldSpec) else GF(q)
    if not 2 <= delta <= spec.q - 1:
        raise ValueError(f"designed distance must be in [2, q-1], got {delta}")
    return cyclic_from_roots(spec, spec.q - 1, range(delta - 1), claimed_distance=delta)


def dual_generator_poly(spec: FieldSpec, g: Sequence[int], n: int) -> tuple[int, ...]:
    """Monic generator of the Euclidean dual: the reciprocal of (X^n-1)/g."""
    quot, rem = poly_divmod(spec, x_n_minus_1(spec, n), g)
    if rem:
        raise ValueError("generator polynomial does not divide X^n - 1")
    return poly_monic(spec, reciprocal(spec, quot))


def dual_support_map(i: int, n: int, kind: InnerProductKind, frob_power: int | None = None) -> int:
    """Spectral coordinate map between a code and its dual support."""
    if kind is InnerProductKind.EUCLIDEAN:
        return (-i) % n
    if kind is InnerProductKind.HERMITIAN:
        if frob_power is None:
            raise ValueError("Hermitian coordinate map needs the Frobenius power q")
        return (-frob_power * i) % n
    raise ValueError(f"no spectral coordinate map for {kind}")


@dataclass(frozen=True)
class Spectrum2D:
    """Two-dimensional spectrum: evaluations of the word's bivariate
    polynomial at (alpha^i, beta^j)."""

    spec: FieldSpec
    grid: tuple[tuple[int, ...], ...]  # [i][j]
    alpha: int
    beta: int

    @property
    def n1(self) -> int:
        return len(self.grid)

    @property
    def n2(self) -> int:
        return len(self.grid[0]) if self.grid else 0

    def inverse(self) -> tuple[tuple[int, ...], ...]:
        """Recover the coefficient grid (inverse 2-D transform)."""
        spec = self.spec
        n1, n2 = self.n1, self.n2
        ainv = spec.inv(self.alpha)
        binv = spec.inv(self.beta)
        # 1/(n1*n2) in GF(q): n copies of 1 summed, then inverted
        scale = spec.inv(_embed_integer(spec, n1 * n2))
        out = []
        for a in range(n1):
            row = []
            for b in range(n2):
                acc = 0
                for i in range(n1):
                    for j in range(n2):
                        v = self.grid[i][j]
                        if v:
                            term = spec.mul(v, spec.mul(spec.power(ainv, i * a),
                                                        spec.power(binv, j * b)))
                            acc = spec.add(acc, term)
                row.append(spec.mul(scale, acc))
            out.append(tuple(row))
        return tuple(out)


def _embed_integer(spec: FieldSpec, m: int) -> int:
    return spec.embed_prime(m % spec.p)


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


def flat_to_grid(vec: Sequence[int], n1: int, n2: int) -> tuple[tuple[int, ...], ...]:
    """Product coordinate convention: flat index i*n2 + j -> grid[i][j]."""
    return tuple(tuple(vec[i * n2 + j] for j in range(n2)) for i in range(n1))


def product_spectrum_support(c1: CyclicCode, c2: CyclicCode) -> tuple[tuple[bool, ...], ...]:
    """Forced-zero mask of the product's spectrum: grid[i][j] is True when
    every codeword's spectrum vanishes at (i, j)."""
    spec = c1.spec
    a = spec.root_of_unity(c1.n)
    b = spec.root_of_unity(c2.n)
    zero1 = [poly_eval(spec, c1.gen_poly, spec.power(a, i)) == 0 for i in range(c1.n)]
    zero2 = [poly_eval(spec, c2.gen_poly, spec.power(b, j)) == 0 for j in range(c2.n)]
    return tuple(tuple(zero1[i] or zero2[j] for j in range(c2.n)) for i in range(c1.n))


def bch_rectangle_bound(a: int, b: int) -> int:
    """Lower bound min(a, b) + 1 on the minimum distance of a bicyclic
    code whose spectra share an all-zero a x b cyclic rectangle."""
    if a < 0 or b < 0:
        raise ValueError("stripe widths must be >= 0")
    return min(a, b) + 1


@dataclass(frozen=True)
class RsProductReport:
    """Parameters predicted for the product of two Reed-Solomon codes and
    its Euclidean dual, carrying both the stated and the corrected dual
    distance (they differ by one; see `expected_dual_distance`)."""

    q: int
    delta1: int
    delta2: int
    length: int
    dimension: int
    distance: int
    dual_dimension: int
    stated_dual_distance: int
    expected_dual_distance: int
    factor1_self_orthogonal: bool
    factor2_self_orthogonal: bool
    product_self_orthogonal: bool

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "delta": [self.delta1, self.delta2],
            "primal": [self.length, self.dimension, self.distance],
            "dual_dimension": self.dual_dimension,
            "stated_dual_distance": self.stated_dual_distance,
            "expected_dual_distance": self.expected_dual_distance,
            "factor_self_orthogonal": [self.factor1_self_orthogonal, self.factor2_self_orthogonal],
            "product_self_orthogonal": self.product_self_orthogonal,
        }


def rs_product_dual_certificate(q: int, delta1: int, delta2: int,
                                budget: int | None = None) -> DistanceCertificate:
    """Distance certificate for the Euclidean dual of an RS product.

    When the dual is too large to enumerate, the rectangle bound supplies
    the lower bound (it can exceed the 5 that the low-weight search proves
    on its own); the upper bound comes from a witness of weight <= 4, and
    is None without one.
    """
    spec = GF(q)
    from .product import product  # local import to avoid a cycle at module load

    prod = product(rs_code(spec, delta1).code, rs_code(spec, delta2).code)
    dual = prod.dual(InnerProductKind.EUCLIDEAN)
    cert = min_distance(dual, budget=budget)
    if cert.lower_method == "exhaustive":
        return cert
    rect_lower = bch_rectangle_bound(q - delta1, q - delta2)
    if rect_lower < cert.lower:
        return cert
    return DistanceCertificate(lower=rect_lower, upper=cert.upper,
                               lower_method="bch-rectangle", witness=cert.witness,
                               claimed=cert.claimed)


def rs_product_params(q: int, delta1: int, delta2: int) -> RsProductReport:
    """Predicted parameters of rs(q, delta1) (x) rs(q, delta2) and of its
    Euclidean dual, cross-checked structurally.

    The dual dimension comes out of q*(d1+d2-2) - d1*d2 + 1, which equals
    (q-1)^2 - (q-delta1)*(q-delta2) identically; both dual distance
    candidates are reported: the stated min(q-delta1, q-delta2) and the
    corrected 1 + min(q-delta1, q-delta2).
    """
    spec = GF(q)
    for d in (delta1, delta2):
        if not 2 <= d <= q - 1:
            raise ValueError(f"designed distance must be in [2, q-1], got {d}")
    c1 = rs_code(spec, delta1)
    c2 = rs_code(spec, delta2)
    from .product import product  # local import to avoid a cycle at module load

    prod = product(c1.code, c2.code)
    n = (q - 1) ** 2
    k = (q - delta1) * (q - delta2)
    if prod.n != n or prod.k != k:
        raise AssertionError("constructed product disagrees with predicted parameters")
    k_dual = q * (delta1 + delta2 - 2) - delta1 * delta2 + 1
    if k_dual != n - k:
        raise AssertionError("dual dimension formula disagrees with n - k")
    so1 = c1.code.is_self_orthogonal(InnerProductKind.EUCLIDEAN)
    so2 = c2.code.is_self_orthogonal(InnerProductKind.EUCLIDEAN)
    return RsProductReport(
        q=q, delta1=delta1, delta2=delta2,
        length=n, dimension=k, distance=delta1 * delta2,
        dual_dimension=k_dual,
        stated_dual_distance=min(q - delta1, q - delta2),
        expected_dual_distance=1 + min(q - delta1, q - delta2),
        factor1_self_orthogonal=so1,
        factor2_self_orthogonal=so2,
        product_self_orthogonal=prod.is_self_orthogonal(InnerProductKind.EUCLIDEAN),
    )

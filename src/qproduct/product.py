"""Product codes under the Euclidean, Hermitian, and symplectic inner
products: Kronecker generators, the explicit stacked generator of the
dual of a product, and the certificate of the dual's distance.

The first factor is a linear code over the scalar field F of the second:
over GF(q) when the second is linear, over GF(p) when it is additive.  A
product keeps its two factors: its basis is the Kronecker product of
theirs, and its dual the kernel of the Kronecker product of their forms
(``matrix.product_kernel``), so nothing the size of the product is
eliminated.  The stacked dual generator is the independent cross-check.
"""
from __future__ import annotations

from .code import Code, DistanceCertificate, _first_factor_kind, min_distance
from .matrix import InnerProductKind, Matrix, complement_basis


def _check_factors(c1: Code, c2: Code) -> None:
    if not c1.spec == c1.field == c2.field:
        raise ValueError(f"first factor over GF({c1.spec.q}) must be a linear code over "
                         f"GF({c2.field.q}), the scalars of the second")


def tensor_generator(c1: Code, c2: Code) -> Matrix:
    """All g (x) h for generator rows g of c1 and h of c2, with the
    entries of g read over GF(q)."""
    _check_factors(c1, c2)
    return c1.generator.over(c2.spec).kronecker(c2.generator)


def product(c1: Code, c2: Code) -> Code:
    """Tensor product code: the F-span of all g (x) h, of the second
    factor's kind.  [n1*n2, k1*k2] (k_p = k1 * k_p(c2) when c2 is additive).
    It keeps (c1, c2) for ``Code.dual`` and ``min_distance``.

    Its basis is c1.basis (x) c2.basis, the rref of the tensor generators
    with no elimination: it spans them, and a Kronecker product of rref
    matrices is in rref with independent rows (``matrix.product_kernel``,
    fact 1).  For an additive c2 the digit expansion commutes with GF(p)
    scalars: the digits of g_a * h_b are g_a times those of h_b, at column
    (a * n2 + b) * ell + t of the Kronecker product."""
    _check_factors(c1, c2)
    out = type(c2)._from_basis(c2.spec, c1.n * c2.n, c1.basis.kronecker(c2.basis), None)
    out._factors = (c1, c2)
    return out


def product_additive(c1: Code, c2: Code) -> Code:
    """GF(p) tensor product of a prime-field code with an additive code:
    the generators are all g (x)_p h, and k_p = k1 * k_p(c2)."""
    return product(c1, c2)


def dual_of_product_generator(c1: Code, c2: Code, kind: InnerProductKind) -> Matrix:
    """Generator of the dual of the product, stacked as
    [H1 (x) H2; A1 (x) H2; H1 (x) A2].

    H_i generate the factor duals under the matching inner product and
    A_i complete them to F-bases of the ambient spaces.  For the
    symplectic kind the returned rows span the dual additively (over GF(p)).
    """
    _check_factors(c1, c2)
    d1 = c1.dual(_first_factor_kind(kind))
    d2 = c2.dual(kind)
    h1 = d1.generator.over(c2.spec)
    a1 = complement_basis(d1.generator, c1.n).over(c2.spec)
    h2 = d2.generator
    a2 = d2.symbols(complement_basis(d2.basis, d2.basis.ncols))
    stacked = h1.kronecker(h2).stack(a1.kronecker(h2)).stack(h1.kronecker(a2))
    expect = c1.n * d2.basis.ncols - c1.dim * c2.dim
    if stacked.nrows != expect:
        raise AssertionError(f"stacked dual generator has {stacked.nrows} rows, expected {expect}")
    return stacked


def product_dual_certificate(c1: Code, c2: Code, kind: InnerProductKind,
                             budget: int | None = None) -> DistanceCertificate:
    """Certificate of d((C1 (x) C2)^perp) = min(d(C1^perp), d(C2^perp)) from
    the ``min_distance`` certificates of the factor duals, under
    ``_first_factor_kind(kind)`` and ``kind``.

    Lower bound: l, the least lower bound of the non-degenerate factor
    duals.  Read a product dual word X as an n1 x n2 array, coordinate
    (r, s) at r * n2 + s, with wt(X) < l.  Euclidean: G1 X G2^T = 0, and a
    row of G1 X combines rows of X, so it lies on fewer than l columns and
    in C2^perp: G1 X = 0.  So each column of X is a word of C1^perp lighter
    than l, and X = 0.  A factor with the zero dual (a full space) gives
    its step with no weight condition, so it adds nothing to l; when both
    do, the product's dual is zero and the certificate degenerate.
    Hermitian: conjugation maps each Hermitian dual onto the Euclidean
    one and keeps weights.  Symplectic: the form is GF(p)-bilinear and G1
    is over GF(p), so <g (x) h, X> = <h, sum_r g_r X_r>; the rows of G1 X
    lie in C2^perp and the base-p digits of each column in C1^perp.

    Upper bound: the lighter factor witness (factor 1 on a tie) as a (x) e_0
    or e_0 (x) b, since <g (x) h, a (x) e_0> = <g, a> h_0 under each form.
    The method is "bch-rectangle" when every non-degenerate factor
    certificate is "bch" (the rectangle bound of a bicyclic product), and
    "product-dual" otherwise.
    """
    certs = [min_distance(c1.dual(_first_factor_kind(kind)), budget=budget),
             min_distance(c2.dual(kind), budget=budget)]
    live = [c for c in certs if not c.degenerate]
    n = c1.n * c2.n
    if not live:
        return DistanceCertificate(lower=n + 1, upper=n + 1, lower_method="product-dual",
                                   degenerate=True)
    method = "bch-rectangle" if all(c.lower_method == "bch" for c in live) else "product-dual"
    lower = min(c.lower for c in live)
    light = min((c for c in live if c.witness is not None), key=lambda c: c.upper, default=None)
    if light is None:
        return DistanceCertificate(lower=lower, upper=None, lower_method=method)
    word = [0] * n
    word[slice(0, n, c2.n) if light is certs[0] else slice(0, c2.n)] = light.witness
    return DistanceCertificate(lower=lower, upper=light.upper, lower_method=method,
                               witness=tuple(word))

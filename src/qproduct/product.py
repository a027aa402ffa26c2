"""Product codes under the Euclidean, Hermitian, and symplectic inner
products: Kronecker generators and the explicit stacked generator of the
dual of a product.

The first factor is a linear code over the scalar field F of the second:
over GF(q) when the second is linear, over GF(p) when it is additive.  A
product keeps its two factors: its basis is the Kronecker product of
theirs, formed on first read, and its dual the kernel of the Kronecker
product of their forms (``matrix.product_kernel``), so nothing the size
of the product is eliminated.  The stacked dual generator is the independent cross-check.
``code.min_distance`` certifies a product and its dual from the factors.
"""
from __future__ import annotations

from .code import Code, _first_factor_kind
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

    Its basis is c1.basis (x) c2.basis, built on first read, the rref of
    the tensor generators with no elimination: it spans them, and a
    Kronecker product of rref matrices is in rref with independent rows
    (``matrix.product_kernel``, fact 1), k1 * k2 of them.  For an additive
    c2 the digit expansion commutes with GF(p) scalars: the digits of
    g_a * h_b are g_a times those of h_b, at column (a * n2 + b) * ell + t
    of the Kronecker product."""
    _check_factors(c1, c2)
    out = type(c2)._from_basis(c2.spec, c1.n * c2.n, lambda: c1.basis.kronecker(c2.basis),
                               None, dim=c1.dim * c2.dim)
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

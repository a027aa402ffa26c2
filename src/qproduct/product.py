"""Product codes under the Euclidean, Hermitian, and symplectic inner
products: Kronecker generators, the explicit stacked generator of the
dual of a product, the dual-distance ceiling, and the self-orthogonality
transfer checks.
"""
from __future__ import annotations

from .code import AdditiveCode, LinearCode, min_distance
from .matrix import InnerProductKind, Matrix, complement_basis


def product(c1: LinearCode, c2: LinearCode) -> LinearCode:
    """Kronecker product code: [n1*n2, k1*k2] with claimed distance d1*d2."""
    if c1.spec != c2.spec:
        raise ValueError(f"mismatched fields: {c1.spec} vs {c2.spec}")
    claimed = None
    if c1.claimed_distance is not None and c2.claimed_distance is not None:
        claimed = c1.claimed_distance * c2.claimed_distance
    return LinearCode(c1.generator.kronecker(c2.generator), claimed_distance=claimed)


def _tensor_rows_p(spec, rows1, rows2, n1, n2) -> Matrix:
    """All g (x)_p h: each prime-field entry of g scales the row h over GF(q)."""
    out = []
    for g in rows1:
        for h in rows2:
            row = []
            for gv in g:
                e = spec.embed_prime(gv)
                row.extend(spec.mul(e, hv) for hv in h)
            out.append(row)
    return Matrix(spec, out, ncols=n1 * n2)


def product_additive(c1: LinearCode, c2: AdditiveCode) -> AdditiveCode:
    """GF(p) tensor product of a prime-field code with an additive code.

    Generators are all g (x)_p h for generator rows g of c1 and GF(p)-
    generator rows h of c2; the result has k_p = k1 * k_p(c2).
    """
    spec = c2.spec
    if c1.spec != spec.prime_field:
        raise ValueError(f"first factor must live over the prime field GF({spec.p})")
    claimed = None
    if c1.claimed_distance is not None and c2.claimed_distance is not None:
        claimed = c1.claimed_distance * c2.claimed_distance
    rows = _tensor_rows_p(spec, c1.generator.rows, c2.generators.rows, c1.n, c2.n).rows
    out = AdditiveCode(spec, rows, n=c1.n * c2.n, claimed_distance=claimed)
    if out.k_p != c1.k * c2.k_p:
        raise AssertionError("tensor generators were not GF(p)-independent")
    return out


def dual_of_product_generator(c1, c2, kind: InnerProductKind) -> Matrix:
    """Generator of the dual of the product, stacked as
    [H1 (x) H2; A1 (x) H2; H1 (x) A2].

    H_i generate the factor duals under the matching inner product and
    A_i complete them to bases of the ambient spaces.  For the symplectic
    kind the returned rows span the dual additively (over GF(p)).
    """
    if kind is InnerProductKind.SYMPLECTIC:
        return _dual_of_product_generator_symplectic(c1, c2)
    if c1.spec != c2.spec:
        raise ValueError(f"mismatched fields: {c1.spec} vs {c2.spec}")
    h1 = c1.dual(kind).generator
    h2 = c2.dual(kind).generator
    a1 = complement_basis(h1, c1.n)
    a2 = complement_basis(h2, c2.n)
    stacked = h1.kronecker(h2).stack(a1.kronecker(h2)).stack(h1.kronecker(a2))
    expect = c1.n * c2.n - c1.k * c2.k
    if stacked.nrows != expect:
        raise AssertionError(f"stacked dual generator has {stacked.nrows} rows, expected {expect}")
    return stacked


def _dual_of_product_generator_symplectic(c1: LinearCode, c2: AdditiveCode) -> Matrix:
    spec = c2.spec
    if c1.spec != spec.prime_field:
        raise ValueError(f"first factor must live over the prime field GF({spec.p})")
    h1 = c1.dual(InnerProductKind.EUCLIDEAN).generator
    a1 = complement_basis(h1, c1.n)
    d2 = c2.symplectic_dual()
    h2 = d2.generators
    # complement of the dual's expanded row space inside GF(p)^(ell*n2),
    # mapped back to GF(q) vectors
    a2_expanded = complement_basis(d2.expanded, spec.ell * c2.n)
    a2 = Matrix(spec, [AdditiveCode._compress_row(spec, r) for r in a2_expanded.rows], ncols=c2.n)
    blocks = [
        _tensor_rows_p(spec, h1.rows, h2.rows, c1.n, c2.n),
        _tensor_rows_p(spec, a1.rows, h2.rows, c1.n, c2.n),
        _tensor_rows_p(spec, h1.rows, a2.rows, c1.n, c2.n),
    ]
    stacked = blocks[0].stack(blocks[1]).stack(blocks[2])
    expect = spec.ell * c1.n * c2.n - c1.k * c2.k_p
    if stacked.nrows != expect:
        raise AssertionError(f"stacked dual generator has {stacked.nrows} rows, expected {expect}")
    return stacked


def dual_distance_ceiling(c1, c2, kind: InnerProductKind,
                          budget: int | None = None) -> int | None:
    """Certified upper bound on the dual distance of the product: the
    smaller of the factor dual distances.

    A factor whose dual is the zero code (a full space) imposes no
    constraint: with C1 = F^n1 the product's dual is F^n1 (x) C2^perp, of
    distance d(C2^perp).  When both factor duals are zero, so is the
    product's dual, and there is no ceiling (None).
    """
    if kind is InnerProductKind.SYMPLECTIC:
        duals = (c1.dual(InnerProductKind.EUCLIDEAN), c2.symplectic_dual())
    else:
        duals = (c1.dual(kind), c2.dual(kind))
    certs = [min_distance(d, budget=budget) for d in duals]
    return min((c.value for c in certs if not c.degenerate), default=None)


def check_selforth_transfer(c_arbitrary, c_selforth, kind: InnerProductKind) -> bool:
    """Build the product of an arbitrary code with a self-orthogonal one
    and report whether the product is self-orthogonal (it always must be)."""
    if kind is InnerProductKind.SYMPLECTIC:
        if not isinstance(c_selforth, AdditiveCode):
            raise ValueError("symplectic transfer needs an additive second factor")
        if not c_selforth.is_self_orthogonal():
            raise ValueError("second factor is not symplectically self-orthogonal")
        prod = product_additive(c_arbitrary, c_selforth)
        return prod.is_self_orthogonal()
    if not c_selforth.is_self_orthogonal(kind):
        raise ValueError(f"second factor is not self-orthogonal under {kind}")
    prod = product(c_arbitrary, c_selforth)
    return prod.is_self_orthogonal(kind)

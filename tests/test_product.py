"""Product codes: tensor inner-product identities, the stacked dual
generator against kernel-computed duals, the dual-distance ceiling, and
self-orthogonality transfer."""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_min_distance, gram_scalar, random_additive_code, random_linear_code
from qproduct.catalog import hamming, hamming_dual, quaternary_hamming_dual_5, simplex
from qproduct.code import AdditiveCode, LinearCode, min_distance, spanned_code
from qproduct.cyclic import rs_code
from qproduct.galois import GF
from qproduct.matrix import InnerProductKind, Matrix
from qproduct.product import (dual_distance_ceiling, dual_of_product_generator, product,
                              product_additive, tensor_generator)

E = InnerProductKind.EUCLIDEAN
H = InnerProductKind.HERMITIAN
S = InnerProductKind.SYMPLECTIC


def _tensor(spec, v, w):
    return tuple(spec.mul(a, b) for a in v for b in w)


def _tensor_p(spec, v, w):
    return tuple(spec.mul(a, b) for a in v for b in w)  # a prime-field value is itself


def test_product_of_dual_hamming():
    c = hamming_dual(3, 2)
    p = product(c, c)
    assert (p.n, p.k) == (49, 9)
    assert p.claimed_distance == 16
    assert min_distance(p).value == 16


def test_product_with_trivial_length_one_code():
    c = hamming_dual(3, 2)
    one = LinearCode(Matrix(GF(2), [[1]]))
    assert product(c, one) == c


def test_quaternary_product():
    c = quaternary_hamming_dual_5()
    p = product(c, c)
    assert (p.n, p.k) == (25, 4)
    assert min_distance(p).value == 16


def test_product_field_mismatch():
    with pytest.raises(ValueError):
        product(hamming_dual(3, 2), quaternary_hamming_dual_5())


def test_product_additive_chain():
    c1 = simplex(2, 2)
    c2 = AdditiveCode.from_linear(quaternary_hamming_dual_5())
    assert c2.k_p == 4 and min_distance(c2).value == 4
    p = product_additive(c1, c2)
    assert (p.n, p.k_p) == (15, 8)
    assert p.claimed_distance == 8
    assert min_distance(p).value == 8


def test_product_additive_identity_factor():
    one = LinearCode(Matrix(GF(2), [[1]]))
    c2 = AdditiveCode.from_linear(quaternary_hamming_dual_5())
    assert product_additive(one, c2) == c2


def test_product_additive_requires_prime_factor():
    c2 = AdditiveCode.from_linear(quaternary_hamming_dual_5())
    with pytest.raises(ValueError):
        product_additive(quaternary_hamming_dual_5(), c2)


@pytest.mark.parametrize("q", [2, 4, 5])
def test_euclidean_tensor_identity(q):
    spec = GF(q)
    rng = random.Random(q)
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        v = tuple(rng.randrange(q) for _ in range(n))
        v2 = tuple(rng.randrange(q) for _ in range(n))
        w = tuple(rng.randrange(q) for _ in range(m))
        w2 = tuple(rng.randrange(q) for _ in range(m))
        lhs = gram_scalar(spec, _tensor(spec, v, w), _tensor(spec, v2, w2), E)
        rhs = spec.mul(gram_scalar(spec, v, v2, E), gram_scalar(spec, w, w2, E))
        assert lhs == rhs


@pytest.mark.parametrize("q", [4, 16])
def test_hermitian_tensor_identity(q):
    spec = GF(q)
    rng = random.Random(q)
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        v = tuple(rng.randrange(q) for _ in range(n))
        v2 = tuple(rng.randrange(q) for _ in range(n))
        w = tuple(rng.randrange(q) for _ in range(m))
        w2 = tuple(rng.randrange(q) for _ in range(m))
        lhs = gram_scalar(spec, _tensor(spec, v, w), _tensor(spec, v2, w2), H)
        rhs = spec.mul(gram_scalar(spec, v, v2, H), gram_scalar(spec, w, w2, H))
        assert lhs == rhs


@pytest.mark.parametrize("q", [4, 9])
def test_symplectic_tensor_identity(q):
    spec = GF(q)
    p = spec.p
    pf = spec.prime_field
    rng = random.Random(q)
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        v = tuple(rng.randrange(p) for _ in range(n))
        v2 = tuple(rng.randrange(p) for _ in range(n))
        w = tuple(rng.randrange(q) for _ in range(m))
        w2 = tuple(rng.randrange(q) for _ in range(m))
        lhs = gram_scalar(spec, _tensor_p(spec, v, w), _tensor_p(spec, v2, w2), S)
        rhs = pf.mul(gram_scalar(pf, v, v2, E), gram_scalar(spec, w, w2, S))
        assert lhs == rhs


@pytest.mark.parametrize("q,kind", [(2, E), (4, E), (5, E), (4, H)])
def test_dual_of_product_generator_linear(q, kind):
    rng = random.Random(200 + q + (0 if kind is E else 1))
    spec = GF(q)
    for _ in range(12):
        c1 = random_linear_code(rng, spec, rng.randint(2, 6), 4)
        c2 = random_linear_code(rng, spec, rng.randint(2, 6), 4)
        stacked = dual_of_product_generator(c1, c2, kind)
        dual = product(c1, c2).dual(kind)
        assert stacked.nrows == c1.n * c2.n - c1.k * c2.k
        assert spanned_code(kind, spec, stacked.array, dual.n) == dual


def test_dual_of_product_generator_symplectic():
    rng = random.Random(210)
    spec = GF(4)
    for _ in range(12):
        c1 = random_linear_code(rng, GF(2), rng.randint(2, 4), 3)
        c2 = random_additive_code(rng, spec, rng.randint(2, 4), 4)
        stacked = dual_of_product_generator(c1, c2, S)
        prod = product_additive(c1, c2)
        dual = prod.symplectic_dual()
        assert stacked.nrows == spec.ell * prod.n - prod.k_p
        assert AdditiveCode(spec, stacked.rows, n=prod.n) == dual


@st.composite
def _factor_pairs(draw):
    """A kind and two factors of a product under it: Euclidean over
    GF(2..16), Hermitian over GF(4), GF(9) and GF(16), symplectic with a
    prime-field first factor and an additive second over GF(4) and GF(9).
    Each factor is the zero code, a span of rows that may be zero or
    repeated, or the full space."""
    kind = draw(st.sampled_from([E, H, S]))
    fields = {E: [2, 3, 4, 5, 7, 8, 9, 16], H: [4, 9, 16], S: [4, 9]}[kind]
    spec = GF(draw(st.sampled_from(fields)))
    scalars = spec.prime_field if kind is S else spec

    def factor(field, factor_kind):
        n = draw(st.integers(1, 5))
        how = draw(st.sampled_from(["zero", "rows", "full"]))
        if how == "full":  # x^t e_i for each t below the degree of GF(q) over the scalars
            units = [field.p**t for t in range(field.ell)] if factor_kind is S else [1]
            rows = [[u if j == i else 0 for j in range(n)] for i in range(n) for u in units]
        else:
            symbol = st.integers(0, field.q - 1) if how == "rows" else st.just(0)
            row = st.lists(symbol, min_size=n, max_size=n)
            rows = draw(st.lists(row, min_size=1, max_size=4))
            rows += rows[:draw(st.integers(0, 1))]  # a repeated row
        return spanned_code(factor_kind, field, rows, n)

    return kind, factor(scalars, E), factor(spec, kind)


@settings(max_examples=150, deadline=None)
@given(case=_factor_pairs())
def test_product_basis_and_dual_come_from_the_factors(case):
    """The Kronecker product of the factors' bases is the rref of the
    tensor generators, and the dual assembled from the factors' forms is
    the kernel of the product's own form."""
    kind, c1, c2 = case
    prod = product(c1, c2)
    generic = spanned_code(kind, prod.spec, tensor_generator(c1, c2).array, prod.n)
    assert prod.basis == generic.basis and prod.dim == c1.dim * c2.dim
    assert prod.dual(kind).basis == prod._form(kind).kernel()


def test_dual_of_product_full_space_factor():
    full = LinearCode(Matrix(GF(2), np.eye(3, dtype=int)))
    c2 = hamming_dual(3, 2)
    stacked = dual_of_product_generator(full, c2, E)
    h2 = c2.dual(E).generator
    expected = Matrix(GF(2), np.eye(3, dtype=int)).kronecker(h2)
    assert stacked.rref()[0] == expected.rref()[0]


def test_dual_distance_ceiling_examples():
    c = hamming_dual(3, 2)
    assert dual_distance_ceiling(c, c, E) == 3
    d = min_distance(product(c, c).dual(E)).value
    assert d == 3
    # a factor whose dual has a weight-1 word forces ceiling 1
    weak = LinearCode(Matrix(GF(2), [[1, 0]]))
    assert dual_distance_ceiling(weak, c, E) == 1
    # a full-space factor has a zero dual and imposes no constraint
    full = LinearCode(Matrix(GF(2), np.eye(1, dtype=int)))
    ham = hamming(3, 2)
    assert dual_distance_ceiling(ham, full, E) == 4
    assert min_distance(product(ham, full).dual(E)).value == 4
    assert dual_distance_ceiling(full, full, E) is None
    # an inexact factor dual ([5, None] for rs(8,4) at budget 1) still
    # lets the other factor's exact weight-2 word set the ceiling
    assert dual_distance_ceiling(rs_code(8, 4).code, rs_code(8, 7).code, E, budget=1) == 2


@pytest.mark.parametrize("q", [2, 4, 5])
def test_dual_distance_respects_ceiling(q):
    rng = random.Random(220 + q)
    spec = GF(q)
    checked = 0
    while checked < 8:
        n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
        c1 = LinearCode(Matrix(spec, [[rng.randrange(q) for _ in range(n1)]
                                      for _ in range(n1 - 1)], ncols=n1))
        c2 = LinearCode(Matrix(spec, [[rng.randrange(q) for _ in range(n2)]
                                      for _ in range(n2 - 1)], ncols=n2))
        if c1.k == 0 or c2.k == 0:
            continue
        prod_dual = product(c1, c2).dual(E)
        if prod_dual.k == 0 or prod_dual.size() > 1 << 18:
            continue
        ceiling = dual_distance_ceiling(c1, c2, E)
        assert brute_min_distance(prod_dual) <= ceiling
        checked += 1


def test_selforth_transfer_euclidean():
    rng = random.Random(230)
    c_so = hamming_dual(3, 2)
    for _ in range(5):
        arbitrary = random_linear_code(rng, GF(2), rng.randint(2, 5), 3)
        assert product(arbitrary, c_so).is_self_orthogonal(E)


def test_selforth_transfer_hermitian():
    rng = random.Random(231)
    c_so = quaternary_hamming_dual_5()
    for _ in range(5):
        arbitrary = random_linear_code(rng, GF(4), rng.randint(2, 5), 3)
        assert product(arbitrary, c_so).is_self_orthogonal(H)


def test_selforth_transfer_symplectic():
    rng = random.Random(232)
    c_so = AdditiveCode.from_linear(quaternary_hamming_dual_5())
    assert c_so.is_self_orthogonal()
    for _ in range(5):
        arbitrary = random_linear_code(rng, GF(2), rng.randint(2, 5), 3)
        assert product(arbitrary, c_so).is_self_orthogonal(S)

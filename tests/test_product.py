"""Product codes: tensor inner-product identities, the stacked dual
generator against kernel-computed duals, the product-dual certificate, and
self-orthogonality transfer."""
import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import brute_min_distance, inner_product, random_additive_code, random_linear_code
from qproduct.catalog import hamming, hamming_dual, quaternary_hamming_dual_5, simplex
from qproduct.code import (AdditiveCode, LinearCode, min_distance, product_dual_certificate,
                           spanned_code)
from qproduct.cyclic import rs_code
from qproduct.galois import GF
from qproduct.matrix import InnerProductKind, Matrix
from qproduct.product import dual_of_product_generator, product, product_additive, tensor_generator

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
        lhs = inner_product(spec, _tensor(spec, v, w), _tensor(spec, v2, w2), E)
        rhs = spec.mul(inner_product(spec, v, v2, E), inner_product(spec, w, w2, E))
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
        lhs = inner_product(spec, _tensor(spec, v, w), _tensor(spec, v2, w2), H)
        rhs = spec.mul(inner_product(spec, v, v2, H), inner_product(spec, w, w2, H))
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
        lhs = inner_product(spec, _tensor_p(spec, v, w), _tensor_p(spec, v2, w2), S)
        rhs = pf.mul(inner_product(pf, v, v2, E), inner_product(spec, w, w2, S))
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


@settings(max_examples=150, deadline=None)
@given(case=_factor_pairs())
def test_product_self_orthogonality_from_the_factors_matches_its_gram(case):
    """A product is self-orthogonal iff a factor is, under the kind that
    factor pairs by: the product rule of ``is_self_orthogonal`` equals the
    test on the product's own Gram matrix, zero and full-space factors
    included."""
    kind, c1, c2 = case
    prod = product(c1, c2)
    gram = prod._form(kind).gram(prod.basis).is_zero()
    assert prod.is_self_orthogonal(kind) == gram
    first = c1.is_self_orthogonal(E if kind is S else kind)
    assert gram == (first or c2.is_self_orthogonal(kind))


def test_dual_of_product_full_space_factor():
    full = LinearCode(Matrix(GF(2), np.eye(3, dtype=int)))
    c2 = hamming_dual(3, 2)
    stacked = dual_of_product_generator(full, c2, E)
    h2 = c2.dual(E).generator
    expected = Matrix(GF(2), np.eye(3, dtype=int)).kronecker(h2)
    assert stacked.rref()[0] == expected.rref()[0]


def _bounds(cert):
    return [cert.lower, cert.upper, cert.lower_method]


def test_dual_distance_ceiling_examples():
    c = hamming_dual(3, 2)
    cert = product_dual_certificate(c, c, E)
    assert _bounds(cert) == [3, 3, "product-dual"]
    dual = product(c, c).dual(E)
    assert dual.contains(cert.witness) and min_distance(dual).value == 3
    # a factor whose dual has a weight-1 word forces distance 1
    weak = LinearCode(Matrix(GF(2), [[1, 0]]))
    assert _bounds(product_dual_certificate(weak, c, E)) == [1, 1, "product-dual"]
    # a full-space factor has a zero dual and imposes no constraint
    full = LinearCode(Matrix(GF(2), np.eye(1, dtype=int)))
    ham = hamming(3, 2)
    assert _bounds(product_dual_certificate(ham, full, E)) == [4, 4, "product-dual"]
    assert min_distance(product(ham, full).dual(E)).value == 4
    both = product_dual_certificate(full, full, E)
    assert both.degenerate and both.witness is None
    # an inexact factor dual ([5, None] for the rows of rs(8,4), with no
    # zeros kept, at budget 1) still lets the other factor's exact weight-2
    # word set the upper bound, and the least lower bound is then 2
    rs4, rs7 = (LinearCode(rs_code(8, delta).basis) for delta in (4, 7))
    assert _bounds(min_distance(rs4.dual(E), budget=1)) == [5, None, "column-independence"]
    assert _bounds(product_dual_certificate(rs4, rs7, E, budget=1)) == [2, 2, "product-dual"]
    # with no factor witness there is a lower bound and no upper one
    assert _bounds(product_dual_certificate(rs4, rs4, E, budget=1)) == [5, None, "product-dual"]
    # the Reed-Solomon factors themselves keep their zeros: both duals by BCH
    cert = product_dual_certificate(rs_code(8, 4), rs_code(8, 7), E, budget=1)
    assert _bounds(cert) == [2, 2, "bch-rectangle"]


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
        cert = product_dual_certificate(c1, c2, E)
        assert cert.exact and brute_min_distance(prod_dual) == cert.value
        assert prod_dual.contains(cert.witness)
        checked += 1


@st.composite
def _products(draw):
    """A product over GF(2), GF(3) or GF(4), or of a binary code with an
    additive code over GF(4), of at most 2^8 words.  A factor may be the
    zero code or the full space, and the first may itself be a product."""
    q, kind = draw(st.sampled_from([(2, E), (3, E), (4, E), (4, S)]))
    spec = GF(q)
    scalars = spec.prime_field if kind is S else spec

    def factor(field, factor_kind, dim):
        """A code of length 1..3 over ``field`` from at most about ``dim``
        F-dimensions of rows, or the full space when it has no more."""
        units = [field.p**t for t in range(field.ell)] if factor_kind is S else [1]
        n = draw(st.integers(1, 3))
        if n * len(units) <= dim and draw(st.booleans()):
            rows = [[u if j == i else 0 for j in range(n)] for i in range(n) for u in units]
        else:
            row = st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n)
            rows = draw(st.lists(row, min_size=1, max_size=max(1, dim // len(units))))
        return spanned_code(factor_kind, field, rows, n)

    if draw(st.booleans()):  # a product of a product
        first = product(factor(scalars, E, 2), factor(scalars, E, 1))
    else:
        first = factor(scalars, E, 2)
    return product(first, factor(spec, kind, 4 if kind is S else 2))


@settings(max_examples=150, deadline=None)
@given(prod=_products())
def test_product_certificate_matches_enumeration(prod):
    """At budget 0 the "product" rule replaces enumeration and the search.
    Its lower bound is at most the enumerated distance, its witness is a
    word of the product of weight upper, and it is exact at d1 * d2, the
    enumerated distance, whenever both factor certificates are."""
    cert = min_distance(prod, budget=0)
    d = brute_min_distance(prod)
    if prod.dim == 0:
        assert cert.degenerate and cert.lower == d
        return
    c1, c2 = prod._factors
    assert d == brute_min_distance(c1) * brute_min_distance(c2)
    assert cert.lower_method == "product" and cert.lower <= d
    if cert.upper is not None:
        assert prod.contains(cert.witness)
        assert sum(1 for v in cert.witness if v) == cert.upper >= d
    if all(min_distance(c, budget=0).exact for c in (c1, c2)):
        assert cert.exact and cert.value == d


def test_product_certificate_without_a_factor_witness():
    """simplex(4, 2) is [15, 4, 8]: at budget 0 the search finds no word
    of weight <= 4 and reads [5, None], so the product has the lower bound
    5 * 2 and no upper bound, below its enumerated distance 8 * 2."""
    p = product(simplex(4, 2), simplex(2, 2))
    assert _bounds(min_distance(p, budget=0)) == [10, None, "product"]
    assert min_distance(p).value == brute_min_distance(p) == 16


@st.composite
def _duals_past_the_search(draw):
    """The dual of a product C1 (x) C2 over GF(2) or GF(3) (Euclidean),
    GF(4) (Hermitian) or of a binary code with an additive code over GF(4)
    (symplectic), of at most 2^20 words.  A factor is C_i = D_i^perp, D_i
    spanned by one or two rows of weight >= 5 and of distance >= 5, or the
    full space (D_i = 0), but not both: the dual has distance
    min(d(D1), d(D2)) >= 5, so the search finds no word in it."""
    q, kind = draw(st.sampled_from([(2, E), (3, E), (4, H), (4, S)]))
    spec = GF(q)

    def factor(field, factor_kind, full):
        if full:
            units = [field.p**t for t in range(field.ell)] if factor_kind is S else [1]
            n = draw(st.integers(2, 4))  # at length 1 the dual is the other factor's
            rows = [[u if j == i else 0 for j in range(n)] for i in range(n) for u in units]
            return spanned_code(factor_kind, field, rows, n)
        n = draw(st.integers(5, 6))
        rows = []
        for _ in range(draw(st.integers(1, 2))):
            row = draw(st.lists(st.integers(1, field.q - 1), min_size=n, max_size=n))
            for j in draw(st.sets(st.integers(0, n - 1), max_size=n - 5)):
                row[j] = 0
            rows.append(row)
        d = spanned_code(factor_kind, field, rows, n)
        assume(brute_min_distance(d) >= 5)
        return d.dual(factor_kind)

    full1, full2 = draw(st.sampled_from([(False, False), (True, False), (False, True)]))
    c1 = factor(spec.prime_field if kind is S else spec, E if kind is S else kind, full1)
    c2 = factor(spec, kind, full2)
    dual = product(c1, c2).dual(kind)
    assume(dual.size() <= 1 << 20)
    return dual


@settings(max_examples=150, deadline=None)
@given(dual=_duals_past_the_search())
def test_product_dual_rule_matches_enumeration(dual):
    """Above the budget, and with the factor duals inside it, the search
    finds nothing and ``min_distance`` reads the product-dual theorem: exact
    at the distance that enumeration of the dual gives, and at brute force
    for duals of at most 2^12 words, with its witness in the dual."""
    c1, c2, kind = dual._dual_of
    budget = max(c1.dual(E if kind is S else kind).size(), c2.dual(kind).size())
    assert budget < dual.size()
    cert = min_distance(dual, budget=budget)
    assert cert.lower_method == "product-dual" and cert.exact and cert.lower >= 5
    assert cert.value == min_distance(dual).value
    if dual.size() <= 1 << 12:
        assert cert.value == brute_min_distance(dual)
    assert dual.contains(cert.witness)


def test_product_dual_rule_outlives_the_product():
    """The dual holds the product's factors, not the product: once the
    product is collected, the even-weight [5,4] (x) [5,4] dual (2^9 words)
    still reads the theorem exact at 5 above a budget of 16 words."""
    even = LinearCode.from_rows(GF(2), [[1, 0, 0, 0, 1], [0, 1, 0, 0, 1],
                                        [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]])
    prod = product(even, even)
    dual, alive = prod.dual(E), weakref.ref(prod)
    del prod
    gc.collect()
    assert alive() is None
    cert = min_distance(dual, budget=16)
    assert _bounds(cert) == [5, 5, "product-dual"]
    assert dual.contains(cert.witness)
    assert min_distance(dual).value == brute_min_distance(dual) == 5


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

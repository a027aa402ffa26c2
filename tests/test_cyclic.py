"""Cyclic and Reed-Solomon codes, spectra, dual coordinate maps, the BCH
certificate and the rectangle bound."""
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (cyclic_oracle, flat_to_grid, inverse_spectrum_2d, orthogonal_to_rows,
                     root_of_unity, spectrum_2d)
from qproduct.code import (LinearCode, _check_rows, cyclic_basis, enumeration_budget,
                           find_low_weight_word, hamming_weight, min_distance)
from qproduct.cyclic import (RsProductReport, cyclic_from_roots,
                             dual_support_map, product_spectrum_support, rs_code,
                             rs_product_dual_certificate, rs_product_params)
from qproduct.galois import GF
from qproduct.matrix import InnerProductKind, Matrix

E = InnerProductKind.EUCLIDEAN
H = InnerProductKind.HERMITIAN


def mapped_complement(zeros, n):
    """The zeros of the Euclidean dual of the cyclic code with zero set
    ``zeros``: the complement in Z_n, mapped by i -> -i mod n."""
    return frozenset(dual_support_map(i, n, E) for i in range(n) if i not in zeros)


def test_cyclic_from_roots_basic():
    c = cyclic_from_roots(8, 7, [0, 1, 2])
    assert (c.n, c.k) == (7, 4) and c.zeros == frozenset({0, 1, 2})
    assert cyclic_from_roots(8, 7, [8, -1]).zeros == frozenset({1, 6})  # exponents mod n
    c_full = cyclic_from_roots(8, 7, [])
    assert c_full.k == 7 and c_full.zeros == frozenset()


def test_cyclic_from_roots_rejects_bad_length():
    for n in (5, 0, -3):
        with pytest.raises(ValueError):
            cyclic_from_roots(4, n, [0])


def test_cyclic_from_roots_rejects_duplicates():
    with pytest.raises(ValueError):
        cyclic_from_roots(8, 7, [1, 1])
    with pytest.raises(ValueError):
        cyclic_from_roots(8, 7, [2, 9])  # equal mod n


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16])
def test_cyclic_code_matches_the_generator_polynomial_oracle(q):
    """A cyclic code's basis is that of the code of prod (X - alpha^z):
    random zero sets at every length n | q-1, and every RS code."""
    spec = GF(q)
    rng = random.Random(q)
    for n in (n for n in range(1, q) if (q - 1) % n == 0):
        for size in range(n + 1):
            zeros = rng.sample(range(n), size)
            code = cyclic_from_roots(spec, n, zeros)
            assert code == cyclic_oracle(spec, n, zeros) and code.k == n - size
    for delta in range(2, q):
        rs = rs_code(spec, delta)
        assert rs == cyclic_oracle(spec, q - 1, range(delta - 1))
        assert min_distance(rs).value == delta


def test_rs_parameters():
    c = rs_code(5, 3)
    assert (c.n, c.k) == (4, 2)
    assert min_distance(c).value == 3
    c2 = rs_code(4, 2)
    assert (c2.n, c2.k) == (3, 2)
    assert min_distance(c2).value == 2


def test_rs_rejects_bad_delta():
    with pytest.raises(ValueError):
        rs_code(5, 1)
    with pytest.raises(ValueError):
        rs_code(5, 5)


@pytest.mark.parametrize("q", [4, 5, 7, 8])
def test_rs_is_mds(q):
    for delta in range(2, q):
        code = rs_code(q, delta)
        assert code.k == q - delta
        assert min_distance(code).value == delta


@pytest.mark.parametrize("q,n", [(8, 7), (5, 4), (4, 3), (9, 8), (9, 4)])
def test_dual_generator_poly_matches_kernel(q, n):
    """The Euclidean dual of the cyclic code with zeros Z is the cyclic
    code on the mapped complement of Z: the library's kernel equals the
    code of the dual's generator polynomial, prod (X - alpha^z) over that
    complement, and mapping the complement twice gives Z back."""
    spec = GF(q)
    rng = random.Random(q * n)
    for _ in range(6):
        exps = sorted(rng.sample(range(n), rng.randint(0, n - 1)))
        code = cyclic_from_roots(spec, n, exps)
        dual_zeros = mapped_complement(code.zeros, n)
        assert cyclic_oracle(spec, n, dual_zeros) == code.dual(E)
        assert cyclic_from_roots(spec, n, dual_zeros) == code.dual(E)
        # involution
        assert mapped_complement(dual_zeros, n) == code.zeros


def test_dual_generator_poly_extremes():
    """No zeros is the full space (generator 1) and every zero the zero
    code (generator X^n - 1); each is the other's dual."""
    spec = GF(8)
    full = cyclic_from_roots(spec, 7, [])
    zero = cyclic_from_roots(spec, 7, range(7))
    assert full == LinearCode(Matrix(spec, np.eye(7, dtype=int))) == cyclic_oracle(spec, 7, [])
    assert zero.k == 0 and zero == cyclic_oracle(spec, 7, range(7))
    assert mapped_complement(full.zeros, 7) == zero.zeros
    assert mapped_complement(zero.zeros, 7) == full.zeros
    assert full.dual(E) == zero and zero.dual(E) == full


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_cyclic_basis_of_every_interval_is_the_kernel_of_its_check_rows(q):
    """The closed-form basis of every cyclic interval {b, ..., b+r-1} mod
    n, for every b, every 0 <= r <= n and every n | q-1, and that of its
    Euclidean dual's zeros, each equal the rref kernel of the check rows."""
    spec = GF(q)
    for n in (n for n in range(1, q) if (q - 1) % n == 0):
        for r in range(n + 1):
            for b in range(n):
                zeros = frozenset((b + t) % n for t in range(r))
                for z in (zeros, mapped_complement(zeros, n)):
                    basis = cyclic_basis(spec, n, z)
                    assert basis == _check_rows(spec, n, z).kernel()
                    assert basis.nrows == n - len(z)


def test_rs_codes_and_duals_need_no_elimination_or_gram(monkeypatch):
    """Building rs(q, delta) and its Euclidean dual, and reading their
    self-orthogonality flags, calls no ``Matrix.rref``, ``Matrix.kernel``
    or ``Matrix.gram``; the flags are those of the Gram test."""
    calls, flags = [], []
    for name in ("rref", "kernel", "gram"):
        real = getattr(Matrix, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(Matrix, name, counted)
    for q in (4, 5, 7, 8, 9, 11, 13, 16):
        for delta in range(2, q):
            rs = rs_code(q, delta)
            for code in (rs, rs.dual(E)):
                for kind in (E, H) if GF(q).ell % 2 == 0 else (E,):
                    flags.append((code, kind, code.is_self_orthogonal(kind)))
    assert calls == []
    monkeypatch.undo()
    assert all(flag == _gram_orthogonal(code, kind) for code, kind, flag in flags)
    # rs(q, delta) with 2 (delta - 1) > q - 1, and no RS dual
    assert sum(flag for _, kind, flag in flags if kind is E) == 26


def _gram_orthogonal(code, kind):
    return code._form(kind).gram(code.basis).is_zero()


@st.composite
def _zero_sets(draw):
    kind = draw(st.sampled_from([E, H]))
    q = draw(st.sampled_from([3, 4, 5, 7, 8, 9, 11, 13, 16] if kind is E else [4, 9, 16]))
    n = draw(st.sampled_from([n for n in range(1, q) if (q - 1) % n == 0]))
    zeros = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return kind, GF(q), n, sorted(zeros)


@settings(max_examples=200, deadline=None)
@given(case=_zero_sets())
def test_self_orthogonality_from_zeros_matches_the_gram_test(case):
    """Z | -Z = Z_n (Euclidean) and Z | -sqrt(q) Z = Z_n (Hermitian) decide
    self-orthogonality as the Gram matrix does, for a cyclic code with
    random zeros and for its Euclidean dual."""
    kind, spec, n, zeros = case
    code = cyclic_from_roots(spec, n, zeros)
    for c in (code, code.dual(E)):
        assert c.zeros is not None
        assert c.is_self_orthogonal(kind) == _gram_orthogonal(c, kind)


def test_spectrum_zero_and_impulse():
    spec = GF(8)
    a = root_of_unity(spec, 7)
    zero = [[0] * 7 for _ in range(7)]
    sp = spectrum_2d(spec, zero, a, a)
    assert all(v == 0 for row in sp.grid for v in row)
    impulse = [[0] * 7 for _ in range(7)]
    impulse[0][0] = 1
    sp = spectrum_2d(spec, impulse, a, a)
    assert all(v == 1 for row in sp.grid for v in row)


@pytest.mark.parametrize("q,n1,n2", [(8, 7, 7), (5, 4, 4), (9, 8, 4)])
def test_spectrum_roundtrip(q, n1, n2):
    spec = GF(q)
    rng = random.Random(q + n1)
    a = root_of_unity(spec, n1)
    b = root_of_unity(spec, n2)
    for _ in range(5):
        word = [[rng.randrange(q) for _ in range(n2)] for _ in range(n1)]
        sp = spectrum_2d(spec, word, a, b)
        assert inverse_spectrum_2d(sp) == tuple(tuple(r) for r in word)


def test_spectrum_rejects_wrong_order():
    spec = GF(8)
    with pytest.raises(ValueError):
        spectrum_2d(spec, [[0] * 7 for _ in range(7)], 1, root_of_unity(spec, 7))


@pytest.mark.parametrize("q,d1,d2", [(5, 2, 3), (8, 3, 4)])
def test_spectral_membership_characterization(q, d1, d2):
    """A word lies in the bicyclic product iff its spectrum vanishes on
    the stripes of both factors (tested in both directions)."""
    spec = GF(q)
    c1, c2 = rs_code(spec, d1), rs_code(spec, d2)
    n1 = n2 = q - 1
    from qproduct.product import product

    prod = product(c1, c2)
    a = root_of_unity(spec, n1)
    b = root_of_unity(spec, n2)
    mask = product_spectrum_support(c1, c2)

    def vanishes_on_stripes(word_flat):
        sp = spectrum_2d(spec, flat_to_grid(word_flat, n1, n2), a, b)
        return all(sp.grid[i][j] == 0
                   for i in range(n1) for j in range(n2) if mask[i][j])

    rng = random.Random(q)
    for row in prod.generator.rows:
        assert vanishes_on_stripes(row)
    inside = 0
    while inside < 5:
        coeffs = [rng.randrange(q) for _ in range(prod.k)]
        word = [0] * prod.n
        for c, row in zip(coeffs, prod.generator.rows):
            if c:
                for i, v in enumerate(row):
                    if v:
                        word[i] = spec.add(word[i], spec.mul(c, v))
        assert vanishes_on_stripes(word)
        inside += 1
    outside = 0
    while outside < 5:
        word = [rng.randrange(q) for _ in range(prod.n)]
        if prod.contains(word):
            continue
        assert not vanishes_on_stripes(word)
        outside += 1


def test_dual_support_map_values():
    assert dual_support_map(0, 7, E) == 0
    assert dual_support_map(1, 7, E) == 6
    assert dual_support_map(3, 7, E) == 4
    assert dual_support_map(1, 5, H, frob_power=2) == 3


def test_dual_support_map_requires_frobenius_power():
    with pytest.raises(ValueError):
        dual_support_map(1, 5, H)


@pytest.mark.parametrize("delta", range(2, 8))
def test_dual_spectrum_is_mapped_complement(delta):
    """The dual's zeros, the exponents i at which every dual word c has
    c(alpha^i) = 0, sit exactly at the coordinate-mapped complement of the
    primal zeros."""
    spec = GF(8)
    n = 7
    alpha = root_of_unity(spec, n)
    code = rs_code(spec, delta)
    dual = code.dual(E)

    def evaluate(word, x):
        acc = 0
        for j, c in enumerate(word):
            acc = spec.add(acc, spec.mul(c, spec.power(x, j)))
        return acc

    dual_zero = {i for i in range(n)
                 if all(evaluate(row, spec.power(alpha, i)) == 0 for row in dual.generator.rows)}
    assert dual_zero == mapped_complement(code.zeros, n)
    assert cyclic_from_roots(spec, n, mapped_complement(code.zeros, n)) == dual


def test_bch_certificate_of_every_rs_code_and_dual():
    """All 114 RS codes and RS duals with 4 <= q <= 16 are certified by
    their BCH bound, exact, with the witness in the code; each equals the
    exhaustive distance of the same rows with no zeros kept, wherever
    those fit 2^20 words."""
    budget, cases, enumerated = 1 << 20, 0, 0
    for q in (4, 5, 7, 8, 9, 11, 13, 16):
        for delta in range(2, q):
            rs = rs_code(q, delta)
            for code in (rs, rs.dual(E)):
                cert = min_distance(code)
                assert cert.lower_method == "bch" and cert.exact
                assert code.contains(cert.witness) and hamming_weight(cert.witness) == cert.value
                plain = LinearCode(code.basis)
                if plain.size() <= budget:
                    exhaustive = min_distance(plain, budget=budget)
                    assert exhaustive.lower_method == "exhaustive"
                    assert exhaustive.value == cert.value
                    enumerated += 1
                cases += 1
    assert (cases, enumerated) == (114, 74)


@st.composite
def _cyclic_cases(draw):
    q = draw(st.sampled_from([4, 5, 7, 8, 9]))
    n = draw(st.sampled_from([n for n in range(2, q) if (q - 1) % n == 0]))
    zeros = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    return GF(q), n, sorted(zeros)


@settings(max_examples=80, deadline=None)
@given(case=_cyclic_cases())
def test_bch_certificate_matches_enumeration_of_the_oracle(case):
    """A cyclic code and its Euclidean dual, with random zeros: each equals
    the oracle's code of its generator polynomial, and every "bch"
    certificate is the exhaustive distance of that oracle code, which
    keeps no zeros."""
    spec, n, zeros = case
    code = cyclic_from_roots(spec, n, zeros)
    for c in (code, code.dual(E)):
        oracle = cyclic_oracle(spec, n, c.zeros)
        assert oracle == c
        cert = min_distance(c)
        if cert.lower_method == "bch":
            assert cert.exact and c.contains(cert.witness)
            assert cert.value == min_distance(oracle).value


def test_rectangle_bound_16_12_dual():
    """Dual of the [16,4] product of two [4,2,3] codes: the 2x2 zero
    rectangle gives bound 3, and the distance is certified to be exactly 3."""
    from qproduct.product import product

    c = rs_code(5, 3)
    dual = product(c, c).dual(E)
    assert (dual.n, dual.k) == (16, 12)
    mu = 5 - 3
    assert 1 + min(mu, mu) == 3
    assert find_low_weight_word(dual, max_w=2) is None
    witness = find_low_weight_word(dual, max_w=3)
    assert witness is not None and sum(1 for v in witness if v) == 3


def test_rectangle_bound_9_8_dual_exhaustive():
    """Dual of the [9,1] product of two [3,1,3] codes over GF(4): bound 2
    and full enumeration of the 4^8 words agrees."""
    from qproduct.product import product

    c = rs_code(4, 3)
    dual = product(c, c).dual(E)
    assert (dual.n, dual.k) == (9, 8)
    assert 1 + min(1, 1) == 2
    cert = min_distance(dual)
    assert cert.lower_method == "exhaustive" and cert.value == 2


def test_rectangle_bound_never_exceeds_enumerated_distance():
    from qproduct.product import product

    for q in (4, 5):
        spec = GF(q)
        for d1 in range(2, q):
            for d2 in range(2, q):
                dual = product(rs_code(spec, d1), rs_code(spec, d2)).dual(E)
                if dual.k == 0 or dual.size() > 1 << 20:
                    continue
                bound = 1 + min(q - d1, q - d2)
                assert bound <= min_distance(dual).value


def test_rs_product_params_q5():
    rep = rs_product_params(5, 3, 3)
    assert (rep.length, rep.dimension, rep.distance) == (16, 4, 9)
    assert rep.dual_dimension == 12 == rep.length - rep.dimension
    assert rep.stated_dual_distance == 2
    assert rep.expected_dual_distance == 3


def test_rs_product_params_q4():
    rep = rs_product_params(4, 2, 2)
    assert (rep.length, rep.dimension, rep.distance) == (9, 4, 4)
    assert rep.dual_dimension == 5


def test_rs_product_dimension_identity():
    for q in (4, 5, 7, 8):
        for d1 in range(2, q):
            for d2 in range(2, q):
                rep = rs_product_params(q, d1, d2)
                assert rep.dual_dimension + rep.dimension == (q - 1) ** 2


def test_rs_product_params_range_check():
    with pytest.raises(ValueError):
        rs_product_params(5, 1, 3)


@pytest.mark.parametrize("delta1,delta2", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_rs_product_dual_certificate_small_field_matches_enumeration(delta1, delta2):
    """Over GF(4) the product duals are small enough to enumerate; the
    construction's certificate is exact at the value of that enumeration."""
    cert = rs_product_dual_certificate(4, delta1, delta2)
    assert cert.lower_method == "bch-rectangle" and cert.exact
    dual = rs_product_params(4, delta1, delta2).code.dual(E)
    enumerated = min_distance(dual)
    assert enumerated.lower_method == "exhaustive"
    assert cert.value == enumerated.value


def test_rs_product_dual_certificate_rectangle_method():
    cert = rs_product_dual_certificate(5, 3, 3)
    assert cert.lower_method == "bch-rectangle"
    assert cert.exact and cert.value == 3


def test_rs_product_dual_certificate_beyond_small_support():
    # mu = (3, 3) over GF(8): the rectangle bound reaches 4, and the
    # witness search confirms it exactly
    cert = rs_product_dual_certificate(8, 5, 5)
    assert cert.lower_method == "bch-rectangle"
    assert cert.exact and cert.value == 4


def test_rs_product_dual_certificate_is_the_report_certificate():
    """Over the rs-product-grid's (q, mu) pairs, the certificate function
    is the report's method on a product built once."""
    for q in (4, 5, 7, 8):
        for mu1 in range(1, q // 2):
            for mu2 in range(1, q - 1):
                delta1, delta2 = q - mu1, q - mu2
                assert (rs_product_dual_certificate(q, delta1, delta2)
                        == rs_product_params(q, delta1, delta2).dual_certificate())


@pytest.mark.parametrize("q,count", [(5, 3), (7, 10), (8, 18), (9, 21), (11, 36), (13, 55),
                                     (16, 98)])
def test_rs_product_dual_certificate_is_the_unfloored_search(q, count):
    """Every valid RS product dual with q in {5, 7, 8, 9, 11, 13, 16} (241
    of them) is above the budget.  Its certificate is exact at the corrected
    dual distance 1 + min(mu1, mu2), and its witness is orthogonal to
    every generator row of the product (a plain loop, not ``gram``).  For
    q <= 11 the witness weighs as much as the word of the full weight-4
    search of the built dual, which finds none exactly when the rectangle
    bound is >= 5."""
    cases = 0
    for mu1 in range(1, q // 2):  # mu1 < (q-1)/2
        for mu2 in range(1, q - 1):
            rep = rs_product_params(q, q - mu1, q - mu2)
            assert q ** rep.dual_dimension > enumeration_budget()
            cert = rep.dual_certificate()
            bound = 1 + min(mu1, mu2)
            assert cert.lower_method == "bch-rectangle"
            assert cert.exact and cert.value == bound == rep.expected_dual_distance
            assert hamming_weight(cert.witness) == bound
            assert orthogonal_to_rows(GF(q), cert.witness, rep.code.generator.rows)
            if q <= 11:
                word = find_low_weight_word(rep.code.dual(E), 4)
                assert (word is None) == (bound >= 5)
                assert word is None or hamming_weight(word) == bound
            cases += 1
    assert cases == count


def test_rs_product_report_rejects_a_factor_that_is_not_reed_solomon(monkeypatch):
    """A factor with zeros {0, 2, 4} has |zeros| + 1 = 4, so the rectangle
    bound of the product with rs(7, 5) would read 1 + min(3, 2) = 3, but
    its dual holds a word of weight 2.  Such a factor is rejected by name,
    as are one of another length, one over another field, the full space
    and the rows of rs(7, 3) with no zeros kept, before the product is
    built."""
    from qproduct.product import product

    spec = GF(7)
    odd, rs = cyclic_from_roots(spec, 6, (0, 2, 4)), rs_code(spec, 5)
    word = find_low_weight_word(product(odd, rs).dual(E), 2)
    assert hamming_weight(word) == 2
    monkeypatch.setattr("qproduct.cyclic.product", None)
    short, full = cyclic_from_roots(spec, 3, (0,)), cyclic_from_roots(spec, 6, ())
    other, plain = rs_code(8, 5), LinearCode(rs_code(7, 3).basis)
    for c1, c2, named, bad in ((odd, rs, 1, odd), (rs, short, 2, short), (rs, other, 2, other),
                               (full, rs, 1, full), (rs, plain, 2, plain)):
        with pytest.raises(ValueError, match=re.escape(f"factor {named}, {bad!r} with zeros")):
            RsProductReport.of(c1, c2)


def test_rs_product_report_keeps_its_product_out_of_the_payload():
    rep = rs_product_params(5, 3, 3)
    assert (rep.code.n, rep.code.k) == (rep.length, rep.dimension)
    assert "code" not in rep.to_dict() and "code=" not in repr(rep)
    assert rep == rs_product_params(5, 3, 3) and rep.code is not rs_product_params(5, 3, 3).code


@pytest.mark.parametrize("q", [4, 5, 7, 8])
def test_product_spectrum_support_frees_one_position_per_dimension(q):
    """The free (unforced) spectral positions of a bicyclic product are
    its degrees of freedom: their count is the product's dimension, and
    the forced ones are the rows of the first factor's zeros and the
    columns of the second's."""
    from qproduct.product import product

    spec = GF(q)
    for d1 in range(2, q):
        for d2 in range(2, q):
            c1, c2 = rs_code(spec, d1), rs_code(spec, d2)
            mask = product_spectrum_support(c1, c2)
            assert sum(not m for row in mask for m in row) == product(c1, c2).k
            assert all(mask[i][j] for i in range(d1 - 1) for j in range(q - 1))
            assert all(mask[i][j] for i in range(q - 1) for j in range(d2 - 1))

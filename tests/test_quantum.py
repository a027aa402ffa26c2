"""Quantum code derivations: CSS, Hermitian, symplectic, the
Reed-Solomon product family, and exact-rational rate comparisons."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import brute_codewords
from qproduct.catalog import hamming, hamming_dual, quaternary_hamming_dual_5, simplex
from qproduct.code import AdditiveCode, LinearCode, min_distance
from qproduct.galois import GF
from qproduct.matrix import InnerProductKind, Matrix
from qproduct.product import product, product_additive
from qproduct.quantum import (css_qecc, hermitian_qecc, rate_comparison, rs_prod_qecc,
                              stabilizer_distance, symplectic_qecc)

E = InnerProductKind.EUCLIDEAN
H = InnerProductKind.HERMITIAN


def test_css_from_dual_hamming():
    params = css_qecc(hamming_dual(3, 2))
    assert params.triple() == (7, 1, 3)
    assert params.alphabet == 2


def test_css_from_binary_product():
    prod = product(hamming_dual(3, 2), hamming_dual(3, 2))
    params = css_qecc(prod)
    assert params.triple() == (49, 31, 3)


def test_css_from_zero_code():
    zero = LinearCode(Matrix(GF(3), [], ncols=4))
    params = css_qecc(zero)
    assert (params.n, params.k, params.alphabet) == (4, 4, 3)
    assert params.distance.value == 1


def test_css_rejects_non_self_orthogonal():
    with pytest.raises(ValueError):
        css_qecc(LinearCode(Matrix(GF(2), np.eye(3, dtype=int))))


def test_css_distance_is_the_dual_certificate():
    code = hamming_dual(3, 2)
    params = css_qecc(code)
    assert params.distance == min_distance(code.dual(E))


def test_hermitian_from_5_2_4():
    params = hermitian_qecc(quaternary_hamming_dual_5())
    assert params.triple() == (5, 1, 3)
    assert params.alphabet == 2


def test_hermitian_from_25_4_16():
    prod = product(quaternary_hamming_dual_5(), quaternary_hamming_dual_5())
    params = hermitian_qecc(prod)
    assert params.triple() == (25, 17, 3)
    assert params.alphabet == 2


def test_hermitian_self_dual_gives_stabilizer_state():
    code = LinearCode(Matrix(GF(4), [[1, 1]]))  # (1,1)*(1,1) = 1 + 1 = 0
    params = hermitian_qecc(code)
    assert (params.n, params.k) == (2, 0)


def test_hermitian_rejects_non_self_orthogonal():
    with pytest.raises(ValueError):
        hermitian_qecc(LinearCode(Matrix(GF(4), np.eye(2, dtype=int))))


def test_symplectic_from_additive_product():
    c2 = AdditiveCode.from_linear(quaternary_hamming_dual_5())
    prod = product_additive(simplex(2, 2), c2)
    params = symplectic_qecc(prod)
    assert params.triple() == (15, 7, 3)
    assert params.alphabet == 2


def test_symplectic_from_zero_code():
    zero = AdditiveCode(GF(4), [], n=5)
    params = symplectic_qecc(zero)
    assert (params.n, params.k) == (5, 5)
    assert params.distance.value == 1


def test_symplectic_rejects_non_self_orthogonal():
    full = AdditiveCode(GF(4), [[1, 0], [2, 0], [0, 1], [0, 2]])
    with pytest.raises(ValueError):
        symplectic_qecc(full)


def test_symplectic_agrees_with_css_on_lifted_codes():
    """A binary Euclidean self-orthogonal code lifted to a GF(4) additive
    stabilizer gives the same logical count as its CSS derivation."""
    code = hamming_dual(3, 2)
    lifted = AdditiveCode.from_linear(LinearCode(code.generator.over(GF(4))))
    assert lifted.is_self_orthogonal()
    sp = symplectic_qecc(lifted)
    cs = css_qecc(code)
    assert (sp.n, sp.k) == (cs.n, cs.k)


def test_rs_prod_qecc_q5():
    params = rs_prod_qecc(5, 1, 1)
    assert params.triple() == (16, 14, 2)
    assert params.alphabet == 5


def test_rs_prod_qecc_q8():
    params = rs_prod_qecc(8, 2, 2)
    assert params.triple() == (49, 41, 3)
    assert params.alphabet == 8


def test_rs_prod_qecc_dimension_identity():
    for q, mu1, mu2 in ((5, 1, 2), (7, 2, 3), (8, 3, 1), (9, 2, 2)):
        params = rs_prod_qecc(q, mu1, mu2)
        assert params.n == (q - 1) ** 2
        assert params.k == (q - 1) ** 2 - 2 * mu1 * mu2


def test_rs_prod_qecc_builds_the_product_once(monkeypatch):
    import qproduct.cyclic as cyclic_module
    import qproduct.product as product_module

    built = []
    real = product_module.product

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(product_module, "product", counted)
    monkeypatch.setattr(cyclic_module, "product", counted)
    params = rs_prod_qecc(8, 3, 3)
    assert len(built) == 1
    assert params.distance.lower == 4


@pytest.mark.parametrize("q,mu,lower", [(13, 5, 6), (16, 7, 8)])
def test_rs_prod_qecc_above_the_budget(monkeypatch, q, mu, lower):
    """The duals hold q^(n - mu^2) words, far above the budget, and the
    rectangle bound 1 + mu >= 5 already rules out a word of weight <= 4,
    so the certificate is that bound, with no upper bound and no search.
    GF(16) is an extension field."""
    import qproduct.code as code_module

    found = []
    real = code_module.find_low_weight_word

    def recorded(code, max_w=4):
        found.append((max_w, real(code, max_w)))
        return found[-1][1]

    monkeypatch.setattr(code_module, "find_low_weight_word", recorded)
    distance = rs_prod_qecc(q, mu, mu).distance
    assert [distance.lower, distance.upper] == [lower, None]
    assert distance.lower_method == "bch-rectangle"
    assert distance.witness is None
    assert found == []


@pytest.mark.parametrize("q", [7, 8, 9])
def test_rectangle_bound_above_five_leaves_the_search_nothing(q):
    """The RS product certificate skips the weight-4 search when the dual
    is above the budget and the rectangle bound is at least 5; on every
    such product with q <= 9 the search indeed finds nothing."""
    from qproduct.code import enumeration_budget, find_low_weight_word
    from qproduct.cyclic import bch_rectangle_bound, rs_code

    cases = 0
    for delta1 in range(2, q):
        for delta2 in range(2, q):
            if bch_rectangle_bound(q - delta1, q - delta2) < 5:
                continue
            dual = product(rs_code(q, delta1).code, rs_code(q, delta2).code).dual(E)
            assert dual.size() > enumeration_budget()
            assert find_low_weight_word(dual) is None
            cases += 1
    assert cases == (q - 5) ** 2


def test_rs_prod_qecc_rejects_large_mu1():
    with pytest.raises(ValueError):
        rs_prod_qecc(5, 2, 1)


def test_rate_comparison_q5():
    rc = rate_comparison(5, 1, 1)
    assert rc.product_construction_rate == Fraction(14, 16)
    assert rc.product_of_rates == Fraction(4, 16)
    assert rc.product_construction_wins
    assert rc.threshold_predicts_win


def test_rate_comparison_degenerate():
    rc = rate_comparison(5, 0, 0)
    assert rc.product_construction_rate == 1
    assert rc.product_of_rates == 1
    assert not rc.product_construction_wins


def test_rate_comparison_threshold_is_exact():
    for q in range(4, 10):
        for mu in range(0, q - 1):
            rc = rate_comparison(q, mu, mu)
            assert rc.product_construction_wins == (0 < mu and 3 * mu < 2 * (q - 1))
            assert rc.product_construction_wins == rc.threshold_predicts_win


def test_squared_length_rate_example():
    base = Fraction(1, 5)
    squared = Fraction(17, 25)
    assert squared > 3 * base


def test_stabilizer_distance_refinement_css():
    code = hamming_dual(3, 2)
    assert stabilizer_distance(code, "css") == 3


def test_stabilizer_distance_refinement_hermitian():
    assert stabilizer_distance(quaternary_hamming_dual_5(), "hermitian") == 3


def test_stabilizer_distance_refinement_symplectic():
    c2 = AdditiveCode.from_linear(quaternary_hamming_dual_5())
    prod = product_additive(simplex(2, 2), c2)
    assert stabilizer_distance(prod, "symplectic", budget=1 << 23) == 3


def test_stabilizer_distance_skips_large_duals():
    prod = product(hamming_dual(3, 2), hamming_dual(3, 2))
    assert stabilizer_distance(prod, "css") is None  # dual has 2^40 words


def test_stabilizer_distance_of_stabilizer_state():
    code = LinearCode(Matrix(GF(4), [[1, 1]]))  # Hermitian self-dual
    assert stabilizer_distance(code, "hermitian") is None


def test_stabilizer_distance_never_below_dual_certificate():
    import random

    from helpers import random_linear_code

    rng = random.Random(17)
    checked = 0
    while checked < 10:
        code = random_linear_code(rng, GF(2), rng.randint(4, 8), 3)
        if not code.is_self_orthogonal(E):
            continue
        refined = stabilizer_distance(code, "css")
        cert = min_distance(code.dual(E))
        if refined is not None:
            assert refined >= cert.value
        checked += 1


# Self-orthogonal second factors per construction, each with the longest
# first factor that keeps the dual small enough for the brute-force oracle.
# The product of any first factor with one of them is self-orthogonal under
# the same form, so the strategy covers zero, full-space and rank-deficient
# first factors alike.
_SECOND_FACTORS = {
    "css": ((lambda: LinearCode.from_rows(GF(2), [[1, 1, 1, 1]]), 2),
            (lambda: hamming_dual(3, 2), 1),
            (lambda: hamming(2, 3), 2)),
    "hermitian": ((lambda: LinearCode.from_rows(GF(4), [[1, 1]]), 2),
                  (quaternary_hamming_dual_5, 1)),
    "symplectic": ((lambda: AdditiveCode.from_linear(LinearCode.from_rows(GF(4), [[1, 1]])), 2),
                   (lambda: AdditiveCode.from_linear(quaternary_hamming_dual_5()), 1)),
}
_DUAL_KIND = {"css": E, "hermitian": H}


@st.composite
def _self_orthogonal_codes(draw):
    construction = draw(st.sampled_from(sorted(_SECOND_FACTORS)))
    build, max_n1 = draw(st.sampled_from(_SECOND_FACTORS[construction]))
    c2 = build()
    n1 = draw(st.integers(1, max_n1))
    first_field = c2.spec.prime_field if construction == "symplectic" else c2.spec
    rows = draw(st.lists(st.lists(st.integers(0, first_field.q - 1), min_size=n1, max_size=n1),
                         max_size=n1 + 1))
    c1 = LinearCode(Matrix(first_field, rows, ncols=n1))
    code = product_additive(c1, c2) if construction == "symplectic" else product(c1, c2)
    return construction, code


def _brute_stabilizer_distance(code, dual) -> int | None:
    """Lightest word of the brute-force dual span that the code lacks."""
    for word in sorted(brute_codewords(dual), key=lambda w: sum(1 for v in w if v)):
        if not code.contains(word):
            return sum(1 for v in word if v)
    return None


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_self_orthogonal_codes())
def test_stabilizer_distance_matches_brute_force(case):
    construction, code = case
    if construction == "symplectic":
        dual = code.symplectic_dual()
    else:
        dual = code.dual(_DUAL_KIND[construction])
    assert stabilizer_distance(code, construction) == _brute_stabilizer_distance(code, dual)


@pytest.mark.parametrize("construction,code", [
    pytest.param("css", hamming(3, 2), id="css"),
    pytest.param("hermitian", hamming(2, 4), id="hermitian"),
    pytest.param("symplectic", AdditiveCode.from_linear(hamming(2, 4)), id="symplectic"),
])
def test_stabilizer_distance_rejects_non_self_orthogonal_code(construction, code):
    with pytest.raises(ValueError, match="self-orthogonal"):
        stabilizer_distance(code, construction)

"""Code objects and distance certification, cross-checked against plain
brute-force enumeration."""
import random

import pytest

from helpers import (brute_codewords, brute_min_distance, brute_weight_enumerator,
                     check_certificate, random_additive_code, random_linear_code)
from qproduct.catalog import hamming, hamming_dual, quaternary_hamming_dual_5, simplex
from qproduct.code import (AdditiveCode, LinearCode, distance_at_least, find_low_weight_word,
                           min_distance, to_additive_over, weight_enumerator)
from qproduct.cyclic import rs_code
from qproduct.galois import GF
from qproduct.matrix import InnerProductKind, Matrix, inner_product

E = InnerProductKind.EUCLIDEAN
H = InnerProductKind.HERMITIAN
S = InnerProductKind.SYMPLECTIC


def test_inner_product_worked_values():
    assert inner_product(GF(2), (1, 1, 0), (1, 1, 1), E) == 0
    assert inner_product(GF(4), (2, 0), (2, 1), H) == 1  # w * w^2 = 1
    assert inner_product(GF(4), (2,), (2,), S) == 0
    assert inner_product(GF(4), (1,), (2,), S) == 1


def test_dual_of_hamming_is_distance_4():
    code = hamming(3, 2)
    dual = code.dual(E)
    assert (dual.n, dual.k) == (7, 3)
    assert min_distance(dual).value == 4
    assert code.generator.gram(dual.generator, E).is_zero()


def test_dual_of_full_space_is_zero_code():
    full = LinearCode(Matrix.identity(GF(4), 3))
    dual = full.dual(E)
    assert dual.k == 0
    cert = min_distance(dual)
    assert cert.degenerate and cert.lower == 4


def test_hermitian_dual_of_5_2_4():
    code = quaternary_hamming_dual_5()
    assert (code.n, code.k) == (5, 2)
    assert min_distance(code).value == 4
    dual = code.dual(H)
    assert (dual.n, dual.k) == (5, 3)
    assert min_distance(dual).value == 3


@pytest.mark.parametrize("q,kind", [(2, E), (4, E), (5, E), (4, H), (9, H)])
def test_double_dual_is_identity(q, kind):
    rng = random.Random(q + (0 if kind is E else 100))
    for _ in range(15):
        code = random_linear_code(rng, GF(q), rng.randint(2, 12), 5)
        assert code.dual(kind).dual(kind) == code
        assert code.k + code.dual(kind).k == code.n


def test_symplectic_dual_dimensions_and_involution():
    rng = random.Random(7)
    for q in (4, 9):
        spec = GF(q)
        for _ in range(10):
            code = random_additive_code(rng, spec, rng.randint(2, 6), 5)
            dual = code.symplectic_dual()
            assert code.k_p + dual.k_p == spec.ell * code.n
            assert dual.symplectic_dual() == code


def test_symplectic_dual_of_zero_code_is_full():
    spec = GF(4)
    zero = AdditiveCode(spec, [], n=3)
    dual = zero.symplectic_dual()
    assert dual.k_p == 6
    assert all(dual.contains(v) for v in [(1, 0, 0), (2, 3, 1)])


def test_symplectic_dual_membership_is_orthogonality():
    rng = random.Random(8)
    spec = GF(4)
    code = random_additive_code(rng, spec, 4, 3)
    dual = code.symplectic_dual()
    import itertools
    for vec in itertools.product(range(4), repeat=4):
        in_dual = all(inner_product(spec, g, vec, S) == 0 for g in code.generator.rows)
        assert dual.contains(vec) == in_dual


def test_dual_kinds_follow_the_code_model():
    linear = quaternary_hamming_dual_5()
    additive = AdditiveCode.from_linear(linear)
    assert linear.dual() is linear.dual(E)
    assert additive.dual() is additive.symplectic_dual() is additive.dual(S)
    for code, kind in ((linear, S), (additive, E), (additive, H)):
        with pytest.raises(ValueError):
            code.dual(kind)
        with pytest.raises(ValueError):
            code.is_self_orthogonal(kind)


def test_self_orthogonality_flags():
    assert hamming_dual(3, 2).is_self_orthogonal(E)
    assert quaternary_hamming_dual_5().is_self_orthogonal(H)
    full = LinearCode(Matrix.identity(GF(2), 3))
    assert not full.is_self_orthogonal(E)


def test_self_orthogonal_iff_contained_in_dual():
    rng = random.Random(9)
    for q, kind in ((2, E), (4, H)):
        for _ in range(20):
            code = random_linear_code(rng, GF(q), rng.randint(2, 8), 4)
            dual = code.dual(kind)
            contained = all(dual.contains(g) for g in code.generator.rows)
            assert code.is_self_orthogonal(kind) == contained


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_min_distance_matches_bruteforce_linear(q):
    rng = random.Random(50 + q)
    for _ in range(12):
        code = random_linear_code(rng, GF(q), rng.randint(2, 8), 3)
        cert = min_distance(code)
        assert cert.exact
        check_certificate(code, cert)
        assert cert.value == brute_min_distance(code)
        assert cert.value <= code.n - code.k + 1  # Singleton


@pytest.mark.parametrize("q", [4, 9])
def test_min_distance_matches_bruteforce_additive(q):
    rng = random.Random(60 + q)
    for _ in range(10):
        code = random_additive_code(rng, GF(q), rng.randint(2, 6), 5)
        cert = min_distance(code)
        assert cert.exact
        check_certificate(code, cert)
        assert cert.value == brute_min_distance(code)


def test_min_distance_budget_certificate_path():
    code = hamming_dual(3, 2)
    prod_dual = LinearCode(code.generator.kronecker(code.generator)).dual(E)
    cert = min_distance(prod_dual, budget=100)  # force the certificate path
    assert cert.lower_method == "column-independence"
    assert cert.exact and cert.value == 3
    check_certificate(prod_dual, cert)


def test_min_distance_without_low_weight_word_proves_five():
    # rs(8, 6) is a [7, 2, 6] code: the search finds no word of weight <= 4
    code = rs_code(8, 6).code
    cert = min_distance(code, budget=1)
    assert [cert.lower, cert.upper] == [5, None]
    assert cert.witness is None and not cert.exact
    assert min_distance(code).value == 6 >= cert.lower


def test_min_distance_interval_when_inexact():
    # random high-rate code over GF(5) whose distance exceeds the witness
    # search depth would still yield a valid interval
    rng = random.Random(11)
    code = random_linear_code(rng, GF(5), 10, 6)
    cert = min_distance(code, budget=10)
    assert cert.lower >= 1
    if cert.witness is not None:
        assert code.contains(cert.witness)


@pytest.mark.parametrize("q", [2, 4, 5])
def test_distance_at_least_matches_enumeration(q):
    rng = random.Random(70 + q)
    for _ in range(12):
        code = random_linear_code(rng, GF(q), rng.randint(3, 8), 3)
        d = brute_min_distance(code)
        for w in (2, 3, 4):
            assert distance_at_least(code, w) == (d >= w)


@pytest.mark.parametrize("q", [4, 8, 9])
def test_distance_at_least_additive_matches_enumeration(q):
    rng = random.Random(79 + q)
    for _ in range(10):
        code = random_additive_code(rng, GF(q), rng.randint(3, 6), 5)
        d = brute_min_distance(code)
        for w in (2, 3, 4):
            assert distance_at_least(code, w) == (d >= w)


def test_distance_at_least_rejects_large_w():
    with pytest.raises(ValueError):
        distance_at_least(hamming(3, 2), 5)


def test_repetition_code_distance_at_least():
    rep = LinearCode.from_rows(GF(2), [[1, 1, 1]])
    assert distance_at_least(rep, 3)
    assert not distance_at_least(rep, 4)


@pytest.mark.parametrize("q", [2, 4, 5])
def test_low_weight_word_finds_minimum(q):
    rng = random.Random(90 + q)
    for _ in range(15):
        code = random_linear_code(rng, GF(q), rng.randint(3, 8), 5)
        d = brute_min_distance(code)
        word = find_low_weight_word(code, max_w=4)
        if d <= 4:
            assert word is not None
            assert sum(1 for v in word if v) == d
            assert code.contains(word)
        else:
            assert word is None


@pytest.mark.parametrize("q", [4, 8, 9])
def test_low_weight_word_additive(q):
    rng = random.Random(91 + q)
    for _ in range(10):
        code = random_additive_code(rng, GF(q), rng.randint(3, 6), 6)
        d = brute_min_distance(code)
        word = find_low_weight_word(code, max_w=4)
        if d <= 4:
            assert word is not None and sum(1 for v in word if v) == d
            assert code.contains(word)
        else:
            assert word is None


def test_weight_enumerator_simplex():
    assert weight_enumerator(simplex(2, 2)) == {0: 1, 2: 3}


def test_weight_enumerator_zero_code():
    zero = LinearCode(Matrix.empty(GF(2), 4))
    assert weight_enumerator(zero) == {0: 1}


@pytest.mark.parametrize("q", [2, 4, 5])
def test_weight_enumerator_matches_bruteforce(q):
    rng = random.Random(99 + q)
    for _ in range(8):
        code = random_linear_code(rng, GF(q), rng.randint(2, 6), 3)
        table = weight_enumerator(code)
        assert table == brute_weight_enumerator(code)
        assert sum(table.values()) == code.size()


def test_weight_enumerator_budget_error():
    code = LinearCode(Matrix.identity(GF(2), 15))
    with pytest.raises(ValueError):
        weight_enumerator(code, budget=1000)


def test_additive_from_linear_size():
    code = quaternary_hamming_dual_5()
    add = AdditiveCode.from_linear(code)
    assert add.k_p == 2 * code.k
    assert add.size() == code.size()
    for word in brute_codewords(code):
        assert add.contains(word)


def test_to_additive_over_lifts_binary_rows():
    code = hamming_dual(3, 2)
    lifted = to_additive_over(code, GF(4))
    assert lifted.k_p == 2 * code.k
    spec = GF(4)
    for g in code.generator.rows:
        for scale in range(1, 4):
            assert lifted.contains(tuple(spec.mul(scale, v) for v in g))


def test_pack_unpack_roundtrip():
    from qproduct.code import _pack, _unpack

    for bits, vec in ((1, (1, 0, 1, 1)), (2, (3, 0, 2, 1)), (3, (7, 4, 0, 5))):
        assert _unpack(_pack(vec, bits), bits, len(vec)) == vec


def test_canonical_generators_are_stable():
    rng = random.Random(5)
    code = random_linear_code(rng, GF(4), 8, 4)
    shuffled = list(code.generator.rows)
    rng.shuffle(shuffled)
    assert LinearCode.from_rows(GF(4), shuffled, n=8) == code

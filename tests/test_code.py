"""Code objects and distance certification, cross-checked against plain
brute-force enumeration."""
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_codewords, brute_min_distance, brute_weight_enumerator,
                     check_certificate, gray_scan, gram_scalar, low_weight_oracle,
                     random_additive_code, random_linear_code)
from qproduct import code as code_module
from qproduct.catalog import hamming, hamming_dual, quaternary_hamming_dual_5, simplex
from qproduct.code import (AdditiveCode, LinearCode, distance_at_least, find_low_weight_word,
                           macwilliams_transform, min_distance, weight_enumerator)
from qproduct.cyclic import rs_code
from qproduct.galois import GF
from qproduct.matrix import InnerProductKind, Matrix

E = InnerProductKind.EUCLIDEAN
H = InnerProductKind.HERMITIAN
S = InnerProductKind.SYMPLECTIC


def test_inner_product_worked_values():
    assert gram_scalar(GF(2), (1, 1, 0), (1, 1, 1), E) == 0
    assert gram_scalar(GF(4), (2, 0), (2, 1), H) == 1  # w * w^2 = 1
    assert gram_scalar(GF(4), (2,), (2,), S) == 0
    assert gram_scalar(GF(4), (1,), (2,), S) == 1


def test_dual_of_hamming_is_distance_4():
    code = hamming(3, 2)
    dual = code.dual(E)
    assert (dual.n, dual.k) == (7, 3)
    assert min_distance(dual).value == 4
    assert code.generator.gram(dual.generator, E).is_zero()


def test_dual_of_full_space_is_zero_code():
    full = LinearCode(Matrix(GF(4), np.eye(3, dtype=int)))
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
        in_dual = all(gram_scalar(spec, g, vec, S) == 0 for g in code.generator.rows)
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
    full = LinearCode(Matrix(GF(2), np.eye(3, dtype=int)))
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


@st.composite
def _search_codes(draw):
    """Linear and additive codes over GF(2..25) of length <= 12, from
    one-row codes (d up to n) to full spaces, with words of weight 1
    (zero syndrome columns) and 2 (parallel columns) mixed in."""
    spec = GF(draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 16, 25])))
    additive = spec.ell > 1 and draw(st.booleans())
    n = draw(st.integers(1, 8 if additive else 12))
    symbol = st.integers(0, spec.q - 1)
    k = max(1, draw(st.sampled_from([1, 2, n // 2, n - 3, n - 2, n])))
    rows = draw(st.lists(st.lists(symbol, min_size=n, max_size=n), min_size=k, max_size=k))
    if n > 1 and draw(st.booleans()):  # a word of weight 1 or 2
        i, j = draw(st.permutations(range(n)))[:2]
        low = [0] * n
        low[i], low[j] = draw(symbol.filter(bool)), draw(symbol)
        rows.append(low)
    cls = AdditiveCode if additive else LinearCode
    return cls.from_rows(spec, rows, n=n)


@pytest.mark.parametrize("chunk", ["one", "small", "default"])
@settings(max_examples=60, deadline=None)
@given(code=_search_codes())
def test_low_weight_search_matches_oracle(chunk, code):
    size = {"one": 1, "small": 1 << 6, "default": code_module.SEARCH_CHUNK}[chunk]
    with mock.patch.object(code_module, "SEARCH_CHUNK", size):
        for max_w in (1, 2, 3, 4):
            assert find_low_weight_word(code, max_w) == low_weight_oracle(code, max_w)


@pytest.mark.parametrize("chunk", [1, 1 << 6, None])
def test_low_weight_search_tie_goes_to_the_first_pair(chunk):
    """Two weight-4 words on disjoint supports.  The pair sum col1 + col2
    is the first to equal an earlier one, col0 + col3, so the word on
    coordinates 0..3 wins, though the sums of the word on 4..7 come first
    in key order."""
    code = LinearCode.from_rows(GF(2), [[1, 1, 1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1, 1]])
    with mock.patch.object(code_module, "SEARCH_CHUNK", chunk or code_module.SEARCH_CHUNK):
        assert find_low_weight_word(code, 3) is None
        assert find_low_weight_word(code, 4) == (1, 1, 1, 1, 0, 0, 0, 0)
    assert low_weight_oracle(code, 4) == (1, 1, 1, 1, 0, 0, 0, 0)


def test_weight_enumerator_simplex():
    assert weight_enumerator(simplex(2, 2)) == {0: 1, 2: 3}


def test_weight_enumerator_zero_code():
    zero = LinearCode(Matrix(GF(2), [], ncols=4))
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
    code = LinearCode(Matrix(GF(2), np.eye(15, dtype=int)))
    with pytest.raises(ValueError):
        weight_enumerator(code, budget=1000)


def test_weight_enumerator_counts_a_code_once(monkeypatch):
    """The CSS transfer product hamming_dual(3,2) x [4,2]_2: its weight
    enumerator is the MacWilliams transform of one counted scan of the
    2^6-word product.  The distance certificate reads it first, and walks
    the 2^22-word dual once, uncounted, down to the enumerator's minimum
    weight; the stabilizer distance then reuses the counts.  A dual whose
    product is gone is counted by its own scan, to the same counts."""
    from qproduct.product import product
    from qproduct.quantum import css_qecc, stabilizer_distance

    scans, floors = [], []
    real = code_module._exhaustive_scan

    def counted(spec, rows, n, counts=None, floor=0):
        scans.append((len(rows), counts is not None))
        floors.append(floor)
        return real(spec, rows, n, counts, floor)

    monkeypatch.setattr(code_module, "_exhaustive_scan", counted)
    c1 = LinearCode.from_rows(GF(2), [[1, 1, 0, 0], [0, 0, 1, 1]])
    prod = product(c1, hamming_dual(3, 2))
    dual = prod.dual(E)
    assert css_qecc(prod).distance.exact
    table = weight_enumerator(dual)
    assert stabilizer_distance(prod, "css") is not None
    table[0] = 0  # the caller's copy; the cached counts stay intact
    assert weight_enumerator(dual)[0] == 1
    assert scans == [(6, True), (22, False)]
    assert floors[1] == min(w for w in weight_enumerator(dual) if w)

    scans.clear()
    orphan = product(c1, hamming_dual(3, 2)).dual(E)  # nothing else holds the product
    assert orphan._primal() is None
    assert weight_enumerator(orphan) == weight_enumerator(dual)
    assert scans == [(22, True)]


def test_macwilliams_transform_rejects_a_non_code_distribution():
    with pytest.raises(ValueError, match="not the weight distribution"):
        macwilliams_transform({0: 1, 1: 1}, 2, 3)  # B_1 = 5/2
    with pytest.raises(ValueError, match="not the weight distribution"):
        macwilliams_transform({0: 1, 2: 3}, 2, 2)  # integral, but B_1 = -1
    assert macwilliams_transform({0: 1, 2: 1}, 2, 2) == {0: 1, 2: 1}  # the [2,1] repetition code


@st.composite
def _dual_pairs(draw):
    """A code over GF(2..9) and a kind it takes duals under: Euclidean
    (linear), Hermitian (linear, even degree) or symplectic (additive, even
    degree).  The code is random, the zero code or the full space, in an
    ambient space of at most 2^12 words."""
    spec = GF(draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9])))
    kinds = [E] + ([H, S] if spec.ell % 2 == 0 else [])
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, max(m for m in range(1, 13) if spec.q**m <= 1 << 12)))
    scalars = [spec.p**t for t in range(spec.ell)] if kind is S else [1]
    shape = draw(st.sampled_from(["random", "zero", "full"]))
    if shape == "zero":
        rows = []
    elif shape == "full":
        rows = [[a if j == i else 0 for j in range(n)] for i in range(n) for a in scalars]
    else:
        row = st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n)
        rows = draw(st.lists(row, min_size=1, max_size=n * len(scalars)))
    cls = AdditiveCode if kind is S else LinearCode
    return cls.from_rows(spec, rows, n=n), kind


@settings(max_examples=80, deadline=None)
@given(case=_dual_pairs())
def test_dual_weight_enumerator_matches_the_counted_scan(case):
    code, kind = case
    dual = code.dual(kind)
    counts = [0] * (dual.n + 1)
    code_module._exhaustive_scan(dual.spec, dual.expanded_generators(), dual.n, counts)
    table = weight_enumerator(dual)
    assert table == {w: c for w, c in enumerate(counts) if c} == brute_weight_enumerator(dual)
    assert list(table) == sorted(table)
    assert macwilliams_transform(weight_enumerator(code), code.n, code.spec.q) == table
    assert weight_enumerator(dual.dual(kind)) == brute_weight_enumerator(code)


@st.composite
def _distance_cases(draw):
    """A code over GF(2..9) in an ambient space of at most 2^13 words and
    a kind it takes duals under: random, rank-deficient (one row the sum of
    two others), the zero code or the full space; and whether its weight
    counts are cached before its certificate is asked for."""
    spec = GF(draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9])))
    kind = draw(st.sampled_from([E] + ([H, S] if spec.ell % 2 == 0 else [])))
    n = draw(st.integers(1, max(m for m in range(1, 14) if spec.q**m <= 1 << 13)))
    scalars = [spec.p**t for t in range(spec.ell)] if kind is S else [1]
    shape = draw(st.sampled_from(["random", "deficient", "zero", "full"]))
    if shape == "zero":
        rows = []
    elif shape == "full":
        rows = [[a if j == i else 0 for j in range(n)] for i in range(n) for a in scalars]
    else:
        row = st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n)
        rows = draw(st.lists(row, min_size=1, max_size=n * len(scalars)))
        if shape == "deficient":
            rows.append([spec.add(x, y) for x, y in zip(rows[0], rows[-1])])
    cls = AdditiveCode if kind is S else LinearCode
    return cls.from_rows(spec, rows, n=n), kind, draw(st.booleans())


@pytest.mark.parametrize("block", ["p", "small", "default"])
@settings(max_examples=50, deadline=None)
@given(case=_distance_cases())
def test_min_distance_equals_the_full_walk(block, case):
    """The walk that stops at the floor gives the certificate of the full
    walk, for a code and its dual, with counts cached or not."""
    code, kind, counted = case
    size = {"p": code.spec.p, "small": 1 << 6, "default": code_module.SCAN_BLOCK}[block]
    with mock.patch.object(code_module, "SCAN_BLOCK", size):
        for c in (code, code.dual(kind)):
            if counted:
                weight_enumerator(c)
            w, witness = code_module._exhaustive_scan(c.spec, c.expanded_generators(), c.n)
            cert = min_distance(c)
            assert (cert.lower, cert.upper, cert.witness) == (w, w, witness)
            assert cert.lower_method == "exhaustive"


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_scan_floor_ends_the_walk_after_its_block(q):
    """The last row repeats the first, so a later block holds the zero word
    at a step t >= 1.  With floor 0 the walk runs on to it; with the floor
    at the lightest weight of block 0, the span of the first a rows, the
    walk ends after block 0 with its witness.  A counting walk never stops."""
    spec, a, n = GF(q), 3, 9
    rng = random.Random(300 + q)
    rows = [tuple(1 if i in (j, a + j) else rng.randrange(q) * (i >= 2 * a) for i in range(n))
            for j in range(a)]
    rows.append(rows[0])
    w0, witness0 = code_module._exhaustive_scan(spec, rows[:a], n)
    assert w0 >= 1
    want = [0] * (n + 1)
    assert gray_scan(spec, rows, n, want) == (0, (0,) * n)
    with mock.patch.object(code_module, "SCAN_BLOCK", spec.p**a):
        assert code_module._exhaustive_scan(spec, rows, n) == (0, (0,) * n)
        assert code_module._exhaustive_scan(spec, rows, n, floor=w0) == (w0, witness0)
        got = [0] * (n + 1)
        assert code_module._exhaustive_scan(spec, rows, n, got, floor=w0) == (0, (0,) * n)
    assert got == want


@pytest.mark.parametrize("wrong", [2, 4])
def test_min_distance_refuses_a_walk_that_misses_the_counted_minimum(monkeypatch, wrong):
    """The [15, 11, 3] Hamming code walked in blocks of 2^6 words: counts
    that put its minimum at 2 or 4 make the walk end at weight 3, and the
    certificate is refused."""
    primal = hamming_dual(4, 2)
    code = primal.dual(E)
    monkeypatch.setattr(code_module, "SCAN_BLOCK", 1 << 6)
    assert min_distance(code).value == 3
    monkeypatch.setattr(code_module, "_weight_counts",
                        lambda code, budget, scan=True: {0: 1, wrong: 1})
    with pytest.raises(AssertionError, match="weight counts"):
        min_distance(code)


def test_additive_from_linear_size():
    code = quaternary_hamming_dual_5()
    add = AdditiveCode.from_linear(code)
    assert add.k_p == 2 * code.k
    assert add.size() == code.size()
    for word in brute_codewords(code):
        assert add.contains(word)


def test_binary_rows_lifted_to_gf4_span_their_multiples():
    code = hamming_dual(3, 2)
    lifted = AdditiveCode.from_linear(LinearCode(code.generator.over(GF(4))))
    assert lifted.k_p == 2 * code.k
    spec = GF(4)
    for g in code.generator.rows:
        for scale in range(1, 4):
            assert lifted.contains(tuple(spec.mul(scale, v) for v in g))


def test_pack_unpack_roundtrip():
    from qproduct.code import _pack, _unpack

    for bits, vec in ((1, (1, 0, 1, 1)), (2, (3, 0, 2, 1)), (3, (7, 4, 0, 5))):
        assert _unpack(_pack(vec, bits), bits, len(vec)) == vec


def _scan_both(spec, rows, n):
    """(weight, witness, counts) from the library scan and from the oracle."""
    got, want = [0] * (n + 1), [0] * (n + 1)
    return ((*code_module._exhaustive_scan(spec, rows, n, got), got),
            (*gray_scan(spec, rows, n, want), want))


@st.composite
def _scan_inputs(draw):
    """Rows over GF(2..9) whose span has at most 2^13 words, with zero,
    repeated and dependent rows among them, and no rows at all."""
    spec = GF(draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9])))
    n = draw(st.integers(1, 25))
    max_k = max(k for k in range(14) if spec.p**k <= 1 << 13)
    row = st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n).map(tuple)
    rows = draw(st.lists(row, max_size=max_k))
    if 0 < len(rows) < max_k and draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append(tuple(spec.add(x, y) for x, y in zip(a, b)))
    return spec, rows, n


@pytest.mark.parametrize("block", ["p", "small", "default"])
@settings(max_examples=40, deadline=None)
@given(case=_scan_inputs())
def test_scan_matches_gray_walk_oracle(block, case):
    spec, rows, n = case
    size = {"p": spec.p, "small": 1 << 6, "default": code_module.SCAN_BLOCK}[block]
    with mock.patch.object(code_module, "SCAN_BLOCK", size):
        got, want = _scan_both(spec, rows, n)
    assert got == want


@pytest.mark.parametrize("q,a", [(2, 6), (3, 4), (4, 3), (5, 3)])
@pytest.mark.parametrize("block", ["p", "table"])
def test_scan_witness_order_within_a_later_block(q, a, block):
    """Rows 0..a-1 put (1, 1, 1, 1) on a block of four coordinates each,
    and rows a..2a-1 put (1, 1, 0, 0) on the same blocks.  Only words
    outside the first p^a of the walk have weight 2, and each coset of the
    first a rows' span holding one holds two, (1, 1, 0, 0) and (0, 0, -1, -1)
    on one block: the witness is whichever comes first in the walk."""
    spec = GF(q)
    heavy = [tuple(1 if 4 * j <= i < 4 * j + 4 else 0 for i in range(4 * a)) for j in range(a)]
    light = [tuple(1 if 4 * j <= i < 4 * j + 2 else 0 for i in range(4 * a)) for j in range(a)]
    size = spec.p if block == "p" else spec.p**a
    with mock.patch.object(code_module, "SCAN_BLOCK", size):
        got, want = _scan_both(spec, heavy + light, 4 * a)
    assert got == want
    assert got[0] == 2


@pytest.mark.parametrize("q,n,k", [
    pytest.param(8, 30, 6, id="gf8-3n-above-64"),   # 3-bit symbols packed in a row would straddle
    pytest.param(8, 43, 4, id="gf8-three-lanes"),
    pytest.param(2, 100, 10, id="binary-n-above-64"),
    pytest.param(2, 64, 9, id="binary-one-full-lane"),
    pytest.param(4, 33, 8, id="gf4-33-symbols"),
    pytest.param(243, 12, 4, id="gf243-five-digits"),
    pytest.param(131, 10, 2, id="gf131-wide-digits"),  # p >= 128: digits of four bytes
])
def test_scan_words_across_lanes(q, n, k):
    spec = GF(q)
    rng = random.Random(q * 100 + n)
    rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
    rows[-1] = (0,) * (n - 1) + (1,)  # a weight-1 word in the last lane's last symbol
    got, want = _scan_both(spec, rows, n)
    assert got == want
    assert got[0] == 1


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("n", [254, 255, 300])
def test_scan_long_words_with_few_rows(q, n):
    """Weights up to n do not overflow the weight row, nor does the n + 1
    sentinel that hides the zero word at step 0."""
    spec = GF(q)
    rows = [(1,) * n, (1,) * (n // 2) + (0,) * (n - n // 2), (0,) * (n - 1) + (1,)]
    got, want = _scan_both(spec, rows, n)
    assert got == want
    assert got[0] == 1 and got[2][n] > 0
    assert code_module._exhaustive_scan(spec, [], n) == (n + 1, None)


def test_canonical_generators_are_stable():
    rng = random.Random(5)
    code = random_linear_code(rng, GF(4), 8, 4)
    shuffled = list(code.generator.rows)
    rng.shuffle(shuffled)
    assert LinearCode.from_rows(GF(4), shuffled, n=8) == code

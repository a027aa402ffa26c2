"""Code objects and distance certification, cross-checked against plain
brute-force enumeration."""
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (brute_codewords, brute_min_distance, brute_weight_enumerator,
                     check_certificate, count_kernels, gray_scan, inner_product, low_weight_oracle,
                     matmul, orthogonal_pairwise, random_additive_code, random_linear_code,
                     random_matrix)
from qproduct import code as code_module
from qproduct.catalog import hamming, hamming_dual, quaternary_hamming_dual_5, simplex
from qproduct.code import (AdditiveCode, LinearCode, find_low_weight_word,
                           macwilliams_transform, min_distance, spanned_code, weight_enumerator)
from qproduct.convolutional import band_window, conv_from_product, tail_biting
from qproduct.cyclic import rs_code
from qproduct.galois import GF
from qproduct.matrix import InnerProductKind, Matrix
from qproduct.product import product

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
    assert code.generator.gram(dual.generator).is_zero()


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


# Each kind over fields the paper's codes use.  The symplectic form is taken
# in characteristic 2 only: for odd p, tr(sum_i u_i frob(w_i)) is symmetric
# but not alternating, and the commutation form of a Pauli group must be.
_FORM_CASES = ((E, 2), (E, 3), (E, 4), (H, 4), (H, 9), (S, 4), (S, 16))


@st.composite
def _form_codes(draw):
    """A kind, its field and 0-4 generator rows of length <= 8: random, or
    each a block repeated p times, so that every pair of rows has p times
    one inner product, 0; then, half the time, one entry redrawn.  Also a
    vector: random, or (coefficients given) a combination of the dual's
    generator rows, which number at most n * ell <= 32."""
    kind, q = draw(st.sampled_from(_FORM_CASES))
    spec = GF(q)
    symbol = st.integers(0, q - 1)
    if draw(st.booleans()):
        m = draw(st.integers(1, 8 // spec.p))
        blocks = draw(st.lists(st.lists(symbol, min_size=m, max_size=m), max_size=4))
        rows, n = [block * spec.p for block in blocks], m * spec.p
    else:
        n = draw(st.integers(1, 8))
        rows = draw(st.lists(st.lists(symbol, min_size=n, max_size=n), max_size=4))
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, n - 1))] = draw(symbol)
    scalar = st.integers(0, (spec.p if kind is S else q) - 1)
    coefficients = draw(st.none() | st.lists(scalar, min_size=32, max_size=32))
    return kind, spec, rows, n, coefficients, draw(st.lists(symbol, min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(case=_form_codes())
@example(case=(S, GF(16), [[1], [8]], 1, None, [8]))  # tr(frob(8)) = 1
@example(case=(S, GF(16), [[1, 8]], 2, [1] * 32, [0, 0]))
@example(case=(H, GF(9), [[1, 1, 1]], 3, [2] * 32, [1, 1, 1]))
def test_self_orthogonality_and_dual_membership_match_the_scalar_form(case):
    """The code model's forms against the pure-Python ``inner_product``:
    a code is self-orthogonal iff its generator rows are pairwise
    orthogonal, and a vector lies in its dual iff it is orthogonal to every
    generator row.  A vector from the dual is formed here, by scalar field
    operations."""
    kind, spec, rows, n, coefficients, vec = case
    assert kind is not S or spec.p == 2
    code = spanned_code(kind, spec, rows, n)
    assert code.is_self_orthogonal(kind) == orthogonal_pairwise(Matrix(spec, rows, ncols=n), kind)
    dual = code.dual(kind)
    if coefficients is not None:
        vec = [0] * n
        for c, row in zip(coefficients, dual.generator.rows):
            vec = [spec.add(v, spec.mul(c, x)) for v, x in zip(vec, row)]
    orthogonal = all(inner_product(spec, row, vec, kind) == 0 for row in rows)
    assert dual.contains(vec) == orthogonal


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
    # rs(8, 6) is a [7, 2, 6] code: the search finds no word of weight <= 4.
    # Its rows as a plain LinearCode keep no zeros, so no BCH bound applies
    code = LinearCode(rs_code(8, 6).basis)
    cert = min_distance(code, budget=1)
    assert [cert.lower, cert.upper] == [5, None]
    assert cert.witness is None and not cert.exact
    assert min_distance(code).value == 6 >= cert.lower


def test_min_distance_of_a_cyclic_code_is_its_bch_bound_at_any_budget():
    # rs(8, 6) keeps its zeros 0..4: the BCH bound 6 meets a basis row
    code = rs_code(8, 6)
    cert = min_distance(code, budget=1)
    assert [cert.lower, cert.upper, cert.lower_method] == [6, 6, "bch"]
    assert code.contains(cert.witness) and sum(1 for v in cert.witness if v) == 6


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
            assert (find_low_weight_word(code, w - 1) is None) == (d >= w)


@pytest.mark.parametrize("q", [4, 8, 9])
def test_distance_at_least_additive_matches_enumeration(q):
    rng = random.Random(79 + q)
    for _ in range(10):
        code = random_additive_code(rng, GF(q), rng.randint(3, 6), 5)
        d = brute_min_distance(code)
        for w in (2, 3, 4):
            assert (find_low_weight_word(code, w - 1) is None) == (d >= w)


def test_repetition_code_distance_at_least():
    rep = LinearCode.from_rows(GF(2), [[1, 1, 1]])
    assert find_low_weight_word(rep, 2) is None  # d >= 3
    assert find_low_weight_word(rep, 3) is not None  # d < 4


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
    return spanned_code(S if additive else E, spec, rows, n)


@pytest.mark.parametrize("chunk", ["one", "small", "default"])
@settings(max_examples=60, deadline=None)
@given(code=_search_codes())
def test_low_weight_search_matches_oracle(chunk, code):
    """For every max_w, and whatever the chunk size, the search returns
    the oracle's word."""
    size = {"one": 1, "small": 1 << 6, "default": code_module.SEARCH_CHUNK}[chunk]
    with mock.patch.object(code_module, "SEARCH_CHUNK", size):
        for max_w in (1, 2, 3, 4):
            assert find_low_weight_word(code, max_w) == low_weight_oracle(code, max_w)


@settings(max_examples=60, deadline=None)
@given(code=_search_codes(), seed=st.integers(0, 1 << 16))
def test_low_weight_search_reads_any_parity_rows_of_the_code(code, seed):
    """Kept parity rows R * H, for a random invertible R, give the search
    the same word as the rref H, for every max_w."""
    rng = random.Random(seed)
    h = code.basis.kernel()
    r = random_matrix(rng, code.field, h.nrows, h.nrows)
    while r.rref()[0].nrows < h.nrows:
        r = random_matrix(rng, code.field, h.nrows, h.nrows)
    kept = type(code)._from_basis(code.spec, code.n, code.basis, matmul(r, h))
    for max_w in (1, 2, 3, 4):
        assert find_low_weight_word(kept, max_w) == find_low_weight_word(code, max_w)


@pytest.mark.parametrize("chunk", [1, 4, 1 << 6, None])
def test_low_weight_search_tie_goes_to_the_first_pair(chunk):
    """Two weight-4 words on disjoint supports.  The pair sum col1 + col2
    is the first to equal an earlier one, col0 + col3, so the word on
    coordinates 0..3 wins, though the sums of the word on 4..7 come first
    in key order: pair (1, 2) is number 7 and pair (0, 3) number 2, in
    different chunks of one or four pairs, in one of 64."""
    code = LinearCode.from_rows(GF(2), [[1, 1, 1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1, 1]])
    with mock.patch.object(code_module, "SEARCH_CHUNK", chunk or code_module.SEARCH_CHUNK):
        assert find_low_weight_word(code, 3) is None
        assert find_low_weight_word(code, 4) == (1, 1, 1, 1, 0, 0, 0, 0)
    assert low_weight_oracle(code, 4) == (1, 1, 1, 1, 0, 0, 0, 0)


# (q, parity columns, word): class X of columns 0 and 3 has a larger key
# than class Y of columns 1, 4 and 5, so Y's repeat comes first in key order
_PARALLEL = [
    (2, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0], [0, 1, 0]], (1, 0, 0, 1, 0, 0)),
    (3, [[2, 1, 0], [0, 1, 1], [0, 0, 1], [2, 1, 0], [0, 2, 2], [0, 1, 1]], (1, 0, 0, 2, 0, 0)),
]


@pytest.mark.parametrize("q, columns, expected", _PARALLEL)
def test_low_weight_search_weight_2_goes_to_the_first_repeated_column(q, columns, expected):
    """Column 3 is the first whose key occurred earlier, at column 0, so
    the word lies on columns hit = 0 and c = 3, with coefficient
    -lead[hit] / lead[c] on c, though Y's first repeat, column 4, is the
    first in key order."""
    h = Matrix(GF(q), list(zip(*columns)))
    code = LinearCode._from_basis(GF(q), 6, h.kernel(), h)
    for max_w in (2, 4):
        assert find_low_weight_word(code, max_w) == expected == low_weight_oracle(code, max_w)


def _above_the_budget(case):
    """The code of a search case above the enumeration budget: a seeded
    code of the shape of a benchmark search job, the dual of a tail-biting
    code TB_N, or the dual of a free-distance window."""
    rng = random.Random(repr(case))
    if case[0] == "linear":
        _, q, n, k = case
        return LinearCode(random_matrix(rng, GF(q), k, n))
    if case[0] == "additive":
        _, n, k = case
        return AdditiveCode(GF(4), [[GF(4).from_digits([rng.randrange(2) for _ in range(2)])
                                     for _ in range(n)] for _ in range(k)])
    c = hamming_dual(3, 2)
    binary = conv_from_product(c, c, 1, E)
    if case[0] == "tail-biting":
        return tail_biting(binary, case[1]).dual(E)
    _, band, blocks = case
    s = binary if band == "binary" else conv_from_product(
        simplex(2, 2), AdditiveCode.from_linear(quaternary_hamming_dual_5()), 1, S)
    width = blocks * s.frame + s.overlap
    rows = band_window(s, blocks + 1).take_columns(range(width)).array
    return spanned_code(s.kind, s.spec, rows, width).dual(s.kind)


@pytest.mark.parametrize("case", [
    ("linear", 4, 20, 13), ("linear", 4, 24, 13), ("linear", 8, 14, 9), ("linear", 8, 20, 9),
    ("linear", 9, 13, 8), ("linear", 9, 18, 8), ("additive", 20, 25),
    *[("tail-biting", blocks) for blocks in range(2, 7)],
    *[("window", band, blocks) for band in ("binary", "additive") for blocks in (2, 3, 4)],
], ids=lambda case: "-".join(map(str, case)))
def test_low_weight_search_matches_oracle_above_the_budget(case):
    """The property tests stop at length 12; at the sizes the search
    certifies, above the budget, it still returns the oracle's word."""
    code = _above_the_budget(case)
    assert code.size() > code_module.DEFAULT_BUDGET
    assert find_low_weight_word(code, 4) == low_weight_oracle(code, 4)


# (q, additive, fit): r = fit parity rows give syndromes of bit_length(q-1)
# bits a symbol that fill 64 bits (63 over GF(8)); r = fit + 1 pass them
_KEY_WIDTHS = [(2, False, 64), (3, False, 32), (4, False, 32), (8, False, 21), (9, False, 16),
               (4, True, 64)]


@pytest.mark.parametrize("q, additive, fit", _KEY_WIDTHS)
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("planted", [3, 4])
def test_low_weight_search_at_64_bit_syndromes(q, additive, fit, extra, planted):
    """Codes with r = fit + extra parity rows and a planted word of weight
    3 or 4: the search returns the oracle's word for every max_w."""
    rng = random.Random(1000 * q + 10 * extra + planted)
    spec, r = GF(q), fit + extra
    width = spec.ell if additive else 1
    n = -(-(r + 4) // width)  # at least 4 rows over F
    code = None
    while code is None or code.n * width - code.dim != r:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n * width - r - 1)]
        low = [0] * n
        for i in rng.sample(range(n), planted):
            low[i] = rng.randrange(1, q)
        code = spanned_code(S if additive else E, spec, rows + [low], n)
    assert code._syndromes.cols.shape[1] == r
    for max_w in (1, 2, 3, 4):
        assert find_low_weight_word(code, max_w) == low_weight_oracle(code, max_w)


def test_min_distance_above_the_budget_eliminates_nothing(monkeypatch):
    """A code above the budget is searched from the standard parity rows
    of its rref basis, with no kernel."""
    code = LinearCode(random_matrix(random.Random(5), GF(4), 13, 20))
    calls = count_kernels(monkeypatch)
    cert = min_distance(code)
    assert code.size() > code_module.DEFAULT_BUDGET and cert.lower_method == "column-independence"
    assert calls == []


def _lazy_duals():
    g4 = GF(4)
    add = lambda: AdditiveCode.from_linear(quaternary_hamming_dual_5())  # noqa: E731
    cases = [
        ("hamming_dual", lambda: hamming_dual(3, 2), E),
        ("gf3", lambda: LinearCode(random_matrix(random.Random(3), GF(3), 4, 9)), E),
        ("product", lambda: product(hamming_dual(3, 2), hamming(3, 2)), E),
        ("zero", lambda: LinearCode(Matrix(GF(2), [], ncols=5)), E),
        ("full", lambda: LinearCode(Matrix(GF(3), np.eye(4, dtype=int))), E),
        ("qhd5", quaternary_hamming_dual_5, H),
        ("product", lambda: product(quaternary_hamming_dual_5(), quaternary_hamming_dual_5()), H),
        ("zero", lambda: LinearCode(Matrix(g4, [], ncols=3)), H),
        ("full", lambda: LinearCode(Matrix(g4, np.eye(3, dtype=int))), H),
        ("additive", add, S),
        ("product", lambda: product(simplex(2, 2), add()), S),
        ("zero", lambda: AdditiveCode(g4, [], n=3), S),
        ("full", lambda: AdditiveCode(g4, [[a if i == j else 0 for i in range(3)]
                                           for j in range(3) for a in (1, 2)]), S),
    ]
    return [pytest.param(build, kind, id=f"{name}-{kind}") for name, build, kind in cases]


@pytest.mark.parametrize("build, kind", _lazy_duals())
def test_a_dual_eliminates_its_basis_on_first_read(build, kind, monkeypatch):
    """A dual's dimension, n * width less the primal's, is known without
    its basis, which one elimination gives on first read: as many rows,
    the rref of the kernel of the form."""
    code = build()
    calls = count_kernels(monkeypatch)
    dual = code.dual(kind)
    assert dual.dim == code.n * code.width - code.dim and calls == []
    assert dual.basis.nrows == dual.dim and len(calls) == 1
    assert dual.generator == dual.symbols(dual.basis) and len(calls) == 1
    assert dual.basis == code._form(kind).kernel()


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
    return spanned_code(kind, spec, rows, n), kind


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
    return spanned_code(kind, spec, rows, n), kind, draw(st.booleans())


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
    certificate is refused.  Each call certifies a fresh code, as a code
    keeps its first certificate."""
    primal = hamming_dual(4, 2)
    monkeypatch.setattr(code_module, "SCAN_BLOCK", 1 << 6)
    assert min_distance(primal.dual(E)).value == 3
    monkeypatch.setattr(code_module, "_weight_counts",
                        lambda code, budget, scan=True: {0: 1, wrong: 1})
    with pytest.raises(AssertionError, match="weight counts"):
        min_distance(hamming_dual(4, 2).dual(E))


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


@st.composite
def _expansion_codes(draw):
    """A linear code over GF(2), GF(4), GF(8), GF(9), GF(16), GF(25) or
    GF(27), or an additive code over one of the extension fields; the
    zero code included."""
    spec = GF(draw(st.sampled_from([2, 4, 8, 9, 16, 25, 27])))
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n)
    additive = spec.ell > 1 and draw(st.booleans())
    return spanned_code(S if additive else E, spec, draw(st.lists(row, max_size=4)), n)


@settings(max_examples=100, deadline=None)
@given(code=_expansion_codes())
def test_expanded_generators_match_the_scalar_definition(code):
    """The one log/exp gather gives x^t * g for every generator row g and,
    within it, every t below the degree of F (1 for an additive code)."""
    spec = code.spec
    want = [[spec.mul(spec.p**t, v) for v in g]
            for g in code.generator.rows for t in range(code.field.ell)]
    got = code.expanded_generators()
    assert got.shape == (len(want), code.n) and got.tolist() == want


@st.composite
def _hermitian_field_codes(draw):
    spec = GF(draw(st.sampled_from([4, 9, 16, 25])))
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, spec.q - 1), min_size=n, max_size=n)
    return LinearCode.from_rows(spec, draw(st.lists(row, max_size=3)), n=n)


_QUATERNARY = quaternary_hamming_dual_5()


@settings(max_examples=100, deadline=None)
@given(code=_hermitian_field_codes())
@example(code=_QUATERNARY)
@example(code=product(_QUATERNARY, _QUATERNARY))
@example(code=LinearCode.from_rows(GF(4), [[1, 0]]))
def test_a_linear_codes_symplectic_flag_is_its_hermitian_flag(code):
    """Ketkar, Klappenecker, Kumar & Sarvepalli, Lemma 18, which
    ``cli._selforth_flags`` reads: the additive view of a GF(q)-linear
    code is symplectic self-orthogonal iff the code is Hermitian
    self-orthogonal, each found on its own Gram matrix (the product by the
    rule of its factors)."""
    assert AdditiveCode.from_linear(code).is_self_orthogonal(S) == code.is_self_orthogonal(H)


def test_min_distance_is_found_once_per_code_and_budget():
    """A code keeps one certificate per effective budget: the default is
    the key DEFAULT_BUDGET, and budget 0 is a key of its own.  The
    additive-chain dual is enumerated at the default budget and searched
    at budget 0."""
    c2 = AdditiveCode.from_linear(quaternary_hamming_dual_5())
    dual = product(simplex(2, 2), c2).dual(S)
    cert = min_distance(dual)
    assert cert is min_distance(dual) is min_distance(dual, code_module.DEFAULT_BUDGET)
    searched = min_distance(dual, budget=0)
    assert searched is min_distance(dual, budget=0)
    assert (cert.lower_method, searched.lower_method) == ("exhaustive", "column-independence")
    assert (searched.lower, searched.upper) == (cert.lower, cert.upper) == (3, 3)


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

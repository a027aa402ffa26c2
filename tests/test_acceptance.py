"""Acceptance suite: every criterion is executed at its stated tolerance
(exact equality unless a runtime limit is given) and prints one line.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.
"""
import random
import time
from fractions import Fraction

from helpers import (brute_min_distance, inner_product, orthogonal_pairwise, random_additive_code,
                     random_linear_code)
from qproduct.catalog import hamming_dual, quaternary_hamming_dual_5, simplex
from qproduct.code import (AdditiveCode, find_low_weight_word,
                           hamming_weight, min_distance, product_dual_certificate, spanned_code,
                           weight_enumerator)
from qproduct.convolutional import (ConvStabilizer, band_window, check_band_self_orthogonal,
                                    conv_from_product, free_distance_upper_bound, tail_biting,
                                    tail_biting_qecc)
from qproduct.cyclic import rs_code, rs_product_params
from qproduct.galois import GF
from qproduct.matrix import InnerProductKind, Matrix
from qproduct.product import dual_of_product_generator, product, product_additive
from qproduct.quantum import css_qecc, hermitian_qecc, rate_comparison, symplectic_qecc

E = InnerProductKind.EUCLIDEAN
H = InnerProductKind.HERMITIAN
S = InnerProductKind.SYMPLECTIC


def _report(number: int, text: str, started: float, limit: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:6.2f}s): {text}")


def test_criterion_01_hamming_dual_pipeline():
    started = time.perf_counter()
    code = hamming_dual(3, 2)
    assert (code.n, code.k) == (7, 3)
    cert = min_distance(code)
    assert cert.lower_method == "exhaustive" and cert.value == 4
    assert sum(weight_enumerator(code).values()) == 8
    assert code.is_self_orthogonal(E)
    dual = code.dual(E)
    assert (dual.n, dual.k) == (7, 4)
    assert min_distance(dual).value == 3
    assert css_qecc(code).triple() == (7, 1, 3)
    assert css_qecc(code).alphabet == 2
    _report(1, "[7,3,4] -> dual [7,4,3] -> QECC(7,1,3,2), exact", started, limit=1.0)


def test_criterion_02_binary_product():
    started = time.perf_counter()
    code = hamming_dual(3, 2)
    prod = product(code, code)
    assert (prod.n, prod.k) == (49, 9)
    cert = min_distance(prod)
    assert cert.lower_method == "exhaustive" and cert.value == 16
    dual = prod.dual(E)
    assert dual.k == 40
    assert find_low_weight_word(dual, max_w=2) is None
    witness = find_low_weight_word(dual, max_w=3)
    assert witness is not None and hamming_weight(witness) == 3 and dual.contains(witness)
    params = css_qecc(prod)
    assert params.triple() == (49, 31, 3) and params.alphabet == 2
    _report(2, "[49,9,16] product, dual [49,40,3], QECC(49,31,3,2)", started, limit=1.0)


def test_criterion_03_quaternary_hermitian_chain():
    started = time.perf_counter()
    code = quaternary_hamming_dual_5()
    assert code.is_self_orthogonal(H)
    dual = code.dual(H)
    assert (dual.n, dual.k) == (5, 3)
    dual_cert = min_distance(dual)
    assert dual_cert.lower_method == "exhaustive" and dual_cert.value == 3
    assert sum(c for w, c in weight_enumerator(dual).items() if w) == 63
    params = hermitian_qecc(code)
    assert params.triple() == (5, 1, 3) and params.alphabet == 2
    prod = product(code, code)
    prod_cert = min_distance(prod)
    assert prod_cert.lower_method == "exhaustive" and prod_cert.value == 16
    assert sum(c for w, c in weight_enumerator(prod).items() if w) == 255
    prod_dual = prod.dual(H)
    assert (prod_dual.n, prod_dual.k) == (25, 21)
    pd_cert = min_distance(prod_dual)
    assert pd_cert.exact and pd_cert.value == 3
    params2 = hermitian_qecc(prod)
    assert params2.triple() == (25, 17, 3) and params2.alphabet == 2
    _report(3, "[5,2,4] -> QECC(5,1,3,2); [25,4,16] -> QECC(25,17,3,2)", started, limit=2.0)


def test_criterion_04_additive_tensor_chain():
    started = time.perf_counter()
    c1 = simplex(2, 2)
    c2 = AdditiveCode.from_linear(quaternary_hamming_dual_5())
    prod = product_additive(c1, c2)
    assert (prod.n, prod.k_p) == (15, 8)
    cert = min_distance(prod)
    assert cert.lower_method == "exhaustive" and cert.value == 8
    assert sum(c for w, c in weight_enumerator(prod).items() if w) == 255
    dual = prod.symplectic_dual()
    assert dual.k_p == 22
    enum_started = time.perf_counter()
    exhaustive = min_distance(dual)
    enum_elapsed = time.perf_counter() - enum_started
    assert exhaustive.lower_method == "exhaustive" and exhaustive.value == 3
    assert enum_elapsed < 60.0
    search_started = time.perf_counter()
    assert find_low_weight_word(dual, max_w=2) is None
    witness = find_low_weight_word(dual, max_w=3)
    search_elapsed = time.perf_counter() - search_started
    assert search_elapsed < 1.0
    assert witness is not None and hamming_weight(witness) == 3
    params = symplectic_qecc(prod)
    assert params.triple() == (15, 7, 3) and params.alphabet == 2
    _report(4, f"(15,2^8,8) -> dual (15,2^22,3) by enumeration ({enum_elapsed:.1f}s) "
               f"and by search ({search_elapsed:.2f}s), QECC(15,7,3,2)", started)


def test_criterion_05_tail_biting_family():
    started = time.perf_counter()
    code = hamming_dual(3, 2)
    s = conv_from_product(code, code, 1, E)
    for blocks in (2, 3):
        tb = tail_biting(s, blocks)
        assert tb.k == 9 * blocks
        assert tb.is_self_orthogonal(E)
        dual_cert = min_distance(tb.dual(E))
        assert dual_cert.exact and dual_cert.value == 3
        params = tail_biting_qecc(s, blocks)
        assert params.triple() == (42 * blocks, 24 * blocks, 3)
        assert params.alphabet == 2
    _report(5, "tail-biting N=2,3: rank 9N, QECC(42N,24N,3,2), d=3 certified",
            started, limit=5.0)


def _random_pairs():
    rng = random.Random(0xACCE)
    cases = []
    for q in (2, 4, 5):
        for _ in range(20):
            spec = GF(q)
            cases.append((E, random_linear_code(rng, spec, rng.randint(2, 6), 4),
                          random_linear_code(rng, spec, rng.randint(2, 6), 4)))
    for _ in range(20):
        cases.append((H, random_linear_code(rng, GF(4), rng.randint(2, 6), 4),
                      random_linear_code(rng, GF(4), rng.randint(2, 6), 4)))
    for _ in range(20):
        cases.append((S, random_linear_code(rng, GF(2), rng.randint(2, 5), 3),
                      random_additive_code(rng, GF(4), rng.randint(2, 5), 4)))
    return cases


def test_criterion_06_dual_generator_oracle_equivalence():
    started = time.perf_counter()
    cases = _random_pairs()
    assert len(cases) >= 100
    for kind, c1, c2 in cases:
        stacked = dual_of_product_generator(c1, c2, kind)
        if kind is S:
            dual = product_additive(c1, c2).symplectic_dual()
            assert AdditiveCode(c2.spec, stacked.rows, n=c1.n * c2.n) == dual
        else:
            dual = product(c1, c2).dual(kind)
            assert spanned_code(kind, c2.spec, stacked.array, dual.n) == dual
    _report(6, f"stacked dual generator == kernel dual on {len(cases)} random pairs, "
               "all three kinds", started)


def test_criterion_07_tensor_inner_product_identities():
    started = time.perf_counter()
    rng = random.Random(0x1E44A)
    checked = 0
    for q in (2, 4, 5):
        spec = GF(q)
        for _ in range(1000):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            v, v2 = ([rng.randrange(q) for _ in range(n)] for _ in range(2))
            w, w2 = ([rng.randrange(q) for _ in range(m)] for _ in range(2))
            tvw = [spec.mul(a, b) for a in v for b in w]
            tvw2 = [spec.mul(a, b) for a in v2 for b in w2]
            assert inner_product(spec, tvw, tvw2, E) == spec.mul(
                inner_product(spec, v, v2, E), inner_product(spec, w, w2, E))
            checked += 1
    spec = GF(4)
    for _ in range(1000):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        v, v2 = ([rng.randrange(4) for _ in range(n)] for _ in range(2))
        w, w2 = ([rng.randrange(4) for _ in range(m)] for _ in range(2))
        tvw = [spec.mul(a, b) for a in v for b in w]
        tvw2 = [spec.mul(a, b) for a in v2 for b in w2]
        assert inner_product(spec, tvw, tvw2, H) == spec.mul(
            inner_product(spec, v, v2, H), inner_product(spec, w, w2, H))
        checked += 1
    for q in (4, 9):
        spec = GF(q)
        pf = spec.prime_field
        for _ in range(1000):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            v, v2 = ([rng.randrange(spec.p) for _ in range(n)] for _ in range(2))
            w, w2 = ([rng.randrange(q) for _ in range(m)] for _ in range(2))
            tvw = [spec.mul(a, b) for a in v for b in w]
            tvw2 = [spec.mul(a, b) for a in v2 for b in w2]
            assert inner_product(spec, tvw, tvw2, S) == pf.mul(
                inner_product(pf, v, v2, E), inner_product(spec, w, w2, S))
            checked += 1
    _report(7, f"tensor compatibility identities on {checked} random quadruples", started)


def test_criterion_08_corollary_ceiling():
    """The product-dual theorem, d((C1 (x) C2)^perp) = min(d(C1^perp),
    d(C2^perp)), on every random pair of all three kinds whose dual is not
    zero: exact, equal to the exact ``min_distance`` of the built dual (and,
    for Euclidean duals of at most 2^16 words, to brute force), with its
    witness in that dual."""
    started = time.perf_counter()
    checked = {E: 0, H: 0, S: 0}
    for kind, c1, c2 in _random_pairs():
        dual = product(c1, c2).dual(kind)
        if dual.dim == 0:
            continue
        cert = product_dual_certificate(c1, c2, kind)
        assert cert.exact and cert.value == min_distance(dual).value
        assert dual.contains(cert.witness)
        if kind is E and dual.size() <= 1 << 16:
            assert brute_min_distance(dual) == cert.value
        checked[kind] += 1
    assert list(checked.values()) == [57, 17, 20]
    _report(8, f"product-dual theorem exact on {sum(checked.values())} pairs "
               f"(E/H/S {'/'.join(map(str, checked.values()))})", started)


def test_criterion_09_rs_product_theorems():
    started = time.perf_counter()
    resolved = []
    for q in (4, 5, 7, 8):
        for mu1 in range(1, q - 1):
            if 2 * mu1 >= q - 1:
                continue
            for mu2 in range(1, q - 1):
                delta1, delta2 = q - mu1, q - mu2
                rep = rs_product_params(q, delta1, delta2)
                prod = product(rs_code(q, delta1), rs_code(q, delta2))
                assert prod.k == (q - delta1) * (q - delta2)
                assert rep.dual_dimension == (q - 1) ** 2 - mu1 * mu2
                assert prod.n - prod.k == rep.dual_dimension
                assert rep.product_self_orthogonal
                if q <= 5:
                    cert = min_distance(prod.dual(E))
                    assert cert.exact
                    resolved.append(cert.value == rep.expected_dual_distance)
                    assert cert.value != rep.stated_dual_distance
    assert resolved and all(resolved)
    _report(9, f"dimension formulas hold for q in (4,5,7,8); {len(resolved)} certified "
               "dual distances all equal 1+min(mu1,mu2), not min(mu1,mu2)",
            started, limit=60.0)


def test_criterion_10_rate_comparison():
    started = time.perf_counter()
    assert Fraction(17, 25) > 3 * Fraction(1, 5)
    grid = 0
    for q in (4, 5, 7, 8, 9):
        for mu in range(0, q - 1):
            rc = rate_comparison(q, mu, mu)
            expected_win = 0 < mu and Fraction(mu) < Fraction(2 * (q - 1), 3)
            assert rc.product_construction_wins == expected_win
            grid += 1
    _report(10, f"17/25 > 3*(1/5); win-iff-threshold verified on {grid} grid points", started)


def test_criterion_11_band_orthogonality_oracle():
    started = time.perf_counter()
    rng = random.Random(0xBA4D)
    cases = 0
    failures_seen = 0
    code = hamming_dual(3, 2)
    bands = [conv_from_product(code, code, t, E) for t in (1, 2)]
    for s in bands:
        assert check_band_self_orthogonal(s) == orthogonal_pairwise(band_window(s, 3), s.kind)
        cases += 1
    while cases < 110:
        q = rng.choice([2, 4])
        spec = GF(q)
        kind = E if q == 2 else rng.choice([E, H, S])
        r = rng.randint(1, 3)
        frame = rng.randint(1, 4)
        overlap = rng.randint(0, frame)
        block = Matrix(spec, [[rng.randrange(q) for _ in range(frame + overlap)]
                              for _ in range(r)], ncols=frame + overlap)
        s = ConvStabilizer(block=block, frame=frame, overlap=overlap, kind=kind)
        verdict = check_band_self_orthogonal(s)
        assert verdict == orthogonal_pairwise(band_window(s, 3), kind)
        failures_seen += not verdict
        cases += 1
    assert failures_seen > 0
    _report(11, f"band verdict == 3-block pairwise oracle on {cases} blocks "
                f"({failures_seen} constructed failures)", started)


def test_criterion_12_free_distance_bound():
    started = time.perf_counter()
    code = hamming_dual(3, 2)
    s = conv_from_product(code, code, 1, E)
    assert free_distance_upper_bound(s, 2) == 3
    _report(12, "free-distance upper bound 3 on the [49,9] band at W=2", started)

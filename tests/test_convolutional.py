"""Band stabilizer matrices: the two-condition orthogonality check against
windowed brute force, window factorization, tail-biting codes and their
quantum parameters, and the free-distance bound."""
import random

import numpy as np
import pytest

from helpers import random_matrix
from qproduct.catalog import hamming_dual, quaternary_hamming_dual_5, simplex
from qproduct.code import AdditiveCode, LinearCode, min_distance
from qproduct.convolutional import (ConvStabilizer, band_window, band_window_factorization_ok,
                                    check_band_self_orthogonal, conv_from_product,
                                    free_distance_upper_bound, tail_biting, tail_biting_qecc)
from qproduct.galois import GF
from qproduct.matrix import InnerProductKind, Matrix

E = InnerProductKind.EUCLIDEAN
S = InnerProductKind.SYMPLECTIC


def _binary_band(t=1):
    c = hamming_dual(3, 2)
    return conv_from_product(c, c, t, E)


def _additive_band():
    c2 = AdditiveCode.from_linear(quaternary_hamming_dual_5())
    return conv_from_product(simplex(2, 2), c2, 1, S)


def test_conv_from_product_shapes():
    s = _binary_band(1)
    assert (s.block.nrows, s.block.ncols) == (9, 49)
    assert (s.frame, s.overlap) == (42, 7)
    s2 = _binary_band(2)
    assert (s2.frame, s2.overlap) == (35, 14)


def test_conv_from_product_additive_shape():
    s = _additive_band()
    assert (s.block.nrows, s.block.ncols) == (8, 15)
    assert (s.frame, s.overlap) == (10, 5)
    assert s.spec == GF(4)


def test_conv_from_product_rejects_bad_t():
    c = hamming_dual(3, 2)
    for t in (0, 7, 9):
        with pytest.raises(ValueError):
            conv_from_product(c, c, t, E)


def test_conv_from_product_rejects_non_self_orthogonal():
    c = hamming_dual(3, 2)
    full = LinearCode(Matrix(GF(2), np.eye(3, dtype=int)))
    with pytest.raises(ValueError):
        conv_from_product(c, full, 1, E)


def test_band_self_orthogonality_paper_cases():
    assert check_band_self_orthogonal(_binary_band(1))
    assert check_band_self_orthogonal(_binary_band(2))
    assert check_band_self_orthogonal(_additive_band())


def test_band_check_fails_for_bad_block():
    block = Matrix(GF(2), [[1, 1, 0], [0, 1, 1]])
    s = ConvStabilizer(block=block, frame=2, overlap=1, kind=E)
    assert not check_band_self_orthogonal(s)


def test_band_check_equals_windowed_bruteforce():
    """The two-condition verdict must agree with materializing shifted
    blocks and checking all row pairs directly."""
    rng = random.Random(42)
    agree_true = agree_false = 0
    for _ in range(120):
        spec = GF(rng.choice([2, 4]))
        r = rng.randint(1, 3)
        frame = rng.randint(1, 4)
        overlap = rng.randint(0, frame)
        kind = E if spec.q == 2 else rng.choice([E, S])
        block = random_matrix(rng, spec, r, frame + overlap)
        s = ConvStabilizer(block=block, frame=frame, overlap=overlap, kind=kind)
        window = band_window(s, 4)
        oracle = window.gram(window, kind).is_zero()
        verdict = check_band_self_orthogonal(s)
        assert verdict == oracle
        agree_true += verdict
        agree_false += not verdict
    assert agree_false > 0  # random blocks do produce failures


def test_band_window_single_block_is_the_block():
    s = _binary_band(1)
    assert band_window(s, 1) == s.block


def test_band_window_two_blocks():
    s = _binary_band(1)
    w = band_window(s, 2)
    assert (w.nrows, w.ncols) == (18, 91)
    assert w.rref()[0].nrows == 18


def test_band_window_factorization():
    assert band_window_factorization_ok(_binary_band(1), 2)
    assert band_window_factorization_ok(_binary_band(2), 2)
    assert band_window_factorization_ok(_additive_band(), 3)


def test_band_window_factorization_unavailable_without_factors():
    block = Matrix(GF(2), [[1, 1, 0, 0], [0, 0, 1, 1]])
    s = ConvStabilizer(block=block, frame=2, overlap=2, kind=E)
    assert band_window_factorization_ok(s, 2) is None


@pytest.mark.parametrize("blocks,expected", [(2, (84, 48, 3)), (3, (126, 72, 3)),
                                             (4, (168, 96, 3))])
def test_tail_biting_family(blocks, expected):
    s = _binary_band(1)
    code = tail_biting(s, blocks)
    assert (code.n, code.k) == (42 * blocks, 9 * blocks)
    assert code.is_self_orthogonal(E)
    dual_cert = min_distance(code.dual(E))
    assert dual_cert.exact and dual_cert.value == 3
    assert tail_biting_qecc(s, blocks).triple() == expected


def test_tail_biting_rejects_too_few_blocks():
    s = _binary_band(1)
    with pytest.raises(ValueError):
        tail_biting(s, 1)  # 42 < 49


def test_tail_biting_rank_deficient_flaggable():
    block = Matrix(GF(2), [[1, 1]])
    s = ConvStabilizer(block=block, frame=1, overlap=1, kind=E)
    code = tail_biting(s, 2)
    assert code.n == 2
    assert code.k == 1 < 2 * s.rows_per_frame


def test_tail_biting_additive_is_rank_deficient():
    """Wrapping the additive band drops rank (verified against a
    brute-force span count): parameters come from the actual rank."""
    s = _additive_band()
    code = tail_biting(s, 2)
    assert code.n == 20
    assert code.k_p == 12 < 2 * s.rows_per_frame
    assert code.is_self_orthogonal()
    params = tail_biting_qecc(s, 2)
    assert (params.n, params.k) == (20, 8)


def test_free_distance_bound_values():
    s = _binary_band(1)
    bounds = [free_distance_upper_bound(s, w) for w in (1, 2, 3)]
    assert bounds[1] == 3
    assert all(b is not None for b in bounds)
    assert bounds[0] >= bounds[1] >= bounds[2]


def test_free_distance_bound_trivial_block():
    # column 1 is untouched by every block of the stream: weight-1 word
    block = Matrix(GF(2), [[1, 0, 0], [0, 0, 1]])
    s = ConvStabilizer(block=block, frame=2, overlap=1, kind=E)
    assert free_distance_upper_bound(s, 1) == 1


def test_free_distance_bound_no_witness_marker():
    # every stream column is pinned: the window dual is empty
    block = Matrix(GF(2), [[1, 0, 0], [0, 1, 0]])
    s = ConvStabilizer(block=block, frame=2, overlap=1, kind=E)
    assert free_distance_upper_bound(s, 1) is None


def test_free_distance_bound_additive():
    s = _additive_band()
    assert free_distance_upper_bound(s, 2) == 3


def test_window_words_extend_to_band_dual_words():
    """Any witness from the free-distance search, padded with zeros, must
    be orthogonal to every row of a larger window."""
    s = _binary_band(1)
    width = 2 * s.frame + s.overlap
    constraints = band_window(s, 3).take_columns(range(width))
    dual = LinearCode(constraints).dual(E)
    cert = min_distance(dual, budget=1 << 16)
    witness = cert.witness
    assert witness is not None
    big = band_window(s, 5)
    padded = list(witness) + [0] * (big.ncols - width)
    spec = s.spec
    for row in big.rows:
        acc = 0
        for a, b in zip(row, padded):
            if a and b:
                acc = spec.add(acc, spec.mul(a, b))
        assert acc == 0

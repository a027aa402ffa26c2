"""Matrix decompositions: echelon forms, kernels, Kronecker products,
complements, Gram matrices, and the text format."""
import random

import pytest

from helpers import orthogonal_pairwise, random_matrix
from qproduct.galois import GF
from qproduct.matrix import (InnerProductKind, Matrix, complement_basis, from_text,
                             inner_product, to_text)

E = InnerProductKind.EUCLIDEAN
H = InnerProductKind.HERMITIAN
S = InnerProductKind.SYMPLECTIC


def test_rref_identity():
    m = Matrix.identity(GF(5), 4)
    red, piv = m.rref()
    assert red == m and piv == (0, 1, 2, 3)


def test_rref_zero_matrix():
    red, piv = Matrix.zeros(GF(2), 3, 4).rref()
    assert red.nrows == 0 and red.ncols == 4 and piv == ()


def test_rref_hand_example():
    m = Matrix(GF(2), [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    red, piv = m.rref()
    assert red.rows == ((1, 0, 1), (0, 1, 1))
    assert piv == (0, 1)


@pytest.mark.parametrize("q", [2, 4, 5])
def test_rref_idempotent(q):
    rng = random.Random(q)
    for _ in range(25):
        m = random_matrix(rng, GF(q), rng.randint(1, 5), rng.randint(1, 6))
        red, _ = m.rref()
        again, _ = red.rref()
        assert red == again


def test_kernel_full_rank_square():
    assert Matrix.identity(GF(3), 3).kernel().nrows == 0


def test_kernel_zero_matrix():
    k = Matrix.zeros(GF(2), 2, 3).kernel()
    assert k == Matrix.identity(GF(2), 3)


def test_kernel_of_hamming_generator():
    m = Matrix(GF(2), [[1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1],
                       [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1]])
    k = m.kernel()
    assert k.nrows == 3
    assert m.matmul(k.transpose()).is_zero()


@pytest.mark.parametrize("q", [2, 4, 5])
def test_double_annihilator(q):
    rng = random.Random(10 + q)
    for _ in range(20):
        m = random_matrix(rng, GF(q), rng.randint(1, 4), rng.randint(2, 6))
        red, _ = m.rref()
        back = m.kernel().kernel()
        assert back == red


def test_kronecker_scalar_identity():
    rng = random.Random(0)
    a = random_matrix(rng, GF(4), 3, 4)
    one = Matrix(GF(4), [[1]])
    assert a.kronecker(one) == a


def test_kronecker_vector_example():
    a = Matrix(GF(2), [[1, 1]])
    b = Matrix(GF(2), [[1, 0, 1]])
    assert a.kronecker(b).rows == ((1, 0, 1, 1, 0, 1),)


@pytest.mark.parametrize("q", [2, 4, 5])
def test_kronecker_rank_multiplicative(q):
    rng = random.Random(20 + q)
    for _ in range(10):
        a = random_matrix(rng, GF(q), 3, 4)
        b = random_matrix(rng, GF(q), 3, 4)
        assert a.kronecker(b).rank() == a.rank() * b.rank()


@pytest.mark.parametrize("q", [2, 4, 5])
def test_kronecker_mixed_product(q):
    rng = random.Random(30 + q)
    for _ in range(10):
        a = random_matrix(rng, GF(q), 2, 3)
        b = random_matrix(rng, GF(q), 2, 4)
        c = random_matrix(rng, GF(q), 2, 3)
        d = random_matrix(rng, GF(q), 2, 4)
        lhs = a.kronecker(b).matmul(c.kronecker(d).transpose())
        rhs = a.matmul(c.transpose()).kronecker(b.matmul(d.transpose()))
        assert lhs == rhs


def test_over_embeds_a_prime_field_matrix():
    m = Matrix(GF(2), [[1, 0, 1]])
    assert m.over(GF(2)) is m
    lifted = m.over(GF(8))
    assert lifted.spec == GF(8) and lifted.rows == m.rows
    for source, target in ((GF(3), GF(4)), (GF(4), GF(16))):
        with pytest.raises(ValueError):
            Matrix(source, [[1, 2]]).over(target)


def test_complement_basis_identity():
    h = Matrix.identity(GF(2), 3)
    assert complement_basis(h, 3).nrows == 0


def test_complement_basis_empty():
    h = Matrix.empty(GF(2), 3)
    assert complement_basis(h, 3) == Matrix.identity(GF(2), 3)


def test_complement_basis_example():
    h = Matrix(GF(2), [[1, 1, 0]])
    a = complement_basis(h, 3)
    assert a.rows == ((0, 1, 0), (0, 0, 1))


def test_complement_basis_rejects_dependent_rows():
    h = Matrix(GF(2), [[1, 1, 0], [1, 1, 0]])
    with pytest.raises(ValueError):
        complement_basis(h, 3)


@pytest.mark.parametrize("q", [2, 4, 5])
def test_complement_basis_completes_rank(q):
    rng = random.Random(40 + q)
    for _ in range(15):
        m = random_matrix(rng, GF(q), rng.randint(1, 4), 5)
        red, _ = m.rref()
        a = complement_basis(red, 5)
        assert red.stack(a).rank() == 5


def test_gram_kernel_is_zero():
    rng = random.Random(1)
    g = random_matrix(rng, GF(4), 2, 5)
    k = g.kernel()
    assert g.gram(k, E).is_zero()


def test_gram_identity():
    i = Matrix.identity(GF(5), 3)
    assert i.gram(i, E) == i


def test_gram_hermitian_example():
    m = Matrix(GF(4), [[2]])
    assert m.gram(m, H).rows == ((1,),)  # w * w^2 = 1


def test_symplectic_scalars():
    F4 = GF(4)
    assert inner_product(F4, (2,), (2,), S) == 0  # tr(w * w^2) = tr(1) = 0
    assert inner_product(F4, (1,), (2,), S) == 1  # tr(w^2) = 1


def test_symplectic_gram_lives_over_prime_field():
    m = Matrix(GF(4), [[1, 2], [2, 3]])
    g = m.gram(m, S)
    assert g.spec == GF(2)


def test_gram_matches_pairwise_oracle():
    rng = random.Random(2)
    for kind in (E, H, S):
        for _ in range(10):
            m = random_matrix(rng, GF(4), 3, 4)
            assert m.gram(m, kind).is_zero() == orthogonal_pairwise(m, kind)


def test_hermitian_requires_even_degree():
    m = Matrix(GF(8), [[1, 2]])
    with pytest.raises(ValueError):
        m.gram(m, H)


def test_inner_product_length_mismatch():
    with pytest.raises(ValueError):
        inner_product(GF(2), (1, 0), (1,), E)


def test_field_mismatch():
    a = Matrix(GF(2), [[1]])
    b = Matrix(GF(4), [[1]])
    with pytest.raises(ValueError):
        a.kronecker(b)


def test_text_format_roundtrip():
    m = Matrix(GF(9), [[0, 1, 8], [3, 4, 5]])
    text = to_text(m)
    assert text.splitlines()[0] == "9 2 3"
    assert from_text(text) == m


def test_text_format_validates():
    with pytest.raises(ValueError):
        from_text("2 1 3\n1 0\n")

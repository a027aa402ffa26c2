"""Matrix decompositions: echelon forms, kernels, Kronecker products,
complements, Euclidean Gram matrices, and the text format; the Hermitian
and symplectic forms are checked through the code model."""
import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (gram_oracle, inner_product, kernel_oracle, kronecker_oracle, matmul,
                     orthogonal_pairwise, parity_rows, random_matrix, rref_oracle, to_text,
                     transpose)
from qproduct.code import spanned_code
from qproduct.galois import GF, FieldSpec
from qproduct.matrix import (InnerProductKind, Matrix, complement_basis, from_text,
                             product_kernel)

E = InnerProductKind.EUCLIDEAN
H = InnerProductKind.HERMITIAN
S = InnerProductKind.SYMPLECTIC


def test_rref_identity():
    m = Matrix(GF(5), np.eye(4, dtype=int))
    red, piv = m.rref()
    assert red == m and piv == (0, 1, 2, 3)


def test_rref_zero_matrix():
    red, piv = Matrix(GF(2), np.zeros((3, 4), int)).rref()
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
    assert Matrix(GF(3), np.eye(3, dtype=int)).kernel().nrows == 0


def test_kernel_zero_matrix():
    k = Matrix(GF(2), np.zeros((2, 3), int)).kernel()
    assert k == Matrix(GF(2), np.eye(3, dtype=int))


def test_kernel_of_hamming_generator():
    m = Matrix(GF(2), [[1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1],
                       [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1]])
    k = m.kernel()
    assert k.nrows == 3
    assert matmul(m, transpose(k)).is_zero()


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
        assert a.kronecker(b).rref()[0].nrows == a.rref()[0].nrows * b.rref()[0].nrows


@pytest.mark.parametrize("q", [2, 4, 5])
def test_kronecker_mixed_product(q):
    rng = random.Random(30 + q)
    for _ in range(10):
        a = random_matrix(rng, GF(q), 2, 3)
        b = random_matrix(rng, GF(q), 2, 4)
        c = random_matrix(rng, GF(q), 2, 3)
        d = random_matrix(rng, GF(q), 2, 4)
        lhs = matmul(a.kronecker(b), transpose(c.kronecker(d)))
        rhs = matmul(a, transpose(c)).kronecker(matmul(b, transpose(d)))
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
    h = Matrix(GF(2), np.eye(3, dtype=int))
    assert complement_basis(h, 3).nrows == 0


def test_complement_basis_empty():
    h = Matrix(GF(2), [], ncols=3)
    assert complement_basis(h, 3) == Matrix(GF(2), np.eye(3, dtype=int))


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
        assert red.stack(a).rref()[0].nrows == 5


def test_gram_kernel_is_zero():
    rng = random.Random(1)
    g = random_matrix(rng, GF(4), 2, 5)
    k = g.kernel()
    assert g.gram(k).is_zero()


def test_gram_identity():
    i = Matrix(GF(5), np.eye(3, dtype=int))
    assert i.gram(i) == i


def test_gram_hermitian_example():
    """The Hermitian form lives in the code model: span{w} over GF(4) is
    not Hermitian self-orthogonal, as w * w^2 = 1."""
    assert inner_product(GF(4), (2,), (2,), H) == 1
    assert not spanned_code(H, GF(4), [[2]], 1).is_self_orthogonal(H)


def test_symplectic_scalars():
    F4 = GF(4)
    assert inner_product(F4, (2,), (2,), S) == 0  # tr(w * w^2) = tr(1) = 0
    assert inner_product(F4, (1,), (2,), S) == 1  # tr(w^2) = 1
    assert spanned_code(S, F4, [[2]], 1).is_self_orthogonal(S)
    assert not spanned_code(S, F4, [[1], [2]], 1).is_self_orthogonal(S)


def test_symplectic_gram_lives_over_prime_field():
    """The symplectic form's rows, and so its Gram matrix with the basis's
    digits, are over GF(p)."""
    code = spanned_code(S, GF(4), [[1, 2], [2, 3]], 2)
    assert code._form(S).spec == GF(2)
    assert code._form(S).gram(code.basis).spec == GF(2)


def test_gram_matches_pairwise_oracle():
    rng = random.Random(2)
    for kind in (E, H, S):
        for _ in range(10):
            m = random_matrix(rng, GF(4), 3, 4)
            code = spanned_code(kind, m.spec, m.array, m.ncols)
            assert code.is_self_orthogonal(kind) == orthogonal_pairwise(m, kind)


def test_hermitian_requires_even_degree():
    with pytest.raises(ValueError):
        spanned_code(H, GF(8), [[1, 2]], 2).is_self_orthogonal(H)
    with pytest.raises(ValueError):
        inner_product(GF(8), (1, 2), (1, 2), H)


def test_inner_product_length_mismatch():
    with pytest.raises(ValueError):
        inner_product(GF(2), (1, 0), (1,), E)
    with pytest.raises(ValueError):
        Matrix(GF(2), [[1, 0]]).gram(Matrix(GF(2), [[1]]))


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
    assert from_text("2 1 3\n\n1 0 1\n\n") == Matrix(GF(2), [[1, 0, 1]])  # blank lines skipped


def test_text_format_validates():
    with pytest.raises(ValueError):
        from_text("2 1 3\n1 0\n")


@pytest.mark.parametrize("rows", ["", "1 0 1\n0 1 1\n", "1 0 1\n\n0 1 1\n1 1 0\n"])
def test_text_format_needs_exactly_r_rows(rows):
    """The header's row count is checked both ways: rows past it are an
    error, not silently dropped."""
    with pytest.raises(ValueError, match="expected 1 rows"):
        from_text("2 1 3\n" + rows)


@pytest.mark.parametrize("value", [-1, 4, 1 << 70, 1.5])
def test_out_of_range_entries_raise_at_every_boundary(value, tmp_path, capsys):
    from qproduct.catalog import code_from_json
    from qproduct.cli import main
    from qproduct.code import AdditiveCode, LinearCode

    rows = [[1, 0, 2], [0, value, 1]]
    with pytest.raises(ValueError):
        Matrix(GF(4), rows)
    with pytest.raises(ValueError):
        LinearCode.from_rows(GF(4), rows)
    with pytest.raises(ValueError):
        AdditiveCode(GF(4), rows)
    with pytest.raises(ValueError):
        from_text(f"4 2 3\n1 0 2\n0 {value} 1\n")
    for code in (LinearCode.from_rows(GF(4), [[1, 0, 2]]), AdditiveCode(GF(4), [[1, 0, 2]])):
        with pytest.raises(ValueError):
            code.contains(rows[1])
    for kind in ("linear", "additive"):
        with pytest.raises(ValueError):
            code_from_json({"field": 4, "kind": kind, "generator": rows})
        path = tmp_path / f"{kind}.json"
        path.write_text(f'{{"field": 4, "kind": "{kind}", "generator": {rows}}}')
        assert main(["build", "--code-json", str(path)]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ValueError"
        assert ("out of range" if isinstance(value, int) else "not an integer") in error["message"]


# fields of the oracle test: prime, extension, one custom modulus (x^4 + x^3
# + x^2 + x + 1, whose root is not primitive, so x + 1 generates), q = 289
# > 256 (uint16) and the largest supported prime, 65521, where the int64
# Gram product is nearest its overflow bound
ORACLE_FIELDS = [GF(q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 289, 65521)] + [
    FieldSpec(2, 4, (1, 1, 1, 1, 1), generator=3)]


@st.composite
def _matrix_pairs(draw, fields=ORACLE_FIELDS, max_cols=7, min_rows=0, max_rows=6):
    """Two matrices over one of ``fields`` with the same column count, each
    with rows that are fresh, zero, scaled copies or sums of earlier rows."""
    spec = draw(st.sampled_from(fields))
    ncols = draw(st.integers(0, max_cols))
    element = st.integers(0, spec.q - 1)

    def rows():
        out = []
        for how in draw(st.lists(st.sampled_from(["fresh", "fresh", "zero", "scaled", "sum"]),
                                 min_size=min_rows, max_size=max_rows)):
            if how == "zero" or (how != "fresh" and not out):
                out.append([0] * ncols)
            elif how == "fresh" and spec.q == 2:  # bytes of bits, led by a drawn run of zeros
                bits = draw(st.binary(min_size=(ncols + 7) // 8, max_size=(ncols + 7) // 8))
                row = np.unpackbits(np.frombuffer(bits, np.uint8))[:ncols]
                row[:draw(st.integers(0, ncols))] = 0
                out.append(row.tolist())
            elif how == "fresh":
                out.append(draw(st.lists(element, min_size=ncols, max_size=ncols)))
            else:
                a, b = (out[draw(st.integers(0, len(out) - 1))] for _ in range(2))
                lam = draw(element)
                b = b if how == "sum" else [0] * ncols
                out.append([spec.add(spec.mul(lam, x), y) for x, y in zip(a, b)])
        return Matrix(spec, out, ncols=ncols)

    return rows(), rows()


@settings(max_examples=200, deadline=None)
@given(pair=_matrix_pairs())
@example(pair=(Matrix(GF(9), np.zeros((3, 4), int)), Matrix(GF(9), [], ncols=4)))
@example(pair=(Matrix(GF(289), np.eye(4, dtype=int)), Matrix(GF(289), np.eye(4, dtype=int))))
def test_array_layer_matches_the_pure_python_oracle(pair):
    a, b = pair
    assert a.rref() == rref_oracle(a)
    assert a.kernel() == kernel_oracle(a)
    assert a.kronecker(b) == kronecker_oracle(a, b)
    assert a.gram(b) == gram_oracle(a, b)


def _binary(rows: int, ncols: int, seed: int) -> Matrix:
    rng = random.Random(seed)
    return Matrix(GF(2), [[rng.randrange(2) for _ in range(ncols)] for _ in range(rows)],
                  ncols=ncols)


@settings(max_examples=50, deadline=None)  # kernel_oracle takes ~0.3 s at 12 x 130
@given(pair=_matrix_pairs(fields=[GF(2)], max_cols=130, min_rows=4, max_rows=12))
@example(pair=(_binary(12, 0, 0), _binary(3, 0, 1)))
@example(pair=(_binary(12, 8, 2), _binary(12, 8, 3)))
@example(pair=(_binary(12, 64, 4), _binary(5, 64, 5)))
@example(pair=(_binary(12, 65, 6), _binary(12, 65, 7)))
@example(pair=(Matrix(GF(2), [[0] * 64 + [1], [1] + [0] * 64, [1] * 65]), _binary(0, 65, 8)))
def test_packed_binary_rows_match_the_oracle_across_word_boundaries(pair):
    """GF(2) rows are eliminated as packed ints: up to 130 columns, so the
    rows cross byte and 64-bit boundaries, with pivots on either side."""
    a, b = pair
    assert a.rref() == rref_oracle(a)
    assert a.kernel() == kernel_oracle(a)
    assert a.gram(b) == gram_oracle(a, b)


@settings(max_examples=200, deadline=None)
@given(pair=_matrix_pairs(fields=[GF(q) for q in (2, 3, 4, 5, 7, 8, 9, 16)]))
@example(pair=(Matrix(GF(4), np.zeros((2, 3), int)), Matrix(GF(4), np.eye(2, dtype=int))))
@example(pair=(Matrix(GF(5), [], ncols=3), Matrix(GF(5), [[1, 2]])))
def test_product_kernel_is_the_kernel_of_the_kronecker_product(pair):
    """From the two factors, with zero, dependent and full-rank rows: a
    zero factor makes the kernel the full space, two full-rank square ones
    leave it empty."""
    a, b = pair
    assert product_kernel(a, b) == a.kronecker(b).kernel()


def _dual_cases():
    from qproduct.catalog import hamming
    from qproduct.code import AdditiveCode, LinearCode

    rng = random.Random(7)
    gf4 = LinearCode(random_matrix(rng, GF(4), 3, 7))
    additive = AdditiveCode(GF(4), [[rng.randrange(4) for _ in range(6)] for _ in range(4)])
    return [(hamming(3, 2), E), (gf4, E), (gf4, H), (additive, S)]


@pytest.mark.parametrize("code, kind", _dual_cases())
def test_dual_parity_rows_are_the_kept_form_without_a_kernel(code, kind, monkeypatch):
    """A dual's kept parity rows span the kernel of its basis, and its
    syndrome columns are read off them as they are: no kernel, no rref."""
    dual = code.dual(kind)
    expected = dual.basis.kernel()
    calls = []
    kernel, rref = Matrix.kernel, Matrix.rref
    monkeypatch.setattr(Matrix, "kernel", lambda m: calls.append(("kernel", m)) or kernel(m))
    monkeypatch.setattr(Matrix, "rref", lambda m: calls.append(("rref", m)) or rref(m))
    dual._syndromes  # builds the table of syndrome columns
    assert calls == []
    assert parity_rows(dual) == expected
    assert all(name == "rref" for name, _ in calls)

"""Named catalog entries and the descriptor expression language."""
import json

import pytest

from qproduct.catalog import (DescriptorError, code_from_json, hamming, hamming_dual,
                              load_code_json, parse_descriptor, projective_point_matrix,
                              quaternary_hamming_dual_5, simplex)
from qproduct.code import AdditiveCode, LinearCode, min_distance, weight_enumerator
from qproduct.galois import GF
from qproduct.matrix import InnerProductKind, to_text

E = InnerProductKind.EUCLIDEAN
H = InnerProductKind.HERMITIAN


def test_projective_points_count():
    for q, r in ((2, 3), (4, 2), (3, 3)):
        m = projective_point_matrix(GF(q), r)
        assert m.ncols == (q**r - 1) // (q - 1)
        assert m.rank() == r


def test_hamming_dual_3_2():
    code = hamming_dual(3, 2)
    assert (code.n, code.k) == (7, 3)
    assert min_distance(code).value == 4


def test_simplex_2_2():
    code = simplex(2, 2)
    assert (code.n, code.k) == (3, 2)
    assert weight_enumerator(code) == {0: 1, 2: 3}


def test_hamming_parameters():
    for q, r in ((2, 3), (4, 2), (5, 2)):
        code = hamming(r, q)
        n = (q**r - 1) // (q - 1)
        assert (code.n, code.k) == (n, n - r)
        assert min_distance(code).value == 3


def test_quaternary_hamming_dual_5_by_enumeration():
    code = quaternary_hamming_dual_5()
    assert (code.n, code.k) == (5, 2)
    assert code.is_self_orthogonal(H)
    table = weight_enumerator(code)
    assert sum(table.values()) == 16
    assert min(w for w in table if w) == 4


def test_parse_catalog_names():
    assert parse_descriptor("hamming_dual(3, 2)") == hamming_dual(3, 2)
    assert parse_descriptor("simplex(2,2)") == simplex(2, 2)
    assert parse_descriptor("quaternary_hamming_dual_5") == quaternary_hamming_dual_5()
    rs = parse_descriptor("rs(5,3)")
    assert (rs.n, rs.k) == (4, 2)
    cyc = parse_descriptor("cyclic(8,7,0,1,2)")
    assert (cyc.n, cyc.k) == (7, 4)


def test_parse_nested_combinators():
    prod = parse_descriptor("product(hamming_dual(3,2), hamming_dual(3,2))")
    assert (prod.n, prod.k) == (49, 9)
    add = parse_descriptor("additive(quaternary_hamming_dual_5)")
    assert isinstance(add, AdditiveCode) and add.k_p == 4
    pa = parse_descriptor("product_additive(simplex(2,2), additive(quaternary_hamming_dual_5))")
    assert (pa.n, pa.k_p) == (15, 8)
    dual = parse_descriptor("dual(quaternary_hamming_dual_5, hermitian)")
    assert (dual.n, dual.k) == (5, 3)
    sdual = parse_descriptor("dual(additive(quaternary_hamming_dual_5))")
    assert isinstance(sdual, AdditiveCode) and sdual.k_p == 6


def test_parse_additive_dual_is_only_symplectic():
    add = "additive(quaternary_hamming_dual_5)"
    assert parse_descriptor(f"dual({add}, symplectic)") == parse_descriptor(f"dual({add})")
    for kind in ("euclidean", "hermitian"):
        with pytest.raises(DescriptorError, match="symplectic"):
            parse_descriptor(f"dual({add}, {kind})")


def test_parse_errors_mention_catalog():
    with pytest.raises(DescriptorError) as err:
        parse_descriptor("no_such_code(3)")
    assert "simplex" in str(err.value)
    for bad in ("", "rs(5", "rs(5,3) junk", "product(rs(4,2)", "3"):
        with pytest.raises(DescriptorError):
            parse_descriptor(bad)


def test_parse_bad_arguments():
    with pytest.raises(DescriptorError):
        parse_descriptor("rs(6,2)")  # 6 is not a prime power
    with pytest.raises(DescriptorError):
        parse_descriptor("product(rs(4,2), rs(5,2))")  # field mismatch


def test_code_from_json_inline():
    payload = {"field": 2, "kind": "linear",
               "generator": [[1, 0, 1], [0, 1, 1]]}
    code = code_from_json(payload)
    assert isinstance(code, LinearCode) and (code.n, code.k) == (3, 2)


def test_code_from_json_additive():
    payload = {"field": 4, "kind": "additive", "generator": [[1, 2], [2, 3]]}
    code = code_from_json(payload)
    assert isinstance(code, AdditiveCode) and code.k_p == 2


def test_code_from_json_matrix_file(tmp_path):
    matrix = hamming_dual(3, 2).generator
    path = tmp_path / "gen.txt"
    path.write_text(to_text(matrix))
    payload = {"field": 2, "kind": "linear", "generator": "gen.txt"}
    desc = tmp_path / "code.json"
    desc.write_text(json.dumps(payload))
    code = load_code_json(desc)
    assert code == hamming_dual(3, 2)


def test_code_from_json_field_mismatch(tmp_path):
    matrix = hamming_dual(3, 2).generator
    path = tmp_path / "gen.txt"
    path.write_text(to_text(matrix))
    desc = tmp_path / "code.json"
    desc.write_text(json.dumps({"field": 4, "kind": "linear", "generator": "gen.txt"}))
    with pytest.raises(DescriptorError):
        load_code_json(desc)

"""Named catalog entries and the descriptor expression language."""
import json

import pytest

from helpers import to_text
from qproduct.catalog import (DescriptorError, code_from_json, hamming, hamming_dual,
                              load_code_json, parse_descriptor, projective_point_matrix,
                              quaternary_hamming_dual_5, simplex)
from qproduct.code import AdditiveCode, LinearCode, min_distance, weight_enumerator
from qproduct.cyclic import cyclic_from_roots, rs_code
from qproduct.galois import GF
from qproduct.matrix import InnerProductKind
from qproduct.product import product

E = InnerProductKind.EUCLIDEAN
H = InnerProductKind.HERMITIAN


def test_projective_points_count():
    for q, r in ((2, 3), (4, 2), (3, 3)):
        m = projective_point_matrix(GF(q), r)
        assert m.ncols == (q**r - 1) // (q - 1)
        assert m.rref()[0].nrows == r


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
    # names are case-insensitive, a hyphen inside a name reads as an
    # underscore, whitespace (newlines included) only separates, and a
    # trailing comma and grouping parentheses are Python's own call syntax
    for text, code in (("Hamming-Dual(3,2)", hamming_dual(3, 2)),
                       ("dual(rs(7,3), Euclidean)", rs_code(7, 3).dual(E)),
                       ("Quaternary-Hamming-Dual-5", quaternary_hamming_dual_5()),
                       ("DUAL(quaternary_hamming_dual_5, HERMITIAN)",
                        quaternary_hamming_dual_5().dual(H)),
                       (" SIMPLEX (\t2 ,\n2 ) ", simplex(2, 2)),
                       ("rs\n(5,3)", rs_code(5, 3)),
                       ("rs(5,3,)", rs_code(5, 3)),
                       ("(rs(5,3))", rs_code(5, 3)),
                       ("Cyclic(8, 7, 0, 1, 2)", cyclic_from_roots(8, 7, [0, 1, 2])),
                       ("product(Hamming-Dual(3,2), hamming_dual(3,2))",
                        product(hamming_dual(3, 2), hamming_dual(3, 2)))):
        assert parse_descriptor(text) == code, text


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


@pytest.mark.parametrize("head", ["additive(", "dual(", "product(simplex(2,2), "])
def test_deeply_nested_descriptor_is_a_descriptor_error(head):
    depth = 10**4
    with pytest.raises(DescriptorError, match="nested too deeply"):
        parse_descriptor(head * depth + "hamming(3,2)" + ")" * depth)


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
    # nothing outside the grammar is evaluated: only catalog calls with
    # positional arguments, catalog names and decimal integers resolve
    for bad in ("", "rs(5", "rs(5,3) junk", "product(rs(4,2)", "3", "hermitian",
                "quaternary_hamming_dual_5()", "rs(q=5, delta=3)",
                "__import__('os').system('true')", "rs(5,3)[0]", "rs(*[5, 3])",
                "simplex(2.0, 2)", "simplex(True, 2)", "rs('5', 3)", "simplex(0x7, 2)",
                "simplex(1_0, 2)", "simplex(-1, 2)", "simplex(1+1, 2)", "simplex(1-1, 2)",
                "simplex(07, 2)", "lambda: rs(5,3)", "rs(5,3) # comment", "rs(5,3)(1)",
                "simplex(2, None)", "not rs(5,3)", "rs(5,3),", "ｒｓ(5,3)"):
        with pytest.raises(DescriptorError):
            parse_descriptor(bad)


def test_parse_bad_arguments():
    with pytest.raises(DescriptorError):
        parse_descriptor("rs(6,2)")  # 6 is not a prime power
    with pytest.raises(DescriptorError):
        parse_descriptor("product(rs(4,2), rs(5,2))")  # field mismatch
    for bad in ("dual(3)", "additive(3)", "product(3, 4)", "product(rs(5,3), 4)",
                "dual(hermitian)", "product_additive(simplex(2,2), hermitian)"):
        with pytest.raises(DescriptorError, match="is not a code"):
            parse_descriptor(bad)


def test_calls_nest_at_most_two_hundred_deep():
    """Python's parser allows 200 open parentheses; a descriptor may use
    them all."""
    assert parse_descriptor("dual(" * 199 + "hamming(3,2)" + ")" * 199) == hamming_dual(3, 2)
    with pytest.raises(DescriptorError, match="^descriptor nested too deeply$"):
        parse_descriptor("dual(" * 200 + "hamming(3,2)" + ")" * 200)


def test_code_from_json_inline():
    payload = {"field": 2, "kind": "linear",
               "generator": [[1, 0, 1], [0, 1, 1]]}
    code = code_from_json(payload)
    assert isinstance(code, LinearCode) and (code.n, code.k) == (3, 2)


def test_code_from_json_additive():
    payload = {"field": 4, "kind": "additive", "generator": [[1, 2], [2, 3]]}
    code = code_from_json(payload)
    assert isinstance(code, AdditiveCode) and code.k_p == 2


@pytest.mark.parametrize("payload", [[1, 2], {"field": 2, "generator": 5},
                                     {"field": 2, "generator": [1, 0, 1]},
                                     {"field": None, "generator": [[1]]},
                                     {"field": "2", "generator": [[1]]},
                                     {"field": 2, "generator": [[1]], "length": "1"},
                                     {"field": 2, "generator": [[1, 0], [1]]}])
def test_code_from_json_rejects_a_malformed_payload(payload):
    with pytest.raises(DescriptorError, match="descriptor JSON"):
        code_from_json(payload)


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

"""Field arithmetic: worked values, axiom sweeps, trace/Frobenius laws."""
import random

import pytest

from qproduct.galois import GF, FieldSpec, _EXTENSION_MODULI

ALL_BUILTIN_ORDERS = sorted([p**l for (p, l) in _EXTENSION_MODULI] +
                            [p for p in range(2, 512 + 1)
                             if all(p % d for d in range(2, int(p**0.5) + 1))])


def test_worked_additions():
    assert GF(2).add(1, 1) == 0
    assert GF(4).add(2, 3) == 1  # w + w^2 = 1
    assert GF(5).add(3, 4) == 2


def test_worked_multiplications():
    assert GF(4).mul(2, 3) == 1  # w * w^2 = 1
    for q in (2, 4, 5, 8, 9):
        spec = GF(q)
        assert all(spec.mul(a, 0) == 0 for a in range(q))
    assert GF(8).mul(2, 4) == 3  # x * x^2 = x + 1


def test_inverse_and_power():
    assert GF(4).inv(2) == 3
    assert GF(5).inv(2) == 3
    assert GF(4).power(2, 3) == 1
    with pytest.raises(ZeroDivisionError):
        GF(4).inv(0)
    with pytest.raises(ValueError):
        GF(4).power(2, -1)
    assert GF(4).power(0, 0) == 1
    assert GF(4).power(0, 7) == 0


def test_frobenius_gf4():
    F4 = GF(4)
    assert F4.frobenius_q(2) == 3
    assert F4.frobenius_q(0) == 0 and F4.frobenius_q(1) == 1


def test_frobenius_is_involution_gf16():
    F16 = GF(16)
    for a in range(16):
        assert F16.frobenius_q(F16.frobenius_q(a)) == a


def test_frobenius_rejects_odd_degree():
    with pytest.raises(ValueError):
        GF(8).frobenius_q(2)


@pytest.mark.parametrize("q", [4, 9, 16])
def test_frobenius_is_automorphism(q):
    spec = GF(q)
    for a in range(q):
        for b in range(q):
            assert spec.frobenius_q(spec.add(a, b)) == spec.add(spec.frobenius_q(a),
                                                                spec.frobenius_q(b))
            assert spec.frobenius_q(spec.mul(a, b)) == spec.mul(spec.frobenius_q(a),
                                                                spec.frobenius_q(b))


def test_trace_gf4():
    F4 = GF(4)
    assert F4.trace_to_prime(2) == 1  # tr(w) = w + w^2 = 1
    assert F4.trace_to_prime(1) == 0


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_trace_is_linear_and_nonzero(q):
    spec = GF(q)
    values = [spec.trace_to_prime(a) for a in range(q)]
    assert any(values), "trace must not vanish identically"
    assert all(v < spec.p for v in values)
    for a in range(q):
        for b in range(q):
            assert spec.trace_to_prime(spec.add(a, b)) == (values[a] + values[b]) % spec.p
        for c in range(spec.p):
            assert spec.trace_to_prime(spec.mul(c, a)) == (c * values[a]) % spec.p


def test_root_of_unity():
    F4 = GF(4)
    r = F4.root_of_unity(3)
    assert r == F4.generator == 2
    assert GF(8).root_of_unity(7) == GF(8).generator
    r5 = GF(5).root_of_unity(4)
    assert GF(5).power(r5, 4) == 1 and GF(5).power(r5, 2) != 1
    with pytest.raises(ValueError):
        GF(4).root_of_unity(5)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16, 25])
def test_root_of_unity_has_exact_order(q):
    spec = GF(q)
    n = spec.q - 1
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for d in divisors:
        r = spec.root_of_unity(d)
        assert spec.power(r, d) == 1
        for k in range(1, d):
            assert spec.power(r, k) != 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64, 81, 121, 128,
                               169, 243, 256, 289, 343, 361, 512])
def test_field_axioms_random_triples(q):
    spec = GF(q)
    rng = random.Random(q)
    for _ in range(40):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert spec.add(a, b) == spec.add(b, a)
        assert spec.mul(a, b) == spec.mul(b, a)
        assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
        assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
        assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))
        assert spec.add(a, spec.neg(a)) == 0
        if a:
            assert spec.mul(a, spec.inv(a)) == 1


def test_every_builtin_order_constructs():
    for q in ALL_BUILTIN_ORDERS:
        spec = GF(q)
        assert spec.q == q
        assert spec.power(spec.generator, q - 1) == 1


def test_digit_roundtrip():
    for q in (8, 9, 25):
        spec = GF(q)
        for a in range(q):
            assert spec.from_digits(spec.to_digits(a)) == a


def test_custom_modulus():
    # x^3 + x^2 + 1 is irreducible and primitive over GF(2), but is not
    # the canonical choice; encodings must differ from GF(8)'s table
    spec = FieldSpec(2, 3, (1, 0, 1, 1))
    assert spec.q == 8
    assert spec != GF(8)
    assert spec.mul(2, 4) == 5  # x * x^2 = x^2 + 1 under this modulus


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (0, 0, 1))  # x^2 = x * x
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 0, 1))  # x^2 + 1 = (x + 1)^2


def test_nonprimitive_modulus_gets_other_generator():
    # x^4+x^3+x^2+x+1 is irreducible over GF(2) but x has order 5 in it,
    # so the designated generator cannot be x itself
    spec = FieldSpec(2, 4, (1, 1, 1, 1, 1))
    assert spec.generator != 2
    assert spec.power(spec.generator, 15) == 1
    assert spec.power(2, 5) == 1


def test_bad_generator_rejected():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 1, 1), generator=1)


def test_non_prime_power_rejected():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_field_operations_worked_values():
    F4 = GF(4)
    assert F4.add(2, 3) == 1
    assert F4.mul(2, 3) == 1
    assert F4.power(2, 3) == 1
    assert F4.inv(2) == 3

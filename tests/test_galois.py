"""Field arithmetic: worked values, axiom sweeps, trace/Frobenius laws."""
import itertools
import random
from math import gcd

import pytest

from helpers import poly_is_irreducible
from qproduct.galois import GF, FieldSpec, _EXTENSION_MODULI, _prime_factors, _smallest_primitive_root

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


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16, 25])
def test_root_of_unity_has_exact_order(q):
    """g^((q-1)/d) has order exactly d for every d dividing q - 1."""
    spec = GF(q)
    n = spec.q - 1
    for d in [d for d in range(1, n + 1) if n % d == 0]:
        r = spec.power(spec.generator, n // d)
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
    for g in range(4):  # no generator makes a reducible modulus a field
        with pytest.raises(ValueError):
            FieldSpec(2, 2, (1, 0, 1), generator=g)


def test_nonprimitive_modulus_gets_other_generator():
    # x^4+x^3+x^2+x+1 is irreducible over GF(2) but x has order 5 in it,
    # so x cannot be the generator and one must be given
    with pytest.raises(ValueError, match="does not have order 15"):
        FieldSpec(2, 4, (1, 1, 1, 1, 1))
    spec = FieldSpec(2, 4, (1, 1, 1, 1, 1), generator=3)  # x + 1
    assert spec.generator == 3
    assert spec.power(spec.generator, 15) == 1
    assert all(spec.power(3, 15 // r) != 1 for r in (3, 5))
    assert spec.power(2, 5) == 1


# every monic polynomial of degree 2-4 over GF(2), 2-3 over GF(3), 2 over GF(5)
SMALL_MODULI = [(p, low + (1,)) for p, degrees in ((2, (2, 3, 4)), (3, (2, 3)), (5, (2,)))
                for ell in degrees for low in itertools.product(range(p), repeat=ell)]


def test_field_built_exactly_for_irreducible_moduli():
    """One walk of the generator's powers is the whole field check: some
    generator builds GF(p)[x]/(f) iff f is irreducible, by a brute-force
    factor search, and the default generator x builds it iff f is
    irreducible and x has order q - 1."""
    irreducible = 0
    for p, f in SMALL_MODULI:
        ell = len(f) - 1
        q = p**ell

        def builds(**kw):
            try:
                FieldSpec(p, ell, f, **kw)
            except ValueError:
                return False
            return True

        working = [g for g in range(q) if builds(generator=g)]
        assert bool(working) == poly_is_irreducible(p, f), (p, f)
        x_primitive = False
        if working:  # exactly the phi(q - 1) primitive elements generate
            irreducible += 1
            assert len(working) == sum(gcd(k, q - 1) == 1 for k in range(1, q))
            spec = FieldSpec(p, ell, f, generator=working[0])
            x_primitive = all(spec.power(p, (q - 1) // r) != 1 for r in _prime_factors(q - 1))
        assert builds() == x_primitive, (p, f)
    assert irreducible == 1 + 2 + 3 + 3 + 8 + 10  # Gauss's count, degrees as listed


def test_builtin_fields_keep_modulus_and_generator():
    """The default generator is the one GF() always used: the smallest
    primitive root for a prime field (modulus x - g), x (= p) otherwise."""
    for q in ALL_BUILTIN_ORDERS:
        spec = GF(q)
        if spec.ell == 1:
            g = _smallest_primitive_root(spec.p)
            assert (spec.modulus, spec.generator) == ((-g % spec.p, 1), g)
        else:
            assert (spec.modulus, spec.generator) == (_EXTENSION_MODULI[spec.p, spec.ell], spec.p)
    worked = {2: ((1, 1), 1), 5: ((3, 1), 2), 7: ((4, 1), 3), 11: ((9, 1), 2),
              9: ((2, 2, 1), 3), 16: ((1, 1, 0, 0, 1), 2), 25: ((2, 4, 1), 5)}
    assert {q: (GF(q).modulus, GF(q).generator) for q in worked} == worked


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

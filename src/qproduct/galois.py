"""Exact arithmetic in small finite fields GF(p^l).

Elements are represented as integers in [0, q) whose base-p digits are the
coefficients of the polynomial representation, least significant digit
first (so the coefficient of x^0 is the last digit).  Multiplication goes
through precomputed log/antilog tables with respect to the designated
primitive element, which keeps every operation exact and fast for all
supported field sizes (q <= 2^16).

Each built-in field uses a fixed modulus polynomial (the Conway
polynomial, regenerated by scripts/gen_modulus_table.py), so element
encodings are reproducible across runs and machines.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

MAX_FIELD_ORDER = 1 << 16

# Canonical moduli for extension fields p^l <= 512, little-endian
# coefficient tuples.  Regenerate with scripts/gen_modulus_table.py.
_EXTENSION_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (5, 2): (2, 4, 1),
    (3, 3): (1, 2, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (7, 2): (3, 6, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (11, 2): (2, 7, 1),
    (5, 3): (3, 3, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (13, 2): (2, 12, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (17, 2): (3, 16, 1),
    (7, 3): (4, 0, 6, 1),
    (19, 2): (2, 18, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
}

# add tables are only materialized for odd-characteristic extension fields of
# small order; beyond this the digit-wise path is used.  Characteristic 2
# always goes through XOR, and prime fields through arithmetic mod p.
_ADD_TABLE_MAX = 512


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _factor_prime_power(q: int) -> tuple[int, int]:
    """q -> (p, l) with q = p^l, or raise."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    facs = _prime_factors(q)
    if len(facs) != 1:
        raise ValueError(f"field order must be a prime power, got {q}")
    p = facs[0]
    ell = 0
    while q > 1:
        q //= p
        ell += 1
    return p, ell


def _smallest_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    facs = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in facs):
            return g
    raise AssertionError(f"no primitive root mod {p}")


class FieldSpec:
    """A finite field GF(p^l) with a fixed modulus and primitive element.

    Use :func:`GF` to obtain the canonical (cached) spec for an order;
    construct directly only to supply a custom modulus polynomial.
    """

    __slots__ = (
        "p", "ell", "q", "modulus", "generator",
        "_exp", "_log", "_add_table", "_frob_table", "_trace_table",
    )

    def __init__(self, p: int, ell: int, modulus: tuple[int, ...], generator: int | None = None):
        if not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if ell < 1:
            raise ValueError(f"extension degree must be >= 1, got {ell}")
        q = p**ell
        if q > MAX_FIELD_ORDER:
            raise ValueError(f"field order {q} exceeds supported maximum {MAX_FIELD_ORDER}")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != ell + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {ell}")
        self.p = p
        self.ell = ell
        self.q = q
        self.modulus = modulus
        if ell > 1 and not self._modulus_irreducible():
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")

        self._add_table: list[int] | None = None
        self._frob_table: list[int] | None = None
        self._trace_table: list[int] | None = None
        if generator is None:
            generator = self._find_generator()
        self.generator = generator
        self._build_log_tables()

    # -- construction internals ------------------------------------------

    def _digits(self, value: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.ell):
            out.append(value % p)
            value //= p
        return out

    def _from_digits(self, digits: Iterable[int]) -> int:
        value = 0
        for d in reversed(list(digits)):
            value = value * self.p + (d % self.p)
        return value

    def _raw_add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.ell):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _raw_mul(self, a: int, b: int) -> int:
        """Polynomial product reduced by the modulus, no tables."""
        p, ell = self.p, self.ell
        da = self._digits(a)
        db = self._digits(b)
        prod = [0] * (2 * ell - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        # reduce degree >= ell terms using x^ell = -(modulus - x^ell)
        for deg in range(2 * ell - 2, ell - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for i in range(ell):
                    prod[deg - ell + i] = (prod[deg - ell + i] - c * self.modulus[i]) % p
        return self._from_digits(prod[:ell])

    def _modulus_irreducible(self) -> bool:
        """Trial division by monic polynomials of degree <= ell/2."""
        p, ell = self.p, self.ell

        def rem_zero(divisor: list[int]) -> bool:
            f = [c % p for c in self.modulus]
            dd = len(divisor) - 1
            for deg in range(ell, dd - 1, -1):
                c = f[deg]
                if c:
                    f[deg] = 0
                    for i in range(dd):
                        f[deg - dd + i] = (f[deg - dd + i] - c * divisor[i]) % p
            return not any(f[:dd])

        for d in range(1, ell // 2 + 1):
            for idx in range(p**d):
                divisor = []
                v = idx
                for _ in range(d):
                    divisor.append(v % p)
                    v //= p
                divisor.append(1)
                if rem_zero(divisor):
                    return False
        return True

    def _find_generator(self) -> int:
        if self.ell == 1:
            return _smallest_primitive_root(self.p)
        # for the canonical moduli x itself is primitive; fall back to search
        order_facs = _prime_factors(self.q - 1)
        for cand in range(self.p, self.q):
            if self._order_is_full(cand, order_facs):
                return cand
        raise ValueError("no primitive element found (modulus not primitive?)")

    def _order_is_full(self, a: int, order_facs: list[int]) -> bool:
        def raw_pow(base: int, e: int) -> int:
            acc = 1
            while e:
                if e & 1:
                    acc = self._raw_mul(acc, base)
                base = self._raw_mul(base, base)
                e >>= 1
            return acc

        if raw_pow(a, self.q - 1) != 1:
            return False
        return all(raw_pow(a, (self.q - 1) // r) != 1 for r in order_facs)

    def _build_log_tables(self) -> None:
        q = self.q
        exp = [0] * (2 * (q - 1))
        log = [-1] * q
        x = 1
        for i in range(q - 1):
            if log[x] != -1:
                raise ValueError(f"generator {self.generator} does not have order {q - 1}")
            exp[i] = x
            exp[i + q - 1] = x
            log[x] = i
            x = self._raw_mul(x, self.generator)
        if x != 1:
            raise ValueError(f"generator {self.generator} does not have order {q - 1}")
        self._exp = exp
        self._log = log
        if self.p != 2 and self.ell > 1 and self.q <= _ADD_TABLE_MAX:
            self._add_table = [self._raw_add(a, b) for a in range(q) for b in range(q)]

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.ell, self.modulus, self.generator) == (
            other.p, other.ell, other.modulus, other.generator)

    def __hash__(self) -> int:
        return hash((self.p, self.ell, self.modulus, self.generator))

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def modulus_str(self) -> str:
        terms = []
        for i in range(self.ell, -1, -1):
            c = self.modulus[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xi = "x" if i == 1 else f"x^{i}"
                terms.append(xi if c == 1 else f"{c}*{xi}")
        return " + ".join(terms) if terms else "0"

    # -- scalar operations (integer encoding) ------------------------------

    def check_value(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"value {a} out of range for GF({self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.ell == 1:
            return (a + b) % self.p
        if self._add_table is not None:
            return self._add_table[a * self.q + b]
        return self._raw_add(a, b)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        if self.ell == 1:
            return -a % p
        out = 0
        mult = 1
        for _ in range(self.ell):
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.ell == 1:
            return (a - b) % self.p
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in GF({self.q})")
        return self._exp[self.q - 1 - self._log[a]]

    def power(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError(f"exponent must be >= 0, got {e}")
        if a == 0:
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def frobenius_q(self, a: int) -> int:
        """a^(p^m) for fields of even degree 2m: the involution fixing GF(p^m)."""
        if self.ell % 2 != 0:
            raise ValueError(f"GF({self.q}) has no designated quadratic subfield (odd degree)")
        if self._frob_table is None:
            e = self.p ** (self.ell // 2)
            self._frob_table = [self.power(v, e) for v in range(self.q)]
        return self._frob_table[a]

    @property
    def frobenius_power(self) -> int:
        """Order p^m of the index-2 subfield (even-degree fields only)."""
        if self.ell % 2 != 0:
            raise ValueError(f"GF({self.q}) has no designated quadratic subfield (odd degree)")
        return self.p ** (self.ell // 2)

    def trace_to_prime(self, a: int) -> int:
        """Trace to GF(p): sum of a^(p^i), returned as an integer < p."""
        if self._trace_table is None:
            table = []
            for v in range(self.q):
                acc = 0
                t = v
                for _ in range(self.ell):
                    acc = self.add(acc, t)
                    t = self.power(t, self.p)
                if acc >= self.p:
                    raise AssertionError("trace left the prime field")
                table.append(acc)
            self._trace_table = table
        return self._trace_table[a]

    def root_of_unity(self, n: int) -> int:
        if n <= 0 or (self.q - 1) % n != 0:
            raise ValueError(f"{n} does not divide q-1 = {self.q - 1}")
        return self.power(self.generator, (self.q - 1) // n)

    def embed_prime(self, x: int) -> int:
        if not 0 <= x < self.p:
            raise ValueError(f"prime-field value {x} out of range for GF({self.p})")
        return x

    @property
    def prime_field(self) -> "FieldSpec":
        return GF(self.p)

    def to_digits(self, a: int) -> tuple[int, ...]:
        return tuple(self._digits(a))

    def from_digits(self, digits: Iterable[int]) -> int:
        return self._from_digits(digits)

    def element(self, value: int) -> "FieldElement":
        return FieldElement(self, self.check_value(value))


_SPEC_CACHE: dict[int, FieldSpec] = {}


def GF(q: int) -> FieldSpec:
    """The canonical FieldSpec of order q (built-in modulus table)."""
    spec = _SPEC_CACHE.get(q)
    if spec is not None:
        return spec
    p, ell = _factor_prime_power(q)
    if ell == 1:
        g = _smallest_primitive_root(p)
        modulus = ((-g) % p, 1)
        spec = FieldSpec(p, 1, modulus, generator=g)
    else:
        key = (p, ell)
        if key not in _EXTENSION_MODULI:
            raise ValueError(
                f"no built-in modulus for GF({q}); construct FieldSpec with a custom modulus")
        spec = FieldSpec(p, ell, _EXTENSION_MODULI[key], generator=p)
    _SPEC_CACHE[q] = spec
    return spec


@dataclass(frozen=True)
class FieldElement:
    """A field element: an integer value bound to its FieldSpec."""

    spec: FieldSpec
    value: int

    def _same(self, other: "FieldElement") -> None:
        if self.spec != other.spec:
            raise ValueError(f"mismatched fields: {self.spec} vs {other.spec}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._same(other)
        return FieldElement(self.spec, self.spec.add(self.value, other.value))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._same(other)
        return FieldElement(self.spec, self.spec.sub(self.value, other.value))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._same(other)
        return FieldElement(self.spec, self.spec.mul(self.value, other.value))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.neg(self.value))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.spec, self.spec.power(self.value, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv(self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"{self.value}@GF({self.spec.q})"

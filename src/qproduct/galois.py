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

The same arithmetic runs on numpy arrays of elements (uint8 for q <= 256,
uint16 above) through the kernels at the end of this module: products by
log/exp tables, sums by XOR (p = 2) or base-p digits added mod p.  The
low-weight search and the matrix layer share them.
"""
from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

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
    construct directly only to supply a custom modulus polynomial f.  The
    generator g defaults to the smallest primitive root mod p when l = 1,
    and to x (encoded p) when l > 1; a modulus in which x is not primitive
    needs an explicit ``generator``.

    One check builds the field: the walk that fills the log tables raises
    unless g^0, ..., g^(q-2) are distinct and g^(q-1) = 1 in
    R = GF(p)[x]/(f).  A walk that passes also proves f irreducible.  No
    power of g is 0, since g^i = 0 would give g^(q-1) = g^i * g^(q-1-i) = 0.
    So the q - 1 distinct powers are all q - 1 nonzero elements of R, and
    each is a unit, with inverse g^(q-1-i).  A factorization f = a * b with
    0 < deg a < l would make a a nonzero zero divisor of R (a * b = 0),
    never a unit.  Hence a reducible modulus raises ValueError whatever the
    generator.
    """

    __slots__ = (
        "p", "ell", "q", "modulus", "generator",
        "_exp", "_log", "_frob_table", "_trace_table",
    )

    def __init__(self, p: int, ell: int, modulus: tuple[int, ...], generator: int | None = None):
        if _prime_factors(p) != [p]:
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
        self._frob_table: list[int] | None = None
        self._trace_table: list[int] | None = None
        if generator is None:
            generator = _smallest_primitive_root(p) if ell == 1 else p
        self.generator = self.check_value(generator)
        self._build_log_tables()

    # -- construction internals ------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        """Polynomial product reduced by the modulus, no tables."""
        p, ell = self.p, self.ell
        da = self.to_digits(a)
        db = self.to_digits(b)
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
        return self.from_digits(prod[:ell])

    def _build_log_tables(self) -> None:
        """Walk the generator's powers; the class docstring says why a walk
        that passes proves the modulus irreducible."""
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
        if not isinstance(a, (int, np.integer)) or not 0 <= a < self.q:
            raise ValueError(f"value {a!r} out of range for GF({self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.ell == 1:
            return (a + b) % self.p
        return self.from_digits(x + y for x, y in zip(self.to_digits(a), self.to_digits(b)))

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.ell == 1:
            return -a % self.p
        return self.from_digits(-d for d in self.to_digits(a))

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

    @property
    def prime_field(self) -> "FieldSpec":
        return GF(self.p)

    def to_digits(self, a: int) -> tuple[int, ...]:
        """The ell base-p digits of a, least significant first."""
        out = []
        for _ in range(self.ell):
            a, d = divmod(a, self.p)
            out.append(d)
        return tuple(out)

    def from_digits(self, digits: Iterable[int]) -> int:
        value = 0
        for d in reversed(list(digits)):
            value = value * self.p + (d % self.p)
        return value


_SPEC_CACHE: dict[int, FieldSpec] = {}


def GF(q: int) -> FieldSpec:
    """The canonical FieldSpec of order q (built-in modulus table)."""
    spec = _SPEC_CACHE.get(q)
    if spec is not None:
        return spec
    p, ell = _factor_prime_power(q)
    if ell == 1:
        spec = FieldSpec(p, 1, (-_smallest_primitive_root(p) % p, 1))
    elif (p, ell) in _EXTENSION_MODULI:
        spec = FieldSpec(p, ell, _EXTENSION_MODULI[p, ell])
    else:
        raise ValueError(
            f"no built-in modulus for GF({q}); construct FieldSpec with a custom modulus")
    _SPEC_CACHE[q] = spec
    return spec


# ---------------------------------------------------------------------------
# array kernels

def element_dtype(F: FieldSpec) -> type:
    """The dtype of an array of elements of F."""
    return np.uint8 if F.q <= 256 else np.uint16


@functools.lru_cache(maxsize=None)
def field_tables(F: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """numpy log and exp tables of F, as ``FieldSpec.mul`` reads them.
    log[0] is 2(q-1) and exp is zero from index 2(q-1) through 4(q-1), so
    exp[log[a] + log[b]] is a * b, and reads 0 when a factor is 0."""
    q1 = F.q - 1
    log = np.array([2 * q1] + F._log[1:], np.int32)
    exp = np.array(F._exp + [0] * (2 * q1 + 1), element_dtype(F))
    return log, exp


@functools.lru_cache(maxsize=None)
def field_map(F: FieldSpec, name: str) -> np.ndarray:
    """The scalar map ``name`` of F ("frobenius_q" or "trace_to_prime") at
    every element, as a table indexed by element."""
    fn = getattr(F, name)
    return np.array([fn(v) for v in range(F.q)], element_dtype(F))


def field_add(F: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``FieldSpec.add`` on arrays: XOR, or base-p digits added mod p."""
    p = F.p
    if p == 2:
        return a ^ b
    out = np.add(a, b, dtype=np.int32) % p
    for t in range(1, F.ell):
        pt = p**t
        out += np.add(a // pt, b // pt, dtype=np.int32) % p * pt
    return out


def field_sum(F: FieldSpec, x: np.ndarray, axis: int) -> np.ndarray:
    """The field sum of the elements of x along ``axis``."""
    p = F.p
    if p == 2:
        return np.bitwise_xor.reduce(x, axis=axis)
    out = 0
    for t in range(F.ell):
        pt = p**t
        out = out + (x // pt % p).sum(axis=axis, dtype=np.int64) % p * pt
    return out

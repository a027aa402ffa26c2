"""Linear and additive codes over small finite fields: duals under the
Euclidean, Hermitian, and symplectic inner products, plus minimum-distance
certification.

Distances are either computed exactly by exhaustive codeword enumeration
(bit-packed Gray-code iteration in characteristic 2, radix-p Gray
iteration otherwise) or certified by a complete search for codewords of
weight at most 4: a lightest witness fixes the distance, and its absence
proves d >= 5.  A certificate never reports "exact" unless lower and
upper bound meet.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from .galois import FieldSpec
from .matrix import InnerProductKind, Matrix

DEFAULT_BUDGET = 1 << 24


def enumeration_budget(budget: int | None = None) -> int:
    """Effective codeword budget; QPRODUCT_BUDGET overrides the default."""
    if budget is not None:
        return budget
    env = os.environ.get("QPRODUCT_BUDGET")
    if env:
        return int(env)
    return DEFAULT_BUDGET


def hamming_weight(vec: Sequence[int]) -> int:
    return sum(1 for v in vec if v)


@dataclass(frozen=True)
class DistanceCertificate:
    """Certified bounds on a code's minimum distance.

    The witness, when present, is an actual codeword of weight ``upper``
    and can be re-checked against the code.  ``exact`` holds iff the two
    bounds meet.  ``claimed`` carries a theorem-predicted value that was
    not independently verified.
    """

    lower: int
    upper: int | None
    lower_method: str
    witness: tuple[int, ...] | None = None
    degenerate: bool = False
    claimed: int | None = None

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError(f"distance not exact: [{self.lower}, {self.upper}]")
        return self.lower

    def to_dict(self) -> dict:
        out: dict = {
            "lower": self.lower,
            "upper": self.upper,
            "lower_method": self.lower_method,
            "exact": self.exact,
        }
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.degenerate:
            out["degenerate"] = True
        if self.claimed is not None:
            out["claimed"] = self.claimed
        return out


# ---------------------------------------------------------------------------
# exhaustive enumeration
#
# Every code here is a GF(p)-span of a fixed list of generator vectors, so
# enumeration walks all p^K coefficient tuples with a radix-p Gray code:
# step t updates one generator (the p-adic valuation of t), so each word
# costs one row update.  In characteristic 2 rows are packed into single
# integers, ell bits per symbol, and the update is a XOR.

def _pack(vec: Sequence[int], bits: int) -> int:
    word = 0
    for i, v in enumerate(vec):
        word |= v << (bits * i)
    return word


def _unpack(word: int, bits: int, n: int) -> tuple[int, ...]:
    mask = (1 << bits) - 1
    return tuple((word >> (bits * i)) & mask for i in range(n))


def _scan_packed(rows: list[tuple[int, ...]], n: int, bits: int,
                 counts: list[int] | None) -> tuple[int, tuple[int, ...] | None]:
    packed = [_pack(r, bits) for r in rows]
    fold_mask = sum(1 << (bits * i) for i in range(n))
    bit_count = int.bit_count
    shifts = range(1, bits)
    word = 0
    best_w, best = n + 1, None
    if bits == 1:
        for t in range(1, 1 << len(rows)):
            word ^= packed[(t & -t).bit_length() - 1]
            w = bit_count(word)
            if counts is not None:
                counts[w] += 1
            if w < best_w:
                best_w, best = w, word
    else:
        for t in range(1, 1 << len(rows)):
            word ^= packed[(t & -t).bit_length() - 1]
            acc = word
            for s in shifts:
                acc |= word >> s
            w = bit_count(acc & fold_mask)
            if counts is not None:
                counts[w] += 1
            if w < best_w:
                best_w, best = w, word
    return best_w, None if best is None else _unpack(best, bits, n)


def _scan_generic(spec: FieldSpec, rows: list[tuple[int, ...]], n: int,
                 counts: list[int] | None) -> tuple[int, tuple[int, ...] | None]:
    p = spec.p
    add = spec.add
    nz = [tuple((i, v) for i, v in enumerate(r) if v) for r in rows]
    word = [0] * n
    weight = 0
    best_w, best = n + 1, None
    for t in range(1, p**len(rows)):
        tt, j = t, 0
        while tt % p == 0:
            tt //= p
            j += 1
        for i, v in nz[j]:
            old = word[i]
            new = add(old, v)
            word[i] = new
            weight += (1 if new else 0) - (1 if old else 0)
        if counts is not None:
            counts[weight] += 1
        if weight < best_w:
            best_w, best = weight, tuple(word)
    return best_w, best


def _exhaustive_scan(spec: FieldSpec, rows: list[tuple[int, ...]], n: int,
                     counts: list[int] | None = None) -> tuple[int, tuple[int, ...] | None]:
    """Minimum nonzero weight over the GF(p)-span of rows, with the first
    word of that weight in Gray order as witness ((n + 1, None) when the
    span is zero).  With ``counts``, also tallies every word's weight,
    the zero word included."""
    if counts is not None:
        counts[0] += 1
    if spec.p == 2:
        return _scan_packed(rows, n, spec.ell, counts)
    return _scan_generic(spec, rows, n, counts)


# ---------------------------------------------------------------------------
# code objects

class LinearCode:
    """A [n, k] linear code held as a generator matrix in rref."""

    def __init__(self, generator: Matrix, claimed_distance: int | None = None):
        self.generator, _ = generator.rref()
        self.spec = generator.spec
        self.n = generator.ncols
        self.claimed_distance = claimed_distance
        self._dual_cache: dict[InnerProductKind, "LinearCode"] = {}

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows: Iterable[Iterable[int]], n: int | None = None,
                  claimed_distance: int | None = None) -> "LinearCode":
        return cls(Matrix(spec, rows, ncols=n), claimed_distance)

    @property
    def k(self) -> int:
        return self.generator.nrows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.generator == other.generator

    def __hash__(self) -> int:
        return hash(self.generator)

    def __repr__(self) -> str:
        return f"LinearCode[{self.n},{self.k}]_GF({self.spec.q})"

    def size(self) -> int:
        return self.spec.q**self.k

    def contains(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.n:
            raise ValueError("length mismatch")
        return self.generator.row_space_contains(vec)

    def dual(self, kind: InnerProductKind = InnerProductKind.EUCLIDEAN) -> "LinearCode":
        if kind is InnerProductKind.SYMPLECTIC:
            raise ValueError("symplectic duals apply to additive codes; use AdditiveCode")
        cached = self._dual_cache.get(kind)
        if cached is not None:
            return cached
        if kind is InnerProductKind.EUCLIDEAN:
            dual = LinearCode(self.generator.kernel())
        else:
            spec = self.spec
            conj = Matrix(spec, [[spec.frobenius_q(v) for v in row] for row in self.generator.rows],
                          ncols=self.n)
            dual = LinearCode(conj.kernel())
        self._dual_cache[kind] = dual
        return dual

    def is_self_orthogonal(self, kind: InnerProductKind = InnerProductKind.EUCLIDEAN) -> bool:
        return self.generator.gram(self.generator, kind).is_zero()

    def expanded_generators(self) -> list[tuple[int, ...]]:
        """Vectors whose GF(p)-span is the code: x^t * g_i for all t, i."""
        spec = self.spec
        out = []
        for g in self.generator.rows:
            for t in range(spec.ell):
                scale = spec.p**t  # encoding of x^t
                out.append(tuple(spec.mul(scale, v) for v in g))
        return out

    def describe(self) -> dict:
        return {
            "kind": "linear",
            "field": self.spec.q,
            "length": self.n,
            "dimension": self.k,
            "generator": [list(r) for r in self.generator.rows],
        }


class AdditiveCode:
    """A GF(p)-linear (additive) code of length n over GF(q), q = p^ell.

    Stored canonically: the p-ary expansion of the generators (ell digits
    per symbol, digit-major within each coordinate) is kept in rref.
    """

    def __init__(self, spec: FieldSpec, rows: Iterable[Sequence[int]], n: int | None = None,
                 claimed_distance: int | None = None):
        rows = [tuple(r) for r in rows]
        if n is None:
            if not rows:
                raise ValueError("empty additive code needs an explicit length")
            n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        self.spec = spec
        self.n = n
        self.claimed_distance = claimed_distance
        expanded = Matrix(spec.prime_field,
                          [self._expand_row(spec, r) for r in rows], ncols=n * spec.ell)
        self.expanded, _ = expanded.rref()
        self.generators = Matrix(
            spec, [self._compress_row(spec, r) for r in self.expanded.rows], ncols=n)

    @staticmethod
    def _expand_row(spec: FieldSpec, row: Sequence[int]) -> list[int]:
        out = []
        for v in row:
            out.extend(spec.to_digits(spec.check_value(v)))
        return out

    @staticmethod
    def _compress_row(spec: FieldSpec, row: Sequence[int]) -> list[int]:
        ell = spec.ell
        return [spec.from_digits(row[i * ell:(i + 1) * ell]) for i in range(len(row) // ell)]

    @classmethod
    def from_linear(cls, code: LinearCode) -> "AdditiveCode":
        """The code viewed as a GF(p)-linear code: k_p = ell * k."""
        spec = code.spec
        rows = []
        for g in code.generator.rows:
            for t in range(spec.ell):
                scale = spec.p**t  # encoding of x^t
                rows.append([spec.mul(scale, v) for v in g])
        return cls(spec, rows, n=code.n, claimed_distance=code.claimed_distance)

    @property
    def k_p(self) -> int:
        return self.expanded.nrows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AdditiveCode):
            return NotImplemented
        return (self.spec, self.n, self.expanded) == (other.spec, other.n, other.expanded)

    def __hash__(self) -> int:
        return hash((self.spec, self.n, self.expanded))

    def __repr__(self) -> str:
        return f"AdditiveCode({self.n}, {self.spec.p}^{self.k_p})_GF({self.spec.q})"

    def size(self) -> int:
        return self.spec.p**self.k_p

    def contains(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.n:
            raise ValueError("length mismatch")
        return self.expanded.row_space_contains(self._expand_row(self.spec, vec))

    def _symplectic_form_blocks(self) -> Matrix:
        """Per-coordinate Gram matrix B[s][t] = tr(x^s * frob(x^t)) over GF(p)."""
        spec = self.spec
        ell = spec.ell
        B = [[spec.trace_to_prime(spec.mul(spec.p**s, spec.frobenius_q(spec.p**t)))
              for t in range(ell)] for s in range(ell)]
        return Matrix(spec.prime_field, B, ncols=ell)

    def symplectic_dual(self) -> "AdditiveCode":
        spec = self.spec
        if spec.ell % 2 != 0:
            raise ValueError(f"symplectic dual needs an even-degree field, got GF({spec.q})")
        ell = spec.ell
        B = self._symplectic_form_blocks()
        pf = spec.prime_field
        add, mul = pf.add, pf.mul
        # M = expanded * (I_n (x) B): block i of each row right-multiplied by B
        mrows = []
        for row in self.expanded.rows:
            out = []
            for i in range(self.n):
                block = row[i * ell:(i + 1) * ell]
                for t in range(ell):
                    acc = 0
                    for s in range(ell):
                        if block[s] and B.rows[s][t]:
                            acc = add(acc, mul(block[s], B.rows[s][t]))
                    out.append(acc)
            mrows.append(out)
        M = Matrix(pf, mrows, ncols=self.n * ell)
        ker = M.kernel()
        rows = [self._compress_row(spec, r) for r in ker.rows]
        return AdditiveCode(spec, rows, n=self.n)

    def is_self_orthogonal(self, kind: InnerProductKind = InnerProductKind.SYMPLECTIC) -> bool:
        if kind is not InnerProductKind.SYMPLECTIC:
            raise ValueError("additive codes are checked under the symplectic product")
        return self.generators.gram(self.generators, kind).is_zero()

    def expanded_generators(self) -> list[tuple[int, ...]]:
        return [tuple(r) for r in self.generators.rows]

    def describe(self) -> dict:
        return {
            "kind": "additive",
            "field": self.spec.q,
            "length": self.n,
            "log_p_size": self.k_p,
            "size": f"{self.spec.p}^{self.k_p}",
            "generator": [list(r) for r in self.generators.rows],
        }


Code = LinearCode | AdditiveCode


def to_additive_over(code: LinearCode, target: FieldSpec) -> AdditiveCode:
    """The GF(q')-row-span of a prime-field code, as an additive code.

    Each generator row contributes all its x^t multiples over the target
    field, so the result is the full GF(q')-span.
    """
    spec = code.spec
    if spec.ell != 1 or target.p != spec.p:
        raise ValueError("expected a prime-field code and a target of the same characteristic")
    rows = []
    for g in code.generator.rows:
        embedded = [target.embed_prime(v) for v in g]
        for t in range(target.ell):
            scale = target.p**t
            rows.append([target.mul(scale, v) for v in embedded])
    return AdditiveCode(target, rows, n=code.n)


# ---------------------------------------------------------------------------
# distance services

def distance_at_least(code: Code, w: int) -> bool:
    """Exact test of d >= w for w <= 4 without enumerating the code:
    no nonzero codeword has weight below w."""
    if w > 4:
        raise ValueError("distance_at_least supports w <= 4 only")
    return find_low_weight_word(code, w - 1) is None


def _normalized_column(spec: FieldSpec, col: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """(monic column, leading scale) or None for the zero column."""
    for v in col:
        if v:
            inv = spec.inv(v)
            return tuple(spec.mul(inv, x) for x in col), v
    return None


def _linear_columns(code: LinearCode) -> list[tuple[int, ...]]:
    H = code.dual(InnerProductKind.EUCLIDEAN).generator
    if H.nrows == 0:
        return [() for _ in range(code.n)] if code.n else []
    return [tuple(r[j] for r in H.rows) for j in range(code.n)]


def find_low_weight_word(code: Code, max_w: int = 4) -> tuple[int, ...] | None:
    """Smallest-weight nonzero codeword of weight <= max_w, or None.

    Complete: if a word of weight <= max_w exists, one of minimum weight
    among weights <= max_w is returned.
    """
    if max_w < 1 or code.size() == 1:
        return None
    if isinstance(code, LinearCode):
        return _linear_low_weight_word(code, max_w)
    return _additive_low_weight_word(code, max_w)


def _additive_low_weight_word(code: AdditiveCode, max_w: int) -> tuple[int, ...] | None:
    H = code.expanded.kernel()  # GF(p) parity checks of the expanded code
    ell = code.spec.ell
    spec = code.spec
    for size in range(1, max_w + 1):
        for support in itertools.combinations(range(code.n), size):
            cols = []
            for i in support:
                cols.extend(range(i * ell, (i + 1) * ell))
            sub = H.take_columns(cols)
            ker = sub.kernel()
            for kv in ker.rows:
                symbols = [spec.from_digits(kv[t * ell:(t + 1) * ell]) for t in range(size)]
                if all(symbols):
                    word = [0] * code.n
                    for pos, sym in zip(support, symbols):
                        word[pos] = sym
                    return tuple(word)
    return None


def _linear_low_weight_word(code: LinearCode, max_w: int) -> tuple[int, ...] | None:
    spec = code.spec
    n = code.n
    if code.k == n:
        word = [0] * n
        word[0] = 1
        return tuple(word)
    cols = _linear_columns(code)
    add, mul, neg, inv = spec.add, spec.mul, spec.neg, spec.inv
    norm: list[tuple[tuple[int, ...], int] | None] = [_normalized_column(spec, c) for c in cols]
    for i, nc in enumerate(norm):
        if nc is None:
            word = [0] * n
            word[i] = 1
            return tuple(word)
    if max_w < 2:
        return None
    seen: dict[tuple[int, ...], int] = {}
    for i, nc in enumerate(norm):
        key, scale = nc
        j = seen.get(key)
        if j is not None:
            # scale_j * key + ... : cols[j] * a + cols[i] * b = 0 with a = 1
            b = neg(mul(norm[j][1], inv(scale)))
            word = [0] * n
            word[j] = 1
            word[i] = b
            return tuple(word)
        seen[key] = i
    if max_w < 3:
        return None
    nonzero = list(range(1, spec.q))
    for i in range(n):
        ci = cols[i]
        for j in range(i + 1, n):
            cj = cols[j]
            for lam in nonzero:
                combo = tuple(add(a, mul(lam, b)) for a, b in zip(ci, cj))
                nc = _normalized_column(spec, combo)
                if nc is None:
                    continue
                hit = seen.get(nc[0])
                if hit is not None and hit != i and hit != j:
                    # 1*c_i + lam*c_j + mu*c_hit = 0
                    mu = neg(mul(nc[1], inv(norm[hit][1])))
                    word = [0] * n
                    word[i] = 1
                    word[j] = lam
                    word[hit] = mu
                    return tuple(word)
    if max_w < 4:
        return None
    pair_index: dict[tuple[int, ...], list[tuple[int, int, int, int]]] = {}
    for i in range(n):
        ci = cols[i]
        for j in range(i + 1, n):
            cj = cols[j]
            for lam in nonzero:
                combo = tuple(add(a, mul(lam, b)) for a, b in zip(ci, cj))
                nc = _normalized_column(spec, combo)
                if nc is None:
                    continue
                key, scale = nc
                for pi, pj, plam, pscale in pair_index.get(key, ()):
                    if pi != i and pi != j and pj != i and pj != j:
                        # (c_pi + plam c_pj) = pscale * key ; (c_i + lam c_j) = scale * key
                        factor = neg(mul(pscale, inv(scale)))
                        word = [0] * n
                        word[pi] = 1
                        word[pj] = plam
                        word[i] = factor
                        word[j] = mul(factor, lam)
                        return tuple(word)
                pair_index.setdefault(key, []).append((i, j, lam, scale))
    return None


def min_distance(code: Code, budget: int | None = None) -> DistanceCertificate:
    """Minimum-distance certificate: exact by enumeration within budget,
    otherwise one complete search for a word of weight <= 4.  A witness
    of weight w proves d = w; without one, d >= 5 and no upper bound is
    known."""
    budget = enumeration_budget(budget)
    n = code.n
    k = code.k if isinstance(code, LinearCode) else code.k_p
    claimed = code.claimed_distance
    if k == 0:
        return DistanceCertificate(lower=n + 1, upper=n + 1, lower_method="exhaustive",
                                   witness=None, degenerate=True, claimed=claimed)
    if code.size() <= budget:
        rows = code.expanded_generators()
        w, witness = _exhaustive_scan(code.spec, [tuple(r) for r in rows], n)
        return DistanceCertificate(lower=w, upper=w, lower_method="exhaustive",
                                   witness=witness, claimed=claimed)
    witness = find_low_weight_word(code, max_w=4)
    if witness is None:
        return DistanceCertificate(lower=5, upper=None, lower_method="column-independence",
                                   claimed=claimed)
    w = hamming_weight(witness)
    return DistanceCertificate(lower=w, upper=w, lower_method="column-independence",
                               witness=witness, claimed=claimed)


def weight_enumerator(code: Code, budget: int | None = None) -> dict[int, int]:
    """Counts of codewords per Hamming weight (includes weight 0)."""
    budget = enumeration_budget(budget)
    if code.size() > budget:
        raise ValueError(f"code size {code.size()} exceeds budget {budget}")
    counts = [0] * (code.n + 1)
    rows = [tuple(r) for r in code.expanded_generators()]
    _exhaustive_scan(code.spec, rows, code.n, counts=counts)
    return {w: c for w, c in enumerate(counts) if c}

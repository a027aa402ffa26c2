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

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from .galois import FieldSpec
from .matrix import InnerProductKind, Matrix, _require_even_degree, inner_product

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

class Code:
    """A code of length n over GF(q), q = p^ell: the F-span of its rows,
    with F = GF(q) for a LinearCode and F = GF(p) for an AdditiveCode.

    It is stored as ``basis``, the rref over F of the rows in
    F-coordinates: the symbols themselves over GF(q), or ell base-p
    digits per symbol over GF(p).  ``generator`` holds the same rows as
    GF(q) symbols.  A dual is the F-kernel of the rows after one map per
    inner product: the identity (Euclidean), the Frobenius map (Hermitian)
    or, per symbol v, the trace form (tr(v * frob(x^t)))_t (symplectic).
    """

    linear: bool
    kinds: tuple[InnerProductKind, ...]  # the inner products it takes duals under, default first

    def _setup(self, basis: Matrix, claimed_distance: int | None) -> None:
        """Finish construction from a reduced basis; spec and n are set."""
        self.basis = basis
        self.claimed_distance = claimed_distance
        self.generator = self.symbols(basis)
        self._dual_cache: dict[InnerProductKind, Code] = {}
        self._columns: tuple | None = None

    @classmethod
    def _from_basis(cls, spec: FieldSpec, n: int, basis: Matrix) -> "Code":
        code = cls.__new__(cls)
        code.spec, code.n = spec, n
        code._setup(basis, None)
        return code

    @property
    def field(self) -> FieldSpec:
        return self.spec if self.linear else self.spec.prime_field

    @property
    def width(self) -> int:
        """F-coordinates per symbol."""
        return self.spec.ell // self.field.ell

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def size(self) -> int:
        return self.field.q**self.dim

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        return (type(self), self.spec, self.n, self.basis) == (
            type(other), other.spec, other.n, other.basis)

    def __hash__(self) -> int:
        return hash((self.spec, self.n, self.basis))

    def coordinates(self, vec: Sequence[int]) -> list[int]:
        """A GF(q) vector in F-coordinates."""
        if self.width == 1:
            return list(vec)
        spec = self.spec
        return [d for v in vec for d in spec.to_digits(spec.check_value(v))]

    def symbols(self, m: Matrix) -> Matrix:
        """Rows in F-coordinates as GF(q) vectors."""
        if m.spec == self.spec:
            return m
        w, from_digits = self.width, self.spec.from_digits
        return Matrix(self.spec, [[from_digits(r[i * w:(i + 1) * w]) for i in range(self.n)]
                                  for r in m.rows], ncols=self.n)

    def contains(self, vec: Sequence[int]) -> bool:
        if len(vec) != self.n:
            raise ValueError("length mismatch")
        return self.basis.row_space_contains(self.coordinates(vec))

    def _kind(self, kind: InnerProductKind | None) -> InnerProductKind:
        if kind is None:
            return self.kinds[0]
        if kind not in self.kinds:
            raise ValueError(f"{type(self).__name__} takes "
                             f"{' or '.join(map(str, self.kinds))} duals, not {kind}")
        _require_even_degree(self.spec, kind)
        return kind

    def _form(self, kind: InnerProductKind) -> Matrix:
        """Rows over F whose F-kernel is the dual under ``kind``: the basis
        (Euclidean), its Frobenius image (Hermitian), or, for each generator
        row g, tr(g_i * frob(x^t)) at coordinate (i, t) (symplectic)."""
        if kind is InnerProductKind.EUCLIDEAN:
            return self.basis
        spec, rows = self.spec, self.generator.rows
        if kind is InnerProductKind.HERMITIAN:
            return Matrix(spec, [[spec.frobenius_q(v) for v in g] for g in rows], ncols=self.n)
        conj = [spec.frobenius_q(spec.p**t) for t in range(self.width)]  # frob(x^t)
        return Matrix(self.field, [[spec.trace_to_prime(spec.mul(v, f)) for v in g for f in conj]
                                   for g in rows], ncols=self.n * self.width)

    def dual(self, kind: InnerProductKind | None = None) -> "Code":
        kind = self._kind(kind)
        cached = self._dual_cache.get(kind)
        if cached is None:
            # Matrix.kernel already returns its basis in rref
            cached = self._from_basis(self.spec, self.n, self._form(kind).kernel())
            self._dual_cache[kind] = cached
        return cached

    def is_self_orthogonal(self, kind: InnerProductKind | None = None) -> bool:
        return self._form(self._kind(kind)).gram(self.basis).is_zero()

    def describe(self) -> dict:
        return {"field": self.spec.q, "length": self.n,
                "generator": [list(r) for r in self.generator.rows]}

    def expanded_generators(self) -> list[tuple[int, ...]]:
        """Vectors whose GF(p)-span is the code: x^t * g for every
        generator row g and every t below the degree of F."""
        spec = self.spec
        return [tuple(spec.mul(spec.p**t, v) for v in g)
                for g in self.generator.rows for t in range(self.field.ell)]

    def _syndrome_columns(self) -> tuple[list[tuple[int, int]], list[tuple[int, ...]], list]:
        """The syndrome over F of each (coordinate, symbol) pair, for every
        nonzero symbol up to F* scaling (the smallest of its class), with
        the pairs and the F*-normalized columns; cached.  A linear code has
        one column per coordinate, an additive one (q-1)/(p-1)."""
        if self._columns is None:
            spec, F, w = self.spec, self.field, self.width
            H = self.basis.kernel().rows
            if w == 1:
                where = [(i, 1) for i in range(self.n)]
                cols = list(zip(*H)) if H else [()] * self.n
            else:
                reps = [a for a in range(1, spec.q)
                        if a == min(spec.mul(lam, a) for lam in range(1, F.q))]
                where = [(i, a) for i in range(self.n) for a in reps]
                cols = [tuple(inner_product(F, spec.to_digits(a), h[i * w:(i + 1) * w]) for h in H)
                        for i, a in where]
            self._columns = (where, cols, [_normalized_column(F, c) for c in cols])
        return self._columns


class LinearCode(Code):
    """A [n, k] linear code held as a generator matrix in rref."""

    linear = True
    kinds = (InnerProductKind.EUCLIDEAN, InnerProductKind.HERMITIAN)

    def __init__(self, generator: Matrix, claimed_distance: int | None = None):
        self.spec = generator.spec
        self.n = generator.ncols
        self._setup(generator.rref()[0], claimed_distance)

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows: Iterable[Iterable[int]], n: int | None = None,
                  claimed_distance: int | None = None) -> "LinearCode":
        return cls(Matrix(spec, rows, ncols=n), claimed_distance)

    @property
    def k(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        return f"LinearCode[{self.n},{self.k}]_GF({self.spec.q})"

    def describe(self) -> dict:
        return {**super().describe(), "kind": "linear", "dimension": self.k}


class AdditiveCode(Code):
    """A GF(p)-linear (additive) code of length n over GF(q), q = p^ell.

    Stored canonically: the p-ary expansion of the generators (ell digits
    per symbol, digit-major within each coordinate) is kept in rref.
    """

    linear = False
    kinds = (InnerProductKind.SYMPLECTIC,)

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
        expanded = Matrix(spec.prime_field, [self.coordinates(r) for r in rows],
                          ncols=n * spec.ell)
        self._setup(expanded.rref()[0], claimed_distance)

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows: Iterable[Sequence[int]], n: int | None = None,
                  claimed_distance: int | None = None) -> "AdditiveCode":
        return cls(spec, rows, n=n, claimed_distance=claimed_distance)

    @classmethod
    def from_linear(cls, code: LinearCode) -> "AdditiveCode":
        """The code viewed as a GF(p)-linear code: k_p = ell * k."""
        return cls(code.spec, code.expanded_generators(), n=code.n,
                   claimed_distance=code.claimed_distance)

    @property
    def k_p(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        return f"AdditiveCode({self.n}, {self.spec.p}^{self.k_p})_GF({self.spec.q})"

    def symplectic_dual(self) -> "AdditiveCode":
        return self.dual(InnerProductKind.SYMPLECTIC)

    def describe(self) -> dict:
        return {**super().describe(), "kind": "additive", "log_p_size": self.k_p,
                "size": f"{self.spec.p}^{self.k_p}"}


def spanned_code(kind: InnerProductKind, spec: FieldSpec, rows: Iterable[Sequence[int]],
                 n: int) -> Code:
    """The code spanned by ``rows`` whose duals are taken under ``kind``:
    additive for the symplectic kind, linear otherwise."""
    cls = AdditiveCode if kind is InnerProductKind.SYMPLECTIC else LinearCode
    return cls.from_rows(spec, rows, n=n)


def to_additive_over(code: LinearCode, target: FieldSpec) -> AdditiveCode:
    """The GF(q')-row-span of a prime-field code, as an additive code.

    Each generator row contributes all its x^t multiples over the target
    field, so the result is the full GF(q')-span.
    """
    return AdditiveCode.from_linear(LinearCode(code.generator.over(target)))


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


def find_low_weight_word(code: Code, max_w: int = 4) -> tuple[int, ...] | None:
    """Smallest-weight nonzero codeword of weight <= max_w, or None.

    Complete: if a word of weight <= max_w exists, one of minimum weight
    among weights <= max_w is returned.  A word of weight w is w syndrome
    columns at distinct coordinates with a vanishing F-combination
    (``Code._syndrome_columns``).  Weights 1 and 2 are zero and parallel
    columns; weights 3 and 4 meet in the middle over the F-combinations
    of column pairs.  Searches at most weight 4.
    """
    if max_w < 1 or code.size() == 1:
        return None
    F = code.field
    add, mul, neg, inv = F.add, F.mul, F.neg, F.inv
    where, cols, norm = code._syndrome_columns()
    coord = [i for i, _ in where]

    def word(*terms: tuple[int, int]) -> tuple[int, ...]:
        """The codeword with F-coefficient lam on column c, per (c, lam)."""
        out = [0] * code.n
        for c, lam in terms:
            out[coord[c]] = code.spec.mul(lam, where[c][1])
        return tuple(out)

    for c, nc in enumerate(norm):
        if nc is None:
            return word((c, 1))
    if max_w < 2:
        return None
    # without zero columns, parallel columns lie at distinct coordinates
    seen: dict[tuple[int, ...], int] = {}
    for c, (key, scale) in enumerate(norm):
        hit = seen.setdefault(key, c)
        if hit != c:
            # cols[hit] + b * cols[c] = 0
            return word((hit, 1), (c, neg(mul(norm[hit][1], inv(scale)))))
    if max_w < 3:
        return None
    nonzero = range(1, F.q)

    def pair_sums():
        """cols[c] + lam * cols[d], normalized, for c < d at distinct
        coordinates; sums that vanish are skipped."""
        for c in range(len(cols)):
            cc = cols[c]
            for d in range(c + 1, len(cols)):
                if coord[d] == coord[c]:
                    continue
                cd = cols[d]
                for lam in nonzero:
                    nc = _normalized_column(F, tuple(add(a, mul(lam, b)) for a, b in zip(cc, cd)))
                    if nc is not None:
                        yield c, d, lam, nc

    for c, d, lam, (key, scale) in pair_sums():
        hit = seen.get(key)
        if hit is not None and coord[hit] != coord[c] and coord[hit] != coord[d]:
            # cols[c] + lam * cols[d] + mu * cols[hit] = 0
            return word((c, 1), (d, lam), (hit, neg(mul(scale, inv(norm[hit][1])))))
    if max_w < 4:
        return None
    pair_index: dict[tuple[int, ...], list[tuple[int, int, int, int]]] = {}
    for c, d, lam, (key, scale) in pair_sums():
        pair = (coord[c], coord[d])
        for pc, pd, plam, pscale in pair_index.get(key, ()):
            if coord[pc] not in pair and coord[pd] not in pair:
                # (cols[pc] + plam cols[pd]) = pscale * key ; (cols[c] + lam cols[d]) = scale * key
                factor = neg(mul(pscale, inv(scale)))
                return word((pc, 1), (pd, plam), (c, factor), (d, mul(factor, lam)))
        pair_index.setdefault(key, []).append((c, d, lam, scale))
    return None


def min_distance(code: Code, budget: int | None = None) -> DistanceCertificate:
    """Minimum-distance certificate: exact by enumeration within budget,
    otherwise one complete search for a word of weight <= 4.  A witness
    of weight w proves d = w; without one, d >= 5 and no upper bound is
    known."""
    budget = enumeration_budget(budget)
    n = code.n
    claimed = code.claimed_distance
    if code.dim == 0:
        return DistanceCertificate(lower=n + 1, upper=n + 1, lower_method="exhaustive",
                                   witness=None, degenerate=True, claimed=claimed)
    if code.size() <= budget:
        w, witness = _exhaustive_scan(code.spec, code.expanded_generators(), n)
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
    _exhaustive_scan(code.spec, code.expanded_generators(), code.n, counts=counts)
    return {w: c for w, c in enumerate(counts) if c}

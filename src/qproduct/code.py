"""Linear and additive codes over small finite fields: duals under the
Euclidean, Hermitian, and symplectic inner products, plus minimum-distance
certification.

Distances are either computed exactly by exhaustive codeword enumeration
(a radix-p Gray walk over the span, run with numpy in blocks of at most
SCAN_BLOCK words held as uint64 bit or digit planes) or certified by a
complete search for codewords of weight at most 4: a lightest witness
fixes the distance, and its absence proves d >= 5.  The search reads the
syndrome columns of the code: weights 1 and 2 are zero and parallel
columns, and weights 3 and 4 meet in the middle over the normalized sums
of column pairs, formed as numpy arrays in chunks of at most SEARCH_CHUNK
pairs and compared as one void key per sum.  A certificate never reports
"exact" unless lower and upper bound meet.

A weight enumerator is counted by the same scan, once per code, on the
smaller side: a dual whose primal has no more words takes the primal's
counts through the MacWilliams transform, in exact integers.  Known counts
stop a certificate's walk at its first word of their least nonzero weight.
"""
from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .galois import FieldSpec, field_add, field_map, field_tables
from .matrix import InnerProductKind, Matrix, _require_even_degree

DEFAULT_BUDGET = 1 << 24


def enumeration_budget(budget: int | None = None) -> int:
    """Effective codeword budget: ``budget``, or DEFAULT_BUDGET when None."""
    return DEFAULT_BUDGET if budget is None else budget


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
# Every code here is a GF(p)-span of a fixed list of K generator rows R, so
# enumeration walks all p^K coefficient tuples with a radix-p Gray code:
# step t adds row v_p(t) (the p-adic valuation of t).  For i < p^a, the
# steps after h*p^a repeat those after 0, so word(h*p^a + i) = word(h*p^a)
# + word(i).  The walk therefore runs in blocks of p^a words: a table T of
# the first p^a words, built by p-fold doubling, plus the block's offset,
# with offset(h+1) = offset(h) + T[-1] + R[a + v_p(h+1)].  Blocks are
# visited in walk order, so the first lightest word of the first block
# that has one is the first in Gray order.
#
# A word is ell planes of uint64 lanes, plane t holding bit t (p = 2) or
# base-p digit t (odd p) of every symbol, so no symbol straddles two lanes.
# Words add by XOR, or digitwise mod p; a symbol is nonzero if any of its
# planes is, and bitwise_count counts them.  The first use of each numpy
# kernel in a process faults in about 64 KiB of its code, so the engine
# keeps to few kernels: the weight row is read as bytes (count, in, index),
# and planes replace a per-symbol bit fold.

SCAN_BLOCK = 1 << 12  # most words per block (a block holds at least p words)


def _pack(vec: Sequence[int], bits: int) -> int:
    word = 0
    for i, v in enumerate(vec):
        word |= v << (bits * i)
    return word


def _unpack(word: int, bits: int, n: int) -> tuple[int, ...]:
    mask = (1 << bits) - 1
    return tuple((word >> (bits * i)) & mask for i in range(n))


def _exhaustive_scan(spec: FieldSpec, rows: list[tuple[int, ...]], n: int,
                     counts: list[int] | None = None,
                     floor: int = 0) -> tuple[int, tuple[int, ...] | None]:
    """Minimum weight over the words at steps t >= 1 of the Gray walk of
    the GF(p)-span of rows (the minimum nonzero weight when the rows are
    independent), with the first word of that weight in Gray order as
    witness ((n + 1, None) when there are no rows).  With ``counts``, also
    tallies every word's weight, the zero word included.  Without it, the
    walk ends after the first block with a word of weight <= ``floor``, the
    whole walk's witness when no word is lighter (blocks go in walk order)."""
    p, ell, K = spec.p, spec.ell, len(rows)
    # a word is ell planes of L lanes; an odd-p digit fills a field of f bytes
    if p == 2:
        L = -(-n // 64)
        flat = array("Q", [_pack([v >> t & 1 for v in r[j:j + 64]], 1)
                           for r in rows for t in range(ell) for j in range(0, n, 64)])
    else:
        tc = "B" if p < 128 else "I"  # a field holds the sum of two digits, below 2p
        f = array(tc).itemsize
        L = -(-n * f // 8)
        pad = [0] * (8 // f * L - n)
        flat = array(tc, [x for r in rows for t in range(ell)
                          for x in [spec.to_digits(v)[t] for v in r] + pad])
        one = int.from_bytes(array(tc, [1] * (8 // f)).tobytes(), "little")
        high, low = np.uint64(one << 8 * f - 1), np.uint64((one << 8 * f - 1) - one)
    R = np.frombuffer(flat, np.uint64).reshape(K, ell * L)

    def add(x, y, out=None):
        if p == 2:
            return np.bitwise_xor(x, y, out=out)
        dx, dy = x.view(tc), y.view(tc)
        out = np.add(dx, dy, out=None if out is None else out.view(tc))
        return np.remainder(out, p, out=out).view(np.uint64)

    a = min(K, 1)
    while a < K and p ** (a + 1) <= SCAN_BLOCK:
        a += 1
    T = np.zeros((p**a, ell * L), np.uint64)
    m = 1
    for j in range(a):  # T[:p^(j+1)]: p copies of T[:p^j], copy d shifted by word(d*p^j)
        step = shift = add(T[m - 1], R[j])
        for d in range(1, p):
            add(T[:m], shift, T[d * m:(d + 1) * m])
            shift = add(shift, step)
        m *= p
    wdt = np.uint8 if n < 255 else np.uint16  # holds every weight and the sentinel n + 1
    W, offset = np.empty_like(T), T[0]
    best_w, best = n + 1, None
    if counts is not None:
        counts[0] += 1  # the zero word at step 0
    for h in range(p ** (K - a)):
        if h:
            j, t = a, h
            while t % p == 0:
                t //= p
                j += 1
            offset = add(add(offset, T[-1]), R[j])
        x = add(T, offset, W)[:, :L]  # folded in place; a witness is rebuilt from T
        for t in range(1, ell):  # a symbol is nonzero if any of its planes is
            x |= W[:, t * L:(t + 1) * L]
        if p > 2:  # the high bit of each field flags a nonzero one
            x += low
            x &= high
        c = np.bitwise_count(x)
        w = c[:, 0] if L == 1 else c.sum(axis=1, dtype=wdt)
        if h == 0:
            w[0] = n + 1  # step 0, the zero word, is not a candidate
        ws = w.tobytes() if wdt is np.uint8 else w.tolist()
        if counts is not None:
            for k in range(n + 1):
                counts[k] += ws.count(k)
        for k in range(best_w):
            if k in ws:
                best_w, best = k, add(T[ws.index(k)], offset)
                break
        if counts is None and best_w <= floor:
            break
    if best is None:
        return best_w, None
    if p == 2:
        bits = [_unpack(lane, 1, 64) for lane in best.tolist()]
        return best_w, tuple(sum(bits[t * L + i // 64][i % 64] << t for t in range(ell))
                             for i in range(n))
    digits = best.view(tc).reshape(ell, -1).tolist()
    return best_w, tuple(spec.from_digits(d[i] for d in digits) for i in range(n))


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

    def _setup(self, basis: Matrix, claimed_distance: int | None,
               parity: Matrix | None = None) -> None:
        """Finish construction from a reduced basis; spec and n are set.
        ``parity``, when known, are rows over F whose F-kernel is the code."""
        self.basis = basis
        self.claimed_distance = claimed_distance
        self.generator = self.symbols(basis)
        self._parity = parity
        self._dual_cache: dict[InnerProductKind, Code] = {}
        self._weights: dict[int, int] | None = None  # the weight enumerator, once counted
        self._primal: weakref.ref | None = None  # the code this is the dual of, if built so
        self._columns: tuple | None = None
        self._pairs: _PairSums | None = None

    @classmethod
    def _from_basis(cls, spec: FieldSpec, n: int, basis: Matrix, parity: Matrix,
                    claimed_distance: int | None = None) -> "Code":
        code = cls.__new__(cls)
        code.spec, code.n = spec, n
        code._setup(basis, claimed_distance, parity)
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
        """A GF(q) vector in F-coordinates; each entry is range-checked."""
        spec = self.spec
        vec = [spec.check_value(v) for v in vec]
        return vec if self.width == 1 else [d for v in vec for d in spec.to_digits(v)]

    def symbols(self, m: Matrix) -> Matrix:
        """Rows in F-coordinates as GF(q) vectors."""
        if m.spec == self.spec:
            return m
        w, p = self.width, self.spec.p
        digits = m.array.reshape(m.nrows, self.n, w).astype(np.int32)
        return Matrix._of(self.spec, sum(digits[:, :, t] * p**t for t in range(w)))

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
        spec, g = self.spec, self.generator.array
        if kind is InnerProductKind.HERMITIAN:
            return Matrix._of(spec, field_map(spec, "frobenius_q")[g])
        log, exp = field_tables(spec)
        conj = [spec.frobenius_q(spec.p**t) for t in range(self.width)]  # frob(x^t)
        prods = exp[log[g][:, :, None] + log[conj]]
        trace = field_map(spec, "trace_to_prime")[prods]
        return Matrix._of(self.field, trace.reshape(len(g), self.n * self.width))

    def dual(self, kind: InnerProductKind | None = None) -> "Code":
        """The dual under ``kind``: the F-kernel of ``_form(kind)``, which
        it keeps as its parity rows.  Matrix.kernel returns rref.  The dual
        refers back to this code weakly, so the pair forms no reference
        cycle, and its own duals are built afresh."""
        kind = self._kind(kind)
        cached = self._dual_cache.get(kind)
        if cached is None:
            form = self._form(kind)
            cached = self._from_basis(self.spec, self.n, form.kernel(), form)
            cached._primal = weakref.ref(self)
            self._dual_cache[kind] = cached
        return cached

    def is_self_orthogonal(self, kind: InnerProductKind | None = None) -> bool:
        return self._form(self._kind(kind)).gram(self.basis).is_zero()

    def describe(self) -> dict:
        return {"field": self.spec.q, "length": self.n,
                "generator": self.generator.array.tolist()}

    def expanded_generators(self) -> list[tuple[int, ...]]:
        """Vectors whose GF(p)-span is the code: x^t * g for every
        generator row g and every t below the degree of F."""
        spec = self.spec
        return [tuple(spec.mul(spec.p**t, v) for v in g)
                for g in self.generator.rows for t in range(self.field.ell)]

    def parity_rows(self) -> Matrix:
        """The rref of the rows over F whose F-kernel is the code: the
        kept form of the primal for a dual, else the kernel of the basis."""
        if self._parity is None:
            return self.basis.kernel()
        return self._parity.rref()[0]

    def _syndrome_columns(self) -> tuple[list[tuple[int, int]], np.ndarray, list, np.ndarray]:
        """The syndrome over F of each (coordinate, symbol) pair, for every
        nonzero symbol up to F* scaling (the smallest of its class), as the
        rows of one array, with the pairs, the (key, leading entry) of each
        F*-normalized column (None for a zero column) and the normalized
        columns as an array; cached.  A linear code has one column per
        coordinate, an additive one (q-1)/(p-1)."""
        if self._columns is None:
            spec, F, w = self.spec, self.field, self.width
            H = self.parity_rows().array
            if w == 1:
                where = [(i, 1) for i in range(self.n)]
                cols = H.T
            else:
                reps = [a for a in range(1, spec.q)
                        if a == min(spec.mul(lam, a) for lam in range(1, F.q))]
                where = [(i, a) for i in range(self.n) for a in reps]
                # sum_t digit_t(a) * H[:, i*w + t] mod p, at [i, a]
                digits = np.array([spec.to_digits(a) for a in reps], np.int32).reshape(-1, w)
                Ht = H.reshape(len(H), self.n, w).transpose(1, 2, 0).astype(np.int32)
                cols = sum(digits[None, :, t, None] * Ht[:, None, t, :] for t in range(w)) % F.p
            cols = cols.reshape(len(where), len(H))
            norm, keys = [None] * len(where), cols  # without parity rows every column is zero
            if len(H):
                lead, keys = _normalized(F, cols)
                norm = [(tuple(k), c) if c else None for k, c in zip(keys.tolist(), lead.tolist())]
            self._columns = (where, cols, norm, keys)
        return self._columns

    def _pair_sums(self) -> "_PairSums":
        """The weight-3/4 search state over the syndrome columns; cached."""
        if self._pairs is None:
            self._pairs = _PairSums(self)
        return self._pairs


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
        g = Matrix(spec, rows, ncols=n)
        self.spec = spec
        self.n = g.ncols
        digits = g.array[:, :, None] // spec.p ** np.arange(spec.ell) % spec.p
        expanded = Matrix._of(spec.prime_field, digits.reshape(g.nrows, self.n * spec.ell))
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


# ---------------------------------------------------------------------------
# distance services

def distance_at_least(code: Code, w: int) -> bool:
    """Exact test of d >= w for w <= 4 without enumerating the code:
    no nonzero codeword has weight below w."""
    if w > 4:
        raise ValueError("distance_at_least supports w <= 4 only")
    return find_low_weight_word(code, w - 1) is None


def _normalized(F: FieldSpec, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The leading entry of each row of s, and the row divided by it (for
    nonzero rows; a zero row leads with 0 and its quotient is meaningless)."""
    log, exp = field_tables(F)
    lead = s[np.arange(len(s)), np.argmax(s != 0, axis=1)]
    return lead, np.take(exp, np.take(log, s) + (F.q - 1 - log[lead])[:, None])


# most column pairs per chunk of the weight-3/4 search; larger chunks are no
# faster, and their temporaries raise the peak RSS of a long-running process
SEARCH_CHUNK = 1 << 10


class _PairSums:
    """The pair sums cols[c] + lam * cols[d] of a code's syndrome columns,
    for c < d at distinct coordinates and lam in F*, numbered in pair
    order: c, then d, then lam.  The columns are sorted by coordinate, so
    the d of a c are the columns from ``start[c]`` on.  Built for codes
    without zero or parallel columns, where each column has its own key."""

    def __init__(self, code: Code) -> None:
        where, self.cols, _, keys = code._syndrome_columns()
        self.F, self.q1 = code.field, code.field.q - 1
        self.log, self.exp = field_tables(self.F)
        m = len(self.cols)
        self.logs = self.log[self.cols]
        keys = self._void(keys)
        self.col_of = np.argsort(keys)  # the column of each sorted key
        self.col_keys = keys[self.col_of]
        coord = np.fromiter((i for i, _ in where), np.intp, m)
        self.start = np.searchsorted(coord, coord, side="right")
        self.offset = np.concatenate(([0], np.cumsum((m - self.start) * self.q1)))

    def normalized(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The leading entry of each nonzero row of s, and the row divided
        by it as one void key (equal rows, equal keys)."""
        lead, key = _normalized(self.F, s)
        return lead, self._void(key)

    @staticmethod
    def _void(key: np.ndarray) -> np.ndarray:
        """Each row of key as one void scalar, compared byte for byte."""
        return key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()

    def chunks(self):
        """[lo, hi) ranges over all pairs, a few pairs at first, then
        doubling up to SEARCH_CHUNK."""
        lo, size, total = 0, min(16, SEARCH_CHUNK), int(self.offset[-1])
        while lo < total:
            yield lo, min(lo + size, total)
            lo += size
            size = min(2 * size, SEARCH_CHUNK)

    def sums(self, lo: int, hi: int):
        """c, d, lam, the leading entry of the sum and the key of the
        normalized sum, for the pairs numbered lo..hi-1."""
        idx = np.arange(lo, hi)
        c = np.searchsorted(self.offset, idx, side="right") - 1
        rem = idx - self.offset[c]
        d = self.start[c] + rem // self.q1
        lam = rem % self.q1 + 1
        s = field_add(self.F, self.cols[c], np.take(self.exp, self.logs[d] + self.log[lam][:, None]))
        return (c, d, lam, *self.normalized(s))

    def column_of(self, key: np.ndarray) -> np.ndarray:
        """The column whose key equals each key, or -1."""
        pos = np.minimum(np.searchsorted(self.col_keys, key), len(self.col_keys) - 1)
        return np.where(self.col_keys[pos] == key, self.col_of[pos], -1)

    def pair(self, i: int) -> tuple[int, int, int, int]:
        """c, d, lam and the leading entry of pair i."""
        return tuple(int(x[0]) for x in self.sums(i, i + 1)[:4])


def find_low_weight_word(code: Code, max_w: int = 4) -> tuple[int, ...] | None:
    """Smallest-weight nonzero codeword of weight <= max_w, or None.

    Complete: if a word of weight <= max_w exists, one of minimum weight
    among weights <= max_w is returned.  A word of weight w is w syndrome
    columns at distinct coordinates with a vanishing F-combination
    (``Code._syndrome_columns``).  Weights 1 and 2 are zero and parallel
    columns.  Weights 3 and 4 meet in the middle over the pair sums
    cols[c] + lam * cols[d], F*-normalized, taken in pair order (c, then
    d > c at a later coordinate, then lam) in numpy chunks of up to
    SEARCH_CHUNK pairs: weight 3 is the first pair whose sum is parallel
    to a column, weight 4 the first pair whose sum is parallel to that of
    an earlier pair, with the first such earlier pair.  Searches at most
    weight 4.
    """
    if max_w < 1 or code.size() == 1:
        return None
    F = code.field
    mul, neg, inv = F.mul, F.neg, F.inv
    where, _, norm, _ = code._syndrome_columns()
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
    # With no word of weight <= 2, no pair sum vanishes and sums that are
    # parallel to a column, or to each other, never share a coordinate:
    # the F-combination would be a nonzero word on at most 3 coordinates.
    pairs = code._pair_sums()
    keys = []
    for lo, hi in pairs.chunks():
        c, d, lam, lead, key = pairs.sums(lo, hi)
        hit = pairs.column_of(key)
        found = hit >= 0
        if found.any():
            i = int(found.argmax())
            c, d, lam, scale, e = int(c[i]), int(d[i]), int(lam[i]), int(lead[i]), int(hit[i])
            # cols[c] + lam * cols[d] + mu * cols[e] = 0
            return word((c, 1), (d, lam), (e, neg(mul(scale, inv(norm[e][1])))))
        if max_w >= 4:
            keys.append(key)
    if max_w < 4 or not keys:
        return None
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")  # equal keys stay in pair order
    sorted_keys = keys[order]
    repeat = sorted_keys[1:] == sorted_keys[:-1]
    if not repeat.any():
        return None
    # the first pair in pair order with an earlier equal key, and the first
    # pair with that key: the stable sort puts each key's first pair first
    later = int(order[1:][repeat].min())
    first = int(np.argmax(keys == keys[later]))
    (pc, pd, plam, pscale), (c, d, lam, scale) = pairs.pair(first), pairs.pair(later)
    # cols[pc] + plam cols[pd] = pscale * key ; cols[c] + lam cols[d] = scale * key
    factor = neg(mul(pscale, inv(scale)))
    return word((pc, 1), (pd, plam), (c, factor), (d, mul(factor, lam)))


def min_distance(code: Code, budget: int | None = None) -> DistanceCertificate:
    """Minimum-distance certificate: exact by enumeration within budget,
    otherwise one complete search for a word of weight <= 4.  A witness
    of weight w proves d = w; without one, d >= 5 and no upper bound is
    known.  Within budget the witness is the first lightest word of the
    Gray walk.  A walk of more than one block stops at its first word of
    weight ``floor``: 1, as independent rows give no zero word after step
    0, or, when the counts are cached or a smaller primal's transform,
    their least nonzero weight; a walk that ends elsewhere then raises.
    The method stays "exhaustive": a count of every word, on either side."""
    budget = enumeration_budget(budget)
    n = code.n
    claimed = code.claimed_distance
    if code.dim == 0:
        return DistanceCertificate(lower=n + 1, upper=n + 1, lower_method="exhaustive",
                                   witness=None, degenerate=True, claimed=claimed)
    if code.size() <= budget:
        known = _weight_counts(code, budget, scan=False) if code.size() > SCAN_BLOCK else None
        floor = min(w for w in known if w) if known else 1
        w, witness = _exhaustive_scan(code.spec, code.expanded_generators(), n, floor=floor)
        if known and w != floor:
            raise AssertionError(f"the walk ends at weight {w}, the weight counts at {floor}")
        return DistanceCertificate(lower=w, upper=w, lower_method="exhaustive",
                                   witness=witness, claimed=claimed)
    witness = find_low_weight_word(code, max_w=4)
    if witness is None:
        return DistanceCertificate(lower=5, upper=None, lower_method="column-independence",
                                   claimed=claimed)
    w = hamming_weight(witness)
    return DistanceCertificate(lower=w, upper=w, lower_method="column-independence",
                               witness=witness, claimed=claimed)


def macwilliams_transform(weights: dict[int, int], n: int, q: int) -> dict[int, int]:
    """The weight distribution of the dual of a code of length n over an
    alphabet of q letters with weight distribution ``weights``:
    B_j = |C|^-1 sum_i A_i K_j(i), where the Krawtchouk values K_j(i) are
    the coefficients of P_i(z) = (1 + (q-1)z)^(n-i) (1 - z)^i.  It holds
    for the Euclidean and Hermitian duals of a linear code (MacWilliams &
    Sloane, ch. 5) and the trace-symplectic dual of an additive code
    (Ketkar, Klappenecker, Kumar & Sarvepalli, IEEE TIT 52, 2006).  Exact
    integers throughout; raises ValueError when a count is not a
    nonnegative integer, which no code's distribution gives."""
    size = sum(weights.values())
    poly = [comb(n, j) * (q - 1) ** j for j in range(n + 1)]  # P_0
    totals = [0] * (n + 1)
    for i in range(max(weights, default=0) + 1):
        if i:  # P_i = P_(i-1) (1 - z) / (1 + (q-1)z), both exact, one pass
            prev = quot = 0
            for j in range(n + 1):
                prev, quot = poly[j], poly[j] - prev - (q - 1) * quot
                poly[j] = quot
        if weights.get(i):
            totals = [t + weights[i] * k for t, k in zip(totals, poly)]
    if size < 1 or any(t < 0 or t % size for t in totals):
        raise ValueError(f"{weights} is not the weight distribution of a code "
                         f"of length {n} over {q} letters")
    return {j: t // size for j, t in enumerate(totals) if t}


def weight_enumerator(code: Code, budget: int | None = None) -> dict[int, int]:
    """Counts of codewords per Hamming weight, the zero word included, in
    ascending weight with nonzero counts only; a fresh dict per call.

    The counts are found once per code.  A dual built by ``Code.dual``
    takes its primal's counts through ``macwilliams_transform`` unless the
    primal is the larger code; any other code, or a dual whose primal is
    gone, is counted by the exhaustive scan.  Raises ValueError when the
    code has more words than the budget."""
    return dict(_weight_counts(code, enumeration_budget(budget)))


def _weight_counts(code: Code, budget: int, scan: bool = True) -> dict[int, int] | None:
    """``weight_enumerator``'s counts, not copied; without ``scan``, None if they need a scan."""
    if code.size() > budget:
        raise ValueError(f"code size {code.size()} exceeds budget {budget}")
    if code._weights is None:
        primal = code._primal() if code._primal else None
        if primal is not None and primal.size() <= code.size():
            code._weights = macwilliams_transform(_weight_counts(primal, budget),
                                                  code.n, code.spec.q)
        elif not scan:
            return None
        else:
            counts = [0] * (code.n + 1)
            _exhaustive_scan(code.spec, code.expanded_generators(), code.n, counts=counts)
            code._weights = {w: c for w, c in enumerate(counts) if c}
    return code._weights

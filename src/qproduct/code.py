"""Linear and additive codes over small finite fields: duals under the
Euclidean, Hermitian, and symplectic inner products, plus minimum-distance
certification.

A certificate names the method of its lower bound.  "exhaustive" is
codeword enumeration: a radix-p Gray walk over the span, run with numpy in
blocks of at most SCAN_BLOCK words held as uint64 bit or digit planes.
"column-independence" is a complete search for codewords of weight at most
4: a lightest witness fixes the distance, and its absence proves d >= 5.
It reads one table of syndrome columns per code, and every weight
compares the same void keys of F*-normalized columns: weight 1 is a
column with leading entry 0, weight 2 the first repeated column key, and
weights 3 and 4 meet in the middle over the normalized sums of column
pairs, formed as numpy arrays in chunks of at most SEARCH_CHUNK pairs
(over GF(2), XORs); it always runs to its end.  Its columns come from
parity rows that need no elimination, and a dual's basis is eliminated,
and a product's formed, on first read only.  "bch" is the BCH bound of
a cyclic code, read off the zeros it keeps and met by a basis row.
"product" is the bound d1 * d2 of a product above the budget, met by the
tensor of its factors' witnesses, and "bch-rectangle" or "product-dual"
the bound min(d(C1^perp), d(C2^perp)) of a product's dual that the
search leaves at d >= 5 (``product_dual_certificate``).  A certificate
never reports "exact" unless lower and upper bound meet.

A certificate is found once per code and budget, and kept on the code.
A weight enumerator is counted by the same scan, once per code, on the
smaller side: a dual whose primal has no more words takes the primal's
counts through the MacWilliams transform, in exact integers.  Known counts
stop a certificate's walk at its first word of their least nonzero weight.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Callable, Iterable, Sequence

import numpy as np

from .galois import FieldSpec, element_dtype, field_add, field_map, field_tables
from .matrix import (InnerProductKind, Matrix, _products_sum, _require_even_degree,
                     _standard_kernel, product_kernel)

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
    bounds meet.
    """

    lower: int
    upper: int | None
    lower_method: str
    witness: tuple[int, ...] | None = None
    degenerate: bool = False

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
# planes replace a per-symbol bit fold, and the rows' digits go into planes
# (a witness's come back out) by packbits and unpackbits for p = 2, which
# the GF(2) rref loads in any case, or by viewing the lanes as fields.

SCAN_BLOCK = 1 << 12  # most words per block (a block holds at least p words)


def _exhaustive_scan(spec: FieldSpec, rows: np.ndarray | Sequence[Sequence[int]], n: int,
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
    tc = np.uint8 if p < 128 else np.uint32  # a field holds the sum of two digits, below 2p
    f = np.dtype(tc).itemsize
    per_lane = 64 if p == 2 else 8 // f  # symbols per lane
    L = -(-n // per_lane)
    digits = np.zeros((K, ell, per_lane * L), tc)
    powers = p ** np.arange(ell)
    digits[:, :, :n] = np.array(rows, np.int64).reshape(K, 1, n) // powers[:, None] % p
    planes = np.packbits(digits, axis=2, bitorder="little") if p == 2 else digits
    R = planes.view(np.uint64).reshape(K, ell * L)
    if p > 2:
        one = sum(1 << 8 * f * i for i in range(per_lane))  # 1 in each field
        high, low = np.uint64(one << 8 * f - 1), np.uint64((one << 8 * f - 1) - one)

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
    planes = np.unpackbits(best.view(np.uint8), bitorder="little") if p == 2 else best.view(tc)
    digits = planes.reshape(ell, -1)[:, :n].astype(np.int64)
    return best_w, tuple((digits * powers[:, None]).sum(axis=0).tolist())


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
    or, per symbol v, the trace form (tr(v * frob(x^t)))_t (symplectic);
    its basis is eliminated on first read.
    """

    linear: bool
    kinds: tuple[InnerProductKind, ...]  # the inner products it takes duals under, default first

    def _setup(self, basis: Matrix | Callable[[], Matrix], parity: Matrix | None = None,
               zeros: frozenset[int] | None = None, dim: int | None = None) -> None:
        """Finish construction from a reduced basis; spec and n are set.
        ``parity``, when known, are rows over F whose F-kernel is the code.
        ``basis`` may be a function of ``dim`` rows, run on first read.  The
        constructor sets what else ``min_distance`` reads before it returns,
        so a certificate is found once per code and budget."""
        self._basis = basis
        self.dim = basis.nrows if isinstance(basis, Matrix) else dim
        self._parity = parity
        self._factors: tuple[Code, Code] | None = None  # (c1, c2) of a product c1 (x) c2
        self.zeros = zeros  # a cyclic code's zeros, exponents mod n
        self._dual_cache: dict[InnerProductKind, Code] = {}
        self._orthogonal: dict[InnerProductKind, bool] = {}  # is_self_orthogonal, per kind
        self._weights: dict[int, int] | None = None  # the weight enumerator, once counted
        self._certs: dict[int, DistanceCertificate] = {}  # min_distance, per effective budget
        self._primal: weakref.ref | None = None  # the code this is the dual of, if built so
        self._dual_of: tuple | None = None  # (c1, c2, kind) of a dual (c1 (x) c2)^perp
        self._view_of: Code | None = None  # the code an additive view has the words of

    @classmethod
    def _from_basis(cls, spec: FieldSpec, n: int, basis: Matrix | Callable[[], Matrix],
                    parity: Matrix | None, zeros: frozenset[int] | None = None,
                    dim: int | None = None) -> "Code":
        code = cls.__new__(cls)
        code.spec, code.n = spec, n
        code._setup(basis, parity, zeros, dim)
        return code

    @property
    def field(self) -> FieldSpec:
        return self.spec if self.linear else self.spec.prime_field

    @property
    def width(self) -> int:
        """F-coordinates per symbol."""
        return self.spec.ell // self.field.ell

    @property
    def basis(self) -> Matrix:
        if not isinstance(self._basis, Matrix):  # build it on first read, once
            self._basis = self._basis()
            if self._basis.nrows != self.dim:
                raise AssertionError(f"{self._basis.nrows} basis rows, expected {self.dim}")
        return self._basis

    @cached_property
    def generator(self) -> Matrix:
        return self.symbols(self.basis)

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

    @cached_property
    def _pivots(self) -> np.ndarray:
        """The pivot column of each row of the rref basis."""
        return np.argmax(self.basis.array != 0, axis=1)

    def contains(self, vec: Sequence[int]) -> bool:
        """Membership in the code: the F-coordinates v of vec lie in the
        span of the rref basis iff v = sum_i v[pivot_i] * row_i, as that
        sum is the only combination of the rows that agrees with v at
        every pivot."""
        if len(vec) != self.n:
            raise ValueError("length mismatch")
        v = np.asarray(self.coordinates(vec), np.int64)
        return np.array_equal(_products_sum(self.field, v[None, self._pivots],
                                            self.basis.array.T)[0], v)

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
        row g, tr(g_i * frob(x^t)) at coordinate (i, t) (symplectic).

        This is the one definition of the Hermitian and symplectic forms,
        <u, w> = sum_i u_i frob(w_i) and tr_(q/p) of it, frob(x) = x^sqrt(q):
        ``dual``, ``is_self_orthogonal`` and every band check read them
        through it, as Euclidean products over F (``Matrix.gram``,
        ``Matrix.kernel``) of these rows with a word's F-coordinates."""
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
        """The dual under ``kind``: the F-kernel of ``_form(kind)``, in
        rref, which it keeps as its parity rows.  The dual refers back to
        this code weakly, so the pair forms no reference cycle, and its own
        duals are built afresh.  The dual of a product holds the factors
        and ``kind`` (``_dual_of``) for ``min_distance``, whatever becomes
        of the product.  The form has full row rank, so the dual
        has dimension n * width - dim and its basis is eliminated on first
        read.  It is the rref basis (Euclidean), or its Frobenius image,
        which fixes 0 and 1 and so the rref shape (Hermitian), or the image
        of the independent digit rows under g -> (tr(g_i frob(x^t)))_(i,t)
        (symplectic), a GF(p)-linear map that is injective: the frob(x^t),
        t < ell, are a GF(p)-basis of GF(q) and the trace form tr(a b) is
        nondegenerate, so tr(g_i frob(x^t)) = 0 for every t forces g_i = 0.

        The form of a product c1 (x) c2 is the Kronecker product of its
        factors' forms, under ``_first_factor_kind(kind)`` and kind, as the
        Frobenius map is multiplicative and tr(g h frob(x^t)) =
        g tr(h frob(x^t)) for g in GF(p); so its kernel is
        ``product_kernel`` of the two.  The Euclidean dual of a code that
        keeps its zeros Z is the cyclic code D with zeros
        {-i mod n : i not in Z}, so its basis is ``cyclic_basis`` of those,
        built at once: for a in the code and c in D,
        a . c = (1/n) sum_i a(alpha^i) c(alpha^-i) = 0, each term having a
        zero factor, and the dimensions n - |Z| and |Z| add to n."""
        kind = self._kind(kind)
        cached = self._dual_cache.get(kind)
        if cached is None:
            form = self._form(kind)
            zeros = None
            if self.zeros is not None and kind is InnerProductKind.EUCLIDEAN:
                zeros = frozenset(-i % self.n for i in range(self.n) if i not in self.zeros)
                basis = cyclic_basis(self.spec, self.n, zeros)
            elif self._factors is None:
                basis = form.kernel
            else:
                c1, c2 = self._factors
                basis = lambda: product_kernel(c1._form(_first_factor_kind(kind)), c2._form(kind))
            cached = self._from_basis(self.spec, self.n, basis, form, zeros=zeros,
                                      dim=self.n * self.width - self.dim)
            cached._primal = weakref.ref(self)
            if self._factors is not None:  # the factors, not the product: no reference cycle
                cached._dual_of = (*self._factors, kind)
            self._dual_cache[kind] = cached
        return cached

    def is_self_orthogonal(self, kind: InnerProductKind | None = None) -> bool:
        """Whether the code lies in its dual under ``kind``, found once per
        kind by the first rule that applies.

        A product c1 (x) c2 is iff c1 is under ``_first_factor_kind(kind)``
        or c2 is under kind.  Its Gram matrix on the rows g (x) h is
        Gram1 (x) Gram2: Euclidean, sum_(a,b) g_a g'_a h_b h'_b = (g . g')
        (h . h'); Hermitian, the same with g' and h' conjugated, as the
        Frobenius map is multiplicative; symplectic, g and g' lie in GF(p),
        so frob(g'_a h'_b) = g'_a frob(h'_b) and the trace, GF(p)-linear,
        gives (g . g') <h, h'>.  A Kronecker product is zero iff one of
        its factors is, the field having no zero divisors.

        A code that keeps its zeros Z is iff Z | (-s Z) = Z_n, s = 1
        (Euclidean) or s = sqrt(q) (Hermitian).  As n | q-1, X^n - 1 has n
        distinct roots alpha^i, so a cyclic code is fixed by its zero set,
        and C lies in D iff the zeros of D are zeros of C.  The Hermitian
        dual of C is the Euclidean dual of its conjugate {c^s}, whose zeros
        are s Z as c^s(alpha^(s z)) = c(alpha^z)^s, and the Euclidean dual
        of a code with zeros Y has zeros {-i : i not in Y} (``dual``).  So
        C lies in its dual iff every i not in s Z has -i in Z, that is iff
        every j not in Z lies in -s Z.

        Any other code: one Gram matrix of its form against its basis."""
        kind = self._kind(kind)
        if kind not in self._orthogonal:
            if self._factors is not None:
                c1, c2 = self._factors
                flag = (c1.is_self_orthogonal(_first_factor_kind(kind))
                        or c2.is_self_orthogonal(kind))
            elif self.zeros is not None:
                s = 1 if kind is InnerProductKind.EUCLIDEAN else self.spec.frobenius_power
                flag = len(self.zeros | {-s * z % self.n for z in self.zeros}) == self.n
            else:
                flag = self._form(kind).gram(self.basis).is_zero()
            self._orthogonal[kind] = flag
        return self._orthogonal[kind]

    def describe(self) -> dict:
        return {"field": self.spec.q, "length": self.n,
                "generator": self.generator.array.tolist()}

    def expanded_generators(self) -> np.ndarray:
        """The K * ell x n array of x^t * g, whose GF(p)-span is the code,
        for every generator row g and, within it, every t below F's degree ell."""
        log, exp = field_tables(self.spec)
        xt = log[self.spec.p ** np.arange(self.field.ell)]  # the logs of x^t
        return exp[log[self.generator.array][:, None, :] + xt[:, None]].reshape(-1, self.n)

    @cached_property
    def _syndromes(self) -> "_Syndromes":
        """The table of syndrome columns that ``find_low_weight_word`` reads."""
        return _Syndromes(self)


class LinearCode(Code):
    """A [n, k] linear code held as a generator matrix in rref."""

    linear = True
    kinds = (InnerProductKind.EUCLIDEAN, InnerProductKind.HERMITIAN)

    def __init__(self, generator: Matrix):
        self.spec = generator.spec
        self.n = generator.ncols
        self._setup(generator.rref()[0])

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows: Iterable[Iterable[int]],
                  n: int | None = None) -> "LinearCode":
        return cls(Matrix(spec, rows, ncols=n))

    @property
    def k(self) -> int:
        return self.dim

    @property
    def code(self) -> "LinearCode":
        """This code, kept only for the benchmark's call ``rs_code(q, delta).code``."""
        return self

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

    def __init__(self, spec: FieldSpec, rows: Iterable[Sequence[int]], n: int | None = None):
        g = Matrix(spec, rows, ncols=n)
        self.spec = spec
        self.n = g.ncols
        digits = g.array[:, :, None] // spec.p ** np.arange(spec.ell) % spec.p
        expanded = Matrix._of(spec.prime_field, digits.reshape(g.nrows, self.n * spec.ell))
        self._setup(expanded.rref()[0])

    @classmethod
    def from_linear(cls, code: LinearCode) -> "AdditiveCode":
        """The code viewed as a GF(p)-linear code: k_p = ell * k.  It keeps
        ``code``, whose words it has, for ``min_distance``."""
        view = cls(code.spec, code.expanded_generators(), n=code.n)
        view._view_of = code
        return view

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


def _first_factor_kind(kind: InnerProductKind) -> InnerProductKind:
    """Under the symplectic kind the prime-field first factor of a product
    pairs by the Euclidean product over GF(p)."""
    return InnerProductKind.EUCLIDEAN if kind is InnerProductKind.SYMPLECTIC else kind


def spanned_code(kind: InnerProductKind, spec: FieldSpec, rows: Iterable[Sequence[int]],
                 n: int) -> Code:
    """The code spanned by ``rows`` whose duals are taken under ``kind``:
    additive for the symplectic kind, linear otherwise."""
    return (AdditiveCode(spec, rows, n=n) if kind is InnerProductKind.SYMPLECTIC
            else LinearCode.from_rows(spec, rows, n=n))


def _check_rows(spec: FieldSpec, n: int, zeros: Iterable[int]) -> Matrix:
    """The check rows (alpha^(z*j))_j of the cyclic code of length n | q-1
    with the given zeros, one per zero in increasing order; alpha =
    g^((q-1)/n), g the field generator, is a primitive n-th root of unity."""
    _, exp = field_tables(spec)
    z = np.array(sorted(zeros), np.int64)[:, None] * ((spec.q - 1) // n)
    return Matrix._of(spec, exp[z * np.arange(n) % (spec.q - 1)])


def cyclic_basis(spec: FieldSpec, n: int, zeros: frozenset[int]) -> Matrix:
    """The rref basis of the cyclic code of length n | q-1 with the given
    zeros (exponents mod n): the words c with c(alpha^z) = 0 for z in zeros.

    The zero code (every exponent a zero) and the full space (none) are
    I_k, k = 0 or n.  A cyclic interval Z = {b, ..., b+r-1} mod n needs no
    elimination.  With x_j = alpha^j and k = n - r, the check rows
    alpha^((b+t) j) = alpha^(b j) x_j^t, t < r, span GRS_r(x, v) with
    v_j = alpha^(b j), so the code is GRS_k(x, u) with u_j v_j =
    1 / prod_(l != j) (x_j - x_l) = x_j / n, as that product is the
    derivative of X^n - 1 at x_j, n x_j^(n-1) (MacWilliams & Sloane,
    ch. 10-11; Roth & Seroussi, IEEE TIT 31, 1985).  Scaling u by 1/n,
    u_j = alpha^((1-b) j).  A GRS code is MDS, so x_0..x_(k-1) are an
    information set, and row i of the rref is the word u_j f(x_j) with
    f = L_i / u_i, L_i the Lagrange basis polynomial on x_0..x_(k-1): it
    reads 1 at i, 0 at the other columns below k, and
    alpha^((1-b)(j-i)) L_i(x_j) at j >= k.  In logs to the base g, the
    field generator, alpha = g^e with e = (q-1)/n, and x_a - x_l =
    alpha^l (alpha^(a-l) - 1) has the log e l + lam[a-l mod n], lam[d] the
    log of alpha^d - 1.  With lam[0] read as 0 and w_a the sum of
    lam[a-l mod n] over l < k, the numerator prod_(l < k, l != i)
    (x_j - x_l) of L_i(x_j) has the log e K + w_j - e i - lam[j-i] and its
    denominator prod_(l < k, l != i) (x_i - x_l) the log e K - e i + w_i,
    K = k(k-1)/2, so L_i(x_j) = g^(w_j - w_i - lam[j-i]): O(n k) table
    lookups.  Any other zero set eliminates its check rows
    (``Matrix.kernel``)."""
    k = n - len(zeros)
    out = np.eye(k, n, dtype=element_dtype(spec))
    if k in (0, n):  # the zero code, or the full space
        return Matrix._of(spec, out)
    starts = [z for z in zeros if (z - 1) % n not in zeros]
    if len(starts) != 1:  # not one cyclic interval
        return _check_rows(spec, n, zeros).kernel()
    log, exp = field_tables(spec)
    q1 = spec.q - 1
    e = q1 // n
    m = np.arange(n)
    lam = log[field_add(spec, exp[e * m], exp[q1 // 2 if spec.p != 2 else 0])]  # alpha^m - 1
    lam[0] = 0
    csum = lam[np.arange(-k, n) % n].cumsum()
    w = csum[k:] - csum[:n]  # w[a] = sum_(l < k) lam[(a - l) mod n]
    t = (1 - starts[0]) * e * m - lam
    out[:, k:] = exp[(t[m[k:] - m[:k, None]] + w[k:] - w[:k, None]) % q1]
    return Matrix._of(spec, out)


# ---------------------------------------------------------------------------
# distance services

def _normalized(F: FieldSpec, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The leading entry of each row of s, and the row divided by it (for
    nonzero rows; a zero row leads with 0 and its quotient is meaningless)."""
    log, exp = field_tables(F)
    lead = s[np.arange(len(s)), np.argmax(s != 0, axis=1)]
    return lead, np.take(exp, np.take(log, s) + (F.q - 1 - log[lead])[:, None])


# most column pairs per chunk of the weight-3/4 search; larger chunks are no
# faster, and their temporaries raise the peak RSS of a long-running process
SEARCH_CHUNK = 1 << 10


class _Syndromes:
    """A code's syndrome columns and their keys (``Code._syndromes``).

    ``cols`` holds the syndrome over F of each (coordinate, symbol) pair in
    ``where``, for every nonzero symbol up to F* scaling (the smallest of
    its class): one column per coordinate for a linear code, (q-1)/(p-1)
    for an additive one.  ``lead`` is each column's leading entry, 0 for a
    zero column, and ``keys`` one void key per F*-normalized column, the
    key format of every pair sum.  The syndromes are taken against the
    kept parity rows as they are, a cyclic code's check rows, or else the
    standard parity rows of the rref basis, with no elimination.  Rows
    that span the same space as the rref H give columns A * col, A of full
    column rank, which keeps zero columns, parallel classes and the
    coefficients of every vanishing combination, so every word the search
    returns.

    The pair sums cols[c] + lam * cols[d], c < d at distinct coordinates
    and lam in F*, are numbered c, then d, then lam: the columns are
    sorted by coordinate, so the d of a c are those from ``start[c]`` on,
    and its sums start at ``offset[c]``."""

    def __init__(self, code: Code) -> None:
        spec, F, w = code.spec, code.field, code.width
        H = code._parity
        if H is None:  # a cyclic code's check rows, or else the standard parity rows
            H = (_check_rows(spec, code.n, code.zeros) if code.zeros is not None
                 else _standard_kernel(code.basis, code._pivots))
        H = H.array
        if w == 1:
            self.where = [(i, 1) for i in range(code.n)]
            cols = H.T
        else:
            reps = [a for a in range(1, spec.q)
                    if a == min(spec.mul(lam, a) for lam in range(1, F.q))]
            self.where = [(i, a) for i in range(code.n) for a in reps]
            # sum_t digit_t(a) * H[:, i*w + t] mod p, at [i, a]
            digits = np.array([spec.to_digits(a) for a in reps], np.int32).reshape(-1, w)
            Ht = H.reshape(len(H), code.n, w).transpose(1, 2, 0).astype(np.int32)
            cols = sum(digits[None, :, t, None] * Ht[:, None, t, :] for t in range(w)) % F.p
        m = len(self.where)
        self.cols = cols.reshape(m, len(H)).astype(H.dtype, copy=False)  # over GF(2), a key's bytes
        self.F, self.q1 = F, F.q - 1
        self.log, self.exp = field_tables(F)
        # without parity rows every column is zero, and no key is read
        self.lead, norm = (_normalized(F, self.cols) if len(H)
                           else (np.zeros(m, H.dtype), self.cols))
        self.keys = self._void(norm)
        self.col_of = np.argsort(self.keys, kind="stable")  # equal keys stay in column order
        self.col_keys = self.keys[self.col_of]
        coord = np.fromiter((i for i, _ in self.where), np.intp, m)
        self.start = np.searchsorted(coord, coord, side="right")
        self.offset = np.concatenate(([0], np.cumsum((m - self.start) * self.q1)))

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
        normalized sum of pairs lo..hi-1; over GF(2) 1, 1 and an XOR."""
        idx = np.arange(lo, hi)
        c = np.searchsorted(self.offset, idx, side="right") - 1
        rem = idx - self.offset[c]
        d = self.start[c] + rem // self.q1
        lam = rem % self.q1 + 1
        if self.q1 == 1:  # a nonzero column is its own normalization, byte for byte
            return c, d, lam, lam, self._void(self.cols[c] ^ self.cols[d])
        s = field_add(self.F, self.cols[c],
                      np.take(self.exp, self.log[self.cols[d]] + self.log[lam][:, None]))
        lead, key = _normalized(self.F, s)
        return c, d, lam, lead, self._void(key)

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
    (``Code._syndromes``); every weight compares the same void keys of
    F*-normalized columns.  Weight 1 is the first column that leads with
    0, weight 2 the first column whose key occurred earlier, with the
    first column of that key.  Weights 3 and 4 meet in the middle over the
    pair sums cols[c] + lam * cols[d], F*-normalized, taken in pair order
    (c, then d > c at a later coordinate, then lam) in numpy chunks of up
    to SEARCH_CHUNK pairs: weight 3 is the first pair whose sum is
    parallel to a column, weight 4 the first pair whose sum is parallel to
    that of an earlier pair, with the first such earlier pair.  Searches at
    most weight 4.
    """
    if max_w < 1 or code.size() == 1:
        return None
    F = code.field
    mul, neg, inv = F.mul, F.neg, F.inv
    table = code._syndromes
    where, lead = table.where, table.lead.tolist()

    def word(*terms: tuple[int, int]) -> tuple[int, ...]:
        """The codeword with F-coefficient lam on column c, per (c, lam)."""
        out = [0] * code.n
        for c, lam in terms:
            out[where[c][0]] = code.spec.mul(lam, where[c][1])
        return tuple(out)

    if 0 in lead:
        return word((lead.index(0), 1))
    if max_w < 2:
        return None
    # without zero columns, parallel columns lie at distinct coordinates
    repeat = _first_repeat(table.keys, table.col_of)
    if repeat is not None:
        hit, c = repeat
        # cols[hit] + b * cols[c] = 0
        return word((hit, 1), (c, neg(mul(lead[hit], inv(lead[c])))))
    if max_w < 3:
        return None
    # With no word of weight <= 2, no pair sum vanishes and sums that are
    # parallel to a column, or to each other, never share a coordinate:
    # the F-combination would be a nonzero word on at most 3 coordinates.
    keys = []
    for lo, hi in table.chunks():
        c, d, lam, scale, key = table.sums(lo, hi)
        hit = table.column_of(key)
        found = hit >= 0
        if found.any():
            i = int(found.argmax())
            c, d, lam, scale, e = int(c[i]), int(d[i]), int(lam[i]), int(scale[i]), int(hit[i])
            # cols[c] + lam * cols[d] + mu * cols[e] = 0
            return word((c, 1), (d, lam), (e, neg(mul(scale, inv(lead[e])))))
        if max_w >= 4:
            keys.append(key)
    if not keys:
        return None
    keys = np.concatenate(keys)
    repeat = _first_repeat(keys, np.argsort(keys, kind="stable"))
    if repeat is None:
        return None
    (pc, pd, plam, pscale), (c, d, lam, scale) = map(table.pair, repeat)
    # cols[pc] + plam cols[pd] = pscale * key ; cols[c] + lam cols[d] = scale * key
    factor = neg(mul(pscale, inv(scale)))
    return word((pc, 1), (pd, plam), (c, factor), (d, mul(factor, lam)))


def _first_repeat(keys: np.ndarray, order: np.ndarray) -> tuple[int, int] | None:
    """The first index whose key equals an earlier one, after the first
    index with that key, or None if the keys are distinct; ``order`` is a
    stable argsort of the keys."""
    sorted_keys = keys[order]
    repeat = sorted_keys[1:] == sorted_keys[:-1]
    if not repeat.any():
        return None
    # the stable sort puts each key's first index first
    later = int(order[1:][repeat].min())
    return int(np.argmax(keys == keys[later])), later


def min_distance(code: Code, budget: int | None = None) -> DistanceCertificate:
    """Minimum-distance certificate: exact by enumeration within budget,
    otherwise one complete search for a word of weight <= 4
    (``find_low_weight_word``).  A witness of weight w proves d = w;
    without one, d >= 5, and only a product's dual (below) has an upper
    bound.  Within budget the witness is the first lightest word of the
    Gray walk.  A walk of more than one block stops at its first word of
    weight ``least``: 1, as independent rows give no zero word after step
    0, or, when the counts are cached or a smaller primal's transform,
    their least nonzero weight; a walk that ends elsewhere then raises.
    The method stays "exhaustive": a count of every word, on either side.

    A code that keeps its zeros Z (a cyclic code or its Euclidean dual)
    first gets the BCH bound d >= r + 1 at any budget, r the longest run
    b, ..., b+r-1 mod n in Z.  Proof: a word c on coordinates j_1..j_w,
    w <= r, has sum_k c_(j_k) alpha^((b+i) j_k) = 0 for i < w, a system
    whose matrix is the Vandermonde matrix of the distinct alpha^(j_k)
    (alpha of order n) times the invertible diagonal of the alpha^(b j_k),
    so c = 0.  The first lightest row of the rref basis is then the "bch"
    witness if it weighs r + 1; a lighter one raises AssertionError, and a
    heavier one leaves the code to enumeration or search.

    A product C1 (x) C2 above the budget is not searched: its "product"
    certificate has the lower bound lower1 * lower2 of its factors'
    certificates and, when both have a witness, the witness a (x) b (a_i * b_j
    at i * n2 + j) of weight upper1 * upper2.  Proof (MacWilliams & Sloane,
    ch. 18 sec. 2): as an n1 x n2 array, every row of a word lies in C2 and
    every column in C1, or, for an additive C2, every base-p digit plane of
    a column does, as g * y has g times the digits of y for g in GF(p).  So
    a nonzero word has at least d1 nonzero rows, each of weight at least
    d2; and a (x) b lies in the product and weighs wt(a) wt(b).

    An additive view above the budget takes the certificate of the linear
    code it views (``AdditiveCode.from_linear``), whose words it has.

    The dual of a product that the search leaves at d >= 5 takes
    ``product_dual_certificate`` of its factors, whose lower bound is then
    at least 5, else AssertionError.  A factor dual's lower bound below 5
    comes with a witness a of that weight: every method above gives one
    (a "product" lower bound below 5 has factor bounds below 5), and this
    rule gives no bound below 5.  So a (x) e_0 or e_0 (x) a, a word of the
    dual, would have been found by the complete search.  The certificate
    is kept on the code, one per effective budget (``Code._certs``)."""
    budget = enumeration_budget(budget)
    cert = code._certs.get(budget)
    if cert is None:
        cert = code._certs[budget] = _certify(code, budget)
    return cert


def _certify(code: Code, budget: int) -> DistanceCertificate:
    """``min_distance`` of a code at an effective budget, found afresh."""
    n = code.n
    if code.dim == 0:
        return DistanceCertificate(lower=n + 1, upper=n + 1, lower_method="exhaustive",
                                   witness=None, degenerate=True)
    if code.zeros is not None:  # bound = 1 + the longest run; twice round, so a run may wrap
        run = bound = 1
        for i in range(2 * n):
            run = run + 1 if i % n in code.zeros else 1
            bound = max(bound, run)
        weights = np.count_nonzero(code.basis.array, axis=1)
        row = int(weights.argmin())
        if weights[row] < bound:
            raise AssertionError(f"a basis row of weight {weights[row]} lies below "
                                 f"the BCH bound {bound}")
        if weights[row] == bound:
            return DistanceCertificate(lower=bound, upper=bound, lower_method="bch",
                                       witness=tuple(code.basis.array[row].tolist()))
    if code.size() <= budget:
        known = _weight_counts(code, budget, scan=False) if code.size() > SCAN_BLOCK else None
        least = min(w for w in known if w) if known else 1
        w, witness = _exhaustive_scan(code.spec, code.expanded_generators(), n, floor=least)
        if known and w != least:
            raise AssertionError(f"the walk ends at weight {w}, the weight counts at {least}")
        return DistanceCertificate(lower=w, upper=w, lower_method="exhaustive",
                                   witness=witness)
    if code._view_of is not None:
        return min_distance(code._view_of, budget)
    if code._factors is not None:
        a, b = (min_distance(c, budget) for c in code._factors)
        witness = (None if a.witness is None or b.witness is None
                   else tuple(code.spec.mul(x, y) for x in a.witness for y in b.witness))
        return DistanceCertificate(lower=a.lower * b.lower,
                                   upper=None if witness is None else a.upper * b.upper,
                                   lower_method="product", witness=witness)
    witness = find_low_weight_word(code, max_w=4)
    if witness is None and code._dual_of is not None:
        cert = product_dual_certificate(*code._dual_of, budget=budget)
        if cert.lower < 5:
            raise AssertionError(f"a product dual lower bound {cert.lower} below the search's 5")
        return cert
    if witness is None:
        return DistanceCertificate(lower=5, upper=None, lower_method="column-independence")
    w = hamming_weight(witness)
    return DistanceCertificate(lower=w, upper=w, lower_method="column-independence",
                               witness=witness)


def product_dual_certificate(c1: Code, c2: Code, kind: InnerProductKind,
                             budget: int | None = None) -> DistanceCertificate:
    """Certificate of d((C1 (x) C2)^perp) = min(d(C1^perp), d(C2^perp)) from
    the ``min_distance`` certificates of the factor duals, under
    ``_first_factor_kind(kind)`` and ``kind``.

    Lower bound: l, the least lower bound of the non-degenerate factor
    duals.  Read a product dual word X as an n1 x n2 array, coordinate
    (r, s) at r * n2 + s, with wt(X) < l.  Euclidean: G1 X G2^T = 0, and a
    row of G1 X combines rows of X, so it lies on fewer than l columns and
    in C2^perp: G1 X = 0.  So each column of X is a word of C1^perp lighter
    than l, and X = 0.  A factor with the zero dual (a full space) gives
    its step with no weight condition, so it adds nothing to l; when both
    do, the product's dual is zero and the certificate degenerate.
    Hermitian: conjugation maps each Hermitian dual onto the Euclidean
    one and keeps weights.  Symplectic: the form is GF(p)-bilinear and G1
    is over GF(p), so <g (x) h, X> = <h, sum_r g_r X_r>; the rows of G1 X
    lie in C2^perp and the base-p digits of each column in C1^perp.

    Upper bound: the lighter factor witness (factor 1 on a tie) as a (x) e_0
    or e_0 (x) b, since <g (x) h, a (x) e_0> = <g, a> h_0 under each form.
    The method is "bch-rectangle" when every non-degenerate factor
    certificate is "bch" (the rectangle bound of a bicyclic product), and
    "product-dual" otherwise.
    """
    certs = [min_distance(c1.dual(_first_factor_kind(kind)), budget=budget),
             min_distance(c2.dual(kind), budget=budget)]
    live = [c for c in certs if not c.degenerate]
    n = c1.n * c2.n
    if not live:
        return DistanceCertificate(lower=n + 1, upper=n + 1, lower_method="product-dual",
                                   degenerate=True)
    method = "bch-rectangle" if all(c.lower_method == "bch" for c in live) else "product-dual"
    lower = min(c.lower for c in live)
    light = min((c for c in live if c.witness is not None), key=lambda c: c.upper, default=None)
    if light is None:
        return DistanceCertificate(lower=lower, upper=None, lower_method=method)
    word = [0] * n
    word[slice(0, n, c2.n) if light is certs[0] else slice(0, c2.n)] = light.witness
    return DistanceCertificate(lower=lower, upper=light.upper, lower_method=method,
                               witness=tuple(word))


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

"""Dense matrices over a finite field, with the decompositions the
construction theorems need: reduced row echelon form, kernels, Kronecker
products, complementary bases, and Euclidean Gram matrices.

A matrix is one immutable numpy array of field elements (uint8 for
q <= 256, uint16 above), worked on whole through the field kernels of
``galois``.  Over GF(2), ``rref`` packs each row into one Python int and
eliminates by XOR on the rows' leading bits; over every other field it
clears each pivot's column in all rows at once.  ``kernel`` is one
elimination of the column-reversed matrix, whose rows give the null
space already in rref, and ``product_kernel`` gives the kernel of a
Kronecker product from eliminations of its two factors only.  A Gram
matrix over a prime field is one int64 matrix product reduced mod p;
over an extension field it, like a Kronecker product, is log/exp table
lookups.  The Hermitian and symplectic forms are not defined here: a code
turns them into Euclidean ones (``code.Code._form``).  Every
basis-producing operation returns rref, unique per row space, so reports
are byte-stable whichever path computed it.  Entries are range-checked
once, by the public constructor.
"""
from __future__ import annotations

import enum
from typing import Iterable, Sequence

import numpy as np

from .galois import GF, FieldSpec, element_dtype, field_add, field_sum, field_tables

# most entries in one block of the products behind a Gram matrix
_GRAM_BLOCK = 1 << 16


class InnerProductKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    HERMITIAN = "hermitian"
    SYMPLECTIC = "symplectic"

    def __str__(self) -> str:
        return self.value


def _require_even_degree(spec: FieldSpec, kind: InnerProductKind) -> None:
    if kind is not InnerProductKind.EUCLIDEAN and spec.ell % 2 != 0:
        raise ValueError(f"{kind} inner product needs an even-degree field, got GF({spec.q})")


def _products_sum(spec: FieldSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k x[i, k] * y[j, k] for every i, j.

    Over a prime field GF(p) this is one int64 matrix product reduced mod
    p.  It is exact: each sum has n = x.shape[1] terms below (p-1)^2, and
    n * (p-1)^2 < 2^63 for every supported p <= 65521 (below 2^32) and
    n < 2^31.  Over an extension field the products are log/exp lookups,
    summed in blocks of rows of x.
    """
    if spec.ell == 1:
        out = x.astype(np.int64) @ y.T.astype(np.int64) % spec.p
        return out.astype(element_dtype(spec))
    log, exp = field_tables(spec)
    lx, ly = log[x], log[y]
    out = np.empty((len(x), len(y)), element_dtype(spec))
    step = max(1, _GRAM_BLOCK // max(1, y.size))
    for i in range(0, len(x), step):
        out[i:i + step] = field_sum(spec, exp[lx[i:i + step, None, :] + ly[None, :, :]], axis=2)
    return out


def _binary_rref(a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """The rref over GF(2) of a 0/1 array, zero rows dropped, and its
    pivot columns, on rows packed into Python ints.

    Row i becomes the integer whose bits, most significant first, are
    its entries, padded with zero bits to whole bytes; column c is then
    bit w - 1 - c, w the padded width, and a row's leading column is
    w - bit_length.  Each row is inserted by its leading bit: XOR with
    the kept row of the same lead until the lead is new (keep it) or the
    row is zero (drop it).  The kept rows are in echelon form and span
    the row space.  Back-substitution then clears every pivot bit from
    the rows above it, rightmost pivot first.  The rref is unique per row
    space, so rows and pivots equal those of the column-by-column
    elimination of ``Matrix.rref``.
    """
    nbytes = (a.shape[1] + 7) // 8
    packed = np.packbits(a, axis=1).tobytes()
    by_lead: dict[int, int] = {}
    for i in range(a.shape[0]):
        row = int.from_bytes(packed[i * nbytes:(i + 1) * nbytes], "big")
        while row:
            kept = by_lead.get(row.bit_length())
            if kept is None:
                by_lead[row.bit_length()] = row
                break
            row ^= kept
    leads = sorted(by_lead)  # rightmost pivot first
    for t, lead in enumerate(leads):
        row = by_lead[lead]
        for below in leads[:t]:
            if row >> (below - 1) & 1:
                row ^= by_lead[below]
        by_lead[lead] = row
    leads.reverse()
    out = b"".join(by_lead[lead].to_bytes(nbytes, "big") for lead in leads)
    bits = np.unpackbits(np.frombuffer(out, np.uint8).reshape(len(leads), nbytes), axis=1)
    return bits[:, :a.shape[1]], tuple(8 * nbytes - lead for lead in leads)


def _non_pivots(n: int, pivots: np.ndarray) -> np.ndarray:
    """The columns below n that are not pivots, in increasing order."""
    free = np.ones(n, bool)
    free[pivots] = False
    return np.flatnonzero(free)


def _standard_kernel(m: "Matrix", pivots: np.ndarray) -> "Matrix":
    """A basis of the kernel of m, whose column P_t = pivots[t] is e_t,
    with no elimination: for each non-pivot column f in increasing order,
    e_f - sum_t m[t, f] e_{P_t}, as m times it is m[:, f] - m[:, f] = 0;
    each has 1 at its own f and 0 at the other non-pivot columns."""
    spec, n = m.spec, m.ncols
    free = _non_pivots(n, pivots)
    out = np.zeros((len(free), n), element_dtype(spec))
    out[np.arange(len(free)), free] = 1
    coef = m.array[:, free].T
    if spec.p != 2:
        log, exp = field_tables(spec)
        coef = exp[log[coef] + (spec.q - 1) // 2]  # -coef
    out[:, pivots] = coef
    return Matrix._of(spec, out)


def _reversed_kernel(red: "Matrix", rev: Sequence[int]) -> "Matrix":
    """The kernel, in rref, of red, in rref with pivots rev, with its
    columns reversed: read in that order, row t of red ends at its pivot
    P_t = n-1-rev[t], so ``_standard_kernel`` row f leads with its 1 at f."""
    return _standard_kernel(Matrix._of(red.spec, red.array[:, ::-1]),
                            red.ncols - 1 - np.array(rev, np.intp))


class Matrix:
    """Immutable dense matrix over one FieldSpec, held as ``array``."""

    __slots__ = ("spec", "array")

    def __init__(self, spec: FieldSpec, rows: Iterable[Iterable[int]], ncols: int | None = None):
        rows = rows if isinstance(rows, np.ndarray) else [tuple(r) for r in rows]
        if not len(rows) and ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        # ragged rows, or rows not ncols wide, raise ValueError here
        a = np.array(rows).reshape(len(rows), -1 if ncols is None else ncols)
        if a.size and (a.dtype.kind not in "biu" or a.min() < 0 or a.max() >= spec.q):
            bad = next((v for r in rows for v in r
                        if not isinstance(v, (int, np.integer)) or not 0 <= v < spec.q), a.dtype)
            raise ValueError(f"value {bad!r} out of range for GF({spec.q})"
                             if isinstance(bad, (int, np.integer)) else f"{bad!r} is not an integer")
        self.spec = spec
        self.array = a.astype(element_dtype(spec))
        self.array.flags.writeable = False

    @classmethod
    def _of(cls, spec: FieldSpec, a: np.ndarray) -> "Matrix":
        """The matrix of a 2-d array of elements of spec, unchecked."""
        m = cls.__new__(cls)
        m.spec = spec
        m.array = a.astype(element_dtype(spec), copy=False)
        m.array.flags.writeable = False
        return m

    # -- basics -------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return self.array.shape[0]

    @property
    def ncols(self) -> int:
        return self.array.shape[1]

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.spec == other.spec and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.spec, self.array.shape, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"Matrix(GF({self.spec.q}), {self.nrows}x{self.ncols})"

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.array)

    def _same_spec(self, other: "Matrix") -> None:
        if self.spec != other.spec:
            raise ValueError(f"mismatched fields: {self.spec} vs {other.spec}")

    def stack(self, other: "Matrix") -> "Matrix":
        self._same_spec(other)
        if self.ncols != other.ncols:
            raise ValueError("column counts differ")
        return Matrix._of(self.spec, np.concatenate((self.array, other.array)))

    def over(self, spec: FieldSpec) -> "Matrix":
        """The same entries read over ``spec``: a matrix over a prime field
        embeds in every extension of it."""
        if spec == self.spec:
            return self
        if self.spec.ell != 1 or spec.p != self.spec.p:
            raise ValueError(f"GF({self.spec.q}) is not the prime field of GF({spec.q})")
        return Matrix._of(spec, self.array)

    def take_columns(self, cols: Sequence[int]) -> "Matrix":
        return Matrix._of(self.spec, self.array[:, np.asarray(cols, np.intp)])

    # -- echelon form and friends --------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form with zero rows dropped.

        Deterministic: leftmost pivots, rows scanned top-down.  Each pivot
        row is scaled to lead with 1, then subtracted from every other row
        with a nonzero entry in its column, all rows at once.  Over GF(2)
        the rows are packed into ints instead (``_binary_rref``); the rref
        being unique per row space, both give the same rows and pivots.
        """
        spec = self.spec
        if spec.q == 2:
            red, pivots = _binary_rref(self.array)
            return Matrix._of(spec, red), pivots
        log, exp = field_tables(spec)
        q1 = spec.q - 1
        minus_one = q1 // 2 if spec.p != 2 else 0  # the log of -1
        a = self.array.astype(np.int32)
        pivots: list[int] = []
        r = 0
        for col in range(self.ncols):
            if r == len(a):
                break
            below = a[r:, col].nonzero()[0]
            if not below.size:
                continue
            i = r + int(below[0])
            if i != r:
                a[[r, i]] = a[[i, r]]
            lead = int(a[r, col])
            if lead != 1:  # entries left of col are 0 in the pivot row
                a[r, col:] = exp[log[a[r, col:]] + (q1 - log[lead])]
            others = a[:, col].nonzero()[0]
            others = others[others != r]
            if others.size:  # add -a[i, col] * prow to row i
                factor = (log[a[others, col]] + minus_one) % q1
                prow = exp[factor[:, None] + log[a[r, col:]]]
                a[others, col:] = field_add(spec, a[others, col:], prow)
            pivots.append(col)
            r += 1
        return Matrix._of(spec, a[:r]), tuple(pivots)

    def kernel(self) -> "Matrix":
        """Basis of the right null space {x : self @ x^T = 0}, in rref: one
        elimination, of the column-reversed matrix, read back by
        ``_reversed_kernel``."""
        return _reversed_kernel(*Matrix._of(self.spec, self.array[:, ::-1]).rref())

    # -- products -------------------------------------------------------------

    def kronecker(self, other: "Matrix") -> "Matrix":
        """Kronecker product: block (i, j) equals self[i][j] * other."""
        self._same_spec(other)
        log, exp = field_tables(self.spec)
        out = exp[log[self.array][:, None, :, None] + log[other.array][None, :, None, :]]
        return Matrix._of(self.spec, out.reshape(self.nrows * other.nrows,
                                                 self.ncols * other.ncols))

    def gram(self, other: "Matrix") -> "Matrix":
        """The Euclidean inner products sum_k self[i, k] * other[j, k] of
        every row i of self with every row j of other."""
        self._same_spec(other)
        if self.ncols != other.ncols:
            raise ValueError("column counts differ")
        return Matrix._of(self.spec, _products_sum(self.spec, self.array, other.array))


def product_kernel(a: Matrix, b: Matrix) -> Matrix:
    """The kernel of a (x) b in rref, with eliminations only the size of a
    and of b.  Two facts give it.

    1. A Kronecker product of two matrices in rref is in rref.  Row (i, j)
       leads with 1 * 1 at column (p_i, p_j), the pivots of its factor
       rows, and is 0 left of it; every other row is 0 there, because the
       factors' pivot columns are unit columns; and lexicographic row order
       gives increasing pivots.  Its rows are therefore independent.
    2. rev(a (x) b) = rev(a) (x) rev(b), reversing the columns, and a
       Kronecker product spans the tensor product of its factors' row
       spaces.  So by fact 1, and as rref is unique per row space, the
       rref of rev(a (x) b) is rref(rev a) (x) rref(rev b).

    ``_reversed_kernel`` reads the kernel off that rref, as in
    ``Matrix.kernel``.
    """
    (r1, p1), (r2, p2) = (Matrix._of(m.spec, m.array[:, ::-1]).rref() for m in (a, b))
    return _reversed_kernel(r1.kronecker(r2), [i * r2.ncols + j for i in p1 for j in p2])


def complement_basis(h: Matrix, ambient_dim: int) -> Matrix:
    """Standard basis vectors at the non-pivot columns of h.

    Stacking the result under h always yields a basis of the full
    ambient space.  h must have independent rows.
    """
    if h.ncols != ambient_dim:
        raise ValueError(f"ambient dimension {ambient_dim} != column count {h.ncols}")
    red, pivots = h.rref()
    if red.nrows != h.nrows:
        raise ValueError("rows of h are not linearly independent")
    free = _non_pivots(ambient_dim, np.array(pivots, np.intp))
    return Matrix._of(h.spec, np.eye(ambient_dim)[free])


# -- text format -------------------------------------------------------------

def from_text(text: str) -> Matrix:
    """Matrix text format: header "q r c", then exactly r rows of c
    integers; blank lines are skipped."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"bad matrix header: {lines[0]!r}")
    q, r, c = (int(x) for x in header)
    spec = GF(q)
    if len(lines) - 1 != r:
        raise ValueError(f"expected {r} rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = [int(x) for x in ln.split()]
        if len(row) != c:
            raise ValueError(f"expected {c} entries per row, got {len(row)}")
        rows.append(row)
    return Matrix(spec, rows, ncols=c)

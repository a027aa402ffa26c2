"""Dense matrices over a finite field, with the decompositions the
construction theorems need: reduced row echelon form, kernels, Kronecker
products, complementary bases, and Gram matrices under the Euclidean,
Hermitian, and symplectic inner products.

A matrix is one immutable numpy array of field elements (uint8 for
q <= 256, uint16 above), worked on whole through the field kernels of
``galois``.  ``rref`` clears each pivot's column in all rows at once;
``kernel`` is one elimination of the column-reversed matrix, whose rows
give the null space already in rref.  Gram matrices and Kronecker
products are log/exp table lookups.  Every basis-producing operation
returns rref, unique per row space, so reports are byte-stable.  Entries
are range-checked once, by the public constructor.
"""
from __future__ import annotations

import enum
from typing import Iterable, Sequence

import numpy as np

from .galois import GF, FieldSpec, element_dtype, field_add, field_map, field_sum, field_tables

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
    """sum_k x[i, k] * y[j, k] for every i, j, in blocks of rows of x."""
    log, exp = field_tables(spec)
    lx, ly = log[x], log[y]
    out = np.empty((len(x), len(y)), element_dtype(spec))
    step = max(1, _GRAM_BLOCK // max(1, y.size))
    for i in range(0, len(x), step):
        out[i:i + step] = field_sum(spec, exp[lx[i:i + step, None, :] + ly[None, :, :]], axis=2)
    return out


def _non_pivots(n: int, pivots: np.ndarray) -> np.ndarray:
    """The columns below n that are not pivots, in increasing order."""
    free = np.ones(n, bool)
    free[pivots] = False
    return np.flatnonzero(free)


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
        with a nonzero entry in its column, all rows at once.
        """
        spec = self.spec
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
            if others.size:
                prow = a[r, col:]
                if spec.q != 2:  # -a[i, col] * prow
                    factor = (log[a[others, col]] + minus_one) % q1
                    prow = exp[factor[:, None] + log[prow]]
                a[others, col:] = field_add(spec, a[others, col:], prow)
            pivots.append(col)
            r += 1
        return Matrix._of(spec, a[:r]), tuple(pivots)

    def kernel(self) -> "Matrix":
        """Basis of the right null space {x : self @ x^T = 0}, in rref.

        One elimination: reduce the column-reversed matrix, so row t of R
        (read back in the original column order) has its pivot P_t as its
        rightmost nonzero entry.  For each non-pivot column f, the row
        e_f - sum_t R[t, f] e_{P_t} lies in the kernel; its other entries sit
        at pivots P_t > f, so it leads with 1 at f, and these rows, one per
        non-pivot column in increasing order, are the rref of the kernel.
        """
        spec, n = self.spec, self.ncols
        red, rev = Matrix._of(spec, self.array[:, ::-1]).rref()
        pivots = n - 1 - np.array(rev, np.intp)
        free = _non_pivots(n, pivots)
        out = np.zeros((len(free), n), element_dtype(spec))
        out[np.arange(len(free)), free] = 1
        coef = red.array[:, ::-1][:, free].T
        if spec.p != 2:
            log, exp = field_tables(spec)
            coef = exp[log[coef] + (spec.q - 1) // 2]  # -coef
        out[:, pivots] = coef
        return Matrix._of(spec, out)

    def row_space_contains(self, vec: Sequence[int]) -> bool:
        """Membership in the row span, assuming self is already in rref:
        vec is in the span iff it is the sum of vec[lead] * row over the
        rows, lead being the row's pivot column."""
        v = np.asarray(vec, np.int64)
        lead = np.argmax(self.array != 0, axis=1)
        return np.array_equal(_products_sum(self.spec, v[None, lead], self.array.T)[0], v)

    # -- products -------------------------------------------------------------

    def kronecker(self, other: "Matrix") -> "Matrix":
        """Kronecker product: block (i, j) equals self[i][j] * other."""
        self._same_spec(other)
        log, exp = field_tables(self.spec)
        out = exp[log[self.array][:, None, :, None] + log[other.array][None, :, None, :]]
        return Matrix._of(self.spec, out.reshape(self.nrows * other.nrows,
                                                 self.ncols * other.ncols))

    def gram(self, other: "Matrix", kind: InnerProductKind = InnerProductKind.EUCLIDEAN) -> "Matrix":
        """Matrix of pairwise inner products of rows; symplectic output is over GF(p)."""
        self._same_spec(other)
        if self.ncols != other.ncols:
            raise ValueError("column counts differ")
        spec = self.spec
        _require_even_degree(spec, kind)
        w = other.array
        if kind is not InnerProductKind.EUCLIDEAN:
            w = field_map(spec, "frobenius_q")[w]
        out = _products_sum(spec, self.array, w)
        if kind is InnerProductKind.SYMPLECTIC:
            return Matrix._of(spec.prime_field, field_map(spec, "trace_to_prime")[out])
        return Matrix._of(spec, out)


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

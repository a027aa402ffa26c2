"""Dense matrices over a finite field, with the decompositions the
construction theorems need: reduced row echelon form, kernels, Kronecker
products, complementary bases, and Gram matrices under the Euclidean,
Hermitian, and symplectic inner products.

Matrices are immutable; every basis-producing operation returns reduced
row echelon form so that downstream reports are byte-stable.
"""
from __future__ import annotations

import enum
from typing import Iterable, Sequence

from .galois import GF, FieldSpec


class InnerProductKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    HERMITIAN = "hermitian"
    SYMPLECTIC = "symplectic"

    def __str__(self) -> str:
        return self.value


def _require_even_degree(spec: FieldSpec, kind: InnerProductKind) -> None:
    if kind is not InnerProductKind.EUCLIDEAN and spec.ell % 2 != 0:
        raise ValueError(f"{kind} inner product needs an even-degree field, got GF({spec.q})")


def inner_product(spec: FieldSpec, v: Sequence[int], w: Sequence[int],
                  kind: InnerProductKind = InnerProductKind.EUCLIDEAN) -> int:
    """Inner product of two coordinate vectors (integer encoding).

    Returns a value in GF(q) for the Euclidean and Hermitian kinds and a
    prime-field value (< p) for the symplectic kind.
    """
    if len(v) != len(w):
        raise ValueError(f"length mismatch: {len(v)} vs {len(w)}")
    _require_even_degree(spec, kind)
    acc = 0
    if kind is InnerProductKind.EUCLIDEAN:
        for a, b in zip(v, w):
            if a and b:
                acc = spec.add(acc, spec.mul(a, b))
        return acc
    for a, b in zip(v, w):
        if a and b:
            acc = spec.add(acc, spec.mul(a, spec.frobenius_q(b)))
    if kind is InnerProductKind.HERMITIAN:
        return acc
    return spec.trace_to_prime(acc)


class Matrix:
    """Immutable dense matrix over one FieldSpec."""

    __slots__ = ("spec", "nrows", "ncols", "rows")

    def __init__(self, spec: FieldSpec, rows: Iterable[Iterable[int]], ncols: int | None = None):
        rows = tuple(tuple(spec.check_value(v) for v in r) for r in rows)
        if rows:
            ncols_seen = {len(r) for r in rows}
            if len(ncols_seen) != 1:
                raise ValueError("ragged rows")
            width = ncols_seen.pop()
            if ncols is not None and ncols != width:
                raise ValueError(f"ncols {ncols} does not match rows of width {width}")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.spec = spec
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Matrix":
        return cls(spec, [[1 if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def zeros(cls, spec: FieldSpec, r: int, c: int) -> "Matrix":
        return cls(spec, [[0] * c for _ in range(r)], ncols=c)

    @classmethod
    def empty(cls, spec: FieldSpec, ncols: int) -> "Matrix":
        return cls(spec, [], ncols=ncols)

    # -- basics -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.spec, self.ncols, self.rows) == (other.spec, other.ncols, other.rows)

    def __hash__(self) -> int:
        return hash((self.spec, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"Matrix(GF({self.spec.q}), {self.nrows}x{self.ncols})"

    def is_zero(self) -> bool:
        return all(not any(r) for r in self.rows)

    def _same_spec(self, other: "Matrix") -> None:
        if self.spec != other.spec:
            raise ValueError(f"mismatched fields: {self.spec} vs {other.spec}")

    def transpose(self) -> "Matrix":
        return Matrix(self.spec, zip(*self.rows), ncols=self.nrows) if self.nrows \
            else Matrix.zeros(self.spec, self.ncols, 0)

    def stack(self, other: "Matrix") -> "Matrix":
        self._same_spec(other)
        if self.ncols != other.ncols:
            raise ValueError("column counts differ")
        return Matrix(self.spec, self.rows + other.rows, ncols=self.ncols)

    def over(self, spec: FieldSpec) -> "Matrix":
        """The same entries read over ``spec``: a matrix over a prime field
        embeds in every extension of it."""
        if spec == self.spec:
            return self
        if self.spec.ell != 1 or spec.p != self.spec.p:
            raise ValueError(f"GF({self.spec.q}) is not the prime field of GF({spec.q})")
        return Matrix(spec, self.rows, ncols=self.ncols)

    def take_columns(self, cols: Sequence[int]) -> "Matrix":
        return Matrix(self.spec, [[r[c] for c in cols] for r in self.rows], ncols=len(cols))

    def scale_row(self, vec: Sequence[int], c: int) -> tuple[int, ...]:
        mul = self.spec.mul
        return tuple(mul(c, v) for v in vec)

    def matmul(self, other: "Matrix") -> "Matrix":
        self._same_spec(other)
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.ncols} vs {other.nrows}")
        spec = self.spec
        add_, mul = spec.add, spec.mul
        cols = other.transpose().rows
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc = add_(acc, mul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return Matrix(spec, out, ncols=other.ncols)

    # -- echelon form and friends --------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form with zero rows dropped.

        Deterministic: leftmost pivots, rows scanned top-down.
        """
        spec = self.spec
        add_, mul, neg, inv = spec.add, spec.mul, spec.neg, spec.inv
        rows = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for col in range(self.ncols):
            pivot_row = None
            for i in range(r, len(rows)):
                if rows[i][col]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            lead = rows[r][col]
            if lead != 1:
                c = inv(lead)
                rows[r] = [mul(c, v) for v in rows[r]]
            prow = rows[r]
            for i in range(len(rows)):
                if i != r and rows[i][col]:
                    c = neg(rows[i][col])
                    cur = rows[i]
                    rows[i] = [add_(cv, mul(c, pv)) if pv else cv for cv, pv in zip(cur, prow)]
            pivots.append(col)
            r += 1
            if r == len(rows):
                break
        return Matrix(spec, rows[:r], ncols=self.ncols), tuple(pivots)

    def rank(self) -> int:
        return self.rref()[0].nrows

    def kernel(self) -> "Matrix":
        """Basis of the right null space {x : self @ x^T = 0}, in rref."""
        red, pivots = self.rref()
        spec = self.spec
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for f in free:
            vec = [0] * self.ncols
            vec[f] = 1
            for t, pc in enumerate(pivots):
                vec[pc] = spec.neg(red.rows[t][f])
            basis.append(vec)
        return Matrix(spec, basis, ncols=self.ncols).rref()[0]

    def row_space_contains(self, vec: Sequence[int]) -> bool:
        """Membership in the row span, assuming self is already in rref."""
        spec = self.spec
        add_, mul, neg = spec.add, spec.mul, spec.neg
        v = list(vec)
        for row in self.rows:
            lead = next(i for i, x in enumerate(row) if x)
            if v[lead]:
                c = neg(v[lead])
                v = [add_(a, mul(c, b)) if b else a for a, b in zip(v, row)]
        return not any(v)

    def same_row_space(self, other: "Matrix") -> bool:
        a, _ = self.rref()
        b, _ = other.rref()
        return a == b

    # -- products -------------------------------------------------------------

    def kronecker(self, other: "Matrix") -> "Matrix":
        """Kronecker product: block (i, j) equals self[i][j] * other."""
        self._same_spec(other)
        spec = self.spec
        mul = spec.mul
        out = []
        for arow in self.rows:
            for brow in other.rows:
                row = []
                for a in arow:
                    if a == 0:
                        row.extend([0] * other.ncols)
                    elif a == 1:
                        row.extend(brow)
                    else:
                        row.extend(mul(a, b) for b in brow)
                out.append(row)
        return Matrix(spec, out, ncols=self.ncols * other.ncols)

    def gram(self, other: "Matrix", kind: InnerProductKind = InnerProductKind.EUCLIDEAN) -> "Matrix":
        """Matrix of pairwise inner products of rows; symplectic output is over GF(p)."""
        self._same_spec(other)
        if self.ncols != other.ncols:
            raise ValueError("column counts differ")
        _require_even_degree(self.spec, kind)
        out = [[inner_product(self.spec, r, s, kind) for s in other.rows] for r in self.rows]
        out_spec = self.spec.prime_field if kind is InnerProductKind.SYMPLECTIC else self.spec
        return Matrix(out_spec, out, ncols=other.nrows)


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
    pivot_set = set(pivots)
    rows = []
    for c in range(ambient_dim):
        if c not in pivot_set:
            vec = [0] * ambient_dim
            vec[c] = 1
            rows.append(vec)
    return Matrix(h.spec, rows, ncols=ambient_dim)


# -- text format -------------------------------------------------------------

def to_text(m: Matrix) -> str:
    """Matrix text format: header "q r c", then r rows of c integers."""
    lines = [f"{m.spec.q} {m.nrows} {m.ncols}"]
    lines.extend(" ".join(str(v) for v in row) for row in m.rows)
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Matrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"bad matrix header: {lines[0]!r}")
    q, r, c = (int(x) for x in header)
    spec = GF(q)
    rows = []
    for ln in lines[1:r + 1]:
        row = [int(x) for x in ln.split()]
        if len(row) != c:
            raise ValueError(f"expected {c} entries per row, got {len(row)}")
        rows.append(row)
    if len(rows) != r:
        raise ValueError(f"expected {r} rows, got {len(rows)}")
    return Matrix(spec, rows, ncols=c)

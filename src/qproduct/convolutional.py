"""Semi-infinite stabilizer band matrices built from product-code blocks:
band orthogonality read through the code model, finite windows and their
tensor factorization, tail-biting block codes, and a finitely-supported
upper bound on the free distance of the dual stream code.

The band repeats one block M of width frame + overlap, each copy shifted
by `frame` columns, so only adjacent copies overlap (overlap <= frame).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import min_distance, spanned_code
from .matrix import InnerProductKind, Matrix
from .product import tensor_generator
from .quantum import QeccParams, qecc


@dataclass(frozen=True)
class ConvStabilizer:
    """One repeated block of a semi-infinite stabilizer band matrix.

    ``block`` has width frame + overlap; for the symplectic kind its rows
    span the stabilizer additively (over GF(p)).  ``factor1``/``factor2``
    remember the tensor factors when the block came from a product code,
    enabling the window factorization check.
    """

    block: Matrix
    frame: int
    overlap: int
    kind: InnerProductKind
    factor1: Matrix | None = None
    factor2: Matrix | None = None

    def __post_init__(self):
        if self.block.ncols != self.frame + self.overlap:
            raise ValueError(
                f"block width {self.block.ncols} != frame {self.frame} + overlap {self.overlap}")
        if not 0 <= self.overlap <= self.frame:
            raise ValueError(f"overlap {self.overlap} must satisfy 0 <= m <= frame {self.frame}")

    @property
    def spec(self):
        return self.block.spec

    @property
    def rows_per_frame(self) -> int:
        return self.block.nrows


def conv_from_product(c1, c2, t: int, kind: InnerProductKind) -> ConvStabilizer:
    """Band block from a product code: M = G1 (x) G2 with overlap t*n2.

    ``kind`` must be one that c2 takes duals under, else ValueError.
    Whether the band's rows are orthogonal under it is
    ``check_band_self_orthogonal``'s verdict: a self-orthogonal second
    factor makes the head and tail of M orthogonal, which is enough, but
    not needed.
    """
    if not 1 <= t < c1.n:
        raise ValueError(f"shift parameter t = {t} must satisfy 1 <= t < n1 = {c1.n}")
    c2._kind(kind)  # an additive code's band is never read as linear, nor the converse
    n2 = c2.n
    return ConvStabilizer(block=tensor_generator(c1, c2), frame=(c1.n - t) * n2,
                          overlap=t * n2, kind=kind, factor1=c1.generator, factor2=c2.generator)


def check_band_self_orthogonal(s: ConvStabilizer) -> bool:
    """True iff every pair of rows of the semi-infinite band is orthogonal
    under the band's kind: iff the code spanned by the two-block window is
    self-orthogonal (``Code.is_self_orthogonal``).

    Two blocks are enough.  Copy b of the block occupies the columns
    b*frame .. b*frame + frame + overlap - 1, and overlap <= frame, so
    copies b and b' with |b - b'| >= 2 have disjoint supports and are
    orthogonal.  Every other pair of band rows lies in copy b or in copies
    b and b+1, and shifting both rows by -b*frame columns, which keeps
    their inner product, makes it a pair of rows of the window, whose two
    copies it holds untruncated.  Conversely every window row is a band
    row.  The form is additive in each argument and takes scalars out
    (conjugated in the second, Hermitian; over GF(p), symplectic), so the
    rows are pairwise orthogonal iff their span is self-orthogonal."""
    window = band_window(s, 2)
    return spanned_code(s.kind, s.spec, window.array, window.ncols).is_self_orthogonal(s.kind)


def band_window(s: ConvStabilizer, blocks: int) -> Matrix:
    """Finite top-left window: `blocks` copies of the block, each shifted
    by `frame` columns; shape (blocks*r) x (blocks*frame + overlap)."""
    if blocks < 1:
        raise ValueError("need at least one block")
    r, c = s.block.nrows, s.block.ncols
    out = np.zeros((blocks * r, blocks * s.frame + s.overlap), s.block.array.dtype)
    for b in range(blocks):
        out[b * r:(b + 1) * r, b * s.frame:b * s.frame + c] = s.block.array
    return Matrix._of(s.spec, out)


def band_window_factorization_ok(s: ConvStabilizer, blocks: int) -> bool | None:
    """Check the tensor decomposition of the window: the band built from
    G1 (x) G2 with overlap t*n2 equals (band of G1 with overlap t) (x) G2.
    Returns None when the block did not come from a product."""
    if s.factor1 is None or s.factor2 is None:
        return None
    n2 = s.factor2.ncols
    if s.overlap % n2 != 0:
        return None
    t = s.overlap // n2
    g1_band = ConvStabilizer(block=s.factor1, frame=s.factor1.ncols - t, overlap=t,
                             kind=InnerProductKind.EUCLIDEAN)
    expected = band_window(g1_band, blocks).over(s.spec).kronecker(s.factor2)
    return expected == band_window(s, blocks)


def tail_biting(s: ConvStabilizer, blocks: int):
    """Wrap `blocks` shifted copies of the block cyclically over length
    blocks*frame; column indices are taken modulo the wrapped length."""
    n_total = blocks * s.frame
    if n_total < s.frame + s.overlap:
        raise ValueError(f"{blocks} blocks of frame {s.frame} cannot host overlap {s.overlap}")
    r, c = s.block.nrows, s.block.ncols
    out = np.zeros((blocks * r, n_total), s.block.array.dtype)
    for b in range(blocks):
        out[b * r:(b + 1) * r, (b * s.frame + np.arange(c)) % n_total] = s.block.array
    return spanned_code(s.kind, s.spec, out, n_total)


def tail_biting_qecc(s: ConvStabilizer, blocks: int, budget: int | None = None) -> QeccParams:
    """Quantum code from the tail-biting block code, via the construction
    matching the band's inner product kind."""
    return qecc(tail_biting(s, blocks), s.kind, budget)


def free_distance_upper_bound(s: ConvStabilizer, window_blocks: int,
                              budget: int | None = None) -> int | None:
    """Upper bound on the free distance of the dual stream code: the
    lightest dual word supported inside a finite window.

    A word supported on the first window_blocks*frame + overlap columns
    extends by zeros to a dual word of the semi-infinite band iff it is
    orthogonal to every band row that meets the window, which includes
    the head of block window_blocks; those boundary rows are included,
    truncated to the window.  Returns None when no witness was found.
    """
    if window_blocks < 1:
        raise ValueError("need at least one window block")
    width = window_blocks * s.frame + s.overlap
    constraints = band_window(s, window_blocks + 1).take_columns(range(width))
    dual = spanned_code(s.kind, s.spec, constraints.array, width).dual(s.kind)
    cert = min_distance(dual, budget=budget)
    if cert.degenerate or cert.upper is None:
        return None
    return cert.upper

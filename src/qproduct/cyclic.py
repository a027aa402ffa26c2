"""Cyclic and Reed-Solomon codes in the spectral regime n | q-1, the
spectral support of their bicyclic products, dual coordinate maps, and
the report of a Reed-Solomon product, whose dual is certified by
``code.product_dual_certificate``.

A cyclic code is a plain ``LinearCode`` that keeps its zeros Z
(``zeros``), exponents mod n: the words c with c(alpha^z) = 0 for z in Z,
the code of prod_{z in Z} (X - alpha^z).  That polynomial is never
formed.  When Z is a cyclic interval, as for every Reed-Solomon code and
its Euclidean dual, the basis is a closed form (``code.cyclic_basis``);
any other zero set eliminates its check rows (alpha^(z*j))_j.  The zeros
give the code's BCH bound (``code.min_distance``), its Euclidean dual,
which keeps its own zeros, and its self-orthogonality
(``Code.is_self_orthogonal``); any code that keeps zeros, such a dual
included, is accepted wherever a cyclic code is.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .code import DistanceCertificate, LinearCode, cyclic_basis, product_dual_certificate
from .galois import GF, FieldSpec
from .matrix import InnerProductKind
from .product import product


def cyclic_from_roots(q: int | FieldSpec, n: int, exponents: Sequence[int]) -> LinearCode:
    """Cyclic code of length n | q-1 with zeros alpha^s over the exponent
    set, alpha the field's primitive n-th root of unity: a ``LinearCode``
    with basis ``code.cyclic_basis`` of the zeros, so k = n - |zeros|, that
    keeps them as ``zeros``."""
    spec = q if isinstance(q, FieldSpec) else GF(q)
    if n < 1 or (spec.q - 1) % n != 0:
        raise ValueError(f"length {n} does not divide q-1 = {spec.q - 1}")
    exps = [z % n for z in exponents]
    zeros = frozenset(exps)
    if len(zeros) != len(exps):
        raise ValueError(f"duplicate root exponents in {list(exponents)}")
    return LinearCode._from_basis(spec, n, cyclic_basis(spec, n, zeros), None, zeros)


def rs_code(q: int | FieldSpec, delta: int) -> LinearCode:
    """Reed-Solomon code [q-1, q-delta, delta] with zeros alpha^0..alpha^(delta-2)."""
    spec = q if isinstance(q, FieldSpec) else GF(q)
    if not 2 <= delta <= spec.q - 1:
        raise ValueError(f"designed distance must be in [2, q-1], got {delta}")
    return cyclic_from_roots(spec, spec.q - 1, range(delta - 1))


def dual_support_map(i: int, n: int, kind: InnerProductKind, frob_power: int | None = None) -> int:
    """Spectral coordinate map between a code and its dual support."""
    if kind is InnerProductKind.EUCLIDEAN:
        return (-i) % n
    if kind is InnerProductKind.HERMITIAN:
        if frob_power is None:
            raise ValueError("Hermitian coordinate map needs the Frobenius power q")
        return (-frob_power * i) % n
    raise ValueError(f"no spectral coordinate map for {kind}")


def product_spectrum_support(c1: LinearCode, c2: LinearCode) -> tuple[tuple[bool, ...], ...]:
    """Forced-zero mask of the spectrum of the product of two codes that
    keep their zeros: grid[i][j] is True when every codeword's spectrum
    vanishes at (i, j)."""
    return tuple(tuple(i in c1.zeros or j in c2.zeros for j in range(c2.n))
                 for i in range(c1.n))


@dataclass(frozen=True)
class RsProductReport:
    """Parameters predicted for the product of two Reed-Solomon codes and
    its Euclidean dual, carrying both the stated and the corrected dual
    distance (they differ by one; see `expected_dual_distance`).  ``code``
    is the product itself, kept out of ``to_dict()``, equality and repr."""

    q: int
    delta1: int
    delta2: int
    length: int
    dimension: int
    distance: int
    dual_dimension: int
    stated_dual_distance: int
    expected_dual_distance: int
    factor1_self_orthogonal: bool
    factor2_self_orthogonal: bool
    product_self_orthogonal: bool
    code: LinearCode = field(repr=False, compare=False)

    @classmethod
    def of(cls, c1: LinearCode, c2: LinearCode) -> "RsProductReport":
        """The report of rs(q, delta1) (x) rs(q, delta2) from its two built
        factors (``rs_code``, delta_i = |zeros_i| + 1), cross-checked
        structurally against the product, which is built once and kept as
        ``code``.  A factor that is not Reed-Solomon (no zeros kept, another
        length or field, or zeros other than 0..delta-2) raises ValueError:
        the report's formulas hold only for these.

        The dual dimension comes out of q*(d1+d2-2) - d1*d2 + 1, which
        equals (q-1)^2 - (q-delta1)*(q-delta2) identically; both dual
        distance candidates are reported: the stated min(q-delta1, q-delta2)
        and the corrected 1 + min(q-delta1, q-delta2).
        """
        q = c1.spec.q
        for i, c in enumerate((c1, c2), 1):
            zeros = None if c.zeros is None else sorted(c.zeros)
            if (zeros is None or c.spec != c1.spec or c.n != q - 1
                    or not 1 <= len(zeros) <= q - 2 or zeros != list(range(len(zeros)))):
                raise ValueError(f"factor {i}, {c!r} with zeros {zeros}, is not "
                                 f"rs({q}, delta): length {q - 1} over GF({q}) and zeros "
                                 f"0..delta-2 for some delta in [2, {q - 1}]")
        delta1, delta2 = len(c1.zeros) + 1, len(c2.zeros) + 1
        prod = product(c1, c2)
        n = (q - 1) ** 2
        k = (q - delta1) * (q - delta2)
        if prod.n != n or prod.k != k:
            raise AssertionError("constructed product disagrees with predicted parameters")
        k_dual = q * (delta1 + delta2 - 2) - delta1 * delta2 + 1
        if k_dual != n - k:
            raise AssertionError("dual dimension formula disagrees with n - k")
        return cls(
            q=q, delta1=delta1, delta2=delta2,
            length=n, dimension=k, distance=delta1 * delta2,
            dual_dimension=k_dual,
            stated_dual_distance=min(q - delta1, q - delta2),
            expected_dual_distance=1 + min(q - delta1, q - delta2),
            factor1_self_orthogonal=c1.is_self_orthogonal(InnerProductKind.EUCLIDEAN),
            factor2_self_orthogonal=c2.is_self_orthogonal(InnerProductKind.EUCLIDEAN),
            product_self_orthogonal=prod.is_self_orthogonal(InnerProductKind.EUCLIDEAN),
            code=prod,
        )

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "delta": [self.delta1, self.delta2],
            "primal": [self.length, self.dimension, self.distance],
            "dual_dimension": self.dual_dimension,
            "stated_dual_distance": self.stated_dual_distance,
            "expected_dual_distance": self.expected_dual_distance,
            "factor_self_orthogonal": [self.factor1_self_orthogonal, self.factor2_self_orthogonal],
            "product_self_orthogonal": self.product_self_orthogonal,
        }

    def dual_certificate(self) -> DistanceCertificate:
        """``product_dual_certificate`` of the product's Euclidean dual:
        the factor duals are MDS, certified by their BCH bounds, so it is
        exact at 1 + min(mu1, mu2), mu_i = q - delta_i, the rectangle bound;
        any other value raises AssertionError."""
        cert = product_dual_certificate(*self.code._factors, InnerProductKind.EUCLIDEAN)
        if not (cert.exact and cert.lower == self.expected_dual_distance):
            raise AssertionError(f"the product dual certificate [{cert.lower}, {cert.upper}] "
                                 f"is not the rectangle bound {self.expected_dual_distance}")
        return cert


def rs_product_params(q: int, delta1: int, delta2: int) -> RsProductReport:
    """``RsProductReport.of`` the Reed-Solomon factors rs(q, delta1) and
    rs(q, delta2), built here."""
    spec = GF(q)
    return RsProductReport.of(rs_code(spec, delta1), rs_code(spec, delta2))


def rs_product_dual_certificate(q: int, delta1: int, delta2: int) -> DistanceCertificate:
    """``RsProductReport.dual_certificate`` of rs(q, delta1) (x) rs(q, delta2)."""
    return rs_product_params(q, delta1, delta2).dual_certificate()

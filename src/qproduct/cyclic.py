"""Cyclic and Reed-Solomon codes in the spectral regime n | q-1, the
spectral support of their bicyclic products, dual coordinate maps, and
the rectangle lower bound used to certify dual distances of products.

A cyclic code is given by its zeros Z, exponents mod n: the words c with
c(alpha^z) = 0 for z in Z, the code of prod_{z in Z} (X - alpha^z).  That
polynomial is never formed; the check rows (alpha^(z*j))_j define the code.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .code import (DistanceCertificate, LinearCode, enumeration_budget, hamming_weight,
                   min_distance)
from .galois import GF, FieldSpec, field_tables
from .matrix import InnerProductKind, Matrix
from .product import product


class CyclicCode:
    """Cyclic code of length n | q-1 given by its zero set: the exponents
    z mod n with c(alpha^z) = 0 for every codeword c, alpha the field's
    primitive n-th root of unity.  ``code`` is the kernel of the check
    rows (alpha^(z*j))_j, one per zero, so k = n - |zeros|."""

    def __init__(self, spec: FieldSpec, n: int, zeros: Sequence[int],
                 claimed_distance: int | None = None):
        if n < 1 or (spec.q - 1) % n != 0:
            raise ValueError(f"length {n} does not divide q-1 = {spec.q - 1}")
        exps = [z % n for z in zeros]
        if len(set(exps)) != len(exps):
            raise ValueError(f"duplicate root exponents in {list(zeros)}")
        self.spec, self.n, self.zeros = spec, n, frozenset(exps)
        # exp is to the base g, the field generator, and alpha = g^((q-1)/n)
        _, exp = field_tables(spec)
        z = np.array(sorted(self.zeros), np.int64)[:, None] * ((spec.q - 1) // n)
        checks = Matrix._of(spec, exp[z * np.arange(n) % (spec.q - 1)])
        self.code = LinearCode._from_basis(spec, n, checks.kernel(), checks, claimed_distance)

    @property
    def k(self) -> int:
        return self.code.k

    def __repr__(self) -> str:
        return f"CyclicCode[{self.n},{self.k}]_GF({self.spec.q})"


def cyclic_from_roots(q: int | FieldSpec, n: int, exponents: Sequence[int],
                      claimed_distance: int | None = None) -> CyclicCode:
    """Cyclic code of length n | q-1 with zeros alpha^s over the exponent set."""
    spec = q if isinstance(q, FieldSpec) else GF(q)
    return CyclicCode(spec, n, exponents, claimed_distance=claimed_distance)


def rs_code(q: int | FieldSpec, delta: int) -> CyclicCode:
    """Reed-Solomon code [q-1, q-delta, delta] with zeros alpha^0..alpha^(delta-2)."""
    spec = q if isinstance(q, FieldSpec) else GF(q)
    if not 2 <= delta <= spec.q - 1:
        raise ValueError(f"designed distance must be in [2, q-1], got {delta}")
    return cyclic_from_roots(spec, spec.q - 1, range(delta - 1), claimed_distance=delta)


def dual_support_map(i: int, n: int, kind: InnerProductKind, frob_power: int | None = None) -> int:
    """Spectral coordinate map between a code and its dual support."""
    if kind is InnerProductKind.EUCLIDEAN:
        return (-i) % n
    if kind is InnerProductKind.HERMITIAN:
        if frob_power is None:
            raise ValueError("Hermitian coordinate map needs the Frobenius power q")
        return (-frob_power * i) % n
    raise ValueError(f"no spectral coordinate map for {kind}")


def product_spectrum_support(c1: CyclicCode, c2: CyclicCode) -> tuple[tuple[bool, ...], ...]:
    """Forced-zero mask of the product's spectrum: grid[i][j] is True when
    every codeword's spectrum vanishes at (i, j)."""
    return tuple(tuple(i in c1.zeros or j in c2.zeros for j in range(c2.n))
                 for i in range(c1.n))


def bch_rectangle_bound(a: int, b: int) -> int:
    """Lower bound min(a, b) + 1 on the minimum distance of a bicyclic
    code whose spectra share an all-zero a x b cyclic rectangle."""
    if a < 0 or b < 0:
        raise ValueError("stripe widths must be >= 0")
    return min(a, b) + 1


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
    def of(cls, c1: CyclicCode, c2: CyclicCode) -> "RsProductReport":
        """The report of rs(q, delta1) (x) rs(q, delta2) from its two built
        factors (``rs_code``, delta_i = |zeros_i| + 1), cross-checked
        structurally against the product, which is built once and kept as
        ``code``.  A factor that is not Reed-Solomon (another length or
        field, or zeros other than 0..delta-2) raises ValueError: the
        rectangle bound of ``dual_certificate`` holds only for these.

        The dual dimension comes out of q*(d1+d2-2) - d1*d2 + 1, which
        equals (q-1)^2 - (q-delta1)*(q-delta2) identically; both dual
        distance candidates are reported: the stated min(q-delta1, q-delta2)
        and the corrected 1 + min(q-delta1, q-delta2).
        """
        q = c1.spec.q
        for i, c in enumerate((c1, c2), 1):
            delta = len(c.zeros) + 1
            if (c.spec != c1.spec or c.n != q - 1 or not 2 <= delta <= q - 1
                    or c.zeros != frozenset(range(delta - 1))):
                raise ValueError(f"factor {i}, {c!r} with zeros {sorted(c.zeros)}, is not "
                                 f"rs({q}, delta): length {q - 1} over GF({q}) and zeros "
                                 f"0..delta-2 for some delta in [2, {q - 1}]")
        delta1, delta2 = len(c1.zeros) + 1, len(c2.zeros) + 1
        prod = product(c1.code, c2.code)
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
            factor1_self_orthogonal=c1.code.is_self_orthogonal(InnerProductKind.EUCLIDEAN),
            factor2_self_orthogonal=c2.code.is_self_orthogonal(InnerProductKind.EUCLIDEAN),
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

    def dual_certificate(self, budget: int | None = None,
                         cert: DistanceCertificate | None = None) -> DistanceCertificate:
        """Distance certificate for the product's Euclidean dual, reusing
        ``cert``, the dual's ``min_distance``, when known.

        Within the budget (q^(n-k) words, counted without building the
        dual) it is the dual's ``min_distance``.  Above it nothing is built
        at the product's size and nothing is searched: the lower bound is
        the rectangle bound 1 + min(mu1, mu2), mu_i = q - delta_i, and the
        upper bound a witness from one factor, a (x) e_0 or e_0 (x) b, where
        a (b) is the first lightest row of the rref basis of the first
        (second) factor's Euclidean dual.

        Membership: <a (x) e_0, g (x) h> = <a, g> * h_0 = 0 for every
        generator g (x) h of the product, whose coordinate (r, s) is
        r * n2 + s (the Kronecker order of ``product``).  Exactness: the
        dual of rs(q, delta_i) is MDS [q-1, q-1-mu_i, mu_i+1], and a row of
        an rref basis of an [n, k] code is zero at the k-1 other pivots, so
        it weighs at most n-k+1, here mu_i + 1, and at least d = mu_i + 1.
        The lighter side, factor 1 on a tie, thus weighs 1 + min(mu1, mu2),
        the rectangle bound; a lighter witness raises AssertionError.

        With ``cert``, or within the budget, the method is "exhaustive"
        when the dual was enumerated and "bch-rectangle" otherwise, with
        the larger of the rectangle bound and the certificate's lower.
        """
        rect_lower = bch_rectangle_bound(self.q - self.delta1, self.q - self.delta2)
        if cert is None and self.q ** self.dual_dimension <= enumeration_budget(budget):
            cert = min_distance(self.code.dual(InnerProductKind.EUCLIDEAN), budget=budget)
        if cert is None:
            c1, c2 = self.code._factors
            a, b = (c.dual(InnerProductKind.EUCLIDEAN).basis.array for c in (c1, c2))
            a, b = (m[np.count_nonzero(m, axis=1).argmin()] for m in (a, b))
            word = np.zeros((c1.n, c2.n), a.dtype)
            if np.count_nonzero(a) <= np.count_nonzero(b):
                word[:, 0] = a  # a (x) e_0
            else:
                word[0, :] = b  # e_0 (x) b
            witness = tuple(word.ravel().tolist())
            w = hamming_weight(witness)
            if w < rect_lower:
                raise AssertionError(f"a dual word of weight {w} lies below the "
                                     f"rectangle bound {rect_lower}")
            return DistanceCertificate(lower=rect_lower, upper=w, lower_method="bch-rectangle",
                                       witness=witness)
        if cert.lower_method == "exhaustive":
            return cert
        return DistanceCertificate(lower=max(rect_lower, cert.lower), upper=cert.upper,
                                   lower_method="bch-rectangle", witness=cert.witness,
                                   claimed=cert.claimed)


def rs_product_params(q: int, delta1: int, delta2: int) -> RsProductReport:
    """``RsProductReport.of`` the Reed-Solomon factors rs(q, delta1) and
    rs(q, delta2), built here."""
    spec = GF(q)
    return RsProductReport.of(rs_code(spec, delta1), rs_code(spec, delta2))


def rs_product_dual_certificate(q: int, delta1: int, delta2: int,
                                budget: int | None = None) -> DistanceCertificate:
    """``RsProductReport.dual_certificate`` of rs(q, delta1) (x) rs(q, delta2)."""
    return rs_product_params(q, delta1, delta2).dual_certificate(budget)

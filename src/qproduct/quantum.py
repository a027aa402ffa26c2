"""Quantum code parameters derived from self-orthogonal classical codes:
the CSS route for Euclidean self-orthogonal codes, the Hermitian route
over quadratic extensions, and the symplectic route for additive codes.
Distances are quantum distances d_Q = min wt(C^perp \\ C) (``_params``).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .code import (AdditiveCode, Code, DistanceCertificate, LinearCode, enumeration_budget,
                   min_distance, weight_enumerator)
from .cyclic import RsProductReport, rs_product_params
from .galois import FieldSpec
from .matrix import InnerProductKind


@dataclass(frozen=True)
class QeccParams:
    """Derived quantum code parameters.

    ``distance`` certifies the quantum distance d_Q = min wt(C^perp \\ C);
    for k > 0 its witness, when present, is a logical operator: a word of
    the dual outside the code.  ``alphabet`` is the qudit dimension.
    """

    n: int
    k: int
    alphabet: int
    distance: DistanceCertificate
    construction: str

    def triple(self) -> tuple[int, int, int]:
        return (self.n, self.k, self.distance.value)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "alphabet": self.alphabet,
            "distance": self.distance.to_dict(),
            "construction": self.construction,
        }


_KIND_BY_CONSTRUCTION = {
    "css": InnerProductKind.EUCLIDEAN,
    "hermitian": InnerProductKind.HERMITIAN,
    "symplectic": InnerProductKind.SYMPLECTIC,
}
_CONSTRUCTION_BY_KIND = {kind: name for name, kind in _KIND_BY_CONSTRUCTION.items()}


def stabilizer_count(spec: FieldSpec, log_p_size: int, kind: InnerProductKind) -> tuple[int, int]:
    """The stabilizers that a self-orthogonal code of p^log_p_size words
    over ``spec`` gives under ``kind``, and the qudit dimension.  CSS takes
    qudits of dimension q and the code twice (X and Z); the Hermitian and
    symplectic routes take qudits of dimension sqrt(q) and the code once."""
    euclidean = kind is InnerProductKind.EUCLIDEAN
    qudit_degree, uses = (spec.ell, 2) if euclidean else (spec.ell // 2, 1)
    stabilizers, rest = divmod(uses * log_p_size, qudit_degree)
    if rest:
        raise ValueError(f"code size {spec.p}^{log_p_size} is not a power of the qudit alphabet")
    return stabilizers, spec.p**qudit_degree


def _params(code: Code, kind: InnerProductKind, cert: DistanceCertificate,
            budget: int | None = None) -> QeccParams:
    """The quantum code of ``code``, self-orthogonal under ``kind``, given
    ``cert`` for its dual: n less ``stabilizer_count`` logical qudits, and
    d_Q = min wt(C^perp \\ C) >= d(C^perp) (Calderbank, Rains, Shor & Sloane,
    IEEE TIT 44, 1998).  A witness outside C is a logical operator, so
    ``cert`` stands.  One in C is a stabilizer: d_Q is ``stabilizer_distance``,
    exact with no witness, or above the budget ``cert``'s lower bound alone.
    A stabilizer state (k = 0, C^perp = C) keeps d(C^perp): [[n, 0, d]]."""
    stabilizers, alphabet = stabilizer_count(code.spec, code.dim * code.field.ell, kind)
    k = code.n - stabilizers
    if k > 0 and cert.witness is not None and code.contains(cert.witness):
        d = stabilizer_distance(code, _CONSTRUCTION_BY_KIND[kind], budget)
        cert = (DistanceCertificate(lower=cert.lower, upper=None, lower_method=cert.lower_method)
                if d is None else DistanceCertificate(lower=d, upper=d, lower_method="exhaustive"))
    return QeccParams(n=code.n, k=k, alphabet=alphabet, distance=cert,
                      construction=_CONSTRUCTION_BY_KIND[kind])


def qecc(code: Code, kind: InnerProductKind, budget: int | None = None) -> QeccParams:
    """Quantum code from a code self-orthogonal under ``kind`` (``_params``)."""
    if not code.is_self_orthogonal(kind):
        raise ValueError(f"code is not {kind} self-orthogonal")
    return _params(code, kind, min_distance(code.dual(kind), budget=budget), budget)


def css_qecc(code: LinearCode, budget: int | None = None) -> QeccParams:
    """Quantum code from a Euclidean self-orthogonal [n, k] code: n - 2k logical qudits."""
    return qecc(code, InnerProductKind.EUCLIDEAN, budget)


def hermitian_qecc(code: LinearCode, budget: int | None = None) -> QeccParams:
    """Quantum code from a Hermitian self-orthogonal [n, k] code over GF(q^2):
    n - 2k logical qudits of dimension q."""
    return qecc(code, InnerProductKind.HERMITIAN, budget)


def symplectic_qecc(code: AdditiveCode, budget: int | None = None) -> QeccParams:
    """Quantum code from a symplectically self-orthogonal additive code
    over GF(p^(2m)): qudits of dimension p^m, k = n - k_p/m logical."""
    return qecc(code, InnerProductKind.SYMPLECTIC, budget)


def rs_product_report(q: int, mu1: int, mu2: int) -> RsProductReport:
    """The report of the product of two Reed-Solomon codes of dimensions
    mu1 and mu2; 1 <= mu1 < (q-1)/2 guarantees the first factor is
    self-orthogonal, and 1 <= mu2 <= q-2 that the second is a Reed-Solomon
    code; both are checked before anything is built."""
    if not 1 <= mu1 < (q - 1) / 2:
        raise ValueError(f"mu1 = {mu1} must satisfy 1 <= mu1 < (q-1)/2 = {(q - 1) / 2}")
    if not 1 <= mu2 <= q - 2:
        raise ValueError(f"mu2 = {mu2} must satisfy 1 <= mu2 <= q-2 = {q - 2}")
    return rs_product_params(q, q - mu1, q - mu2)


def rs_report_qecc(rep: RsProductReport) -> QeccParams:
    """CSS code of the product in ``rep``; its distance is the report's
    dual certificate, rectangle bound included.  For nonzero u, v, u (x) v
    lies in C1 (x) C2 iff u is in C1 and v in C2 (its columns are multiples
    of u, its rows of v), and no rs(q, delta >= 2) contains e_0, so the
    witness a (x) e_0 or e_0 (x) b is pure; ``_params`` checks it still."""
    if not (rep.factor1_self_orthogonal and rep.product_self_orthogonal):
        raise AssertionError("Reed-Solomon product is unexpectedly not self-orthogonal")
    return _params(rep.code, InnerProductKind.EUCLIDEAN, rep.dual_certificate())


def rs_prod_qecc(q: int, mu1: int, mu2: int) -> QeccParams:
    """Quantum code from the product of two Reed-Solomon codes of
    dimensions mu1 and mu2 (see ``rs_product_report``)."""
    return rs_report_qecc(rs_product_report(q, mu1, mu2))


def stabilizer_distance(code, construction: str, budget: int | None = None) -> int | None:
    """True stabilizer distance: the minimum weight in dual \\ code.

    The code lies inside its dual, so dual \\ code has a word of weight w
    exactly when the dual has more words of weight w than the code.  The
    code's weight enumerator is counted by one scan of the code, and the
    dual's follows from it by the MacWilliams transform, so the dual is
    never enumerated here.  Returns None when the dual exceeds the
    budget, and for stabilizer states, whose dual equals the code.  Never
    smaller than the dual-distance bound.
    """
    kind = _KIND_BY_CONSTRUCTION.get(construction)
    if kind is None:
        raise ValueError(f"unknown construction {construction!r}")
    if not code.is_self_orthogonal(kind):
        raise ValueError(f"code is not {kind} self-orthogonal")
    dual = code.dual(kind)
    if dual.size() > enumeration_budget(budget):
        return None
    outer = weight_enumerator(dual, budget=budget)
    inner = weight_enumerator(code, budget=budget)
    return min((w for w, count in outer.items() if count > inner.get(w, 0)), default=None)


@dataclass(frozen=True)
class RateComparison:
    """Exact-rational comparison of the squared-length product
    construction against the product of the per-factor rates."""

    q: int
    mu1: int
    mu2: int
    product_construction_rate: Fraction
    factor_rates: tuple[Fraction, Fraction]
    product_of_rates: Fraction
    product_construction_wins: bool
    threshold_predicts_win: bool | None  # only defined for mu1 == mu2

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "mu": [self.mu1, self.mu2],
            "product_construction_rate": str(self.product_construction_rate),
            "factor_rates": [str(r) for r in self.factor_rates],
            "product_of_rates": str(self.product_of_rates),
            "product_construction_wins": self.product_construction_wins,
            "threshold_predicts_win": self.threshold_predicts_win,
        }


def rate_comparison(q: int, mu1: int, mu2: int) -> RateComparison:
    """Rate 1 - 2*mu1*mu2/(q-1)^2 of the product construction versus the
    product of the factor rates (1 - 2*mu_i/(q-1)); for mu1 == mu2 the
    construction wins exactly when mu < 2(q-1)/3."""
    if mu1 < 0 or mu2 < 0:
        raise ValueError("mu must be >= 0")
    qm1 = q - 1
    pc = 1 - Fraction(2 * mu1 * mu2, qm1 * qm1)
    r1 = 1 - Fraction(2 * mu1, qm1)
    r2 = 1 - Fraction(2 * mu2, qm1)
    por = r1 * r2
    wins = pc > por
    threshold = None
    if mu1 == mu2:
        threshold = Fraction(mu1) < Fraction(2 * qm1, 3) and mu1 > 0
    return RateComparison(q=q, mu1=mu1, mu2=mu2,
                          product_construction_rate=pc,
                          factor_rates=(r1, r2),
                          product_of_rates=por,
                          product_construction_wins=wins,
                          threshold_predicts_win=threshold)

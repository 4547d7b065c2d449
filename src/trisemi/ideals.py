"""Membership tests and constructive certificates for the commutator
and function ideals.

Membership is decided by exact coefficient conditions on polynomials.
Certificates come in two flavours: an exact commutator pair whose
re-expansion reproduces the target on the nose, and a numeric
telescoping combination of dilation-difference generators checked by
coefficient matching at one tolerance, 10^-9: frequencies closer than it
merge, and the merged residual must be below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import AlgebraId, Axis, Element, coeff_map, mul, side_sums, support_predicate
from .errors import DegeneratePhase, InvalidParameter, InvalidScale, NotInAmbient
from .exactnum import (
    AtomTable,
    DEFAULT_GUARD,
    DEFAULT_TABLE,
    DilationIndex,
    Frequency,
    PhaseExponent,
    PhaseSum,
    Scalar,
    _exp,
    index_sign,
)
from .exprs import element_text, freq_text

_KINDS = ("cp", "cph", "i0", "jt")
# most dilation steps a J_t telescope walks; about log(lam)/t are needed
_MAX_TELESCOPE = 10**5
_ZERO_KEY = (Frequency.zero(), Frequency.zero(), DilationIndex.zero())
# the numeric certificate policy as printed, and its tolerance
_POLICY = "residual<1e-9"
_TOL = float(_POLICY.partition("<")[2])


@dataclass(frozen=True)
class IdealId:
    kind: str
    t: DilationIndex | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParameter(f"unknown ideal {self.kind!r}")
        if (self.kind == "jt") != (self.t is not None):
            raise InvalidParameter("exactly the jt ideal carries a dilation step")

    @classmethod
    def cp(cls) -> "IdealId":
        return cls("cp")

    @classmethod
    def cph_g(cls) -> "IdealId":
        return cls("cph")

    @classmethod
    def i0(cls) -> "IdealId":
        return cls("i0")

    @classmethod
    def jt(cls, t: DilationIndex) -> "IdealId":
        return cls("jt", t)


def _require_m_only(x: Element):
    for lam, mu, t in x.terms:
        if not mu.is_zero() or not t.is_zero():
            raise NotInAmbient(
                "the function ideals live in the multiplication polynomials"
            )


def in_ideal(
    x: Element,
    ideal: IdealId,
    table: AtomTable = DEFAULT_TABLE,
    guard: float = DEFAULT_GUARD,
) -> bool:
    """Exact coefficient test for membership in the given ideal."""
    if ideal.kind == "cph":
        if not support_predicate(x, AlgebraId.APH_G_PLUS, table, guard):
            raise NotInAmbient("element leaves the triple semigroup algebra")
        # a term on one generator axis alone, or the constant, is never a commutator
        if any(sum(i.is_zero() for i in key) >= 2 for key in x.terms):
            return False
        # the multiplication and translation side sums vanish at every level
        return all(side_sums(x, a).is_zero() for a in (Axis.TRANSLATION, Axis.MULTIPLICATION))
    if ideal.kind == "jt" and index_sign(ideal.t, table, guard) <= 0:
        raise InvalidScale("the telescoping ideal needs a positive step")
    if not support_predicate(x, AlgebraId.AP, table, guard):
        raise NotInAmbient("element leaves the parabolic algebra")
    if ideal.kind == "cp":
        # both axis-zero fibers must vanish identically
        return all(
            not mu.is_zero() and not lam.is_zero() for lam, mu, _ in x.terms
        )
    # i0 and jt share the same membership conditions: vanishing at the
    # origin and at infinity (the telescoping lemma collapses jt to i0).
    _require_m_only(x)
    # on a multiplication polynomial the level-0 side sum is the value at
    # the origin and the zero-key coefficient the value at infinity
    return side_sums(x, Axis.TRANSLATION).is_zero() and x.coefficient(_ZERO_KEY).is_zero()


def quotient_defect(x: Element) -> Element:
    """The part of x outside both axis-zero fibers and the constants.

    Subtracting both fibers and restoring the constant coefficient
    always lands in the commutator ideal; this is the exact form of the
    quotient description of the parabolic algebra.
    """
    e0 = coeff_map(x, Axis.TRANSLATION, Frequency.zero())
    z0 = coeff_map(x, Axis.MULTIPLICATION, Frequency.zero())
    return x - e0 - z0 + Element.identity().scale(x.coefficient(_ZERO_KEY))


# ---------------------------------------------------------------- exact side


@dataclass(frozen=True)
class CommutatorCertificate:
    """f with [f, D_s] equal to the target, exactly."""

    f: Element
    s: Frequency
    target: Element


def commutator_certificate(lam: Frequency, s: Frequency) -> CommutatorCertificate:
    """Produce f with f D_s - D_s f = M_lam D_s in closed form.

    The multiplier is M_lam divided by 1 - e^{-i lam s}; the phase
    lam*s is a nonzero quadratic exponent whenever both inputs are
    nonzero, so the denominator never degenerates in the free model.
    """
    if lam.is_zero() or s.is_zero():
        raise DegeneratePhase("both frequencies must be nonzero")
    theta = PhaseExponent.product(lam, s)
    den = PhaseSum.one() + (-PhaseSum.phase(-theta))
    f = Element.m(lam).scale(Scalar(PhaseSum.one(), den))
    target = mul(Element.m(lam), Element.d(s))
    return CommutatorCertificate(f=f, s=s, target=target)


# -------------------------------------------------------------- numeric side


@dataclass(frozen=True)
class TelescopeCertificate:
    """Finite combination of dilation-difference generators.

    Each item (sign, kappa, mu) contributes sign * e^{i kappa x} *
    (e^{i mu x} - e^{i mu e^t x}); kappa None means multiplier one.
    The combination reproduces e^{i lam x} - e^{i x} within the
    numeric residual policy.
    """

    lam: float
    t: float
    items: tuple

    def expand(self) -> dict:
        """Frequency to coefficient map of the expanded combination."""
        out: dict = {}
        growth = math.exp(self.t)
        for sign, kappa, mu in self.items:
            base = 0.0 if kappa is None else kappa
            for freq, c in ((base + mu, sign), (base + mu * growth, -sign)):
                out[freq] = out.get(freq, 0.0) + c
        return out

    def target(self) -> dict:
        out: dict = {}
        for freq, c in ((self.lam, 1.0), (1.0, -1.0)):
            out[freq] = out.get(freq, 0.0) + c
        return out


Certificate = CommutatorCertificate | TelescopeCertificate


def _telescope_split(lam: float, t: float, growth: float) -> tuple[int, float]:
    """(n, rho) with lam = rho * e^{n t} and rho in [1, growth), growth = e^t."""
    n = math.floor(math.log(lam) / t)
    if abs(n) > _MAX_TELESCOPE:
        raise InvalidScale(f"step {t!r} needs {abs(n)} telescope steps, over {_MAX_TELESCOPE}")
    rho = lam * math.exp(-n * t)
    # guard the floor against rounding at the interval edge; the stepped
    # rho can round onto the opposite edge, so it is clamped into [1, e^t)
    if rho < 1.0:
        n -= 1
        rho = lam * math.exp(-n * t)
    elif rho >= growth:
        n += 1
        rho = lam * math.exp(-n * t)
    return n, min(max(rho, 1.0), math.nextafter(growth, 0.0))


def jt_reduce(lam: float, t: float) -> TelescopeCertificate:
    """Telescope e^{i lam x} - e^{i x} into step-t generators.

    Writes lam = rho * e^{n t} with rho in [1, e^t), crosses the base
    interval with one multiplied generator, then walks the remaining n
    dilation steps with bare generators.
    """
    if not (math.isfinite(lam) and math.isfinite(t)):
        raise InvalidScale("frequency and step must be finite")
    if lam <= 0 or t <= 0:
        raise InvalidScale("frequency and step must be positive")
    growth = _exp(t)
    if growth == 1.0:
        raise InvalidScale(f"step {t!r} is too small: e^t rounds to 1")
    n, rho = _telescope_split(lam, t, growth)
    items = []
    lam_base = (rho - 1.0) / (growth - 1.0)
    if lam_base > 0:
        items.append((-1, 1.0 - lam_base, lam_base))
    # n steps up are subtracted, -n steps down added back
    sign = -1 if n >= 0 else 1
    for k in range(min(n, 0), max(n, 0)):
        items.append((sign, None, rho * math.exp(k * t)))
    return TelescopeCertificate(lam=lam, t=t, items=tuple(items))


# ------------------------------------------------------------- verification


def _merge_tolerant(entries: list) -> float:
    """Largest cluster-sum modulus after merging frequencies within _TOL."""
    entries = sorted(entries)
    worst = 0.0
    i = 0
    while i < len(entries):
        j = i + 1
        freq, coeff = entries[i]
        while j < len(entries) and entries[j][0] - entries[j - 1][0] <= _TOL:
            coeff += entries[j][1]
            j += 1
        worst = max(worst, abs(coeff))
        i = j
    return worst


def certificate_residual(cert: Certificate) -> float:
    if isinstance(cert, CommutatorCertificate):
        d = Element.d(cert.s)
        achieved = mul(cert.f, d) - mul(d, cert.f)
        return 0.0 if achieved == cert.target else math.inf
    entries = [(f, c) for f, c in cert.expand().items()]
    entries += [(f, -c) for f, c in cert.target().items()]
    return _merge_tolerant(entries)


def verify_certificate(cert: Certificate) -> bool:
    """Re-expand the certificate and compare against its target."""
    return certificate_residual(cert) < _TOL


def certificate_dict(cert: Certificate) -> dict:
    """Serializable summary for the command line."""
    if isinstance(cert, CommutatorCertificate):
        return {
            "kind": "commutator",
            "multiplier": element_text(cert.f),
            "shift": freq_text(cert.s),
            "target": element_text(cert.target),
            "policy": "exact",
            "verified": verify_certificate(cert),
        }
    residual = certificate_residual(cert)
    return {
        "kind": "telescope",
        "lam": cert.lam,
        "t": cert.t,
        "items": [
            {"sign": s, "kappa": k, "mu": m} for s, k, m in cert.items
        ],
        "policy": _POLICY,
        "residual": residual,
        "verified": residual < _TOL,
    }

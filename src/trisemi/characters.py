"""Computable character families of the semigroup algebras.

Points of the almost periodic character disc are a Bohr character plus
an exponential decay rate, with one extra point at infinity reading off
the constant term.  Triple algebra characters come in five families
that kill two of the three generator axes in the classified patterns;
the surviving axis is evaluated through one point: an AP point on a
function axis, and on the dilation axis a disc point (integer dilation
group) or an AP point read as a half-plane point (real dilation group).
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import AlgebraId, Axis, Element, side_sums, support_predicate
from .config import GROUP_R, GROUP_Z
from .errors import (
    GroupModeError,
    InvalidParameter,
    NotInDomain,
    NumericOverflow,
    UntrustedCharacterWarning,
)
from .exactnum import (
    AtomTable,
    BohrCharacter,
    DilationIndex,
    Frequency,
    _dil_as_frequency,
    _frac,
    _ratio,
    DEFAULT_GUARD,
    DEFAULT_TABLE,
)

# ---------------------------------------------------------------- AP points


@dataclass(frozen=True)
class APPoint:
    """Point of the analytic almost periodic character space.

    A finite point pairs a Bohr character with a decay rate y >= 0 and
    sends e^{i lam x} to c(lam) e^{-lam y}; the infinity point reads
    off the constant coefficient.
    """

    at_infinity: bool
    char: BohrCharacter = field(default_factory=BohrCharacter.trivial)
    decay: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "decay", _frac(self.decay))
        if self.decay < 0:
            raise InvalidParameter("decay rate must be nonnegative")

    @classmethod
    def finite(cls, char: BohrCharacter | None = None, decay=0) -> "APPoint":
        return cls(False, char or BohrCharacter.trivial(), decay)

    @classmethod
    def infinity(cls) -> "APPoint":
        return cls(True)

    @classmethod
    def x1(cls) -> "APPoint":
        """Evaluation at the origin: trivial character, no decay."""
        return cls.finite()

    def value(self, index: Frequency | DilationIndex, table: AtomTable) -> complex:
        """The value at a frequency or, on the dilation axis, at a
        dilation index: its angles read UNIT as ONE, and its decay reads
        the dilation table."""
        num = index.numeric(table)
        if isinstance(index, DilationIndex):
            index = _dil_as_frequency(index)
        if self.at_infinity:
            return 1.0 if index.is_zero() else 0.0
        return self.char.value(index) * cmath.exp(-num * _ratio(*self.decay.as_integer_ratio()))

    def is_vanishing(self) -> bool:
        return self.at_infinity

    def describe(self) -> dict:
        if self.at_infinity:
            return {"kind": "infinity"}
        angles = {base: str(angle) for base, angle in self.char.angles}
        return {"kind": "finite", "decay": str(self.decay), "angles": angles}


# ----------------------------------------------------------- dilation points


@dataclass(frozen=True)
class DiscPoint:
    """Disc algebra point for the integer dilation semigroup."""

    w: complex

    def __post_init__(self):
        if not abs(self.w) <= 1 + 1e-12:
            raise InvalidParameter("disc point must have modulus at most 1")

    def value(self, t: DilationIndex, table: AtomTable | None = None) -> complex:
        n = t.integer_unit()
        if n is None:
            raise GroupModeError(
                f"dilation index {t!r} is not an integer; the disc point "
                "model needs the integer dilation group"
            )
        if n < 0:
            raise NotInDomain("negative dilation power")
        if n == 0:
            return 1.0
        try:
            return self.w**n
        except OverflowError:
            raise NumericOverflow("the disc point power leaves the double range") from None

    def is_vanishing(self) -> bool:
        return self.w == 0

    def describe(self) -> dict:
        return {"kind": "disc", "re": self.w.real, "im": self.w.imag}


def vanishing_point(group: str = GROUP_Z):
    """The dilation-side point that kills every V_t with t > 0."""
    if group == GROUP_Z:
        return DiscPoint(0j)
    if group == GROUP_R:
        return APPoint.infinity()
    raise GroupModeError(f"unknown group mode {group!r}")


# ------------------------------------------------------------- triple family

# per family: the axes whose index must vanish, and the axis its point reads
_FAMILIES = {
    "d1": ((Axis.TRANSLATION, Axis.DILATION), Axis.MULTIPLICATION),
    "d2": ((Axis.MULTIPLICATION, Axis.DILATION), Axis.TRANSLATION),
    "d3": ((Axis.TRANSLATION,), Axis.DILATION),
    "d4": ((Axis.MULTIPLICATION,), Axis.DILATION),
    "chi0": ((Axis.MULTIPLICATION, Axis.TRANSLATION), Axis.DILATION),
}


@dataclass(frozen=True)
class TripleCharacter:
    """One multiplicative functional from the classified families, read
    through one point on the axis its family keeps (``_FAMILIES``).

    d1 keeps the multiplication axis (an AP point) and kills the other
    two; d2 keeps the translation axis.  d3 and d4 send the kept axis
    to one identically and carry a dilation-side point; chi0 kills both
    function axes.  A chi0 point away from the vanishing point is
    untrusted: it is formally multiplicative on polynomials but its
    boundedness on the closed algebra is an open point, and every
    evaluation through it warns.
    """

    family: str
    point: APPoint | DiscPoint

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidParameter(f"unknown character family {self.family!r}")
        if isinstance(self.point, DiscPoint) and _FAMILIES[self.family][1] is not Axis.DILATION:
            raise InvalidParameter(f"a {self.family} character reads an AP point, not a disc point")

    @property
    def trusted(self) -> bool:
        return self.family != "chi0" or self.point.is_vanishing()

    @classmethod
    def d1(cls, p: APPoint) -> "TripleCharacter":
        return cls("d1", p)

    @classmethod
    def d2(cls, p: APPoint) -> "TripleCharacter":
        return cls("d2", p)

    @classmethod
    def d3(cls, v) -> "TripleCharacter":
        return cls("d3", v)

    @classmethod
    def d4(cls, v) -> "TripleCharacter":
        return cls("d4", v)

    @classmethod
    def chi0(cls, v) -> "TripleCharacter":
        return cls("chi0", v)

    @classmethod
    def chi_inf(cls, group: str = GROUP_Z) -> "TripleCharacter":
        """Constant term functional: the glue point of the two discs."""
        return cls.chi0(vanishing_point(group))

    def describe(self) -> dict:
        reads = _FAMILIES[self.family][1]
        point = self.point.describe()
        if reads is Axis.DILATION and isinstance(self.point, APPoint):
            point["kind"] = "half-plane-" + point["kind"]
        key = "dilation_point" if reads is Axis.DILATION else "point"
        return {"family": self.family, "trusted": self.trusted, key: point}


def eval_character(
    chi: TripleCharacter,
    x: Element,
    table: AtomTable = DEFAULT_TABLE,
    guard: float = DEFAULT_GUARD,
) -> complex:
    """Multiplicative-linear extension of the family rule to a polynomial."""
    if not support_predicate(x, AlgebraId.APH_G_PLUS, table, guard):
        raise NotInDomain("element leaves the triple semigroup algebra")
    if not chi.trusted:
        warnings.warn(
            "evaluating through an untrusted interior chi0 point",
            UntrustedCharacterWarning,
            stacklevel=2,
        )
    killed, reads = _FAMILIES[chi.family]
    total = 0.0 + 0.0j
    for key, coeff in x.sorted_terms():
        # the point sees every term, so a killed term still raises when
        # its index is outside the point's domain
        val = chi.point.value(reads.index(key), table)
        if val != 0 and all(axis.index(key).is_zero() for axis in killed):
            total += coeff.numeric(table) * val
    return total


# per composite side, the function axis whose index must vanish
_SIDES = {"m": Axis.TRANSLATION, "d": Axis.MULTIPLICATION}


def composite_eval(
    x: Element,
    side: str,
    t: DilationIndex | None = None,
    table: AtomTable = DEFAULT_TABLE,
) -> complex:
    """Origin evaluation of one function axis of the dilation fiber at t.

    The m side sums the coefficients of terms (lam, 0, t); the d side
    sums those of (0, mu, t).  At t = 0 these are exactly the d3 and d4
    characters through the vanishing point; at t > 0 they are honest
    linear functionals but fail multiplicativity (a single V_t already
    breaks it), so no character object is built for them.
    """
    killed = _SIDES.get(side)
    if killed is None:
        raise InvalidParameter("side must be 'm' or 'd'")
    t = t if t is not None else DilationIndex.zero()
    zero = Frequency.zero()
    return side_sums(x, killed).coefficient((zero, zero, t)).numeric(table)

"""Noncommutative polynomial algebra over the three semigroups.

An element is a finite sum of normal monomials coeff * M(lam) * D(mu) *
V(t), keyed by the frequency triple (lam, mu, t).  The generators are
one-term elements: modulations M(lam) (multiply by e^{i lam x}),
translations D(mu) (shift by mu), dilations V(t) (unitary scaling by e^t)
and scalars Sc(c).  A word is the product of its letters, and `mul`
rewrites each product of monomials into normal order with the exact
commutation phases.  Conjugation by a unitary u is `conjugate(x, u)`;
`conjugate(x, V(s))` is `AxisMap(dil=-s)(x)`, the dilation key map
(lam, mu, t) -> (e^-s lam, e^s mu, t) with the coefficients kept, and
needs no product.  `AxisMap` is every map that sends each generator
semigroup to a one-parameter semigroup on an axis, applied term by term
in one closed form, also without a product.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    AxisMismatch,
    EmptyElement,
    InvalidParameter,
    InvalidScale,
)
from .exactnum import (
    AtomTable,
    BohrCharacter,
    DEFAULT_GUARD,
    DEFAULT_TABLE,
    DilationIndex,
    Frequency,
    PhaseExponent,
    PhaseMonomial,
    Scalar,
    _merged,
    index_sign,
)
import math

Key = tuple[Frequency, Frequency, DilationIndex]


def as_frequency(x) -> Frequency:
    if isinstance(x, Frequency):
        return x
    return Frequency.rational(x)


def as_dilation(x) -> DilationIndex:
    if isinstance(x, DilationIndex):
        return x
    return DilationIndex.unit(x)


class Element:
    """Finite sum of normal monomials with exact scalar coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, Scalar] | Iterable[tuple] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.terms = _merged(items, Scalar.is_zero)

    @classmethod
    def _canonical(cls, terms: dict) -> "Element":
        """Trusted constructor for a dict with no zero coefficient."""
        obj = object.__new__(cls)
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    @classmethod
    def identity(cls) -> "Element":
        return cls.scalar(1)

    @classmethod
    def scalar(cls, z) -> "Element":
        return cls._monomial((Frequency.zero(), Frequency.zero(), DilationIndex.zero()), z)

    @classmethod
    def _monomial(cls, key: Key, coeff) -> "Element":
        c = Scalar.from_number(coeff)
        return cls() if c.is_zero() else cls._canonical({key: c})

    @classmethod
    def m(cls, freq, coeff=Scalar.one()) -> "Element":
        return cls._monomial((as_frequency(freq), Frequency.zero(), DilationIndex.zero()), coeff)

    @classmethod
    def d(cls, freq, coeff=Scalar.one()) -> "Element":
        return cls._monomial((Frequency.zero(), as_frequency(freq), DilationIndex.zero()), coeff)

    @classmethod
    def v(cls, index, coeff=Scalar.one()) -> "Element":
        return cls._monomial((Frequency.zero(), Frequency.zero(), as_dilation(index)), coeff)

    @classmethod
    def from_word(cls, word: Iterable) -> "Element":
        """The product of the letters, each an element; the empty word is
        the identity."""
        product = None
        for letter in word:
            if not isinstance(letter, Element):
                raise TypeError(f"not a word letter: {letter!r}")
            product = letter if product is None else mul(product, letter)
        return cls.identity() if product is None else product

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[Key, Scalar]]:
        return sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][0].key(), kv[0][1].key(), kv[0][2].key()),
        )

    def support(self) -> set[Key]:
        return set(self.terms)

    def coefficient(self, key: Key) -> Scalar:
        return self.terms.get(key, Scalar.zero())

    def __add__(self, other: "Element") -> "Element":
        if not self.terms:
            return other
        if not other.terms:
            return self
        merged = _merged(other.terms.items(), Scalar.is_zero, dict(self.terms))
        return Element._canonical(merged)

    def __neg__(self) -> "Element":
        return Element._canonical({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, z) -> "Element":
        c = Scalar.from_number(z)
        return Element({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "Element") -> "Element":
        return mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(c == other.terms[k] for k, c in self.terms.items())

    __hash__ = None

    def adjoint(self) -> "Element":
        return adjoint(self)

    def l1_norm(self, table: AtomTable = DEFAULT_TABLE) -> float:
        return sum(c.modulus(table) for c in self.terms.values())

    def __str__(self) -> str:
        from .exprs import element_text

        return element_text(self)

    def __repr__(self) -> str:
        return f"Element<{len(self.terms)} terms>"


def mul(x: Element, y: Element) -> Element:
    """Product in the algebra, one exact phase per monomial pair.

    y's column at each dilation level t1 of x (keys scaled by e^{+-t1},
    levels shifted by t1) is built once.  Two one-phase coefficients
    over denominator 1 multiply in one step, their two exponents and the
    pair's phase summed in one ``PhaseExponent.product``; any other pair
    is one ``Scalar.rotated_product`` call with the pair's phase as its
    rotation.  A product of nonzero scalars is nonzero, so terms merge
    only where two keys meet.
    """
    columns: dict[DilationIndex, list] = {}
    items = []
    for (lam1, mu1, t1), c1 in x.terms.items():
        column = columns.get(t1)
        if column is None:
            neg_t1 = -t1
            column = columns[t1] = [
                (lam2.scale_exp(t1), mu2.scale_exp(neg_t1), t1 + t2, c2, c2.single_phase())
                for (lam2, mu2, t2), c2 in y.terms.items()
            ]
        neg_mu1, one1 = -mu1, c1.single_phase()
        for lam2, mu2, t, c2, one2 in column:
            if one1 is None or one2 is None:
                c = c1.rotated_product(c2, PhaseExponent.product(lam2, neg_mu1))
            else:
                c = Scalar._term(
                    PhaseExponent.product(lam2, neg_mu1, one1[0], one2[0]), one1[1] * one2[1]
                )
            items.append(((lam1 + lam2, mu1 + mu2, t), c))
    terms = dict(items)
    return Element._canonical(terms) if len(terms) == len(items) else Element(items)


# the generator letters are their one-term elements
M, D, V, Sc = Element.m, Element.d, Element.v, Element.scalar


def adjoint(x: Element) -> Element:
    """Involution: reverse each monomial and conjugate its coefficient.

    (c M(lam) D(mu) V(t))* = conj(c) V(-t) D(-mu) M(-lam), whose normal
    form is conj(c) e^{i <e^-t (-lam), e^t mu>} M(-e^-t lam) D(-e^t mu) V(-t):
    the word rewritten in place, without building its letters.  A
    coefficient a e^{i pe} over denominator 1 becomes conj(a) e^{i (phase
    - pe)} in one step, the exponent built in one ``PhaseExponent.product``.
    The key map is injective, so nothing merges.
    """
    items = []
    for (lam, mu, t), c in x.terms.items():
        back = mu.scale_exp(t)
        mod = (-lam).scale_exp(-t)
        one = c.single_phase()
        if one is None:
            coeff = c.conj().rotate(PhaseExponent.product(mod, back))
        else:
            coeff = Scalar._term(PhaseExponent.product(mod, back, -one[0]), one[1].conj())
        items.append(((mod, -back, -t), coeff))
    return Element._canonical(dict(items))


def _dilated_terms(terms: Iterable[tuple], d: DilationIndex) -> list[tuple[Key, Scalar]]:
    """The (key, coefficient) items with every key (lam, mu, t) sent to
    (e^d lam, e^-d mu, t), in their order and with their coefficient
    objects: V(-d)* x V(-d) on the terms of x, the key part of a dilation
    automorphism.  The map is injective on keys, so nothing merges."""
    neg = -d
    return [((lam.scale_exp(d), mu.scale_exp(neg), t), c) for (lam, mu, t), c in terms]


def conjugate(x: Element, u: Element) -> Element:
    """u* x u: the conjugation of x by the unitary u.

    For u = V(s) every phase of the product is trivial, so the result is
    ``AxisMap(dil=-s)(x)``; any other u goes through ``mul``."""
    if len(u.terms) == 1:
        ((lam, mu, s), c), = u.terms.items()
        if lam.is_zero() and mu.is_zero() and c == Scalar.one():
            return AxisMap(dil=-s)(x)
    return mul(mul(adjoint(u), x), u)


def _parse_name(cls: type[Enum], names: Mapping, what: str, name):
    """A member of cls as given, or names[text] for the text stripped, in
    lower case and with _ for -; InvalidParameter names what on a miss."""
    if isinstance(name, cls):
        return name
    try:
        return names[str(name).strip().lower().replace("_", "-")]
    except KeyError:
        raise InvalidParameter(f"unknown {what} {name!r}") from None


class Axis(Enum):
    """Coefficient axis of the triple semi-crossed product: E reads
    translation fibers, Z modulation fibers, H dilation fibers.  Every
    grading argument of the engine names one of these."""

    TRANSLATION = "E"
    MULTIPLICATION = "Z"
    DILATION = "H"

    def __init__(self, letter: str):
        # position of the axis's component in a key (lam, mu, t) and the
        # type of its indices; plain attributes, since member lookups on
        # an Enum class are slow
        self.component = "ZEH".index(letter)
        self.index_type = DilationIndex if letter == "H" else Frequency

    @classmethod
    def parse(cls, name: "Axis | str") -> "Axis":
        """An axis, or its letter or grading name in any case."""
        return _parse_name(cls, _AXIS_NAMES, "grading", name)

    @property
    def grading(self) -> str:
        return self.name.lower()

    def index(self, key: Key):
        """The key's component on this axis: mu for E, lam for Z, t for H."""
        return key[self.component]

    def as_index(self, value):
        """value as an index of this axis, a dilation index on H and a
        frequency on E and Z; a number is read as a rational index."""
        return (as_dilation if self.index_type is DilationIndex else as_frequency)(value)

    def parse_index(self, text: str):
        from .exprs import parse_dilation, parse_frequency

        return (parse_dilation if self.index_type is DilationIndex else parse_frequency)(text)

    def index_text(self, index) -> str:
        from .exprs import dil_text, freq_text

        return (dil_text if self.index_type is DilationIndex else freq_text)(index)

    def generator(self, index) -> Element:
        """The grading unitary at index: D(s) on E, M(s) on Z, V(s) on H."""
        return (Element.m, Element.d, Element.v)[self.component](index)

    def strip(self, key: Key) -> Key:
        """The fiber key: this axis's factor removed, and the dilation
        factor with it."""
        lam, mu, _t = key
        if self.component == 0:
            lam = Frequency.zero()
        elif self.component == 1:
            mu = Frequency.zero()
        return (lam, mu, DilationIndex.zero())

    def check_support(self, x: Element) -> None:
        """E and Z read an element only without dilation support, so on
        the triple algebra the H coefficient comes first."""
        if self is not Axis.DILATION and any(not t.is_zero() for _, _, t in x.terms):
            raise AxisMismatch(
                f"the {self.grading} axis needs an element with no dilation "
                "support; take the H coefficient first"
            )


_AXIS_NAMES = {name: axis for axis in Axis for name in (axis.value.lower(), axis.grading)}


def coeff_map(x: Element, axis: Axis | str, index) -> Element:
    """Fourier coefficient along one axis.

    E with index s keeps terms with translation frequency s and strips the
    translation factor; Z does the same on the modulation side; H selects
    one dilation level and strips the dilation factor.  E and Z require an
    element without dilation support, so on the triple algebra H comes
    first.
    """
    axis = Axis.parse(axis)
    if not isinstance(index, axis.index_type):
        raise AxisMismatch(f"{axis.value} expects a {axis.index_type.__name__} index")
    axis.check_support(x)
    return Element((axis.strip(key), c) for key, c in x.terms.items() if axis.index(key) == index)


def first_coeff(
    x: Element, table: AtomTable, guard: float = DEFAULT_GUARD
) -> tuple[Frequency, Element]:
    """Smallest translation frequency in the support together with its
    fiber.  The frequencies are walked in canonical key order, and each
    comparison is one ``index_sign`` of a difference, so a difference
    within max(guard, rounding bound) of 0 raises IndeterminateSign."""
    if x.is_zero():
        raise EmptyElement("first coefficient of the zero element")
    freqs = sorted({mu for (_lam, mu, _t) in x.terms}, key=Frequency.key)
    best = freqs[0]
    for f in freqs[1:]:
        if index_sign(f - best, table, guard) < 0:
            best = f
    return best, coeff_map(x, Axis.TRANSLATION, best)


class AlgebraId(Enum):
    """Support classes recognized by the membership predicate."""

    BP = "bp"
    AP = "ap"
    BPH_G = "bph"
    APH_G_PLUS = "aph"
    APH_G_PLUS_ADJOINT = "aph-adj"

    @classmethod
    def parse(cls, name: "AlgebraId | str") -> "AlgebraId":
        """An algebra, its value, its member name in any case, or one of
        the run-together aliases."""
        return _parse_name(cls, _ALGEBRA_NAMES, "algebra", name)


_ALGEBRA_NAMES = {
    **{name: a for a in AlgebraId for name in (a.value, a.name.lower().replace("_", "-"))},
    "bphg": AlgebraId.BPH_G,
    "aphg": AlgebraId.APH_G_PLUS,
    "aphgplus": AlgebraId.APH_G_PLUS,
    "aphadj": AlgebraId.APH_G_PLUS_ADJOINT,
    "aphgplusadjoint": AlgebraId.APH_G_PLUS_ADJOINT,
}


# per algebra, the cone of each key component (lam, mu, t): 0 must vanish,
# +1 not negative, -1 not positive, None free
_CONES = {
    AlgebraId.BP: (None, None, 0),
    AlgebraId.AP: (1, 1, 0),
    AlgebraId.BPH_G: (None, None, None),
    AlgebraId.APH_G_PLUS: (1, 1, 1),
    AlgebraId.APH_G_PLUS_ADJOINT: (-1, -1, -1),
}


def support_predicate(
    x: Element,
    algebra: AlgebraId | str,
    table: AtomTable,
    guard: float = DEFAULT_GUARD,
) -> bool:
    """Whether every monomial of x sits in the stated support cone.

    A term's vanishing components are checked before any sign is decided.
    Signs are decided numerically behind the guard band; the exact zero
    counts as nonnegative and nonpositive.
    """
    cone = _CONES[AlgebraId.parse(algebra)]
    vanish = [i for i, s in enumerate(cone) if s == 0]
    signed = [(i, s) for i, s in enumerate(cone) if s]
    for key in x.terms:
        if any(not key[i].is_zero() for i in vanish) or any(
            index_sign(key[i], table, guard) * s < 0 for i, s in signed
        ):
            return False
    return True


def side_sums(x: Element, killed: Axis) -> Element:
    """The dilation side sums of x: at each level t, the sum s_t of the
    coefficients of the terms whose index on the killed axis is zero,
    returned exactly as sum_t s_t V(t)."""
    zero = Frequency.zero()
    return Element(
        ((zero, zero, key[2]), c) for key, c in x.terms.items() if killed.index(key).is_zero()
    )


@dataclass(frozen=True)
class AxisMap:
    """A map that sends each generator semigroup to a one-parameter
    semigroup on an axis, with exact coefficient twists.

    M(lam) goes to e^{i mod_char(lam)} M(m_scale e^dil lam), or, when
    ``swap``, to e^{i mod_char(lam)} D(m_scale e^-dil lam); D(mu) goes to
    the other function axis in the same way, with ``shift_char`` and
    ``d_scale``; V(t) goes to e^{i v_angle t} V(t), t read at its exact
    value over the table.  A term c M(lam)D(mu)V(t) goes to c times the
    product of its three images, in one closed form: the twist rotates c,
    the scales multiply lam and mu, a swap exchanges them and rotates c
    by -a b lam mu, since D(a lam)M(b mu) = e^{-i a b lam mu} M(b mu)D(a lam),
    and the dilation key map ``_dilated_terms`` by dil comes last.  The
    twist angles are exact rationals, so the map stays inside the exact
    layer.  The scales are nonzero rationals (a negative one reverses
    its axis), so the key map is injective and nothing merges.

    With no swap the map is multiplicative exactly when m_scale d_scale
    = 1; no swapped map is, since V would have to be reversed.  With no
    swap and unit scales, the twisted dilations, the map is conjugation
    by V(-dil) followed by the twists.  Only these maps compose and
    invert here.
    """

    dil: DilationIndex = DilationIndex.zero()
    mod_char: BohrCharacter = BohrCharacter.trivial()
    shift_char: BohrCharacter = BohrCharacter.trivial()
    v_angle: Fraction = Fraction(0)
    swap: bool = False
    m_scale: Fraction = Fraction(1)
    d_scale: Fraction = Fraction(1)

    def __post_init__(self):
        if not self.m_scale or not self.d_scale:
            raise InvalidParameter("the scales of an axis map must be nonzero")

    def __call__(self, x: Element, table: AtomTable = DEFAULT_TABLE) -> Element:
        twisted = self.mod_char.angles or self.shift_char.angles or self.v_angle
        m_scale, d_scale, swap = self.m_scale, self.d_scale, self.swap
        scaled = m_scale != 1 or d_scale != 1
        dil, items = self.dil, x.terms.items()
        if twisted or scaled or swap:
            mod, shift, theta = self.mod_char.angle, self.shift_char.angle, self.v_angle
            out = []
            for (lam, mu, t), c in items:
                if twisted:
                    angle = mod(lam) + shift(mu)
                    if theta and not t.is_zero():
                        angle += theta * t.exact_numeric(table)
                    c = c.rotate(PhaseExponent.rational(angle))
                if scaled:
                    lam, mu = lam.scale(m_scale), mu.scale(d_scale)
                if swap:
                    c = c.rotate(-PhaseExponent.product(lam, mu))
                    lam, mu = mu, lam
                out.append(((lam, mu, t), c))
            items = out
        if not dil.is_zero():
            items = _dilated_terms(items, dil)
        return Element._canonical(dict(items))

    def _dilation_only(self) -> None:
        if self.swap or self.m_scale != 1 or self.d_scale != 1:
            raise InvalidParameter("only maps with no swap and unit scales compose and invert")

    def compose(self, then: "AxisMap") -> "AxisMap":
        """The map x -> then(self(x)).  Characters are keyed by atom base,
        so the dilation of self leaves the angles of then unchanged and
        every parameter adds."""
        self._dilation_only()
        then._dilation_only()
        return AxisMap(
            dil=self.dil + then.dil,
            mod_char=BohrCharacter(self.mod_char.angles + then.mod_char.angles),
            shift_char=BohrCharacter(self.shift_char.angles + then.shift_char.angles),
            v_angle=self.v_angle + then.v_angle,
        )

    def inverse(self) -> "AxisMap":
        """The map b with self.compose(b) == b.compose(self) == AxisMap()."""
        self._dilation_only()
        return AxisMap(
            dil=-self.dil,
            mod_char=BohrCharacter((base, -q) for base, q in self.mod_char.angles),
            shift_char=BohrCharacter((base, -q) for base, q in self.shift_char.angles),
            v_angle=-self.v_angle,
        )


# the twisted dilation conjugations: the maps with no swap and unit scales
AutomorphismSpec = AxisMap


def apply_automorphism(x: Element, spec: AxisMap, table: AtomTable = DEFAULT_TABLE) -> Element:
    return spec(x, table)


@dataclass(frozen=True)
class FlipReport:
    """Outcome of the generator exchange contradiction check."""

    k1: float
    k2: float
    gap_at_1_1: Fraction
    gap_at_1_2: Fraction
    contradiction: bool


def check_flip_contradiction(k1: float, k2: float) -> FlipReport:
    """Show that M(lam) -> D(k1 lam), D(mu) -> M(k2 mu) cannot extend to a
    homomorphism for positive scales.

    The swapped map with those scales, a closed form with no product, is
    applied to both sides of D(mu)M(lam) = e^{-i lam mu} M(lam)D(mu).
    The ``mul`` product of the letters' images is M(k2 mu)D(k1 lam); the
    image of the normal form is
    e^{-i lam mu} D(k1 lam)M(k2 mu) = e^{-i lam mu (1 + k1 k2)} M(k2 mu)D(k1 lam).
    The gap is the exact phase between the two, lam mu (1 + k1 k2), read
    at (1, 1) and (1, 2); both are nonzero, since 1 + k1 k2 > 1.
    """
    for k in (k1, k2):
        kf = float(k)
        if not math.isfinite(kf) or kf <= 0.0:
            raise InvalidScale(f"scale {k!r} must be positive and finite")
    flip = AxisMap(swap=True, m_scale=Fraction(float(k1)), d_scale=Fraction(float(k2)))

    def gap(lam: int, mu: int) -> Fraction:
        m, d = M(lam), D(mu)
        (images,) = mul(flip(d), flip(m)).terms.values()  # the word, letter by letter
        (normal,) = flip(mul(d, m)).terms.values()  # its normal form
        phase = images.single_phase()[0] - normal.single_phase()[0]
        return phase.coefficient(PhaseMonomial.empty())

    gap11, gap12 = gap(1, 1), gap(1, 2)
    return FlipReport(float(k1), float(k2), gap11, gap12, gap11 != 0 or gap12 != 0)


class CompressionMode(Enum):
    TRANSLATION = "translation"
    DILATION_IN = "dilation-in"
    DILATION_OUT = "dilation-out"

    @classmethod
    def parse(cls, name: "CompressionMode | str") -> "CompressionMode":
        return _parse_name(cls, _MODE_NAMES, "compression mode", name)


_MODE_NAMES = {mode.value: mode for mode in CompressionMode}
# per mode, the axis and step sign of the unitary u in u* x u: translation
# is D(n) x D(-n), dilation-in V(-n) x V(n) and dilation-out V(n) x V(-n)
_COMPRESSIONS = {
    CompressionMode.TRANSLATION: (Axis.TRANSLATION, -1),
    CompressionMode.DILATION_IN: (Axis.DILATION, 1),
    CompressionMode.DILATION_OUT: (Axis.DILATION, -1),
}


def compress(x: Element, mode: CompressionMode | str, n: int) -> Element:
    """Unitary conjugation used in the weak limit demonstrations."""
    axis, sign = _COMPRESSIONS[CompressionMode.parse(mode)]
    return conjugate(x, axis.generator(sign * n))


def compression_steps(x: Element, mode: CompressionMode | str, schedule) -> list[list[tuple]]:
    """The terms of compress(x, mode, n) for each integer n of the schedule.

    In a dilation mode u = V(sign n) and u* x u is the key map of
    ``_dilated_terms`` by -sign n on x's sorted terms, so every list has
    x's order and x's coefficient objects, and no step builds an element
    or sorts.  Translation goes through ``compress``, one sorted element
    per step: the split that ``conjugate`` makes.
    """
    axis, sign = _COMPRESSIONS[CompressionMode.parse(mode)]
    if axis is Axis.DILATION:
        terms = x.sorted_terms()
        return [_dilated_terms(terms, DilationIndex.unit(-sign * n)) for n in schedule]
    return [compress(x, mode, n).sorted_terms() for n in schedule]

"""Exact arithmetic for frequencies and phase scalars.

A frequency is a rational combination of atoms.  An atom is a declared
positive real symbol scaled by e raised to a dilation index, and a dilation
index is a rational combination of dilation symbols (the reserved symbol
UNIT has value 1).  Equality is decided in the free model: distinct atoms
are treated as rationally independent, and numeric values enter only
through sign queries (guarded) and explicit numeric conversion.

Scalars live in the fraction field of the phase ring: finite sums of
unimodular phases e^{i*theta} with Gaussian rational amplitudes, where the
phase exponent theta is a rational combination of atom monomials of degree
at most two.  Products of two frequencies land in that exponent module,
which is what makes the canonical commutation phases exact.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import combinations
from operator import itemgetter, not_

from .errors import (
    AtomCollisionWarning,
    DivisionByZero,
    IndeterminateSign,
    NotFound,
    NumericOverflow,
)

ONE_ATOM = "ONE"
UNIT_SYMBOL = "UNIT"
DEFAULT_GUARD = 1e-9

_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    """Exact conversion to Fraction.  Floats convert by their exact binary
    value, so a double never loses information here."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _merged(items: Iterable[tuple]) -> dict:
    acc: dict = {}
    for key, q in items:
        prev = acc.get(key)
        total = q if prev is None else prev + q
        if total:
            acc[key] = total
        elif prev is not None:
            del acc[key]
    return acc


def _merge_sorted(xs: tuple, ys: tuple, key, is_zero) -> tuple:
    """Sum of two canonical item tuples in one pass.

    Both inputs are sorted by ``key`` with no repeated and no zero
    entries, and so is the result: the merge step of merge sort, with
    entries of equal key added and dropped when they cancel.
    """
    out = []
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        x, y = xs[i], ys[j]
        kx, ky = key(x), key(y)
        if kx == ky:
            total = x[1] + y[1]
            if not is_zero(total):
                out.append((x[0], total))
            i += 1
            j += 1
        elif kx < ky:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    out.extend(xs[i:])
    out.extend(ys[j:])
    return tuple(out)


# Sort keys of (key, coefficient) items in canonical order.
_SYM_ORDER = itemgetter(0)


def _key_order(kv):
    return kv[0]._key


def _exp_order(kv):
    return kv[0].key()


class DilationIndex:
    """Exact rational combination of dilation symbols.

    With only integer multiples of UNIT present the dilation group is the
    integers; otherwise it is a dense subgroup of the reals.
    """

    __slots__ = ("pairs", "_hash")

    def __init__(self, pairs: Mapping[str, object] | Iterable[tuple] = ()):
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        acc = _merged((sym, _frac(q)) for sym, q in items)
        self.pairs = tuple(sorted(acc.items(), key=_SYM_ORDER))
        self._hash = None

    @classmethod
    def _canonical(cls, pairs: tuple) -> "DilationIndex":
        """Trusted constructor for pairs that are already merged, sorted
        and free of zero coefficients."""
        obj = object.__new__(cls)
        obj.pairs = pairs
        obj._hash = None
        return obj

    @classmethod
    def zero(cls) -> "DilationIndex":
        return _DIL_ZERO

    @classmethod
    def unit(cls, q=1) -> "DilationIndex":
        return cls(((UNIT_SYMBOL, q),))

    @classmethod
    def single(cls, sym: str, q=1) -> "DilationIndex":
        return cls(((sym, q),))

    def is_zero(self) -> bool:
        return not self.pairs

    def __add__(self, other: "DilationIndex") -> "DilationIndex":
        if not self.pairs:
            return other
        if not other.pairs:
            return self
        return DilationIndex._canonical(_merge_sorted(self.pairs, other.pairs, _SYM_ORDER, not_))

    def __neg__(self) -> "DilationIndex":
        return DilationIndex._canonical(tuple((s, -q) for s, q in self.pairs))

    def __sub__(self, other: "DilationIndex") -> "DilationIndex":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return isinstance(other, DilationIndex) and self.pairs == other.pairs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.pairs)
        return self._hash

    def key(self):
        return self.pairs

    def unit_only(self) -> bool:
        return all(sym == UNIT_SYMBOL for sym, _ in self.pairs)

    def integer_unit(self) -> int | None:
        """The index as a plain integer, or None when symbols intrude."""
        if not self.pairs:
            return 0
        if len(self.pairs) == 1:
            sym, q = self.pairs[0]
            if sym == UNIT_SYMBOL and q.denominator == 1:
                return int(q)
        return None

    def numeric(self, table: "AtomTable") -> float:
        return float(self.exact_numeric(table))

    def exact_numeric(self, table: "AtomTable") -> Fraction:
        # Dilation symbol values are doubles, hence exact rationals.
        total = _ZERO
        for sym, q in self.pairs:
            total += q * _frac(table.dilation_value(sym))
        return total

    def __repr__(self) -> str:
        if not self.pairs:
            return "DilationIndex(0)"
        body = " + ".join(f"{q}*{s}" for s, q in self.pairs)
        return f"DilationIndex({body})"


_DIL_ZERO = DilationIndex()


class FrequencyAtom:
    """One basis direction of the frequency module: a named positive real
    scaled by e^(dilation index)."""

    __slots__ = ("base", "exp", "_key", "_hash")

    def __init__(self, base: str, exp: DilationIndex | None = None):
        self.base = base
        self.exp = _DIL_ZERO if exp is None else exp
        self._key = (base, self.exp.pairs)
        self._hash = None

    @classmethod
    def one(cls) -> "FrequencyAtom":
        return cls(ONE_ATOM)

    def scaled(self, t: DilationIndex) -> "FrequencyAtom":
        if t.is_zero():
            return self
        return FrequencyAtom(self.base, self.exp + t)

    def key(self):
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, FrequencyAtom) and self._key == other._key

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key)
        return self._hash

    def numeric(self, table: "AtomTable") -> float:
        v = table.atom_value(self.base)
        if self.exp.is_zero():
            return v
        return v * math.exp(self.exp.numeric(table))

    def __repr__(self) -> str:
        if self.exp.is_zero():
            return f"FrequencyAtom({self.base})"
        return f"FrequencyAtom({self.base}@{self.exp!r})"


class Frequency:
    """Exact rational combination of frequency atoms."""

    __slots__ = ("pairs", "_hash")

    def __init__(self, pairs: Mapping[FrequencyAtom, object] | Iterable[tuple] = ()):
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        acc = _merged((atom, _frac(q)) for atom, q in items)
        self.pairs = tuple(sorted(acc.items(), key=_key_order))
        self._hash = None

    @classmethod
    def _canonical(cls, pairs: tuple) -> "Frequency":
        """Trusted constructor for pairs that are already merged, sorted
        and free of zero coefficients."""
        obj = object.__new__(cls)
        obj.pairs = pairs
        obj._hash = None
        return obj

    @classmethod
    def zero(cls) -> "Frequency":
        return _FREQ_ZERO

    @classmethod
    def atom(cls, base: str, coeff=1, exp: DilationIndex | None = None) -> "Frequency":
        return cls(((FrequencyAtom(base, exp), coeff),))

    @classmethod
    def rational(cls, q) -> "Frequency":
        """A rational multiple of the unit atom ONE."""
        return cls(((FrequencyAtom(ONE_ATOM), q),))

    def is_zero(self) -> bool:
        return not self.pairs

    def __add__(self, other: "Frequency") -> "Frequency":
        if not self.pairs:
            return other
        if not other.pairs:
            return self
        return Frequency._canonical(_merge_sorted(self.pairs, other.pairs, _key_order, not_))

    def __neg__(self) -> "Frequency":
        return Frequency._canonical(tuple((a, -q) for a, q in self.pairs))

    def __sub__(self, other: "Frequency") -> "Frequency":
        return self + (-other)

    def scale(self, q) -> "Frequency":
        q = _frac(q)
        if not q:
            return _FREQ_ZERO
        return Frequency._canonical(tuple((a, c * q) for a, c in self.pairs))

    def scale_exp(self, t: DilationIndex) -> "Frequency":
        """Multiply by e^t, realized exactly as an exponent shift on atoms."""
        if t.is_zero():
            return self
        # The shift maps distinct atoms to distinct atoms, but it can
        # change their order.
        scaled = [(a.scaled(t), q) for a, q in self.pairs]
        if len(scaled) > 1:
            scaled.sort(key=_key_order)
        return Frequency._canonical(tuple(scaled))

    def __eq__(self, other) -> bool:
        return isinstance(other, Frequency) and self.pairs == other.pairs

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.pairs)
        return self._hash

    def key(self):
        return tuple((a.key(), q) for a, q in self.pairs)

    def numeric(self, table: "AtomTable") -> float:
        return sum(float(q) * a.numeric(table) for a, q in self.pairs)

    def exact_numeric(self, table: "AtomTable") -> Fraction | None:
        """Exact rational value, or None when an atom carries a nonzero
        exponent (e^t is not rational for rational t != 0)."""
        total = _ZERO
        for a, q in self.pairs:
            if not a.exp.is_zero():
                return None
            total += q * _frac(table.atom_value(a.base))
        return total

    def coefficient(self, atom: FrequencyAtom) -> Fraction:
        for a, q in self.pairs:
            if a == atom:
                return q
        return _ZERO

    def __repr__(self) -> str:
        if not self.pairs:
            return "Frequency(0)"
        body = " + ".join(f"{q}*{a!r}" for a, q in self.pairs)
        return f"Frequency({body})"


_FREQ_ZERO = Frequency()


def _dil_as_frequency(t: DilationIndex) -> Frequency:
    """The linear embedding of dilation indices into frequencies (UNIT to
    the atom ONE, any other symbol to the atom of that name), so dilation
    indices share the code written for frequencies."""
    pairs = []
    for sym, q in t.pairs:
        if sym == UNIT_SYMBOL:
            pairs.append((FrequencyAtom.one(), q))
        else:
            pairs.append((FrequencyAtom(sym), q))
    return Frequency(pairs)


class PhaseMonomial:
    """Multiplicative monomial of at most two atom bases times e^(exp).

    Bases equal to ONE are absorbed (their value is 1) and exponents of the
    two factors are pooled, so numerically equal products of exponent
    shifted atoms share one canonical key.  The empty monomial with zero
    exponent has value 1 and carries the plain rational part of a phase.
    """

    __slots__ = ("bases", "exp", "_key", "_hash")

    def __init__(self, bases: tuple[str, ...] = (), exp: DilationIndex | None = None):
        if len(bases) > 2:
            raise ValueError("phase monomial degree above two")
        self.bases = tuple(sorted(bases))
        self.exp = _DIL_ZERO if exp is None else exp
        self._key = (self.bases, self.exp.pairs)
        self._hash = None

    @classmethod
    def empty(cls) -> "PhaseMonomial":
        return _MONO_EMPTY

    @classmethod
    def from_atom(cls, a: FrequencyAtom) -> "PhaseMonomial":
        bases = () if a.base == ONE_ATOM else (a.base,)
        return cls(bases, a.exp)

    @classmethod
    def product(cls, a: FrequencyAtom, b: FrequencyAtom) -> "PhaseMonomial":
        x, y = a.base, b.base
        if x == ONE_ATOM:
            bases = () if y == ONE_ATOM else (y,)
        elif y == ONE_ATOM:
            bases = (x,)
        else:
            bases = (x, y) if x <= y else (y, x)
        return cls._canonical(bases, a.exp + b.exp)

    @classmethod
    def _canonical(cls, bases: tuple[str, ...], exp: DilationIndex) -> "PhaseMonomial":
        """Trusted constructor for bases that are already sorted, free of
        ONE and at most two long."""
        obj = object.__new__(cls)
        obj.bases = bases
        obj.exp = exp
        obj._key = (bases, exp.pairs)
        obj._hash = None
        return obj

    def key(self):
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, PhaseMonomial) and self._key == other._key

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key)
        return self._hash

    def numeric(self, table: "AtomTable") -> float:
        v = 1.0
        for b in self.bases:
            v *= table.atom_value(b)
        if not self.exp.is_zero():
            v *= math.exp(self.exp.numeric(table))
        return v

    def __repr__(self) -> str:
        return f"PhaseMonomial({self.bases}, {self.exp!r})"


_MONO_EMPTY = PhaseMonomial()


class PhaseExponent:
    """Rational combination of phase monomials, the additive group of
    admissible phase angles."""

    __slots__ = ("terms", "_key", "_hash")

    def __init__(self, terms: Mapping[PhaseMonomial, object] | Iterable[tuple] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc = _merged((m, _frac(q)) for m, q in items)
        self.terms = tuple(sorted(acc.items(), key=_key_order))
        self._key = None
        self._hash = None

    @classmethod
    def _canonical(cls, terms: tuple) -> "PhaseExponent":
        """Trusted constructor for terms that are already merged, sorted
        and free of zero coefficients."""
        obj = object.__new__(cls)
        obj.terms = terms
        obj._key = None
        obj._hash = None
        return obj

    @classmethod
    def zero(cls) -> "PhaseExponent":
        return _EXP_ZERO

    @classmethod
    def rational(cls, q) -> "PhaseExponent":
        return cls(((_MONO_EMPTY, q),))

    @classmethod
    def product(cls, f: Frequency, g: Frequency) -> "PhaseExponent":
        """The bilinear pairing of two frequencies, exponent of the
        commutation phase."""
        if len(f.pairs) == 1 and len(g.pairs) == 1:
            (a, qa), (b, qb) = f.pairs[0], g.pairs[0]
            return cls._canonical(((PhaseMonomial.product(a, b), qa * qb),))
        pairs = []
        for a, qa in f.pairs:
            for b, qb in g.pairs:
                pairs.append((PhaseMonomial.product(a, b), qa * qb))
        return cls(pairs)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PhaseExponent") -> "PhaseExponent":
        if not self.terms:
            return other
        if not other.terms:
            return self
        return PhaseExponent._canonical(_merge_sorted(self.terms, other.terms, _key_order, not_))

    def __neg__(self) -> "PhaseExponent":
        return PhaseExponent._canonical(tuple((m, -q) for m, q in self.terms))

    def __sub__(self, other: "PhaseExponent") -> "PhaseExponent":
        return self + (-other)

    def __eq__(self, other) -> bool:
        return isinstance(other, PhaseExponent) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def key(self):
        if self._key is None:
            self._key = tuple((m._key, q) for m, q in self.terms)
        return self._key

    def leading_sign(self) -> int:
        """Sign of the coefficient at the smallest monomial, a group
        compatible linear order on exponents."""
        if not self.terms:
            return 0
        q = self.terms[0][1]
        return 1 if q > 0 else -1

    def numeric(self, table: "AtomTable") -> float:
        return sum(float(q) * m.numeric(table) for m, q in self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "PhaseExponent(0)"
        body = " + ".join(f"{q}*{m!r}" for m, q in self.terms)
        return f"PhaseExponent({body})"


_EXP_ZERO = PhaseExponent()


class QI:
    """Gaussian rational re + im*i.

    Stored as integers (a + b*i)/d in lowest terms (d > 0 and
    gcd(a, b, d) = 1), so amplitude arithmetic is integer arithmetic;
    ``re`` and ``im`` read back as Fractions.
    """

    __slots__ = ("_a", "_b", "_d", "_hash")

    def __init__(self, re=0, im=0):
        re, im = _frac(re), _frac(im)
        d = math.lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d
        self._hash = None

    @classmethod
    def _canonical(cls, a: int, b: int, d: int) -> "QI":
        """Trusted constructor for (a + b*i)/d already in lowest terms."""
        obj = object.__new__(cls)
        obj._a = a
        obj._b = b
        obj._d = d
        obj._hash = None
        return obj

    @classmethod
    def _reduced(cls, a: int, b: int, d: int) -> "QI":
        """(a + b*i)/d for d > 0, brought to lowest terms."""
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
        return cls._canonical(a, b, d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QI)
            and self._a == other._a
            and self._b == other._b
            and self._d == other._d
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._a, self._b, self._d))
        return self._hash

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __add__(self, other: "QI") -> "QI":
        d1, d2 = self._d, other._d
        if d1 == d2:
            return QI._reduced(self._a + other._a, self._b + other._b, d1)
        return QI._reduced(
            self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2
        )

    def __neg__(self) -> "QI":
        return QI._canonical(-self._a, -self._b, self._d)

    def __sub__(self, other: "QI") -> "QI":
        return self + (-other)

    def __mul__(self, other: "QI") -> "QI":
        a, b, c, e = self._a, self._b, other._a, other._b
        return QI._reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    def conj(self) -> "QI":
        return QI._canonical(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def inverse(self) -> "QI":
        n = self._a * self._a + self._b * self._b
        if not n:
            raise DivisionByZero("inverse of zero amplitude")
        return QI._reduced(self._d * self._a, -self._d * self._b, n)

    def to_complex(self) -> complex:
        return complex(self._a / self._d) + 1j * complex(self._b / self._d)

    def __repr__(self) -> str:
        return f"QI({self.re}, {self.im})"


QI_ZERO = QI()
QI_ONE = QI(1)


class PhaseSum:
    """Finite sum of Gaussian rational amplitudes times unimodular phases,
    the exact coefficient ring."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[PhaseExponent, QI] | Iterable[tuple] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[PhaseExponent, QI] = {}
        for pe, amp in items:
            prev = acc.get(pe)
            total = amp if prev is None else prev + amp
            if total.is_zero():
                acc.pop(pe, None)
            else:
                acc[pe] = total
        self.terms = tuple(sorted(acc.items(), key=_exp_order))
        self._hash = None

    @classmethod
    def _canonical(cls, terms: tuple) -> "PhaseSum":
        """Trusted constructor for terms that are already merged, sorted
        and free of zero amplitudes."""
        obj = object.__new__(cls)
        obj.terms = terms
        obj._hash = None
        return obj

    @classmethod
    def _distinct(cls, terms: list) -> "PhaseSum":
        """Constructor for terms with pairwise distinct exponents and
        nonzero amplitudes that may be out of order."""
        if len(terms) > 1:
            terms.sort(key=_exp_order)
        return cls._canonical(tuple(terms))

    @classmethod
    def zero(cls) -> "PhaseSum":
        return _PS_ZERO

    @classmethod
    def one(cls) -> "PhaseSum":
        return _PS_ONE

    @classmethod
    def rational(cls, q) -> "PhaseSum":
        return cls(((_EXP_ZERO, QI(q)),))

    @classmethod
    def gaussian(cls, amp: QI) -> "PhaseSum":
        return cls(((_EXP_ZERO, amp),))

    @classmethod
    def phase(cls, pe: PhaseExponent) -> "PhaseSum":
        return cls(((pe, QI_ONE),))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PhaseSum") -> "PhaseSum":
        if not self.terms:
            return other
        if not other.terms:
            return self
        return PhaseSum._canonical(_merge_sorted(self.terms, other.terms, _exp_order, QI.is_zero))

    def __neg__(self) -> "PhaseSum":
        return PhaseSum._canonical(tuple((pe, -amp) for pe, amp in self.terms))

    def __sub__(self, other: "PhaseSum") -> "PhaseSum":
        return self + (-other)

    def __mul__(self, other: "PhaseSum") -> "PhaseSum":
        out = [
            (pe1 + pe2, a1 * a2) for pe1, a1 in self.terms for pe2, a2 in other.terms
        ]
        if len(self.terms) == 1 or len(other.terms) == 1:
            # One factor is a single phase: the exponents stay distinct and
            # the amplitudes nonzero, so only the order can change.
            return PhaseSum._distinct(out)
        return PhaseSum(out)

    def scale(self, amp: QI) -> "PhaseSum":
        if amp.is_zero():
            return _PS_ZERO
        return PhaseSum._canonical(tuple((pe, a * amp) for pe, a in self.terms))

    def shift(self, pe: PhaseExponent) -> "PhaseSum":
        """Multiply by the unimodular phase e^{i*pe}."""
        if pe.is_zero():
            return self
        return PhaseSum._distinct([(p + pe, a) for p, a in self.terms])

    def conj(self) -> "PhaseSum":
        return PhaseSum._distinct([(-pe, a.conj()) for pe, a in self.terms])

    def __eq__(self, other) -> bool:
        return isinstance(other, PhaseSum) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def least_term(self) -> tuple[PhaseExponent, QI]:
        """Term at the smallest exponent in the group linear order."""
        best = self.terms[0]
        for cand in self.terms[1:]:
            if (cand[0] - best[0]).leading_sign() < 0:
                best = cand
        return best

    def numeric(self, table: "AtomTable") -> complex:
        total = 0j
        for pe, amp in self.terms:
            total += amp.to_complex() * cmath.exp(1j * pe.numeric(table))
        return total

    def __repr__(self) -> str:
        return f"PhaseSum({list(self.terms)!r})"


_PS_ZERO = PhaseSum()
_PS_ONE = PhaseSum.rational(1)


class Scalar:
    """Element of the fraction field over the phase ring.

    Canonical form: the denominator's least term (group linear order on
    exponents) is exactly 1, and one term denominators are divided out, so
    generic coefficients keep denominator 1.  Equality is decided by cross
    multiplication; Scalar is deliberately unhashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: PhaseSum, den: PhaseSum | None = None):
        den = _PS_ONE if den is None else den
        if den.is_zero():
            raise DivisionByZero("scalar with zero denominator")
        if num.is_zero():
            self.num, self.den = _PS_ZERO, _PS_ONE
            return
        if den is _PS_ONE or den == _PS_ONE:
            self.num, self.den = num, _PS_ONE
            return
        if len(den.terms) == 1:
            pe, amp = den.terms[0]
            self.num = num.shift(-pe).scale(amp.inverse())
            self.den = _PS_ONE
            return
        pe, amp = den.least_term()
        inv = amp.inverse()
        self.num = num.shift(-pe).scale(inv)
        self.den = den.shift(-pe).scale(inv)

    @classmethod
    def _canonical(cls, num: PhaseSum, den: PhaseSum) -> "Scalar":
        """Trusted constructor: ``den`` is already in canonical form, and
        is ``_PS_ONE`` itself for denominator 1 and for a zero ``num``."""
        obj = object.__new__(cls)
        obj.num = num
        obj.den = den
        return obj

    @classmethod
    def zero(cls) -> "Scalar":
        return _SC_ZERO

    @classmethod
    def one(cls) -> "Scalar":
        return _SC_ONE

    @classmethod
    def from_rational(cls, q) -> "Scalar":
        return cls(PhaseSum.rational(q))

    @classmethod
    def gaussian(cls, re, im) -> "Scalar":
        return cls(PhaseSum.gaussian(QI(re, im)))

    @classmethod
    def phase(cls, pe: PhaseExponent) -> "Scalar":
        return cls(PhaseSum.phase(pe))

    @classmethod
    def rational_angle(cls, q) -> "Scalar":
        """The unimodular phase e^{i*q} for an exact rational angle q."""
        return cls(PhaseSum.phase(PhaseExponent.rational(q)))

    @classmethod
    def from_number(cls, z) -> "Scalar":
        if isinstance(z, Scalar):
            return z
        if isinstance(z, QI):
            return cls(PhaseSum.gaussian(z))
        if isinstance(z, complex):
            return cls.gaussian(z.real, z.imag)
        return cls.from_rational(z)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.den is _PS_ONE and other.den is _PS_ONE:
            return Scalar._canonical(self.num + other.num, _PS_ONE)
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "Scalar":
        return Scalar._canonical(-self.num, self.den)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if self.den is _PS_ONE and other.den is _PS_ONE:
            return Scalar._canonical(self.num * other.num, _PS_ONE)
        return Scalar(self.num * other.num, self.den * other.den)

    def rotate(self, pe: PhaseExponent) -> "Scalar":
        """This scalar times the unimodular phase e^{i*pe}.

        Only the numerator's exponents move; the denominator, and with it
        the canonical form, is unchanged.
        """
        if pe.is_zero():
            return self
        return Scalar._canonical(self.num.shift(pe), self.den)

    def inverse(self) -> "Scalar":
        if self.num.is_zero():
            raise DivisionByZero("inverse of zero scalar")
        return Scalar(self.den, self.num)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def conj(self) -> "Scalar":
        if self.den is _PS_ONE:
            return Scalar._canonical(self.num.conj(), _PS_ONE)
        return Scalar(self.num.conj(), self.den.conj())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.den is _PS_ONE and other.den is _PS_ONE:
            return self.num == other.num
        if self.num == other.num and self.den == other.den:
            return True
        return self.num * other.den == other.num * self.den

    __hash__ = None  # equality is by cross multiplication

    def single_phase(self) -> tuple[PhaseExponent, QI] | None:
        """The (exponent, amplitude) pair when this scalar is one phase
        term over denominator 1, else None."""
        if self.den is _PS_ONE or self.den == _PS_ONE:
            if len(self.num.terms) == 1:
                return self.num.terms[0]
        return None

    def numeric(self, table: "AtomTable") -> complex:
        num = self.num.numeric(table)
        if self.den is _PS_ONE:
            return num
        den = self.den.numeric(table)
        if abs(den) < 1e-300:
            raise NumericOverflow("denominator numerically vanishes")
        return num / den

    def modulus(self, table: "AtomTable | None" = None) -> float:
        single = self.single_phase()
        if single is not None:
            return math.sqrt(single[1].abs2())
        if table is None:
            raise ValueError("atom table required for a non single phase modulus")
        return abs(self.numeric(table))

    def __repr__(self) -> str:
        if self.den is _PS_ONE:
            return f"Scalar({self.num!r})"
        return f"Scalar({self.num!r} / {self.den!r})"


_SC_ZERO = Scalar(_PS_ZERO)
_SC_ONE = Scalar(_PS_ONE)


class AtomTable:
    """Declared numeric values for atom bases and dilation symbols.

    Values are strictly positive finite doubles.  ONE and UNIT are always
    present with value 1.  On construction, pairs of atom values whose
    ratio sits within 1e-9 of a rational with denominator at most 100 get
    a collision warning; the free model treats them as independent anyway.
    """

    __slots__ = ("atoms", "dilation")

    def __init__(
        self,
        atoms: Mapping[str, float] | None = None,
        dilation: Mapping[str, float] | None = None,
    ):
        self.atoms = {ONE_ATOM: 1.0}
        self.dilation = {UNIT_SYMBOL: 1.0}
        for name, value in (atoms or {}).items():
            self._check_value(name, value)
            self.atoms[name] = float(value)
        for name, value in (dilation or {}).items():
            self._check_value(name, value)
            self.dilation[name] = float(value)
        if self.atoms[ONE_ATOM] != 1.0 or self.dilation[UNIT_SYMBOL] != 1.0:
            raise ValueError("ONE and UNIT are reserved with value 1")
        self._warn_collisions()

    @staticmethod
    def _check_value(name: str, value) -> None:
        v = float(value)
        if not math.isfinite(v) or v <= 0.0:
            raise ValueError(f"atom {name!r} must have a positive finite value")

    def _warn_collisions(self) -> None:
        for (n1, v1), (n2, v2) in combinations(sorted(self.atoms.items()), 2):
            ratio = v1 / v2
            near = Fraction(ratio).limit_denominator(100)
            if near != 0 and abs(ratio - float(near)) < 1e-9:
                warnings.warn(
                    f"atom values {n1} and {n2} have nearly rational ratio {near}",
                    AtomCollisionWarning,
                    stacklevel=3,
                )

    @classmethod
    def default(cls) -> "AtomTable":
        return cls()

    def atom_value(self, name: str) -> float:
        try:
            return self.atoms[name]
        except KeyError:
            raise NotFound(f"atom {name!r} is not declared") from None

    def dilation_value(self, sym: str) -> float:
        try:
            return self.dilation[sym]
        except KeyError:
            raise NotFound(f"dilation symbol {sym!r} is not declared") from None


class BohrCharacter:
    """Unimodular character on frequencies, realized by exact rational
    angle assignments on atom base symbols extended linearly over the
    rationals.

    Angles are keyed by base symbol only, so e^t-scaled copies of an
    atom get the same angle: the character commutes with the dilation
    action, which is what lets the twisted conjugations stay
    multiplicative on the full triple algebra.
    """

    __slots__ = ("angles",)

    def __init__(self, angles: Mapping | Iterable[tuple] = ()):
        items = angles.items() if isinstance(angles, Mapping) else angles
        acc = _merged(
            (key.base if isinstance(key, FrequencyAtom) else str(key), _frac(q))
            for key, q in items
        )
        self.angles = tuple(sorted(acc.items()))

    @classmethod
    def trivial(cls) -> "BohrCharacter":
        return cls()

    def is_trivial(self) -> bool:
        return not self.angles

    def angle(self, f: Frequency) -> Fraction:
        lookup = dict(self.angles)
        total = _ZERO
        for atom, q in f.pairs:
            a = lookup.get(atom.base)
            if a is not None:
                total += q * a
        return total

    def value(self, f: Frequency) -> complex:
        return cmath.exp(1j * float(self.angle(f)))

    def __eq__(self, other) -> bool:
        return isinstance(other, BohrCharacter) and self.angles == other.angles

    def __hash__(self) -> int:
        return hash(self.angles)

    def __repr__(self) -> str:
        return f"BohrCharacter({list(self.angles)!r})"


def freq_scale_exp(f: Frequency, t: DilationIndex) -> Frequency:
    """Scale a frequency by e^t, exactly."""
    return f.scale_exp(t)


def phase_product(f: Frequency, g: Frequency) -> PhaseExponent:
    return PhaseExponent.product(f, g)


def freq_sign(f: Frequency, table: AtomTable, guard: float = DEFAULT_GUARD) -> int:
    """Sign of the numeric value of f: 0 only for the exact zero frequency.
    Values inside the guard band are refused."""
    if f.is_zero():
        return 0
    v = f.numeric(table)
    if abs(v) <= guard:
        raise IndeterminateSign(f"frequency value {v:.3e} inside guard {guard:.1e}")
    return 1 if v > 0 else -1


def dilation_sign(t: DilationIndex, table: AtomTable, guard: float = DEFAULT_GUARD) -> int:
    if t.is_zero():
        return 0
    v = t.numeric(table)
    if abs(v) <= guard:
        raise IndeterminateSign(f"dilation value {v:.3e} inside guard {guard:.1e}")
    return 1 if v > 0 else -1


def scalar_numeric(s: Scalar, table: AtomTable) -> complex:
    return s.numeric(table)

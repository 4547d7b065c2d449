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
which is what makes the canonical commutation phases exact.  One key type,
``PhaseMonomial``, serves both sums: an atom is a monomial of degree one,
and the atom ONE is the empty monomial, which carries the rational part.

Dilation indices, frequencies and phase exponents share one canonical sum,
``_Sum``, stored as integer numerators over one positive common
denominator in lowest terms.  Products, sums, equality and hashing on the
rewriting path are integer arithmetic; ``terms`` reads a sum back as
(key, Fraction) items on demand, in the same canonical order.  Phase sums
ride the same core with Gaussian rational amplitudes over denominator 1.

Dilation indices and phase monomials are interned (hash-consed): every
constructor returns the one live object of its value, so their equality
and hashing are identity, run in C.  Each table keeps one entry per
distinct value the process has seen, a few hundred over a benchmark run,
since indices and monomials come from few values.  Two more tables,
``_MONO_PRODUCTS`` and ``_MONO_SCALED``, hold the product of two monomials
and a monomial times e^t, keyed by the pair of interned operands: a
lookup hashes two identities, and the tables stay small (a few thousand
entries) because their keys are pairs drawn from those few values.
Frequencies and phase exponents are not interned: a ring operation makes
hundreds of them, many never seen before, so a table of them, or one
keyed by them, would grow with the run.
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
    InvalidParameter,
    NotFound,
    NumericOverflow,
)

ONE_ATOM = "ONE"
UNIT_SYMBOL = "UNIT"
DEFAULT_GUARD = 1e-9

_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    """Exact conversion to Fraction.  Floats convert by their exact binary
    value, so a double never loses information here; a NaN or an infinity
    raises InvalidParameter."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)):
        try:
            return Fraction(x)
        except (ValueError, OverflowError):
            raise InvalidParameter(f"{x!r} is not a finite rational") from None
    raise TypeError(f"not an exact rational: {x!r}")


def _merged(items: Iterable[tuple], is_zero=not_, acc: dict | None = None) -> dict:
    """Accumulate (key, coefficient) items into ``acc`` (a new dict when
    None): entries of equal key are added in order, and a key whose sum
    is zero is dropped."""
    if acc is None:
        acc = {}
    for key, q in items:
        prev = acc.get(key)
        total = q if prev is None else prev + q
        if not is_zero(total):
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
    nx, ny = len(xs), len(ys)
    out = []
    i = j = 0
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


def _lowest(items: tuple, d: int) -> tuple[tuple, int]:
    """(key, numerator) items over d > 0 in lowest terms: the common factor
    of d and every numerator divided out, so the zero sum has d = 1."""
    if d == 1:
        return items, 1
    g = math.gcd(d, *[n for _, n in items])
    if g == 1:
        return items, d
    return tuple([(k, n // g) for k, n in items]), d // g


def _times(items: tuple, m: int) -> tuple:
    """Every numerator times the integer m."""
    if m == 1:
        return items
    return tuple([(k, n * m) for k, n in items])


# Sort keys of (key, coefficient) items in canonical order.
_SYM_ORDER = itemgetter(0)


def _key_order(kv):
    return kv[0]._key


def _exp_order(kv):
    return kv[0].key()


class _Sum:
    """Finite formal sum in canonical form.

    A sum is stored as integer numerators over one common denominator.
    ``_items`` is a tuple of (key, numerator) items sorted by ``_order``,
    with distinct keys and no zero numerator, and ``_d`` is the positive
    denominator, coprime to the numerators taken together (the zero sum
    has ``_d`` 1).  So equal sums have equal ``(_d, _items)``, and
    addition, negation, equality and hashing are integer arithmetic; sums
    over one denominator add numerator by numerator.  ``terms`` is the
    read-only view as (key, Fraction) items, built on each access.

    A subclass sets the item sort order, the coefficient coercion, the
    zero test of a coefficient and its ``_zero`` instance, and adds its
    maths.  A coercion of None means coefficients arrive in their final
    type and are stored as they are, over denominator 1, and ``terms`` is
    then ``_items`` itself.  These four are plain class attributes, read
    through the class so that functions among them stay unbound.  A
    subclass that sets an ``_interned`` dict gets one object per value
    from every constructor, so it may compare and hash by identity.
    """

    __slots__ = ("_d", "_items", "_key", "_hash")

    _order = _key_order
    _coerce = _frac
    _coeff_is_zero = not_
    _zero: "_Sum"
    _interned: dict | None = None

    def __new__(cls, terms: Mapping | Iterable[tuple] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        d = 1
        if cls._coerce is not None:
            qs = [(k, cls._coerce(q)) for k, q in items]
            d = math.lcm(*[q.denominator for _, q in qs])
            items = [(k, q.numerator * (d // q.denominator)) for k, q in qs]
        acc = _merged(items, cls._coeff_is_zero)
        return cls._canonical(*_lowest(tuple(sorted(acc.items(), key=cls._order)), d))

    @classmethod
    def _canonical(cls, items: tuple, d: int = 1):
        """Trusted constructor for numerators over d that are already
        merged, sorted, free of zeros and in lowest terms.  A class with
        an ``_interned`` table returns the one object of that value."""
        table = cls._interned
        if table is not None:
            obj = table.get((d, items))
            if obj is not None:
                return obj
        obj = object.__new__(cls)
        obj._items = items
        obj._d = d
        obj._key = None
        obj._hash = None
        if table is not None:
            # setdefault, not a store: a value never gets a second object
            return table.setdefault((d, items), obj)
        return obj

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, never by
        # writing slots into a fresh (for an interned class, shared) object
        return type(self), (self.terms,)

    @classmethod
    def _distinct(cls, items: list, d: int = 1):
        """Constructor for numerators over d in lowest terms, with pairwise
        distinct keys, that may be out of order."""
        if len(items) > 1:
            items.sort(key=cls._order)
        return cls._canonical(tuple(items), d)

    @classmethod
    def zero(cls):
        return cls._zero

    @property
    def terms(self) -> tuple:
        """The (key, coefficient) items in canonical order, coefficients
        as Fractions (as stored when the coercion is None)."""
        if type(self)._coerce is None:
            return self._items
        d = self._d
        return tuple([(k, Fraction(n, d)) for k, n in self._items])

    def is_zero(self) -> bool:
        return not self._items

    def __add__(self, other):
        xs, ys = self._items, other._items
        if not xs:
            return other
        if not ys:
            return self
        cls = type(self)
        d, e = self._d, other._d
        if len(xs) == 1 and len(ys) == 1:
            # the commonest sum, one term a side: the merge step without a pass
            x, y = xs[0], ys[0]
            if d != e:
                g = math.gcd(d, e)
                x, y, d = (x[0], x[1] * (e // g)), (y[0], y[1] * (d // g)), d // g * e
            kx, ky = cls._order(x), cls._order(y)
            if kx == ky:
                total = x[1] + y[1]
                if cls._coeff_is_zero(total):
                    return cls._zero
                return cls._canonical(*_lowest(((x[0], total),), d))
            return cls._canonical((x, y) if kx < ky else (y, x), d)
        if d != e:
            # bring both over lcm(d, e)
            g = math.gcd(d, e)
            xs, ys, d = _times(xs, e // g), _times(ys, d // g), d // g * e
        items = _merge_sorted(xs, ys, cls._order, cls._coeff_is_zero)
        if len(items) == len(xs) + len(ys):
            # no two keys met: every numerator of one side is still there,
            # so the numerators stay coprime to d
            return cls._canonical(items, d)
        return cls._canonical(*_lowest(items, d))

    def __neg__(self):
        return type(self)._canonical(tuple([(k, -n) for k, n in self._items]), self._d)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Every coefficient times c."""
        cls = type(self)
        if cls._coerce is None:
            if cls._coeff_is_zero(c):
                return cls._zero
            return cls._canonical(tuple([(k, q * c) for k, q in self._items]))
        c = cls._coerce(c)
        if not c:
            return cls._zero
        p = c.numerator
        items = tuple([(k, n * p) for k, n in self._items])
        return cls._canonical(*_lowest(items, self._d * c.denominator))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._d == other._d and self._items == other._items

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self._d, self._items))
        return h

    def key(self):
        """The terms with each key replaced by its sort key: a plain tuple
        that orders sums of one kind.  A coefficient is the integer itself
        over denominator 1 and a Fraction otherwise, so keys compare as
        the Fraction terms do."""
        k = self._key
        if k is None:
            order, d = type(self)._order, self._d
            if d == 1:
                k = tuple([(order(kv), kv[1]) for kv in self._items])
            else:
                k = tuple([(order(kv), Fraction(kv[1], d)) for kv in self._items])
            self._key = k
        return k

    def coefficient(self, key):
        """The coefficient at ``key``, the rational 0 when absent."""
        for k, n in self._items:
            if k == key:
                return n if type(self)._coerce is None else Fraction(n, self._d)
        return _ZERO

    def numeric(self, table: "AtomTable") -> float:
        return _evaluate(self, table)[0]

    def exact_numeric(self, table: "AtomTable") -> Fraction | None:
        """The exact value over the declared doubles, of a dilation index
        or a sum of atoms; None when a monomial has an exponent (e^t is
        irrational for rational t != 0) or two atoms."""
        ratio = self._exact_ratio(table)
        return None if ratio is None else Fraction(*ratio)

    def _exact_ratio(self, table: "AtomTable") -> tuple[int, int] | None:
        """``exact_numeric`` as an integer ratio (num, den), den > 0 and
        not reduced; None where ``exact_numeric`` is None."""
        dil = type(self) is DilationIndex
        num, den = 0, 1
        for key, n in self._items:
            if not dil and (key.exp._items or len(key.bases) > 1):
                return None
            value = table.dilation_value(key) if dil else table.atom_value(key.base)
            a, b = value.as_integer_ratio()
            num, den = num * b + n * a * den, den * b
        return num, den * self._d

    def __repr__(self) -> str:
        body = " + ".join(f"{q}*{k}" for k, q in self.terms) or "0"
        return f"{type(self).__name__}({body})"


def _ratio(n: int, d: int) -> float:
    """n/d rounded once, as float() of a Fraction, reduced or not (int/int
    true division is correctly rounded): the one exact-ratio-to-double site."""
    try:
        return n / d
    except OverflowError:
        raise NumericOverflow("an exact ratio leaves the double range") from None


def _evaluate(x: _Sum, table: "AtomTable") -> tuple[float, float]:
    """(value, bound): the double value of a dilation index, frequency or
    phase exponent and a bound on its distance from the exact value over
    the declared doubles; NumericOverflow when a double overflows.

    A dilation index's exact value is rounded once: bound 0.  Otherwise a
    term t_k = (n/d)·(atoms·e^(a_k)) carries at most 5 + |a_k| roundoffs
    u = 2^-53 relative to |t_k| (the quotient, e^(a_k) through the rounded
    a_k and the library exp's 2u, two products), and summing N terms adds
    (N - 1)·u·Σ|t_k| (Higham, *Accuracy and Stability of Numerical
    Algorithms*, §4.2).  Twice the first-order total (N + 4 + Σ|a_k|)·u·
    Σ|t_k|, the bound returned, covers the rest.
    """
    if not x._items:
        return 0.0, 0.0
    if type(x) is DilationIndex:
        return _ratio(*x._exact_ratio(table)), 0.0
    v = size = spread = 0.0
    for key, n in x._items:
        t = 1.0
        for base in key.bases:
            t *= table.atom_value(base)
        if key.exp._items:
            a = _evaluate(key.exp, table)[0]
            t *= _exp(a)
            spread += abs(a)
        t = _ratio(n, x._d) * t
        v += t
        size += abs(t)
    if not math.isfinite(v):
        raise NumericOverflow(f"{type(x).__name__} value leaves the double range")
    return v, (len(x._items) + 4 + spread) * 2.0**-52 * size


def _exp(x: float) -> float:
    """math.exp, with overflow raised as NumericOverflow."""
    try:
        return math.exp(x)
    except OverflowError:
        raise NumericOverflow(f"e^{x:.6g} overflows a double") from None


class DilationIndex(_Sum):
    """Exact rational combination of dilation symbols.

    With only integer multiples of UNIT present the dilation group is the
    integers; otherwise it is a dense subgroup of the reals.
    """

    __slots__ = ()
    _order = _SYM_ORDER
    _interned = {}
    # interned: one object per value, so equality and hashing are identity
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @classmethod
    def unit(cls, q=1) -> "DilationIndex":
        if type(q) is int:  # already over denominator 1
            return cls._canonical(((UNIT_SYMBOL, q),)) if q else cls._zero
        return cls(((UNIT_SYMBOL, q),))

    @classmethod
    def single(cls, sym: str, q=1) -> "DilationIndex":
        return cls(((sym, q),))

    def integer_unit(self) -> int | None:
        """The index as a plain integer, or None when symbols intrude."""
        items = self._items
        if not items:
            return 0
        if len(items) == 1 and self._d == 1 and items[0][0] == UNIT_SYMBOL:
            return items[0][1]
        return None


_DIL_ZERO = DilationIndex._zero = DilationIndex()


class PhaseMonomial:
    """Multiplicative monomial of at most two atom bases times e^(exp).

    An atom, one basis direction of the frequency module, is a monomial
    of degree one: a named positive real scaled by e^(dilation index).
    Bases equal to ONE are dropped (their value is 1) and exponents of
    two factors are pooled, so numerically equal products of exponent
    shifted atoms share one canonical key.  The empty monomial with zero
    exponent has value 1 and carries the plain rational part of a
    frequency or phase.  Monomials are interned like dilation indices:
    one object per value, compared and hashed by identity, with its sort
    key ``_key`` built once on creation.  ``product`` and ``scaled`` read
    their result from ``_MONO_PRODUCTS`` and ``_MONO_SCALED``, keyed by
    the pair of interned operands, so the dilation index sum behind each
    runs once per distinct pair; the tables stay small because monomials
    and indices come from few values.
    """

    __slots__ = ("bases", "exp", "_key")
    _interned: dict = {}

    def __new__(cls, bases: tuple[str, ...] = (), exp: DilationIndex | None = None):
        bases = tuple(sorted(b for b in bases if b != ONE_ATOM))
        if len(bases) > 2:
            raise InvalidParameter("phase monomial degree above two")
        return cls._canonical(bases, _DIL_ZERO if exp is None else exp)

    @classmethod
    def empty(cls) -> "PhaseMonomial":
        return _MONO_EMPTY

    @classmethod
    def product(cls, a: "PhaseMonomial", b: "PhaseMonomial") -> "PhaseMonomial":
        """The product of two monomials, read from ``_MONO_PRODUCTS``."""
        out = _MONO_PRODUCTS.get((a, b))
        if out is None:
            out = _MONO_PRODUCTS[a, b] = _monomial_product(a, b)
        return out

    @classmethod
    def _canonical(cls, bases: tuple[str, ...], exp: DilationIndex) -> "PhaseMonomial":
        """Trusted constructor for bases that are already sorted, free of
        ONE and at most two long: the one monomial of that value."""
        obj = cls._interned.get((bases, exp))
        if obj is None:
            obj = object.__new__(cls)
            obj.bases = bases
            obj.exp = exp
            obj._key = (bases, exp.key())
            obj = cls._interned.setdefault((bases, exp), obj)
        return obj

    def __reduce__(self):
        return PhaseMonomial, (self.bases, self.exp)

    @property
    def base(self) -> str:
        """The bases joined by ``*``: an atom's symbol, ONE for the empty
        monomial."""
        return "*".join(self.bases) or ONE_ATOM

    def scaled(self, t: DilationIndex) -> "PhaseMonomial":
        """This monomial times e^t, read from ``_MONO_SCALED``."""
        out = _MONO_SCALED.get((self, t))
        if out is None:
            out = _MONO_SCALED[self, t] = _monomial_scaled(self, t)
        return out

    def __repr__(self) -> str:
        return f"PhaseMonomial({self.bases}, {self.exp!r})"


def _monomial_product(a: PhaseMonomial, b: PhaseMonomial) -> PhaseMonomial:
    """The product of two monomials, computed: ``PhaseMonomial.product``
    on a table miss."""
    ea, eb = a.exp, b.exp
    if not b.bases and not eb._items:
        return a  # b is the monomial 1
    if not a.bases and not ea._items:
        return b  # a is the monomial 1
    bases = a.bases + b.bases
    if len(bases) == 2 and bases[1] < bases[0]:
        bases = (bases[1], bases[0])
    return PhaseMonomial._canonical(bases, ea + eb)


def _monomial_scaled(m: PhaseMonomial, t: DilationIndex) -> PhaseMonomial:
    """m times e^t, computed: ``PhaseMonomial.scaled`` on a table miss."""
    return PhaseMonomial._canonical(m.bases, m.exp + t)


# The products and e^t shifts of monomials, keyed by their interned
# operands, so a key hashes and compares by identity in C.  Every call
# after the first of one operand pair is one lookup.
_MONO_PRODUCTS: dict = {}
_MONO_SCALED: dict = {}
_MONO_EMPTY = PhaseMonomial()


def FrequencyAtom(base: str, exp: DilationIndex | None = None) -> PhaseMonomial:
    """The atom ``base`` scaled by e^exp, a phase monomial of degree one
    (the empty monomial for ONE)."""
    return PhaseMonomial((base,), exp)


class Frequency(_Sum):
    """Exact rational combination of atoms."""

    __slots__ = ()

    @classmethod
    def atom(cls, base: str, coeff=1, exp: DilationIndex | None = None) -> "Frequency":
        return cls(((PhaseMonomial((base,), exp), coeff),))

    @classmethod
    def rational(cls, q) -> "Frequency":
        """A rational multiple of the unit atom ONE."""
        return cls(((_MONO_EMPTY, q),))

    def scale_exp(self, t: DilationIndex) -> "Frequency":
        """Multiply by e^t, realized exactly as an exponent shift on atoms."""
        if t.is_zero() or not self._items:
            return self
        # The shift maps distinct atoms to distinct atoms, but it can
        # change their order.
        return Frequency._distinct([(a.scaled(t), n) for a, n in self._items], self._d)


Frequency._zero = Frequency()


def _dil_as_frequency(t: DilationIndex) -> Frequency:
    """The linear embedding of dilation indices into frequencies (UNIT to
    the atom ONE, any other symbol to the atom of that name)."""
    return Frequency._distinct(
        [(_MONO_EMPTY if sym == UNIT_SYMBOL else PhaseMonomial((sym,)), n) for sym, n in t._items],
        t._d,
    )


class PhaseExponent(_Sum):
    """Rational combination of phase monomials, the additive group of
    admissible phase angles."""

    __slots__ = ()

    @classmethod
    def rational(cls, q) -> "PhaseExponent":
        return cls(((_MONO_EMPTY, q),))

    @classmethod
    def product(cls, f: Frequency, g: Frequency, *addends: "PhaseExponent") -> "PhaseExponent":
        """The bilinear pairing of two frequencies, exponent of the
        commutation phase, plus the addends.  What ``product(f, g) +
        sum(addends)`` builds one sum at a time is one canonical
        construction here: one integer accumulator keyed by monomial over
        the lcm of the denominators, one sort and one ``_lowest``."""
        fs, gs = f._items, g._items
        parts = [e for e in addends if e._items]
        if not fs or not gs:
            if len(parts) < 2:
                return parts[0] if parts else cls._zero
            fs, d = (), 1
        else:
            d = f._d * g._d
            if not parts and len(fs) == 1 and len(gs) == 1:
                (a, na), (b, nb) = fs[0], gs[0]
                return cls._canonical(*_lowest(((PhaseMonomial.product(a, b), na * nb),), d))
        den = math.lcm(d, *[e._d for e in parts])
        m, acc = den // d, {}
        for a, na in fs:
            for b, nb in gs:
                k = PhaseMonomial.product(a, b)
                acc[k] = acc.get(k, 0) + na * nb * m
        for e in parts:
            m = den // e._d
            for k, n in e._items:
                acc[k] = acc.get(k, 0) + n * m
        items = [kv for kv in acc.items() if kv[1]]
        if not items:
            return cls._zero
        items.sort(key=cls._order)
        return cls._canonical(*_lowest(tuple(items), den))

    def leading_sign(self) -> int:
        """Sign of the coefficient at the smallest monomial, a group
        compatible linear order on exponents."""
        if not self._items:
            return 0
        return 1 if self._items[0][1] > 0 else -1


_EXP_ZERO = PhaseExponent._zero = PhaseExponent()


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

    def __repr__(self) -> str:
        return f"QI({self.re}, {self.im})"


QI_ZERO = QI()
QI_ONE = QI(1)


class PhaseSum(_Sum):
    """Finite sum of Gaussian rational amplitudes times unimodular phases,
    the exact coefficient ring."""

    __slots__ = ()
    _order = _exp_order
    _coerce = None
    _coeff_is_zero = QI.is_zero

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

    def __mul__(self, other: "PhaseSum") -> "PhaseSum":
        return PhaseSum(
            (pe1 + pe2, a1 * a2) for pe1, a1 in self._items for pe2, a2 in other._items
        )

    def shift(self, pe: PhaseExponent) -> "PhaseSum":
        """Multiply by the unimodular phase e^{i*pe}."""
        if pe.is_zero():
            return self
        return PhaseSum._distinct([(p + pe, a) for p, a in self._items])

    def conj(self) -> "PhaseSum":
        return PhaseSum._distinct([(-pe, a.conj()) for pe, a in self._items])

    def least_term(self) -> tuple[PhaseExponent, QI]:
        """Term at the smallest exponent in the group linear order."""
        best = self._items[0]
        for cand in self._items[1:]:
            if (cand[0] - best[0]).leading_sign() < 0:
                best = cand
        return best

    def numeric(self, table: "AtomTable") -> complex:
        total = 0j
        for pe, amp in self._items:
            z = complex(_ratio(amp._a, amp._d), _ratio(amp._b, amp._d))
            total += z * cmath.exp(1j * pe.numeric(table))
        return total


_PS_ZERO = PhaseSum._zero = PhaseSum()
_PS_ONE = PhaseSum.rational(1)


def _unit_split(ps: PhaseSum) -> tuple[PhaseExponent, QI, PhaseSum | None]:
    """Write a nonzero phase sum as amp * e^{i*pe} * factor, with
    amp * e^{i*pe} its least term and factor its canonical form (least
    term exactly 1), or None when the sum is that one term."""
    if len(ps._items) == 1:
        pe, amp = ps._items[0]
        return pe, amp, None
    pe, amp = ps.least_term()
    return pe, amp, ps.shift(-pe).scale(amp.inverse())


def _qi_pow(x: QI, k: int) -> QI:
    """x**k for k >= 0, by repeated squaring."""
    out = QI_ONE
    while k:
        if k & 1:
            out = out * x
        k >>= 1
        if k:
            x = x * x
    return out


def _divide_binomial(num: PhaseSum, factor: PhaseSum) -> PhaseSum | None:
    """num / factor for a binomial factor 1 + a*e^{i*theta}, or None when
    the factor does not divide num exactly or the quotient would have
    more terms than num.

    The exponents of num fall into cosets of Z*theta.  Within one coset
    num is e^{i*rep} p(u), a Laurent polynomial p in u = e^{i*theta}, and
    1 + a*u divides num iff it divides every such p, that is iff
    p(-1/a) = 0.  One synthetic division pass per coset, q_n = c_n -
    a*q_{n-1} from the lowest power up, gives the quotient and, as its
    last value q_hi = p(-1/a) * (-a)^hi, the remainder.  Across a gap in
    p a nonzero carry adds one quotient term per power, so the length
    bound also bounds the work on sparse numerators.

    No binomial divides a one-term numerator.  For 1 - e^{i*theta}
    (a = -1) the root is u = 1, so p(1) summed over all cosets, the sum
    of num's amplitudes, must vanish: one integer pass with no exponent
    work refutes a nonzero sum before the cosets are formed.  Any other
    binomial goes straight to the coset pass.
    """
    if len(num._items) < 2:
        return None
    (theta, a), = factor._items[1:]
    if a._a == -1 and not a._b and a._d == 1:
        re, im, den = 0, 0, 1
        for _, c in num._items:
            d = c._d
            if d == den:
                re, im = re + c._a, im + c._b
            else:
                re, im, den = re * d + c._a * den, im * d + c._b * den, den * d
        if re or im:
            return None
    lead, c0 = theta._items[0]

    def power(pe: PhaseExponent) -> int:
        """pe's coefficient at theta's least monomial over theta's there,
        rounded down: (m / pe._d) // (c0 / theta._d) in integers."""
        m = next((n for k, n in pe._items if k == lead), 0)
        return m * theta._d // (pe._d * c0)

    powers = [(power(pe), c, pe) for pe, c in num._items]
    powers.sort(key=itemgetter(0))
    limit = len(num._items)
    cosets: dict = {}
    for n, c, pe in powers:
        cosets.setdefault(pe - theta.scale(n) if n else pe, []).append((n, c, pe))
    out = []
    for rep, poly in cosets.items():
        carry, at = QI_ZERO, None
        for n, c, pe in poly:
            if not carry.is_zero():
                for m in range(at + 1, n):
                    carry = -(a * carry)
                    out.append((rep + theta.scale(m), carry))
                    if len(out) > limit:
                        return None
                carry = c - a * carry
            else:
                carry = c
            if not carry.is_zero():
                out.append((pe, carry))
                if len(out) > limit:
                    return None
            at = n
        if not carry.is_zero():
            return None
    return PhaseSum._distinct(out)


def _factor_order(item: tuple) -> tuple:
    """Sort key of a (factor, multiplicity) item: the factor's exponents
    and amplitudes as plain integers and keys, a total order."""
    return tuple([(pe.key(), a._a, a._b, a._d) for pe, a in item[0]._items])


def _cofactors(xs: tuple, ys: tuple) -> tuple[tuple, tuple, tuple]:
    """The least common multiple of two factor multisets, and what each
    lacks of it."""
    mx, my = dict(xs), dict(ys)
    lcm = dict(mx)
    for f, m in ys:
        if m > lcm.get(f, 0):
            lcm[f] = m
    lacks_x = tuple([(f, m - mx.get(f, 0)) for f, m in lcm.items() if m > mx.get(f, 0)])
    lacks_y = tuple([(f, m - my.get(f, 0)) for f, m in lcm.items() if m > my.get(f, 0)])
    return tuple(sorted(lcm.items(), key=_factor_order)), lacks_x, lacks_y


def _expand(num: PhaseSum, factors: tuple) -> PhaseSum:
    """num times each factor to its multiplicity, multiplied out; one
    factor times the ``_PS_ONE`` object is that factor itself."""
    for f, m in factors:
        for _ in range(m):
            num = f if num is _PS_ONE else num * f
    return num


def _reduced(num: PhaseSum, factors: tuple) -> tuple[PhaseSum, tuple]:
    """Cancel from nonzero num each factor as often as it divides: a
    binomial by exact division, an opaque factor only when num is a unit
    times it."""
    kept = []
    for f, m in factors:
        if len(f._items) == 2:
            while m:
                q = _divide_binomial(num, f)
                if q is None:
                    break
                num, m = q, m - 1
        elif len(num._items) == len(f._items):
            pe, amp, g = _unit_split(num)
            if g == f:
                num, m = PhaseSum._canonical(((pe, amp),)), m - 1
        if m:
            kept.append((f, m))
    return num, tuple(kept)


class Scalar:
    """Element of the fraction field over the phase ring.

    A scalar is ``num`` over the product of ``factors``, a tuple of
    (factor, multiplicity) pairs sorted by factor, and the denominator is
    never multiplied out.  Canonical form:

    - every factor is a phase sum of two or more terms whose least term
      (group linear order on exponents) is exactly 1; one term
      denominators are units and are divided into the numerator, so
      generic coefficients have no factors at all;
    - a binomial factor 1 + a*e^{i*theta} is cancelled from the
      numerator as often as it divides it exactly, after every product,
      sum and construction, as long as the quotient is no longer than the
      numerator; before the exact pass, 1 - e^{i*theta} is refuted by a
      nonzero sum of the numerator's amplitudes, its value at
      e^{i*theta} = 1, and any other binomial goes straight to it;
    - a factor of three or more terms is opaque: it cancels only against
      a numerator that is a unit times that same factor.

    ``rotated_product`` is the one product, ``*`` with no rotation.  A
    unit (one-term numerator) side whose factors are all factors of the
    other side leaves the product reduced, so it is not reduced again.
    Sums bring both numerators over the least common multiple of the two
    factor multisets.  Reduction is with respect to a scalar's own
    factors only: 1 - e^{i*theta} over 1 - e^{2i*theta} stays as it is,
    since the factor 1 - e^{2i*theta} is kept whole, not split into
    (1 - e^{i*theta})(1 + e^{i*theta}).  ``den`` is the product of the
    factors, multiplied out on demand.  Equality is decided by cross
    multiplication; Scalar is deliberately unhashable.
    """

    __slots__ = ("num", "factors")

    def __init__(self, num: PhaseSum, den: PhaseSum | None = None):
        if den is None or den is _PS_ONE:
            self.num, self.factors = (num if num._items else _PS_ZERO), ()
            return
        if den.is_zero():
            raise DivisionByZero("scalar with zero denominator")
        pe, amp, factor = _unit_split(den)
        num = num.shift(-pe).scale(amp.inverse()) if num._items else _PS_ZERO
        if factor is None or not num._items:
            self.num, self.factors = num, ()
        else:
            self.num, self.factors = _reduced(num, ((factor, 1),))

    @classmethod
    def _canonical(cls, num: PhaseSum, factors: tuple) -> "Scalar":
        """Trusted constructor: ``num`` is reduced with respect to the
        canonical, sorted ``factors``, which are empty for a zero ``num``."""
        obj = object.__new__(cls)
        obj.num = num
        obj.factors = factors
        return obj

    @classmethod
    def _term(cls, pe: PhaseExponent, amp: QI) -> "Scalar":
        """Trusted constructor for the one-term scalar amp * e^{i*pe} with
        amp nonzero: one-phase products and conjugates in one step."""
        return cls._canonical(PhaseSum._canonical(((pe, amp),)), ())

    @classmethod
    def _reduce(cls, num: PhaseSum, factors: tuple) -> "Scalar":
        """num over canonical, sorted factors, with the factors that
        divide num cancelled."""
        if not num._items:
            return _SC_ZERO
        return cls._canonical(*_reduced(num, factors))

    @property
    def den(self) -> PhaseSum:
        """The denominator multiplied out, computed on each access."""
        return _expand(_PS_ONE, self.factors)

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
        fs, fo = self.factors, other.factors
        if not fs and not fo:
            return Scalar._canonical(self.num + other.num, ())
        if not self.num._items:
            return other
        if not other.num._items:
            return self
        if fs == fo:
            return Scalar._reduce(self.num + other.num, fs)
        lcm, lacks_s, lacks_o = _cofactors(fs, fo)
        num = _expand(self.num, lacks_s) + _expand(other.num, lacks_o)
        return Scalar._reduce(num, lcm)

    def __neg__(self) -> "Scalar":
        return Scalar._canonical(-self.num, self.factors)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        return self.rotated_product(other, _EXP_ZERO)

    def rotated_product(self, other: "Scalar", pe: PhaseExponent) -> "Scalar":
        """self * other * e^{i*pe}, the one Scalar product.

        When a numerator is one term a*e^{i*alpha}, a unit, the other
        numerator is shifted by alpha + pe and scaled by a in one pass.  A
        unit changes no term count, so each factor divides the product
        exactly when it divides the other numerator, which is reduced: if
        every factor of the unit side is a factor of the other side,
        nothing cancels and the reduction is skipped.
        """
        xs, ys = self.num._items, other.num._items
        if not xs or not ys:
            return _SC_ZERO
        fs, fo = self.factors, other.factors
        if len(xs) > 1 and len(ys) > 1:
            num = (self.num * other.num).shift(pe)
        else:
            # the unit side: the one-term numerator, or of two the one with fewer factors
            unit_other = (len(ys), len(fo)) <= (len(xs), len(fs))
            (alpha, a), rest, fr, fu = (ys[0], xs, fs, fo) if unit_other else (xs[0], ys, fo, fs)
            alpha = alpha + pe
            num = PhaseSum._distinct([(p + alpha, c * a) for p, c in rest])
            if not fu:
                return Scalar._canonical(num, fr)
            extra = dict(fu)
            if extra.keys() <= dict(fr).keys():
                return Scalar._canonical(num, tuple([(f, m + extra.get(f, 0)) for f, m in fr]))
        merged = dict(fs)
        for f, m in fo:
            merged[f] = merged.get(f, 0) + m
        return Scalar._reduce(num, tuple(sorted(merged.items(), key=_factor_order)))

    def times_rational(self, q) -> "Scalar":
        """This scalar times the exact value of q, an int, Fraction or
        finite double (read by ``as_integer_ratio``): each numerator
        amplitude is scaled and the factors are kept, since a nonzero
        rational is a unit.  The same scalar as the product with
        ``Scalar.from_rational(q)``, without building it."""
        try:
            n, d = q.as_integer_ratio()
        except (ValueError, OverflowError):
            raise InvalidParameter(f"{q!r} is not a finite rational") from None
        if not n:
            return _SC_ZERO
        return Scalar._canonical(self.num.scale(QI._canonical(n, 0, d)), self.factors)

    def rotate(self, pe: PhaseExponent) -> "Scalar":
        """This scalar times the unimodular phase e^{i*pe}.

        Only the numerator's exponents move; the factors, and with them
        the canonical form, are unchanged.
        """
        if pe.is_zero():
            return self
        return Scalar._canonical(self.num.shift(pe), self.factors)

    def inverse(self) -> "Scalar":
        if self.num.is_zero():
            raise DivisionByZero("inverse of zero scalar")
        return Scalar(self.den, self.num)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def conj(self) -> "Scalar":
        num = self.num.conj()
        if not self.factors:
            return Scalar._canonical(num, ())
        # conj(f) = amp * e^{i*pe} * g with g canonical: the unit's m-th
        # power moves to the numerator in one shift and one scale, and
        # conjugation keeps numerators reduced
        factors = []
        for f, m in self.factors:
            pe, amp, g = _unit_split(f.conj())
            num = num.shift(pe.scale(-m)).scale(_qi_pow(amp.inverse(), m))
            factors.append((g, m))
        factors.sort(key=_factor_order)
        return Scalar._canonical(num, tuple(factors))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        fs, fo = self.factors, other.factors
        if fs == fo:
            return self.num == other.num
        _, lacks_s, lacks_o = _cofactors(fs, fo)
        return _expand(self.num, lacks_s) == _expand(other.num, lacks_o)

    __hash__ = None  # equality is by cross multiplication

    def single_phase(self) -> tuple[PhaseExponent, QI] | None:
        """The (exponent, amplitude) pair when this scalar is one phase
        term over denominator 1, else None."""
        if not self.factors and len(self.num._items) == 1:
            return self.num._items[0]
        return None

    def numeric(self, table: "AtomTable") -> complex:
        """num / prod factor^m, each factor evaluated on its own."""
        value = self.num.numeric(table)
        for f, m in self.factors:
            den = f.numeric(table)
            if abs(den) < 1e-300:
                raise NumericOverflow("denominator numerically vanishes")
            value /= den**m
        return value

    def modulus(self, table: "AtomTable") -> float:
        single = self.single_phase()
        if single is not None:
            return math.sqrt(_ratio(*single[1].abs2().as_integer_ratio()))
        return abs(self.numeric(table))

    def __repr__(self) -> str:
        dens = "".join(f" / {f!r}" + (f"**{m}" if m > 1 else "") for f, m in self.factors)
        return f"Scalar({self.num!r}{dens})"


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
        given = (("atom", atoms, self.atoms), ("dilation symbol", dilation, self.dilation))
        for noun, values, out in given:
            for name, value in (values or {}).items():
                out[name] = self._checked(noun, name, value)
        if self.atoms[ONE_ATOM] != 1.0 or self.dilation[UNIT_SYMBOL] != 1.0:
            raise InvalidParameter("ONE and UNIT are reserved with value 1")
        self._warn_collisions()

    @staticmethod
    def _checked(noun: str, name: str, value) -> float:
        v = float(value)
        if not math.isfinite(v) or v <= 0.0:
            raise InvalidParameter(f"{noun} {name!r} must have a positive finite value")
        return v

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
        return DEFAULT_TABLE

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


# the default of every table parameter; shared, so nothing writes to it
DEFAULT_TABLE = AtomTable()


class BohrCharacter:
    """Unimodular character on frequencies, realized by exact rational
    angle assignments on atom base symbols extended linearly over the
    rationals.

    Angles are keyed by base symbol only, so e^t-scaled copies of an
    atom get the same angle: the character commutes with the dilation
    action, which is what lets the twisted conjugations stay
    multiplicative on the full triple algebra.
    """

    __slots__ = ("angles", "_nums", "_den")

    def __init__(self, angles: Mapping | Iterable[tuple] = ()):
        items = angles.items() if isinstance(angles, Mapping) else angles
        acc = _merged(
            (key.base if isinstance(key, PhaseMonomial) else str(key), _frac(q))
            for key, q in items
        )
        self.angles = tuple(sorted(acc.items()))
        # the angles as integer numerators over one common denominator
        den = self._den = math.lcm(*[q.denominator for q in acc.values()])
        self._nums = {base: q.numerator * (den // q.denominator) for base, q in self.angles}

    @classmethod
    def trivial(cls) -> "BohrCharacter":
        return cls()

    def angle(self, f: Frequency) -> Fraction:
        nums = self._nums
        total = 0
        for atom, n in f._items:
            a = nums.get(atom.base)
            if a is not None:
                total += n * a
        return Fraction(total, f._d * self._den)

    def value(self, f: Frequency) -> complex:
        return cmath.exp(1j * _ratio(*self.angle(f).as_integer_ratio()))

    def __eq__(self, other) -> bool:
        return isinstance(other, BohrCharacter) and self.angles == other.angles

    def __hash__(self) -> int:
        return hash(self.angles)

    def __repr__(self) -> str:
        return f"BohrCharacter({list(self.angles)!r})"


def index_sign(
    x: Frequency | DilationIndex, table: AtomTable, guard: float = DEFAULT_GUARD
) -> int:
    """Sign of the value of a frequency or dilation index: 0 only for the
    exact zero.  A value within max(guard, bound) of 0 is refused, bound
    being ``_evaluate``'s rounding bound; a dilation index's exact value
    meets the finite guard as it is, with bound 0, so no double is formed."""
    if x.is_zero():
        return 0
    what = "dilation" if type(x) is DilationIndex else "frequency"
    if what == "dilation":
        num, den = x._exact_ratio(table)
        gn, gd = guard.as_integer_ratio()
        if abs(num) * gd > gn * den:
            return 1 if num > 0 else -1
        v, bound = _ratio(num, den), 0.0
    else:
        v, bound = _evaluate(x, table)
        if not abs(v) <= max(guard, bound):
            return 1 if v > 0 else -1
    raise IndeterminateSign(
        f"{what} value {v:.3e} inside guard {guard:.1e} or rounding bound {bound:.1e}"
    )

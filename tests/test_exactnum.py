"""Exact scalar layer: field axioms, canonical forms, sign guards."""

import ast
import cmath
import copy
import math
import pickle
import random
import warnings
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest
from helpers import (
    random_dilation,
    random_element,
    random_fraction,
    random_frequency,
    random_scalar,
    reduced_product,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from trisemi import (
    QI,
    AtomCollisionWarning,
    AtomTable,
    BohrCharacter,
    DilationIndex,
    Element,
    Frequency,
    FrequencyAtom,
    IndeterminateSign,
    InvalidParameter,
    PhaseExponent,
    PhaseMonomial,
    PhaseSum,
    Scalar,
    adjoint,
    commutator_certificate,
    exactnum,
    index_sign,
    mul,
)
from trisemi.exprs import parse_dilation, parse_frequency

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def small_scalars():
    base = st.builds(Scalar.gaussian, fractions, fractions)
    phase = st.builds(lambda q: Scalar.rational_angle(q), fractions)
    return st.builds(lambda a, p: a * p, base, phase)


@settings(max_examples=60)
@given(small_scalars(), small_scalars(), small_scalars())
def test_scalar_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=40)
@given(small_scalars())
def test_scalar_field_inverse(a):
    if a.is_zero():
        return
    assert (Scalar.one() / a) * a == Scalar.one()


@settings(max_examples=40)
@given(small_scalars(), small_scalars())
def test_scalar_numeric_is_a_homomorphism(a, b):
    table = AtomTable.default()
    za, zb = a.numeric(table), b.numeric(table)
    assert (a * b).numeric(table) == pytest.approx(za * zb, abs=1e-12)
    assert (a + b).numeric(table) == pytest.approx(za + zb, abs=1e-12)


def test_rational_angle_matches_cmath():
    table = AtomTable.default()
    for q in (Fraction(1, 3), Fraction(-7, 2), Fraction(0), Fraction(5)):
        got = Scalar.rational_angle(q).numeric(table)
        assert got == pytest.approx(cmath.exp(1j * float(q)), abs=1e-15)


def test_scalar_equality_by_cross_multiplication():
    # 1/e^{i} equals e^{-i} even though the raw fractions differ
    phase = Scalar.rational_angle(Fraction(1))
    assert Scalar.one() / phase == Scalar.rational_angle(Fraction(-1))
    # equality is structural, not hash-based
    with pytest.raises(TypeError):
        hash(Scalar.one() / (Scalar.one() + phase))


def test_frequency_module_arithmetic():
    f = Frequency.rational(Fraction(3, 2)) + Frequency.atom("s2", Fraction(-1, 3))
    g = f + f
    coeffs = {atom.base: q for atom, q in g.terms}
    assert coeffs == {"ONE": Fraction(3), "s2": Fraction(-2, 3)}
    assert (f - f).is_zero()


def test_frequency_scale_exp_shifts_atom_exponents():
    f = Frequency.rational(1)
    t = DilationIndex.unit(1)
    shifted = f.scale_exp(t)
    (atom, q), = shifted.terms
    assert q == 1
    assert atom.base == "ONE"
    assert atom.exp == t
    # scaling back is the identity
    assert shifted.scale_exp(DilationIndex.unit(-1)) == f


def test_exact_numeric_on_dilation_free_frequencies():
    table = AtomTable({"s2": math.sqrt(2)}, {})
    f = Frequency.rational(Fraction(1, 4)) + Frequency.atom("s2", 2)
    exact = f.exact_numeric(table)
    assert exact == Fraction(1, 4) + 2 * Fraction(math.sqrt(2))
    shifted = f.scale_exp(DilationIndex.unit(1))
    assert shifted.exact_numeric(table) is None


def test_dilation_integer_unit():
    assert DilationIndex.zero().integer_unit() == 0
    assert DilationIndex.unit(3).integer_unit() == 3
    assert DilationIndex.unit(Fraction(1, 2)).integer_unit() is None
    assert DilationIndex.single("h", 1).integer_unit() is None


def test_phase_product_is_bilinear():
    f = Frequency.rational(Fraction(2, 3))
    g = Frequency.atom("s2", Fraction(1, 2))
    h = Frequency.rational(Fraction(-1, 5))
    assert PhaseExponent.product(f + h, g) == PhaseExponent.product(f, g) + PhaseExponent.product(h, g)
    assert PhaseExponent.product(f, g + h) == PhaseExponent.product(f, g) + PhaseExponent.product(f, h)
    two_f = f + f
    assert PhaseExponent.product(two_f, g) == PhaseExponent.product(f, g) + PhaseExponent.product(f, g)


def test_phase_exponent_pooling_orders_bases():
    f = Frequency.atom("s2")
    g = Frequency.atom("s3")
    assert PhaseExponent.product(f, g) == PhaseExponent.product(g, f)


def test_freq_sign_guard_band():
    table = AtomTable({"s2": math.sqrt(2)}, {})
    near = Frequency.atom("s2") + Frequency.rational(Fraction(-1393, 985))
    # |sqrt2 - 1393/985| ~ 3.6e-7: resolvable at 1e-9, ambiguous at 1e-6
    assert index_sign(near, table) == 1
    with pytest.raises(IndeterminateSign):
        index_sign(near, table, guard=1e-6)
    assert index_sign(Frequency.zero(), table) == 0
    assert type(Frequency.zero().numeric(table)) is float


def test_sign_decisions_respect_the_rounding_bound(table):
    # Near-cancellations a*s2 + b*s3 + r with exact value +-10^-k over the
    # declared doubles, |a| log-uniform in [1, 10^12].  The double sum is
    # off by up to ~1e-4 at |a| ~ 10^12, far outside the guard: a sign is
    # either right or refused.
    s2, s3 = Fraction(table.atom_value("s2")), Fraction(table.atom_value("s3"))
    rng = random.Random("sign-sweep")
    decided = wrong = 0
    for _ in range(2000):
        a = rng.choice((-1, 1)) * round(10 ** rng.uniform(0, 12))
        b = -round(a * math.sqrt(2) / math.sqrt(3))
        want = rng.choice((-1, 1)) * Fraction(1, 10 ** rng.randint(4, 8))
        x = Frequency.atom("s2", a) + Frequency.atom("s3", b) + Frequency.rational(want - a * s2 - b * s3)
        assert x.exact_numeric(table) == want
        for guard in (exactnum.DEFAULT_GUARD, 0.0):
            try:
                sign = index_sign(x, table, guard)
            except IndeterminateSign:
                continue
            decided += 1
            wrong += sign != (1 if want > 0 else -1)
    assert wrong == 0
    assert decided > 1000
    # a dilation value is the rounded exact rational: its sign is exact
    dil = AtomTable({}, {"h": math.pi / 4})
    h = Fraction(math.pi / 4)
    for k in range(4, 16):
        for want in (Fraction(1, 10**k), -Fraction(1, 10**k)):
            t = DilationIndex.single("h", 10**12) + DilationIndex.unit(want - 10**12 * h)
            assert index_sign(t, dil, guard=0.0) == (1 if want > 0 else -1)


def test_dilation_sign():
    table = AtomTable({}, {"h": 0.5})
    assert index_sign(DilationIndex.unit(Fraction(1, 8)), table) == 1
    assert index_sign(DilationIndex.single("h", -2), table) == -1
    assert index_sign(DilationIndex.zero(), table) == 0


def test_atom_table_guards():
    with pytest.raises(ValueError):
        AtomTable({"bad": -1.0}, {})
    with pytest.raises(ValueError):
        AtomTable({"bad": float("inf")}, {})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        AtomTable({"a": 1.5, "b": 3.0}, {})
    assert any(issubclass(w.category, AtomCollisionWarning) for w in caught)


@pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
def test_atom_table_names_the_kind_of_a_bad_value(value):
    with pytest.raises(InvalidParameter) as info:
        AtomTable({}, {"h": value})
    assert str(info.value) == "dilation symbol 'h' must have a positive finite value"
    with pytest.raises(InvalidParameter) as info:
        AtomTable({"a": value}, {})
    assert str(info.value) == "atom 'a' must have a positive finite value"


def test_bohr_character_extends_linearly():
    chi = BohrCharacter([(FrequencyAtom("s2"), Fraction(1, 3))])
    f = Frequency.atom("s2", Fraction(3, 2)) + Frequency.rational(7)
    assert chi.angle(f) == Fraction(1, 2)
    assert chi.value(f) == pytest.approx(cmath.exp(0.5j))
    assert BohrCharacter.trivial().angle(f) == 0


def test_bohr_character_commutes_with_dilation_scaling():
    # angles attach to base symbols, so e^t-scaled frequencies keep them
    chi = BohrCharacter({"s2": Fraction(2, 5), "ONE": Fraction(-1, 3)})
    f = Frequency.atom("s2", Fraction(1, 2)) + Frequency.rational(3)
    for t in (DilationIndex.unit(1), DilationIndex.single("h", Fraction(-3, 2))):
        assert chi.angle(f.scale_exp(t)) == chi.angle(f)


def test_character_angle_equals_the_fraction_reference():
    rng = random.Random(3030)
    chars = [BohrCharacter.trivial()]
    for _ in range(40):
        bases = rng.choices(("ONE", "s2", "s3"), k=rng.randint(1, 3))
        chars.append(BohrCharacter((base, random_fraction(rng)) for base in bases))
    missing = 0
    for _ in range(400):
        chi = rng.choice(chars)
        f = random_frequency(rng, max_parts=3).scale_exp(random_dilation(rng))
        angles = dict(chi.angles)
        missing += any(atom.base not in angles for atom, _ in f.terms)
        want = sum((q * angles.get(atom.base, 0) for atom, q in f.terms), Fraction(0))
        got = chi.angle(f)
        assert type(got) is Fraction and got == want
    assert missing > 100
    assert BohrCharacter.trivial().angle(Frequency.zero()) == 0
    chi = BohrCharacter({"s2": Fraction(2, 3), "ONE": Fraction(-1, 4), "s3": 0})
    assert chi.angles == (("ONE", Fraction(-1, 4)), ("s2", Fraction(2, 3)))
    assert repr(chi) == "BohrCharacter([('ONE', Fraction(-1, 4)), ('s2', Fraction(2, 3))])"
    assert chi.angle(Frequency.atom("s3", 5)) == 0


# ------------------------------------------- fast paths and lazy hashes


def _items(x):
    if isinstance(x, QI):
        return (x.re, x.im)
    return x.terms


def _assert_same(fast, general):
    """A fast-path result is the general constructor's canonical form:
    the same items tuple, equal, and with the same hash."""
    assert type(fast) is type(general)
    assert _items(fast) == _items(general)
    assert fast == general
    assert hash(fast) == hash(general)


def _random_shifted_frequency(rng):
    """A sum of e^t-scaled frequencies: one base can carry several
    exponents, so an exponent shift can reorder the atoms."""
    total = Frequency.zero()
    for _ in range(rng.randint(1, 3)):
        total = total + random_frequency(rng).scale_exp(random_dilation(rng))
    return total


def _random_exponent(rng):
    return PhaseExponent.product(_random_shifted_frequency(rng), random_frequency(rng))


def _random_phase_sum(rng, max_terms=3):
    total = PhaseSum.zero()
    for _ in range(rng.randint(1, max_terms)):
        total = total + random_scalar(rng).num.shift(_random_exponent(rng))
    return total


def _random_qi(rng):
    return QI(random_fraction(rng, 40, 30), random_fraction(rng, 40, 30))


def test_fast_paths_match_the_general_constructors():
    rng = random.Random(3001)
    for _ in range(300):
        t, u = random_dilation(rng), random_dilation(rng)
        _assert_same(-t, DilationIndex([(s, -q) for s, q in t.terms]))
        _assert_same(t + u, DilationIndex(t.terms + u.terms))

        f, g = random_frequency(rng), _random_shifted_frequency(rng)
        q = random_fraction(rng)
        _assert_same(-f, Frequency([(a, -c) for a, c in f.terms]))
        if q:
            _assert_same(f.scale(q), Frequency([(a, c * q) for a, c in f.terms]))
        _assert_same(f + g, Frequency(f.terms + g.terms))
        _assert_same(g.scale_exp(t), Frequency([(a.scaled(t), c) for a, c in g.terms]))
        assert all(type(c) is Fraction for _, c in (f + g).terms + f.scale(q).terms)

        pe = PhaseExponent.product(f, g)
        general = [(PhaseMonomial(tuple(b for b in (a.base, b.base) if b != "ONE"), a.exp + b.exp), qa * qb)
                   for a, qa in f.terms for b, qb in g.terms]
        _assert_same(pe, PhaseExponent(general))
        _assert_same(-pe, PhaseExponent([(m, -c) for m, c in pe.terms]))
        pe2 = _random_exponent(rng)
        _assert_same(pe + pe2, PhaseExponent(pe.terms + pe2.terms))

        a, b = random_scalar(rng).num, random_scalar(rng).num
        assert len(a.terms) == len(b.terms) == 1
        _assert_same(a * b, PhaseSum([(p + r, x * y) for p, x in a.terms for r, y in b.terms]))
        _assert_same(a.shift(pe), PhaseSum([(p + pe, x) for p, x in a.terms]))

        s, w = _random_phase_sum(rng), _random_phase_sum(rng)
        amp = _random_qi(rng)
        _assert_same(-s, PhaseSum([(p, -x) for p, x in s.terms]))
        if not amp.is_zero():
            _assert_same(s.scale(amp), PhaseSum([(p, x * amp) for p, x in s.terms]))
        _assert_same(s.shift(pe), PhaseSum([(p + pe, x) for p, x in s.terms]))
        _assert_same(s.conj(), PhaseSum([(-p, x.conj()) for p, x in s.terms]))
        _assert_same(s + w, PhaseSum(s.terms + w.terms))
        for left, right in ((s, a), (a, s), (s, w)):
            _assert_same(left * right, PhaseSum([(p + r, x * y) for p, x in left.terms for r, y in right.terms]))


def test_qi_ops_match_fraction_arithmetic():
    rng = random.Random(3002)
    for _ in range(400):
        x, y = _random_qi(rng), _random_qi(rng)
        xr, xi, yr, yi = x.re, x.im, y.re, y.im
        assert type(xr) is Fraction and type(xi) is Fraction
        _assert_same(x + y, QI(xr + yr, xi + yi))
        _assert_same(x - y, QI(xr - yr, xi - yi))
        _assert_same(-x, QI(-xr, -xi))
        _assert_same(x * y, QI(xr * yr - xi * yi, xr * yi + xi * yr))
        _assert_same(x.conj(), QI(xr, -xi))
        assert x.abs2() == xr * xr + xi * xi
        assert x.is_zero() == (not xr and not xi)
        assert PhaseSum.gaussian(x).numeric(exactnum.DEFAULT_TABLE) == complex(xr) + 1j * complex(xi)
        if not x.is_zero():
            n = xr * xr + xi * xi
            _assert_same(x.inverse(), QI(xr / n, -xi / n))
    _assert_same(QI(Fraction(2, 4), 0.5), QI(Fraction(1, 2), Fraction(1, 2)))
    _assert_same(QI(3, -6) * QI(Fraction(1, 3)), QI(1, -2))
    _assert_same(QI(Fraction(1, 2)) + QI(Fraction(1, 2)), QI(1))


def test_scalar_fast_paths_match_the_general_constructor():
    rng = random.Random(3003)
    one = Scalar.one()
    for _ in range(200):
        c, d = random_scalar(rng), random_scalar(rng)
        angle = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        fraction = c / (one + Scalar.rational_angle(angle))  # two-term denominator
        assert len(fraction.den.terms) == 2
        pe = _random_exponent(rng)
        for x in (c, fraction):
            fast, general = x.rotate(pe), x * Scalar.phase(pe)
            _assert_same(fast.num, general.num)
            _assert_same(fast.den, general.den)
            assert fast.den is x.den
            _assert_same((-x).num, Scalar(-x.num, x.den).num)
            _assert_same(x.conj().num, Scalar(x.num.conj(), x.den.conj()).num)
            _assert_same(x.conj().den, Scalar(x.num.conj(), x.den.conj()).den)
        _assert_same((c * d).num, Scalar(c.num * d.num, c.den * d.den).num)
        _assert_same((c + d).num, Scalar(c.num + d.num).num)
        assert (c * d).den is PhaseSum.one()
        assert (c == d) == (c.num * d.den == d.num * c.den)
    assert (Scalar.one() - Scalar.one()).den is PhaseSum.one()


def test_equal_objects_hash_equal():
    rng = random.Random(3004)
    for _ in range(200):
        t, u = random_dilation(rng), random_dilation(rng)
        f, g = random_frequency(rng), random_frequency(rng)
        pairs = [
            (t + u, u + t),
            ((t + u) - u, t),
            (f + g, g + f),
            ((f + g) - g, f),
            (f.scale_exp(t).scale_exp(u), f.scale_exp(u + t)),
            (PhaseExponent.product(f, g), PhaseExponent.product(g, f)),
            (PhaseExponent.product(f + g, g), PhaseExponent.product(f, g) + PhaseExponent.product(g, g)),
        ]
        a, b = random_scalar(rng).num, random_scalar(rng).num
        pairs += [(a * b, b * a), ((a + b) - b, a)]
        x, y = _random_qi(rng), _random_qi(rng)
        pairs += [(x * y, y * x), ((x + y) - y, x), (x.conj().conj(), x)]
        for left, right in pairs:
            assert left == right
            assert hash(left) == hash(right)


def test_constructors_accept_any_mapping():
    proxy = MappingProxyType
    atom = FrequencyAtom("s2")
    mono = PhaseMonomial(("s2",))
    pe = PhaseExponent.rational(1)
    key = (Frequency.rational(1), Frequency.zero(), DilationIndex.zero())
    assert DilationIndex(proxy({"h": 1, "UNIT": Fraction(1, 2)})) == DilationIndex(
        [("UNIT", Fraction(1, 2)), ("h", 1)]
    )
    assert Frequency(proxy({atom: 2})) == Frequency.atom("s2", 2)
    assert PhaseExponent(proxy({mono: Fraction(1, 3)})) == PhaseExponent([(mono, Fraction(1, 3))])
    assert PhaseSum(proxy({pe: QI(1)})) == PhaseSum.phase(pe)
    assert Element(proxy({key: Scalar.one()})) == Element.m(1)
    assert BohrCharacter(proxy({"s2": Fraction(1, 3)})) == BohrCharacter([("s2", Fraction(1, 3))])


# ------------------------------------------------ the shared canonical sum

_SUM_KINDS = (DilationIndex, Frequency, PhaseExponent, PhaseSum)


def _sample_sum(cls, rng):
    if cls is DilationIndex:
        return random_dilation(rng) + random_dilation(rng)
    if cls is Frequency:
        return _random_shifted_frequency(rng)
    if cls is PhaseExponent:
        return _random_exponent(rng) + _random_exponent(rng)
    return _random_phase_sum(rng)


def _scrambled(rng, x, spare):
    """The items of x with each coefficient split into two summands, plus
    a cancelling pair for each item of spare, shuffled."""
    items = []
    for key, q in x.terms:
        part = random_fraction(rng) if isinstance(q, Fraction) else _random_qi(rng)
        items += [(key, part), (key, q - part)]
    for key, q in spare:
        items += [(key, q), (key, -q)]
    rng.shuffle(items)
    return items


def _assert_canonical(x):
    order = [type(x)._order(item) for item in x.terms]
    assert all(a < b for a, b in zip(order, order[1:]))
    assert not any(type(x)._coeff_is_zero(q) for _, q in x.terms)


@pytest.mark.parametrize("cls", _SUM_KINDS, ids=lambda c: c.__name__)
def test_general_constructor_canonicalizes_scrambled_items(cls):
    rng = random.Random(3005)
    for _ in range(150):
        x = _sample_sum(cls, rng)
        spare = _sample_sum(cls, rng).terms
        _assert_canonical(x)
        _assert_same(cls(_scrambled(rng, x, spare)), x)
        _assert_same(cls(_scrambled(rng, cls.zero(), spare)), cls.zero())
        _assert_same(x - x, cls.zero())


def _one_term(cls, rng, key=None):
    """A sum of one term; its key is drawn from a pool of two or three, so
    that two draws often share one, or is ``key`` when given."""
    if cls is PhaseSum:
        amp = _random_qi(rng)
        pe = key or PhaseExponent.rational(rng.randint(0, 1))
        return PhaseSum([(pe, QI(1) if amp.is_zero() else amp)])
    if key is None:
        if cls is DilationIndex:
            key = rng.choice(("UNIT", "h"))
        else:
            bases = rng.choice(((), ("s2",)) if cls is Frequency else ((), ("s2",), ("s2", "s3")))
            key = PhaseMonomial(bases, rng.choice((None, DilationIndex.single("h", 1))))
    return cls([(key, random_fraction(rng, 6, 6) or Fraction(1, 3))])


def _assert_sum_is_general(a, b):
    general = type(a)(a.terms + b.terms)
    for total in (a + b, b + a):
        _assert_same(total, general)
        assert (total._d, total._items) == (general._d, general._items)
        assert not general.is_zero() or (total is type(a)._zero and total._d == 1)


@pytest.mark.parametrize("cls", _SUM_KINDS, ids=lambda c: c.__name__)
def test_one_term_sums_match_the_general_constructor(cls):
    rng = random.Random(2604)
    for _ in range(300):
        a = _one_term(cls, rng)
        key = a._items[0][0]
        # a random draw (equal or distinct keys, either order, any
        # denominators), a cancelling term, and another coefficient at a's key
        for b in (_one_term(cls, rng), -a, _one_term(cls, rng, key)):
            _assert_sum_is_general(a, b)


_KEY_PAIRS = {
    DilationIndex: ("UNIT", "h"),
    Frequency: (PhaseMonomial(), PhaseMonomial(("s2",))),
    PhaseExponent: (PhaseMonomial(("s2",)), PhaseMonomial(("s2", "s3"))),
}


@pytest.mark.parametrize("cls", list(_KEY_PAIRS), ids=lambda c: c.__name__)
def test_one_term_sums_over_unequal_denominators(cls):
    k1, k2 = _KEY_PAIRS[cls]

    def term(key, n, d):
        return cls([(key, Fraction(n, d))])

    # equal keys: 1/4 + 1/4 = 1/2 and 1/6 + 1/3 = 1/2 share a factor with
    # the common denominator, 1/2 + 1/3 does not; then distinct keys
    for a, b, d in ((term(k1, 1, 4), term(k1, 1, 4), 2), (term(k1, 1, 6), term(k1, 1, 3), 2),
                    (term(k1, 1, 2), term(k1, 1, 3), 6), (term(k1, 1, 2), term(k2, 1, 3), 6),
                    (term(k1, 3, 4), term(k2, -1, 4), 4), (term(k1, 1, 6), term(k1, -1, 6), 1)):
        _assert_sum_is_general(a, b)
        assert (a + b)._d == d


def test_sums_share_one_canonical_core():
    shared = {"__new__", "__init__", "_canonical", "is_zero", "__add__", "__neg__", "__sub__",
              "__eq__", "__hash__", "__reduce__"}
    for cls in (Frequency, PhaseExponent, PhaseSum):
        assert not shared & set(vars(cls)), cls.__name__
    # the interned index keeps the core and only swaps in identity
    assert shared & set(vars(DilationIndex)) == {"__eq__", "__hash__"}
    assert DilationIndex.__eq__ is object.__eq__
    assert DilationIndex.__hash__ is object.__hash__


# ------------------------------------- factored denominators and binomials

THETA = PhaseExponent.product(Frequency.atom("s2"), Frequency.rational(1))
OTHER = PhaseExponent.product(Frequency.atom("s3"), Frequency.rational(1))  # not in Q*THETA


def _poly(coeffs: dict) -> PhaseSum:
    """sum c_n u^n with u = e^{i*THETA}; n may be a Fraction, c a number
    or a QI."""
    return PhaseSum([(THETA.scale(n), c if isinstance(c, QI) else QI(c)) for n, c in coeffs.items()])


def _fraction(num: PhaseSum, *dens: PhaseSum) -> Scalar:
    out = Scalar(num)
    for den in dens:
        out = out * Scalar(PhaseSum.one(), den)
    return out


ONE_MINUS_U = _poly({0: 1, 1: -1})


def test_binomial_factor_cancels_when_it_divides():
    x = Scalar(_poly({0: 1, 2: -1}), ONE_MINUS_U)  # (1 - u^2)/(1 - u)
    assert x.factors == ()
    _assert_same(x.num, _poly({0: 1, 1: 1}))
    # a = 2 and a = i: (1 - 4u^2)/(1 + 2u) and (1 + u^2)/(1 + i u)
    x = Scalar(_poly({0: 1, 2: -4}), _poly({0: 1, 1: 2}))
    assert x.factors == ()
    _assert_same(x.num, _poly({0: 1, 1: -2}))
    x = Scalar(_poly({0: 1, 2: 1}), _poly({0: 1, 1: QI(0, 1)}))
    assert x.factors == ()
    _assert_same(x.num, _poly({0: 1, 1: QI(0, -1)}))
    # the unit of the denominator's least term moves to the numerator
    x = Scalar(_poly({0: 1, 2: -1}), _poly({-1: 2, 0: -2}))  # (1 - u^2)/(2u^-1 (1 - u))
    assert x.factors == ()
    _assert_same(x.num, _poly({1: Fraction(1, 2), 2: Fraction(1, 2)}))


def test_binomial_factor_stays_when_it_does_not_divide():
    for num, den in (
        (_poly({0: 1, 2: 1}), ONE_MINUS_U),  # p(1) = 2
        (_poly({0: 1, 2: 4}), _poly({0: 1, 1: 2})),  # p(-1/2) = 2
        (_poly({0: 3}), ONE_MINUS_U),
        (ONE_MINUS_U, _poly({0: 1, 2: -1})),  # 1 - u^2 is not split
    ):
        x = Scalar(num, den)
        assert x.factors == ((den, 1),)
        _assert_same(x.num, num)
        assert x * Scalar(den) == Scalar(num)


def test_binomial_division_works_coset_by_coset():
    # (1 - u) (e^{i*OTHER} + 2 e^{i*THETA/2}): two cosets of Z*THETA, one
    # of them at a half-integer power of u
    quotient = PhaseSum.phase(OTHER) + _poly({Fraction(1, 2): 2})
    x = Scalar(quotient * ONE_MINUS_U, ONE_MINUS_U)
    assert x.factors == ()
    _assert_same(x.num, quotient)
    # (1 + u)(e^{i*OTHER} - 1): the coefficients sum to zero over all
    # cosets, yet 1 - u divides neither coset
    num = _poly({0: 1, 1: 1}) * (PhaseSum.phase(OTHER) - PhaseSum.one())
    x = Scalar(num, ONE_MINUS_U)
    assert x.factors == ((ONE_MINUS_U, 1),)
    _assert_same(x.num, num)


def test_binomial_factor_cancels_as_often_as_it_divides():
    one_plus_u = _poly({0: 1, 1: 1})
    num = ONE_MINUS_U * ONE_MINUS_U * one_plus_u
    x = _fraction(num, ONE_MINUS_U, ONE_MINUS_U, ONE_MINUS_U)
    assert x.factors == ((ONE_MINUS_U, 1),)
    _assert_same(x.num, one_plus_u)
    y = _fraction(PhaseSum.one(), ONE_MINUS_U, ONE_MINUS_U)
    assert y.factors == ((ONE_MINUS_U, 2),)
    assert y.den == ONE_MINUS_U * ONE_MINUS_U
    z = y * Scalar(ONE_MINUS_U * ONE_MINUS_U)
    assert z.factors == () and z == Scalar.one()


def test_binomial_division_never_lengthens_the_numerator():
    # (1 - u^3)/(1 - u) = 1 + u + u^2 and (1 - u^1000)/(1 - u) would grow
    # the numerator, so both stay as they are
    for n in (3, 1000):
        num = _poly({0: 1, n: -1})
        x = Scalar(num, ONE_MINUS_U)
        assert x.factors == ((ONE_MINUS_U, 1),)
        _assert_same(x.num, num)


def test_opaque_factor_cancels_only_against_itself():
    opaque = _poly({0: 2, 1: 1, Fraction(1, 3): 1})
    x = Scalar(PhaseSum.one(), opaque)
    (factor, mult), = x.factors
    assert mult == 1 and len(factor.terms) == 3
    assert (x * Scalar(opaque.shift(OTHER))).single_phase() == (OTHER, QI(1))
    assert (x * x).factors == ((factor, 2),)


def test_a_unit_whose_factors_the_other_side_has_skips_the_reduction(monkeypatch):
    opaque = _poly({0: 2, 1: 1, Fraction(1, 3): 1})
    unit = PhaseSum.phase(OTHER).scale(QI(2, -1))
    cases = (
        # a unit over 1 - u times a numerator already reduced by 1 - u
        (Scalar(unit, ONE_MINUS_U), Scalar(_poly({0: 1, 2: 1}), ONE_MINUS_U)),
        # the unit's multiplicity above the other side's
        (_fraction(unit, ONE_MINUS_U, ONE_MINUS_U, ONE_MINUS_U), Scalar(_poly({0: 1, 2: 1}), ONE_MINUS_U)),
        # an opaque three-term factor on both sides
        (Scalar(unit, opaque), _fraction(_poly({0: 1, 1: 3, 2: 1}), opaque, ONE_MINUS_U)),
        # two units: the one without factors is the unit side
        (Scalar(PhaseSum.rational(3)), Scalar(unit, ONE_MINUS_U)),
    )
    calls = []
    divide = exactnum._divide_binomial
    monkeypatch.setattr(exactnum, "_divide_binomial", lambda *a: calls.append(a) or divide(*a))
    for x, y in cases:
        assert len(x.num.terms) == 1
        for pe in (exactnum._EXP_ZERO, THETA.scale(3)):
            for a, b in ((x, y), (y, x)):
                before = len(calls)
                want = reduced_product(a, b).rotate(pe)
                tried = len(calls)
                got = a.rotated_product(b, pe)
                # the forced reduction tries 1 - u, the product nothing
                assert tried > before and len(calls) == tried
                assert (got.num._d, got.num._items, got.factors) == (want.num._d, want.num._items, want.factors)
                assert got.factors


def test_a_certificate_chain_divides_only_in_sums(monkeypatch):
    # f (f + D(s))^6 at (s2, s3): every general-path product has a unit
    # side whose factors the other side has, so no product tries a division
    s = Frequency.atom("s3")
    f = commutator_certificate(Frequency.atom("s2"), s).f
    step, chain = f + Element.d(s), f
    calls, depth = {"product": 0, "other": 0}, [0]
    divide, product = exactnum._divide_binomial, Scalar.rotated_product

    def counted_divide(*args):
        calls["product" if depth[0] else "other"] += 1
        return divide(*args)

    def counted_product(*args):
        depth[0] += 1
        try:
            return product(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(exactnum, "_divide_binomial", counted_divide)
    monkeypatch.setattr(Scalar, "rotated_product", counted_product)
    for _ in range(6):
        chain = mul(chain, step)
    assert any(c.factors for c in chain.terms.values())
    # the merges of keys that meet are sums, and those still divide
    assert calls["product"] == 0 and calls["other"] > 0


def test_a_certificate_chains_key_merges_run_no_horner_scheme(monkeypatch):
    # the key merges of f (f + D(s))^6 at (s2, s3) try 1 - e^{i*theta} and
    # fail, each on a nonzero amplitude sum, so no power of -a is taken
    s = Frequency.atom("s3")
    f = commutator_certificate(Frequency.atom("s2"), s).f
    step, chain = f + Element.d(s), f
    divisions, pows = [], []
    divide, qi_pow = exactnum._divide_binomial, exactnum._qi_pow
    monkeypatch.setattr(exactnum, "_divide_binomial", lambda *a: divisions.append(a) or divide(*a))
    monkeypatch.setattr(exactnum, "_qi_pow", lambda *a: pows.append(a) or qi_pow(*a))
    for _ in range(6):
        chain = mul(chain, step)
    assert divisions and not pows


# cosets of Z*THETA: 0 and THETA/2 differ by no integer power of u, and
# neither does OTHER or 2 OTHER
_COSET_REPS = (exactnum._EXP_ZERO, THETA.scale(Fraction(1, 2)), OTHER, OTHER.scale(2))
QI_ZERO = exactnum.QI_ZERO
# (a + b*i)/d, nonzero, with denominators that differ from term to term
_AMPLITUDES = st.builds(
    lambda a, b, d: QI(Fraction(a or 1, d), Fraction(b, d)),
    st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3),
)


# a in the binomials 1 + a*u: 1 - u, whose root is 1, and four others
_BINOMIAL_A = (QI(-1), QI(Fraction(-1, 2)), QI(2), QI(0, 1), QI(1, -1))


@st.composite
def _coset_polys(draw):
    """a and two or more (rep, {power: amplitude}) cosets.  A coset may be
    made divisible by 1 + a*u, and for a = -1 a numerator may be balanced
    so that its amplitudes sum to 0 over all cosets while single cosets
    do not."""
    a = draw(st.sampled_from(_BINOMIAL_A))
    reps = draw(st.lists(st.sampled_from(_COSET_REPS), min_size=2, max_size=4, unique=True))
    cosets = []
    for rep in reps:
        poly = draw(st.dictionaries(st.integers(-3, 3), _AMPLITUDES, min_size=1, max_size=4))
        if draw(st.booleans()):
            times = {}
            for n, c in poly.items():
                times[n] = times.get(n, QI_ZERO) + c
                times[n + 1] = times.get(n + 1, QI_ZERO) + a * c
            poly = times
        cosets.append((rep, poly))
    if a == QI(-1) and draw(st.booleans()):
        rep, poly = cosets[0]
        total = QI_ZERO
        for _, p in cosets:
            for c in p.values():
                total = total + c
        low = min(poly)
        poly[low] = poly[low] - total
    return a, [(rep, {n: c for n, c in poly.items() if not c.is_zero()}) for rep, poly in cosets]


def _coset_quotient(a: QI, cosets: list) -> list | None:
    """The quotient by 1 + a*u one coset at a time, by synthetic division:
    its coefficient at u^n is q_n = c_n - a*q_{n-1} (for a = -1 the sum
    of the numerator's coefficients up to u^n), and the last value, the
    remainder, must vanish."""
    out = []
    for rep, poly in cosets:
        if not poly:
            continue
        run, powers = QI_ZERO, sorted(poly)
        for n in range(powers[0], powers[-1] + 1):
            run = poly.get(n, QI_ZERO) - a * run
            if n < powers[-1] and not run.is_zero():
                out.append((rep + THETA.scale(n), run))
        if not run.is_zero():
            return None
    return out


# 300 examples: fewer leave some a with no quotient to compare
@settings(max_examples=300)
@given(_coset_polys())
def test_the_binomial_division_equals_the_division_coset_by_coset(drawn):
    a, cosets = drawn
    factor = _poly({0: 1, 1: a})
    num = PhaseSum([(rep + THETA.scale(n), c) for rep, poly in cosets for n, c in poly.items()])
    got = exactnum._divide_binomial(num, factor)
    quotient = _coset_quotient(a, cosets)
    if quotient is None or len(quotient) > len(num.terms):
        assert got is None
    else:
        _assert_same(got, PhaseSum(quotient))
        assert got * factor == num


def test_a_nonzero_amplitude_sum_refutes_before_any_power(monkeypatch):
    # the coset pass is the only caller of theta.scale, and no division
    # takes a power: _qi_pow's one caller is Scalar.conj
    pows, scales = [], []
    qi_pow, scale = exactnum._qi_pow, PhaseExponent.scale
    monkeypatch.setattr(exactnum, "_qi_pow", lambda *a: pows.append(a) or qi_pow(*a))
    monkeypatch.setattr(PhaseExponent, "scale", lambda self, c: scales.append(c) or scale(self, c))

    def divide(num):
        pows.clear()
        scales.clear()
        return exactnum._divide_binomial(num, ONE_MINUS_U)

    # (1 + u)(e^{i*OTHER} - 1): the total is 0 though neither coset's sum
    # is, so the refutation lets it through and the coset pass refuses it
    assert divide(_poly({0: 1, 1: 1}) * (PhaseSum.phase(OTHER) - PhaseSum.one())) is None
    assert scales and not pows
    # totals of 2 and 5/6 over mixed denominators, one across a gap of
    # 10: refuted before the cosets are formed
    for num in (_poly({0: 1, 10: 1}), _poly({0: Fraction(1, 2), 1: Fraction(1, 3)})):
        assert divide(num) is None and not scales and not pows
    # one term: no binomial divides a unit
    assert exactnum._divide_binomial(_poly({0: 3}), _poly({0: 1, 1: 2})) is None
    # only a = -1 is refuted by the sum: 1 - u^2/4 sums to 3/4, yet
    # 1 - u/2 divides it
    _assert_same(
        exactnum._divide_binomial(_poly({0: 1, 2: Fraction(-1, 4)}), _poly({0: 1, 1: Fraction(-1, 2)})),
        _poly({0: 1, 1: Fraction(1, 2)}),
    )
    # (1 - u^2)/(1 - u) = 1 + u, and 1/2 + 1/3 u - 5/6 u^2 over 1 - u
    _assert_same(divide(_poly({0: 1, 2: -1})), _poly({0: 1, 1: 1}))
    _assert_same(
        divide(_poly({0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(-5, 6)})),
        _poly({0: Fraction(1, 2), 1: Fraction(5, 6)}),
    )


def test_a_unit_that_brings_a_factor_is_reduced():
    # u/(1 - u) * (1 - u) w: the factor divides, and only the reduction finds it
    w = PhaseSum.phase(OTHER) + PhaseSum.rational(3)
    x, y = Scalar(_poly({1: 1}), ONE_MINUS_U), Scalar(ONE_MINUS_U * w)
    for a, b in ((x, y), (y, x)):
        got, want = a * b, reduced_product(a, b)
        assert (got.num._d, got.num._items, got.factors) == (want.num._d, want.num._items, want.factors)
        assert got.factors == () and got.num == _poly({1: 1}) * w


def test_fractions_obey_the_field_laws():
    rng = random.Random(3006)
    table = AtomTable({"s2": math.sqrt(2), "s3": math.sqrt(3)}, {})
    dens = [ONE_MINUS_U, _poly({0: 1, 1: 2}), _poly({0: 1, Fraction(1, 2): QI(0, 1)}),
            _poly({0: 2, 1: 1, 2: -1})]

    def draw():
        c = random_scalar(rng) * Scalar.phase(THETA.scale(rng.randint(-2, 2)))
        for _ in range(rng.randint(0, 2)):
            c = c / Scalar(rng.choice(dens))
        return c

    for _ in range(60):
        x, y, z = draw(), draw(), draw()
        assert (x + y) * z == x * z + y * z
        assert (x * y) / y == x
        assert (x - y) + y == x
        assert x.conj().conj() == x
        for got, want in (
            ((x + y).numeric(table), x.numeric(table) + y.numeric(table)),
            ((x * y).numeric(table), x.numeric(table) * y.numeric(table)),
            (x.conj().numeric(table), x.numeric(table).conjugate()),
        ):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_times_rational_is_the_product_with_the_rational_scalar():
    rng = random.Random(2518)
    dens = [ONE_MINUS_U, _poly({0: 1, 1: 2}), _poly({0: 2, 1: 1, 2: -1})]
    qs = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 0.1, -0.75, 3.0, 1e300,
          Fraction(-7, 12), Fraction(0), 5, 0]
    for i in range(40):
        c = random_scalar(rng) * Scalar.phase(THETA.scale(rng.randint(-2, 2)))
        # a binomial, an opaque factor or both, on all but every fourth
        for den in dens[i % 4 : i % 4 + 1 + i % 2]:
            c = c / Scalar(den)
        for q in qs:
            got, want = c.times_rational(q), c * Scalar.from_rational(Fraction(q))
            assert got == want
            assert got.num._items == want.num._items and got.factors == want.factors
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameter, match="not a finite rational"):
            Scalar.one().times_rational(bad)


def test_one_canonical_key_per_monomial():
    empty = PhaseMonomial.empty()
    for key, same in [
        (PhaseMonomial(("ONE",)), empty),
        (FrequencyAtom("s2"), PhaseMonomial(("s2",))),
        (FrequencyAtom("ONE"), empty),
        (FrequencyAtom("s2", DilationIndex.unit(1)), PhaseMonomial(("s2", "ONE"), DilationIndex.unit(1))),
    ]:
        assert key is same
    exp, same = PhaseExponent([(PhaseMonomial(("ONE",)), 1)]), PhaseExponent.rational(1)
    assert exp == same
    assert hash(exp) == hash(same)
    assert exp._items[0][0] is same._items[0][0] is empty
    rng = random.Random(14)
    for _ in range(200):
        f = random_frequency(rng).scale_exp(random_dilation(rng))
        for key, _ in f.terms + random_frequency(rng).terms:
            assert type(key) is PhaseMonomial and len(key.bases) <= 1
    # the sums, amplitudes and characters hash; the one monomial key is
    # interned and hashes by identity, and no second key class hashes
    tree = ast.parse(Path(exactnum.__file__).read_text())
    hashing = {
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "__hash__" for f in node.body)
    }
    assert hashing == {"_Sum", "QI", "BohrCharacter"}


# ------------------------------- interned dilation indices and monomials


def test_every_route_to_an_index_or_monomial_gives_the_interned_object():
    h = DilationIndex.single("h", Fraction(1, 2))
    one = DilationIndex.unit(1)
    indices = [
        DilationIndex([("h", Fraction(1, 2)), ("UNIT", 1)]),
        DilationIndex({"UNIT": Fraction(2, 2), "h": Fraction(1, 2)}),
        DilationIndex([("UNIT", 3), ("h", 1), ("UNIT", -2), ("h", Fraction(-1, 2))]),
        h + one,
        one + h,
        (h + h + one) - h,
        -(-(h + one)),
        (h.scale(2) + one.scale(2)).scale(Fraction(1, 2)),
        DilationIndex._distinct([("UNIT", 1), ("h", 1)], 2).scale(1) + DilationIndex.unit(Fraction(1, 2)),
        parse_dilation("1 + 1/2*h"),
    ]
    assert all(t is indices[0] for t in indices)
    assert DilationIndex.unit(1) is DilationIndex.unit(Fraction(1)) is DilationIndex.single("UNIT")
    assert DilationIndex.unit(0) is (h - h) is h.scale(0) is DilationIndex.zero() is DilationIndex()

    t = DilationIndex.single("h")
    mono = PhaseMonomial(("s2",), t)
    monomials = [
        PhaseMonomial(("ONE", "s2"), DilationIndex.single("h")),
        FrequencyAtom("s2", t),
        PhaseMonomial(("s2",)).scaled(t),
        PhaseMonomial(("s2",), t - one).scaled(one),
        PhaseMonomial.product(PhaseMonomial((), t), PhaseMonomial(("s2",))),
        Frequency.atom("s2", 3, t)._items[0][0],
        Frequency.atom("s2").scale_exp(t)._items[0][0],
        parse_frequency("s2@{h}")._items[0][0],
    ]
    assert all(m is mono for m in monomials)
    pair = PhaseMonomial(("s3", "s2"))
    assert pair is PhaseMonomial.product(PhaseMonomial(("s3",)), PhaseMonomial(("s2",)))
    assert pair is PhaseExponent.product(Frequency.atom("s2"), Frequency.atom("s3"))._items[0][0]
    assert PhaseMonomial() is PhaseMonomial(("ONE",)) is PhaseMonomial.empty()
    assert exactnum._dil_as_frequency(DilationIndex.single("h"))._items[0][0] is PhaseMonomial(("h",))


def test_equal_values_are_one_object():
    rng = random.Random(2705)
    for _ in range(500):
        a, b = random_dilation(rng), random_dilation(rng)
        assert (a - b).is_zero() == (a is b)
        assert (a == b) == (a is b)
        f = random_frequency(rng).scale_exp(a)
        g = random_frequency(rng).scale_exp(b)
        for m, _ in f._items:
            for n, _ in g._items:
                same = m.bases == n.bases and (m.exp - n.exp).is_zero()
                assert same == (m is n)


def test_copies_and_pickles_return_the_interned_object():
    t = DilationIndex.single("h", Fraction(-3, 2)) + DilationIndex.unit(2)
    m = PhaseMonomial(("s2", "s3"), t)
    zero = DilationIndex.zero()
    for x in (t, m, zero, PhaseMonomial.empty()):
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x
    assert zero.is_zero() and zero._d == 1 and DilationIndex.zero() is zero
    # the sums that are not interned copy to an equal value
    f = Frequency.atom("s2", Fraction(1, 3), t) + Frequency.rational(2)
    for y in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert y == f and y._items[0][0] is f._items[0][0]


_BASES = st.sampled_from([(), ("s2",), ("s3",), ("s2", "s3"), ("s2", "s2")])
_EXPS = st.sampled_from(
    [DilationIndex.zero(), DilationIndex.unit(1), DilationIndex.single("h", Fraction(-1, 2))]
)


def _frequencies():
    """Sums of up to three atoms: zero, one term or several, with mixed
    denominators."""
    atom = st.builds(Frequency.atom, st.sampled_from(["ONE", "s2", "s3"]), fractions, _EXPS)
    return st.lists(atom, max_size=3).map(lambda parts: sum(parts, Frequency.zero()))


def _phase_exponents():
    term = st.tuples(st.builds(PhaseMonomial, _BASES, _EXPS), fractions)
    return st.lists(term, max_size=3).map(PhaseExponent)


@settings(max_examples=300)
@given(_frequencies(), _frequencies(), st.lists(_phase_exponents(), max_size=3))
def test_the_fused_phase_equals_the_sum_of_its_parts(f, g, addends):
    got = PhaseExponent.product(f, g, *addends)
    want = PhaseExponent.product(f, g)
    for e in addends:
        want = want + e
    assert (got._d, got._items) == (want._d, want._items)
    if got.is_zero():
        assert got is PhaseExponent.zero()


def test_a_cancelling_fused_phase_is_the_zero_object():
    f = Frequency.atom("s2", Fraction(3, 2), DilationIndex.unit(1)) + Frequency.rational(
        Fraction(1, 3)
    )
    g = Frequency.atom("s3", Fraction(-2, 5)) + Frequency.rational(4)
    p = PhaseExponent.product(f, g)
    half = p.scale(Fraction(1, 2)) + PhaseExponent.rational(Fraction(5, 7))
    zero = PhaseExponent.zero()
    assert len(p._items) == 4
    assert PhaseExponent.product(f, g, -p) is zero
    assert PhaseExponent.product(f, g, -half, half - p, zero) is zero
    assert PhaseExponent.product(Frequency.zero(), g, half, -half) is zero
    assert PhaseExponent.product(f, Frequency.zero()) is zero
    # a lone nonzero addend of a zero pairing is that addend
    assert PhaseExponent.product(Frequency.zero(), g, zero, half) is half


def test_the_monomial_tables_hold_the_interned_results():
    # a prefix of the ring-law criterion c01, at its seed and sizes
    rng = random.Random(1001)
    for _ in range(40):
        x, y, z = (random_element(rng, max_terms=5) for _ in range(3))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert adjoint(mul(x, y)) == mul(adjoint(y), adjoint(x))
    products, scaled = exactnum._MONO_PRODUCTS, exactnum._MONO_SCALED
    assert len(products) > 100 and len(scaled) > 100
    for (a, b), m in products.items():
        assert type(a) is type(b) is PhaseMonomial
        assert m is exactnum._monomial_product(a, b)
    for (m, t), out in scaled.items():
        assert type(m) is PhaseMonomial and type(t) is DilationIndex
        assert out is exactnum._monomial_scaled(m, t)
    # a copied or unpickled monomial is the interned one, so its products
    # and shifts hit the entries already there
    (a, b), (m, t) = next(iter(products)), next(iter(scaled))
    sizes = len(products), len(scaled)
    for clone in (copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        c, u = clone(a), clone(m)
        assert c is a and u is m
        assert PhaseMonomial.product(c, b) is products[a, b]
        assert u.scaled(clone(t)) is scaled[m, t]
    assert (len(products), len(scaled)) == sizes


def test_an_index_outside_the_table_is_not_its_twin():
    # what the invariant guards: built around the table, an equal value
    # is a second object, and identity equality tells the two apart
    twin = DilationIndex.unit(1)
    stray = object.__new__(DilationIndex)
    stray._items, stray._d, stray._key, stray._hash = twin._items, twin._d, None, None
    assert (stray - twin).is_zero()
    assert stray != twin
    assert len({stray, twin}) == 2


# ------------------------- integer numerators over one common denominator


def _oracle_sum(*parts: dict) -> dict:
    """The sum of {key: Fraction} dicts, without zero entries."""
    out = {}
    for part in parts:
        for k, q in part.items():
            out[k] = out.get(k, 0) + q
    return {k: q for k, q in out.items() if q}


def _oracle_shift(m: PhaseMonomial, t: DilationIndex) -> PhaseMonomial:
    """m times e^t, its exponent summed through the oracle."""
    return PhaseMonomial(m.bases, DilationIndex(_oracle_sum(dict(m.exp.terms), dict(t.terms))))


def _fraction_sort_key(x):
    """The sort key of a sum read off its Fraction terms, monomials ordered
    by their bases and the Fraction terms of their exponent."""
    if isinstance(x, DilationIndex):
        return x.terms
    return tuple([((k.bases, k.exp.terms), q) for k, q in x.terms])


def _assert_matches_oracle(x, oracle: dict, table: AtomTable):
    assert dict(x.terms) == oracle
    assert all(type(q) is Fraction for _, q in x.terms)
    nums = [n for _, n in x._items]
    assert x._d > 0 and all(type(n) is int for n in nums)
    assert math.gcd(x._d, *nums) == 1
    if not oracle:
        assert x._d == 1 and x.is_zero()
    built = type(x)(oracle)
    assert (built._d, built._items) == (x._d, x._items)
    assert built == x and hash(built) == hash(x)
    for k, q in oracle.items():
        assert x.coefficient(k) == q
    if isinstance(x, DilationIndex):
        exact = sum(q * Fraction(table.dilation_value(s)) for s, q in x.terms)
        assert x.exact_numeric(table) == exact
        assert x.numeric(table) == float(exact)
    else:
        # each monomial is its atoms times e^exp, as the loop associates it
        want = sum(
            float(q) * (math.prod(map(table.atom_value, k.bases)) * math.exp(k.exp.numeric(table)))
            for k, q in x.terms
        )
        assert x.numeric(table) == want


def _sum_chain(rng, cls, table, steps=60):
    """A random chain of +, -, scale, scale_exp and PhaseExponent.product
    on sums of kind cls, each step checked against a dict oracle; returns
    every sum of the chain."""
    draw = {
        DilationIndex: lambda: random_dilation(rng) + random_dilation(rng, syms=("h", "k")),
        Frequency: lambda: _random_shifted_frequency(rng),
        PhaseExponent: lambda: _random_exponent(rng),
    }[cls]
    x = draw()
    oracle = dict(x.terms)
    seen = [x]
    for _ in range(steps):
        op = rng.choice(("add", "sub", "scale", "shift", "product", "restart"))
        if op == "add" or op == "sub":
            y = draw()
            sign = 1 if op == "add" else -1
            x = x + y if op == "add" else x - y
            oracle = _oracle_sum(oracle, {k: sign * q for k, q in y.terms})
        elif op == "scale":
            q = random_fraction(rng, 12, 12)
            x = x.scale(q)
            oracle = {k: v * q for k, v in oracle.items() if v * q}
        elif op == "shift" and cls is Frequency:
            t = random_dilation(rng)
            x = x.scale_exp(t)
            oracle = {_oracle_shift(k, t): v for k, v in oracle.items()}
        elif op == "product" and cls is PhaseExponent:
            f, g = _random_shifted_frequency(rng), random_frequency(rng)
            x = x + PhaseExponent.product(f, g)
            pairs = {}
            for a, qa in f.terms:
                for b, qb in g.terms:
                    key = PhaseMonomial(a.bases + b.bases, _oracle_shift(a, b.exp).exp)
                    pairs = _oracle_sum(pairs, {key: qa * qb})
            oracle = _oracle_sum(oracle, pairs)
        elif op == "restart":
            x = cls.zero() if rng.random() < 0.3 else draw()
            oracle = dict(x.terms)
        _assert_matches_oracle(x, oracle, table)
        seen.append(x)
    return seen


@pytest.mark.parametrize("cls", (DilationIndex, Frequency, PhaseExponent), ids=lambda c: c.__name__)
def test_integer_core_matches_a_fraction_oracle(cls):
    rng = random.Random(1601)
    table = AtomTable({"s2": math.sqrt(2), "s3": math.sqrt(3)}, {"h": 0.5, "k": 0.3})
    for _ in range(8):
        seen = _sum_chain(rng, cls, table)
        by_key = sorted(seen, key=lambda s: s.key())
        by_fractions = sorted(seen, key=_fraction_sort_key)
        assert [s.terms for s in by_key] == [s.terms for s in by_fractions]


def test_adding_zero_to_a_factored_scalar_returns_it():
    c = Scalar.one() / (Scalar.one() + Scalar.rational_angle(Fraction(1, 3)))
    assert c.factors
    assert c + Scalar.zero() is c
    assert Scalar.zero() + c is c


def test_a_factored_scalar_minus_itself_is_the_zero_scalar():
    c = Scalar.one() / (Scalar.one() + Scalar.rational_angle(Fraction(1, 3)))
    assert c.factors
    zero = c - c
    assert zero is Scalar.zero()
    assert not zero.factors


def test_index_sign_refuses_a_dilation_index_inside_the_guard(table):
    tiny = DilationIndex.unit(Fraction(1, 10**12))
    with pytest.raises(IndeterminateSign, match="dilation value 1.000e-12"):
        index_sign(tiny, table, 1e-9)
    assert index_sign(tiny, table, 1e-13) == 1


def _stepwise_conj(c: Scalar) -> Scalar:
    """conj by moving each factor's unit into the numerator once per unit
    of multiplicity."""
    num, factors = c.num.conj(), []
    for f, m in c.factors:
        pe, amp, g = exactnum._unit_split(f.conj())
        for _ in range(m):
            num = num.shift(-pe).scale(amp.inverse())
        factors.append((g, m))
    return Scalar._canonical(num, tuple(sorted(factors, key=exactnum._factor_order)))


def test_conj_of_a_repeated_factor_moves_its_unit_in_one_step():
    # f (f + D(2))^6 for the certificate f at (1, 2): coefficients over
    # (1 - e^{2i})^7; and a cube over 1 + 3 e^{i}, whose unit is not 1
    s = Frequency.rational(2)
    f = commutator_certificate(Frequency.rational(1), s).f
    p = f
    for _ in range(6):
        p = mul(p, f + Element.d(s))
    c = Scalar.gaussian(1, 2) / (Scalar.one() + Scalar.gaussian(3, 0) * Scalar.rational_angle(1))
    coeffs = [*p.terms.values(), c * c * c]
    assert max(m for x in coeffs for _, m in x.factors) == 7
    for x in coeffs:
        want, got = _stepwise_conj(x), x.conj()
        assert got.num._d == want.num._d and got.num._items == want.num._items
        assert got.factors == want.factors
        assert got.conj() == x

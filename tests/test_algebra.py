"""Words as products of one-term letters, Element ring laws,
expectations, automorphisms."""

import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisemi import (
    AlgebraId,
    AutomorphismSpec,
    Axis,
    AxisMap,
    AxisMismatch,
    BohrCharacter,
    CompressionMode,
    D,
    DilationIndex,
    Element,
    EmptyElement,
    Frequency,
    FrequencyAtom,
    IndeterminateSign,
    InvalidParameter,
    InvalidScale,
    M,
    NotFound,
    PhaseExponent,
    Sc,
    Scalar,
    V,
    adjoint,
    apply_automorphism,
    check_flip_contradiction,
    coeff_map,
    commutator_certificate,
    compress,
    conjugate,
    exactnum,
    first_coeff,
    mul,
    parse_element,
    support_predicate,
)

from helpers import (
    generic,
    orbit,
    random_dilation,
    random_element,
    random_fraction,
    random_frequency,
    random_word,
    reduced_product,
)

ONE = Frequency.rational(1)
TWO = Frequency.rational(2)


def small_elements(nonneg=False, with_v=True):
    return st.builds(
        lambda seed: random_element(random.Random(seed), 3, nonneg, with_v),
        st.integers(min_value=0, max_value=10**6),
    )


def test_weyl_relation_normal_form():
    x = mul(D(ONE), M(ONE))
    expected = Element.from_word(
        [Sc(Scalar.rational_angle(Fraction(-1))), M(ONE), D(ONE)]
    )
    assert x == expected


def test_dilation_relations_normal_form():
    t = DilationIndex.unit(1)
    # V_t M_1 = M_{e^t} V_t
    assert mul(V(t), M(ONE)) == Element.from_word(
        [M(Frequency.atom("ONE", 1, t)), V(t)]
    )
    # V_t D_1 = D_{e^-t} V_t
    assert mul(V(t), D(ONE)) == Element.from_word(
        [D(Frequency.atom("ONE", 1, DilationIndex.unit(-1))), V(t)]
    )


def test_monomial_product_phase():
    # (M_1 D_2 V_t)(M_1 D_1 V_0): crossing phase e^{-i (e^t 1) 2}
    t = DilationIndex.unit(1)
    left = Element.from_word([M(ONE), D(TWO), V(t)])
    right = Element.from_word([M(ONE), D(ONE)])
    prod = mul(left, right)
    lam2 = Frequency.atom("ONE", 1, t)
    mu2 = Frequency.atom("ONE", 1, DilationIndex.unit(-1))
    phase = Scalar.phase(-PhaseExponent.product(lam2, TWO))
    expected = Element.from_word([Sc(phase), M(ONE + lam2), D(TWO + mu2), V(t)])
    assert prod == expected


def test_letters_are_the_one_term_elements():
    t = DilationIndex.unit(1)
    assert M(ONE) == Element.m(ONE) and D(ONE) == Element.d(ONE) and V(t) == Element.v(t)
    assert Sc(2) == Element.scalar(2)
    assert Element.from_word([]) == Element.identity()
    with pytest.raises(TypeError):
        Element.from_word([Frequency.rational(1)])


def test_word_fold_matches_pairwise_products():
    rng = random.Random(3)
    for _ in range(30):
        word = random_word(rng, rng.randint(1, 5))
        folded = Element.from_word(word)
        stepwise = Element.identity()
        for letter in word:
            stepwise = mul(stepwise, Element.from_word([letter]))
        assert folded == stepwise


@settings(max_examples=40)
@given(small_elements(), small_elements(), small_elements())
def test_ring_laws(x, y, z):
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, y + z) == mul(x, y) + mul(x, z)
    assert mul(x + y, z) == mul(x, z) + mul(y, z)


@settings(max_examples=40)
@given(small_elements(), small_elements())
def test_involution_is_an_antihomomorphism(x, y):
    assert adjoint(mul(x, y)) == mul(adjoint(y), adjoint(x))
    assert adjoint(adjoint(x)) == x
    assert adjoint(x + y) == adjoint(x) + adjoint(y)


def pairwise_mul(x: Element, y: Element) -> Element:
    """The product one monomial pair at a time: the reduced product of
    the two coefficients and rotation by the exchange phase for every
    pair, then the general constructor's merge."""
    items = []
    for (lam1, mu1, t1), c1 in x.terms.items():
        for (lam2, mu2, t2), c2 in y.terms.items():
            scaled = lam2.scale_exp(t1)
            c = reduced_product(c1, c2).rotate(PhaseExponent.product(scaled, -mu1))
            items.append(((lam1 + scaled, mu1 + mu2.scale_exp(-t1), t1 + t2), c))
    return Element(items)


def termwise_adjoint(x: Element) -> Element:
    """The adjoint one monomial at a time: conjugate, then rotate."""
    items = []
    for (lam, mu, t), c in x.terms.items():
        back, mod = mu.scale_exp(t), (-lam).scale_exp(-t)
        items.append(((mod, -back, -t), c.conj().rotate(PhaseExponent.product(mod, back))))
    return Element(items)


def assert_identical(got: Element, want: Element) -> None:
    """Same keys in the same order, and every key component and
    coefficient stored alike."""
    assert list(got.terms) == list(want.terms)
    for (key, c), (ref_key, ref) in zip(got.terms.items(), want.terms.items()):
        for part, ref_part in zip(key, ref_key):
            assert (part._d, part._items) == (ref_part._d, ref_part._items)
        assert c == ref
        assert (c.num._d, c.num._items, c.factors) == (ref.num._d, ref.num._items, ref.factors)


def test_mul_and_adjoint_equal_the_pairwise_formula_exactly():
    rng = random.Random(2606)
    general = 0
    for _ in range(60):
        x, y, z = (random_element(rng, 4) for _ in range(3))
        # xy and yx share the keys of their dilation-free pairs, so their
        # sum has coefficients of two phases
        both = mul(x, y) + mul(y, x)
        for a, b in ((x, y), (x + y, z), (both, z), (z, both), (mul(z, both), x)):
            assert_identical(mul(a, b), pairwise_mul(a, b))
            assert_identical(adjoint(a), termwise_adjoint(a))
            general += sum(c.single_phase() is None for c in a.terms.values())
    assert general > 100
    # keys that meet to cancel (on M(3)) and to add (on M(2)) go through
    # the merge, in order
    a = Element.m(1) + Element.d(1) + Element.m(2)
    for b in (Element.m(2) - Element.m(1), Element.m(1) + Element.identity()):
        assert len(mul(a, b).terms) < len(a.terms) * len(b.terms)
        assert_identical(mul(a, b), pairwise_mul(a, b))


def test_certificate_chains_equal_the_pairwise_formula_exactly():
    # the nine atom pairings of the coeff-swell chains, each with a seeded
    # rational multiple, to depth 6
    rng = random.Random(3101)
    for lam_atom, s_atom in itertools.product(("ONE", "s2", "s3"), repeat=2):
        lam, s = (
            Frequency.atom(atom, Fraction(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice((1, -1)))
            for atom in (lam_atom, s_atom)
        )
        cert = commutator_certificate(lam, s)
        step = cert.f + Element.d(s)
        chain = cert.f
        for _ in range(6):
            assert_identical(mul(chain, step), pairwise_mul(chain, step))
            assert_identical(adjoint(chain), termwise_adjoint(chain))
            chain = mul(chain, step)
        assert any(c.factors for c in chain.terms.values())
        h = Element.from_word([V(DilationIndex.single("h", Fraction(1, 2))), M(s)])
        for a, b in ((chain, h), (h, chain), (mul(h, chain), adjoint(h))):
            assert_identical(mul(a, b), pairwise_mul(a, b))


def general_flipped_mul(x: Element, y: Element) -> Element:
    """The pairwise product with the exchange phase conjugated on every
    pair that ``mul`` sends through the Scalar product: a wrong product
    that the orbit must catch."""
    items = []
    for (lam1, mu1, t1), c1 in x.terms.items():
        for (lam2, mu2, t2), c2 in y.terms.items():
            scaled = lam2.scale_exp(t1)
            flip = c1.single_phase() is None or c2.single_phase() is None
            c = (c1 * c2).rotate(PhaseExponent.product(scaled, mu1 if flip else -mu1))
            items.append(((lam1 + scaled, mu1 + mu2.scale_exp(-t1), t1 + t2), c))
    return Element(items)


def test_products_act_on_the_packet_orbit_as_composed_operators():
    # mul(x, y) f0 == x (y f0) exactly, on certificate chains and on
    # random elements with two-phase and factored coefficients, whose
    # pairs go through the Scalar product
    rng = random.Random(3102)
    s2, s3 = Frequency.atom("s2"), Frequency.atom("s3")
    unit_over = Scalar.one() / (Scalar.one() - Scalar.phase(PhaseExponent.product(s2, ONE)))
    pairs = []
    for lam, s in ((ONE, s2), (s2, s3), (s3, TWO)):
        f = commutator_certificate(lam, s).f
        chain, step = f, f + Element.d(s)
        for _ in range(4):
            pairs.append((chain, step))
            chain = mul(chain, step)
        pairs += [(chain, random_element(rng, 3)), (random_element(rng, 3), chain)]
    for _ in range(30):
        x, y = random_element(rng, 3), random_element(rng, 3)
        two_phase = mul(x, y) + mul(y, x)
        factored = random_element(rng, 3).scale(unit_over) + random_element(rng, 2)
        pairs += [(x, y), (two_phase, factored), (factored, two_phase)]
    caught = 0
    for x, y in pairs:
        product, composed = orbit(mul(x, y)), orbit(x, orbit(y))
        assert product == composed
        assert len(orbit(x)) == len(x.terms)
        caught += orbit(general_flipped_mul(x, y)) != composed
    assert caught > len(pairs) // 2


def test_conjugation_acts_on_the_packet_orbit_as_u_star_x_u():
    # conjugate(x, u) f0 == u* (x (u f0)) exactly for u = V(s), whose
    # conjugation is a key map, and for u = D(s) and M(s), which go
    # through mul; leaving out the adjoint, u x u, must be caught
    rng = random.Random(3201)
    caught = Counter()
    for _ in range(20):
        x = random_element(rng, 3)
        for kind, u in (
            ("V", Element.v(random_dilation(rng))),
            ("D", Element.d(random_frequency(rng))),
            ("M", Element.m(random_frequency(rng))),
        ):
            composed = orbit(adjoint(u), orbit(x, orbit(u)))
            assert orbit(conjugate(x, u)) == composed
            caught[kind] += orbit(mul(mul(u, x), u)) != composed
    assert all(caught[kind] for kind in "VDM")


def _mutant_mul(x: Element, y: Element, mutation: str) -> Element:
    """The pairwise product with one mutation: the key's lambda scaled by
    e^{-t1} ("key"), the exchange phase read on the unscaled lambda
    ("unscaled") or its sign flipped ("sign")."""
    items = []
    for (lam1, mu1, t1), c1 in x.terms.items():
        for (lam2, mu2, t2), c2 in y.terms.items():
            scaled = lam2.scale_exp(-t1 if mutation == "key" else t1)
            read = lam2 if mutation == "unscaled" else scaled
            c = (c1 * c2).rotate(PhaseExponent.product(read, mu1 if mutation == "sign" else -mu1))
            items.append(((lam1 + scaled, mu1 + mu2.scale_exp(-t1), t1 + t2), c))
    return Element(items)


def test_the_laws_hold_on_generic_instances():
    # one exact check on generic monomials decides each law for all
    # parameters, with coefficient 1, with two phases and with a factor
    p1, p2 = (Scalar.phase(PhaseExponent.product(Frequency.atom(p), ONE)) for p in ("p1", "p2"))
    s = DilationIndex.single("h0", 1)
    v = Element.v(s)
    for coeff in (Scalar.one(), Scalar.from_rational(2) + p1, Scalar.one() / (Scalar.one() - p2)):
        x, y, z = (generic(i, coeff) for i in (1, 2, 3))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert adjoint(mul(x, y)) == mul(adjoint(y), adjoint(x))
        assert adjoint(adjoint(x)) == x
        assert conjugate(x, v) == AxisMap(dil=-s)(x) == mul(mul(adjoint(v), x), v)
        # a key or phase mutant breaks associativity; a flipped exchange
        # phase keeps it, being a consistently conjugated product, and
        # breaks the adjoint law instead
        for mutation, associative in (("key", False), ("unscaled", False), ("sign", True)):
            prod = functools.partial(_mutant_mul, mutation=mutation)
            assert (prod(prod(x, y), z) == prod(x, prod(y, z))) is associative
            assert adjoint(prod(x, y)) != prod(adjoint(y), adjoint(x))


def test_mul_reads_each_column_once_per_dilation_level(monkeypatch):
    rng = random.Random(77)
    levels = [DilationIndex.zero(), DilationIndex.unit(1), DilationIndex.single("h", Fraction(-1, 2))]
    x = Element.zero()
    for t in levels:
        for _ in range(3):
            word = [M(Frequency.rational(rng.randint(-3, 3))), D(Frequency.atom("s2", rng.randint(1, 3)))]
            x = x + Element.from_word(word + [V(t)]).scale(Scalar.gaussian(0, rng.randint(1, 4)))
    y = random_element(rng, 5, single_phase=True)
    assert {t for _, _, t in x.terms} == set(levels) and len(x.terms) > len(levels)
    assert all(c.single_phase() for c in [*x.terms.values(), *y.terms.values()])
    want = pairwise_mul(x, y)
    calls = {"scale_exp": 0, "rotated_product": 0, "rotate": 0}

    def counting(cls, name):
        inner = getattr(cls, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(cls, name, counted)

    counting(Frequency, "scale_exp")
    counting(Scalar, "rotated_product")
    counting(Scalar, "rotate")
    got = mul(x, y)
    assert calls["rotated_product"] == calls["rotate"] == 0
    assert calls["scale_exp"] <= 2 * len(levels) * len(y.terms)
    assert got == want


def test_one_phase_products_add_no_phase_exponents(monkeypatch):
    # each one-phase pair's two exponents and commutation phase are summed
    # in one PhaseExponent.product, never by adding exponents
    rng = random.Random(3001)
    pairs = []
    while len(pairs) < 40:
        x, y = random_element(rng, 4, single_phase=True), random_element(rng, 4, single_phase=True)
        coeffs = [*x.terms.values(), *y.terms.values()]
        if all(c.single_phase() for c in coeffs):
            pairs.append((x, y))
    phased = sum(not c.single_phase()[0].is_zero() for x, _ in pairs for c in x.terms.values())
    assert phased > 20
    wants = [pairwise_mul(x, y) for x, y in pairs]
    added = Counter()
    add = exactnum._Sum.__add__

    def counted(a, b):
        added[type(a), type(b)] += 1
        return add(a, b)

    monkeypatch.setattr(exactnum._Sum, "__add__", counted)
    gots = [mul(x, y) for x, y in pairs]
    monkeypatch.undo()
    assert added[PhaseExponent, PhaseExponent] == 0
    assert added[Frequency, Frequency] > 0  # the key sums are counted
    for got, want in zip(gots, wants):
        assert_identical(got, want)


def test_adjoint_on_letters():
    t = DilationIndex.unit(Fraction(1, 2))
    assert adjoint(Element.m(TWO)) == Element.m(Frequency.rational(-2))
    assert adjoint(Element.d(TWO)) == Element.d(Frequency.rational(-2))
    assert adjoint(Element.v(t)) == Element.v(DilationIndex.unit(Fraction(-1, 2)))
    # adjoint of a full monomial folds right-to-left
    x = Element.from_word([M(ONE), D(TWO), V(t)])
    assert mul(x, adjoint(x)).coefficient((Frequency.zero(), Frequency.zero(), DilationIndex.zero())) == Scalar.one()


def test_identity_and_zero():
    x = Element.m(ONE)
    assert mul(Element.identity(), x) == x
    assert mul(x, Element.identity()) == x
    assert (x + Element.zero()) == x
    assert x - x == Element.zero()
    assert Element.zero().is_zero()


def test_coeff_map_axes():
    x = mul(Element.m(ONE), Element.d(TWO)) + Element.d(TWO) + Element.m(ONE)
    # E strips the translation letter at the matching index
    fiber = coeff_map(x, Axis.TRANSLATION, TWO)
    assert fiber == Element.m(ONE) + Element.identity()
    # Z strips modulation
    assert coeff_map(x, Axis.MULTIPLICATION, ONE) == Element.d(TWO) + Element.identity()
    assert coeff_map(x, "Z", Frequency.zero()) == Element.d(TWO)
    # H selects a dilation level
    y = x + mul(Element.m(ONE), Element.v(DilationIndex.unit(1)))
    assert coeff_map(y, Axis.DILATION, DilationIndex.unit(1)) == Element.m(ONE)
    assert coeff_map(y, "H", DilationIndex.zero()) == x


def test_axis_parse_accepts_the_letters_and_grading_names_only():
    names = {
        Axis.TRANSLATION: ["E", "e", "translation", " Translation "],
        Axis.MULTIPLICATION: ["Z", "z", "multiplication", "MULTIPLICATION"],
        Axis.DILATION: ["H", "h", "dilation", "\tDilation\n"],
    }
    for axis, texts in names.items():
        assert axis.grading == texts[2]
        assert Axis.parse(axis) is axis
        for text in texts:
            assert Axis.parse(text) is axis
    for bad in ["foo", "", "T", "M", "dil", "translations", "E Z"]:
        with pytest.raises(InvalidParameter) as err:
            Axis.parse(bad)
        assert err.value.code == "invalid-parameter"


def test_axis_index_and_strip_read_one_key_component():
    t = DilationIndex.unit(1)
    key = (ONE, TWO, t)
    assert Axis.MULTIPLICATION.index(key) == ONE
    assert Axis.TRANSLATION.index(key) == TWO
    assert Axis.DILATION.index(key) == t
    zero_f, zero_t = Frequency.zero(), DilationIndex.zero()
    assert Axis.MULTIPLICATION.strip(key) == (zero_f, TWO, zero_t)
    assert Axis.TRANSLATION.strip(key) == (ONE, zero_f, zero_t)
    assert Axis.DILATION.strip(key) == (ONE, TWO, zero_t)


def test_coeff_map_requires_dilation_free_input():
    y = mul(Element.m(ONE), Element.v(DilationIndex.unit(1)))
    with pytest.raises(AxisMismatch):
        coeff_map(y, Axis.TRANSLATION, Frequency.zero())
    with pytest.raises(AxisMismatch):
        coeff_map(y, Axis.MULTIPLICATION, Frequency.zero())


def test_first_coeff(table):
    x = Element.d(TWO) + Element.d(ONE) + mul(Element.m(ONE), Element.d(ONE))
    mu, fiber = first_coeff(x, table)
    assert mu == ONE
    assert fiber == Element.identity() + Element.m(ONE)
    with pytest.raises(EmptyElement):
        first_coeff(Element.zero(), table)


REPRO_FREQ = "622284859645*s2 - 738342608038*s3 + 418175487673978733/1048576"


def test_first_coeff_decides_each_comparison_behind_the_guard(table):
    # s2 - 2 < 0 comes after the zero frequency in key order
    below = Frequency.atom("s2") + Frequency.rational(-2)
    x = Element.d(below) + Element.identity()
    assert first_coeff(x, table) == (below, Element.identity())
    # the double sum of this frequency reads +2.4e-4, its exact value over
    # the declared doubles is -3.4e-7, and the rounding bound is 4e-3
    near = parse_element(f"D({REPRO_FREQ}) + 1")
    with pytest.raises(IndeterminateSign):
        first_coeff(near, table)


def test_support_predicates(table):
    ap = mul(Element.m(ONE), Element.d(TWO))
    assert support_predicate(ap, AlgebraId.AP, table)
    assert support_predicate(ap, "bp", table)
    assert not support_predicate(Element.m(Frequency.rational(-1)), AlgebraId.AP, table)
    trip = mul(ap, Element.v(DilationIndex.unit(2)))
    assert support_predicate(trip, AlgebraId.APH_G_PLUS, table)
    assert not support_predicate(trip, AlgebraId.AP, table)
    assert not support_predicate(trip, AlgebraId.APH_G_PLUS_ADJOINT, table)
    assert support_predicate(adjoint(trip), AlgebraId.APH_G_PLUS_ADJOINT, table)


# the support cones one term at a time, on numeric values
_CONE_REFERENCE = {
    "bp": lambda lam, mu, t: t == 0,
    "ap": lambda lam, mu, t: t == 0 and lam >= 0 and mu >= 0,
    "bph": lambda lam, mu, t: True,
    "aph": lambda lam, mu, t: lam >= 0 and mu >= 0 and t >= 0,
    "aph-adj": lambda lam, mu, t: lam <= 0 and mu <= 0 and t <= 0,
}


def test_support_predicate_matches_the_per_term_cones(table, rng):
    seen = {name: set() for name in _CONE_REFERENCE}
    for _ in range(40):
        x = random_element(rng, 4, nonneg=rng.random() < 0.5, with_v=rng.random() < 0.5)
        for y in (x, adjoint(x)):
            for name, rule in _CONE_REFERENCE.items():
                expected = all(
                    rule(lam.numeric(table), mu.numeric(table), t.numeric(table))
                    for lam, mu, t in y.terms
                )
                assert support_predicate(y, name, table) == expected, (name, y.terms)
                seen[name].add(expected)
    assert all(seen[name] == {True, False} for name in ("bp", "ap", "aph", "aph-adj"))


def test_support_predicate_refuses_a_dilation_term_before_any_sign(table):
    # 10^-12 sits inside the guard band, but ap and bp never read its sign
    x = Element.from_word([M(Fraction(1, 10**12)), V(1)])
    assert not support_predicate(x, "ap", table)
    assert not support_predicate(x, "bp", table)
    assert support_predicate(x, "bph", table)
    with pytest.raises(IndeterminateSign):
        support_predicate(x, "aph", table)
    # under a guard of 0 the sign of 10^-12 is read
    assert support_predicate(x, "aph", table.with_guard(0.0))


def test_l1_norm(table):
    x = Element.m(ONE).scale(Scalar.gaussian(3, 4)) + Element.d(TWO)
    assert x.l1_norm(table) == pytest.approx(6.0)
    y = Element.m(ONE).scale(Scalar.rational_angle(Fraction(2, 7)))
    assert y.l1_norm(table) == pytest.approx(1.0)


@settings(max_examples=25)
@given(small_elements(), small_elements())
def test_automorphism_is_a_homomorphism(table, x, y):
    spec = AutomorphismSpec(
        dil=DilationIndex.unit(Fraction(1, 2)),
        mod_char=BohrCharacter([(FrequencyAtom("ONE"), Fraction(1, 3))]),
        shift_char=BohrCharacter([(FrequencyAtom("s2"), Fraction(-2, 5))]),
        v_angle=Fraction(1, 4),
    )
    fx = apply_automorphism(x, spec, table)
    fy = apply_automorphism(y, spec, table)
    assert apply_automorphism(mul(x, y), spec, table) == mul(fx, fy)
    assert apply_automorphism(x + y, spec, table) == fx + fy


def test_automorphism_preserves_moduli(table):
    rng = random.Random(5)
    spec = AutomorphismSpec(dil=DilationIndex.unit(1), v_angle=Fraction(2, 3))
    for _ in range(20):
        x = random_element(rng, 4)
        assert apply_automorphism(x, spec, table).l1_norm(table) == pytest.approx(
            x.l1_norm(table), rel=1e-12
        )


def test_automorphism_without_a_table_reads_the_default_table(table):
    spec = AutomorphismSpec(v_angle=Fraction(1, 2))
    unit = Element.v(DilationIndex.unit(3))
    assert apply_automorphism(unit, spec) == apply_automorphism(unit, spec, table)
    h = Element.v(DilationIndex([("h", 1)]))
    with pytest.raises(NotFound):
        apply_automorphism(h, spec)
    image = apply_automorphism(h, spec, table)
    assert image == h.scale(Scalar.rational_angle(Fraction(1, 4)))


def test_flip_contradiction_gaps():
    report = check_flip_contradiction(1.0, 2.0)
    assert report.contradiction
    assert report.gap_at_1_1 == Fraction(3)
    assert report.gap_at_1_2 == Fraction(6)
    with pytest.raises(InvalidScale):
        check_flip_contradiction(-1.0, 2.0)
    with pytest.raises(InvalidScale):
        check_flip_contradiction(1.0, 0.0)


# R, the reflection (lam, mu, t) -> (-lam, -mu, t)
R = AxisMap(m_scale=-1, d_scale=-1)


def _pairs(seed: int, n: int = 150) -> list[tuple[Element, Element]]:
    rng = random.Random(seed)
    return [(random_element(rng), random_element(rng)) for _ in range(n)]


def test_the_reflection_is_multiplicative(table):
    for x, y in _pairs(2801):
        assert R(mul(x, y), table) == mul(R(x, table), R(y, table))
        assert R(R(x, table), table) == x


def _twisted_dilation(rng: random.Random) -> AxisMap:
    chars = [BohrCharacter({b: random_fraction(rng) for b in ("ONE", "s2")}) for _ in range(2)]
    return AxisMap(random_dilation(rng), *chars, random_fraction(rng))


def test_compose_is_sequential_application_and_inverse_round_trips(table):
    rng = random.Random(2802)
    for _ in range(40):
        a, b = _twisted_dilation(rng), _twisted_dilation(rng)
        ab = a.compose(b)
        assert a.compose(a.inverse()) == a.inverse().compose(a) == AxisMap()
        assert a.inverse().inverse() == a
        for _ in range(4):
            x = random_element(rng)
            assert ab(x, table) == b(a(x, table), table)
            assert b.inverse()(b(x, table), table) == x


@pytest.mark.parametrize("other", [R, AxisMap(swap=True, d_scale=-1)], ids=["scaled", "swapped"])
def test_only_twisted_dilations_compose_and_invert(other):
    with pytest.raises(InvalidParameter, match="compose and invert"):
        other.inverse()
    with pytest.raises(InvalidParameter, match="compose and invert"):
        AxisMap().compose(other)
    with pytest.raises(InvalidParameter, match="compose and invert"):
        other.compose(AxisMap())


@pytest.mark.parametrize(
    "bad",
    [
        AxisMap(swap=True, d_scale=-1),
        AxisMap(m_scale=2, d_scale=2),
        AxisMap(swap=True, m_scale=Fraction(1, 10), d_scale=3),
    ],
    ids=["swap-keeping-v", "scales-2-2", "swap-positive-scales"],
)
def test_a_map_that_breaks_an_exchange_relation_is_not_multiplicative(table, bad):
    assert any(bad(mul(x, y), table) != mul(bad(x, table), bad(y, table)) for x, y in _pairs(2803))


@pytest.mark.parametrize("scales", [(0, 1), (1, Fraction(0)), (0.0, -1)], ids=["m", "d", "float"])
def test_an_axis_map_refuses_a_zero_scale(scales):
    # a zero scale would send every frequency of its axis to 0, where
    # M(1) + M(2) merges into the scalar 2
    with pytest.raises(InvalidParameter, match="nonzero"):
        AxisMap(m_scale=scales[0], d_scale=scales[1])


def _by_products(f: AxisMap, x: Element, table) -> Element:
    """f(x) from its definition: each coefficient times the ``mul``
    product of the term's three twisted generator images."""
    on_m, on_d = (Element.m, f.dil), (Element.d, -f.dil)
    if f.swap:
        on_m, on_d = on_d, on_m
    (gm, em), (gd, ed) = on_m, on_d
    out = []
    for (lam, mu, t), c in x.terms.items():
        m_image = gm(
            lam.scale(f.m_scale).scale_exp(em), Scalar.rational_angle(f.mod_char.angle(lam))
        )
        d_image = gd(
            mu.scale(f.d_scale).scale_exp(ed), Scalar.rational_angle(f.shift_char.angle(mu))
        )
        v_angle = 0 if t.is_zero() else f.v_angle * t.exact_numeric(table)
        v_image = Element.v(t, Scalar.rational_angle(v_angle))
        ((key, phase),) = mul(mul(m_image, d_image), v_image).terms.items()
        out.append((key, c * phase))
    return Element(out)


_TWISTS = dict(
    mod_char=BohrCharacter({"ONE": Fraction(1, 3), "s2": Fraction(-2, 5)}),
    shift_char=BohrCharacter({"s3": Fraction(3, 7), "ONE": Fraction(1, 2)}),
    v_angle=Fraction(-1, 4),
)
_H = DilationIndex.single("h", Fraction(3, 2))
_CLOSED_FORMS = {
    "identity": AxisMap(),
    "swapped-scaled": AxisMap(swap=True, m_scale=Fraction(3, 2), d_scale=Fraction(1, 7)),
    "reflection": R,
    "fourier-axes": AxisMap(swap=True, d_scale=-1),
    "scaled-dilated": AxisMap(m_scale=2, d_scale=Fraction(1, 2), dil=DilationIndex.unit(1)),
    "swapped-dilated-twisted": AxisMap(swap=True, dil=_H, **_TWISTS),
    "swapped-scaled-dilated-twisted": AxisMap(
        swap=True, m_scale=Fraction(-5, 3), d_scale=7, dil=DilationIndex.unit(2), **_TWISTS
    ),
    "twisted-dilation": AxisMap(dil=DilationIndex.unit(Fraction(-3, 2)), **_TWISTS),
    "twisted": AxisMap(**_TWISTS),
}


@pytest.mark.parametrize("f", list(_CLOSED_FORMS.values()), ids=list(_CLOSED_FORMS))
def test_an_axis_map_is_the_product_of_its_generator_images(table, f):
    # seeded elements with h dilations, every fifth with a factored
    # coefficient 1/(1 + e^{i/3}); the closed form keeps the key order
    rng = random.Random(2901)
    factored = Scalar.one() / (Scalar.one() + Scalar.rational_angle(Fraction(1, 3)))
    for i in range(60):
        x = random_element(rng)
        if i % 5 == 0:
            x = x.scale(factored)
        assert_identical(f(x, table), _by_products(f, x, table))


def test_compress_modes():
    x = Element.m(ONE) + mul(Element.m(ONE), Element.v(DilationIndex.unit(1)))
    n = 3
    out = compress(x, CompressionMode.TRANSLATION, n)
    # D_n x D_n* keeps the M part and twists the V term's frequency
    assert not out.coefficient((ONE, Frequency.zero(), DilationIndex.zero())).is_zero()
    v_in = compress(x, "dilation-in", 1)
    v_out = compress(x, "dilation_out", 1)
    assert not v_in.is_zero() and not v_out.is_zero()
    with pytest.raises(InvalidParameter):
        compress(x, "zz", 1)


def test_compress_is_the_explicit_conjugation():
    def explicit(x, u):
        return mul(mul(adjoint(u), x), u)

    rng = random.Random(4107)
    for _ in range(20):
        x = random_element(rng)
        for n in (1, 2, 3):
            d = Element.d(Frequency.rational(n))
            v = Element.v(DilationIndex.unit(n))
            assert compress(x, "translation", n) == mul(mul(d, x), adjoint(d))
            assert compress(x, "dilation-in", n) == mul(mul(adjoint(v), x), v)
            assert compress(x, "dilation-out", n) == mul(mul(v, x), adjoint(v))
        # V(s) for rational s and for s on the symbol h (the group R): the
        # dilation key map of conjugate is the product, and it is the
        # dilation automorphism by -s
        for s in (random_dilation(rng, allow_syms=False), DilationIndex.single("h", Fraction(3, 2))):
            assert conjugate(x, V(s)) == explicit(x, V(s))
            assert apply_automorphism(x, AutomorphismSpec(dil=s)) == conjugate(x, V(-s))
        # no other unitary takes the key map: 2 V(1) scales by 4, D(1) twists
        for u in (V(1, 2), D(ONE)):
            assert conjugate(x, u) == explicit(x, u)
        assert conjugate(x, V(1, 2)) == conjugate(x, V(1)).scale(4)


def _no_zero_coefficients(x: Element) -> bool:
    return not any(c.is_zero() for c in x.terms.values())


def test_cancellation_leaves_no_zero_coefficient_keys():
    rng = random.Random(4105)
    for _ in range(60):
        x, y = random_element(rng), random_element(rng)
        assert (x + (-x)).terms == {}
        xy = mul(x, y)
        assert (xy - xy).terms == {}
        # x cancels inside the sum, y survives
        partial = x + y - x
        assert partial == y and _no_zero_coefficients(partial)
        assert adjoint(x - x).terms == {}
        back = adjoint(partial)
        assert back == adjoint(y) and _no_zero_coefficients(back)
        merged = Element([*x.terms.items(), *(-x).terms.items(), *y.terms.items()])
        assert merged == y and _no_zero_coefficients(merged)
    # two monomial products land on M(3) and cancel there
    lam = Element.m(1) + Element.m(2)
    prod = mul(lam, Element.m(2) - Element.m(1))
    assert prod == Element.m(4) - Element.m(2)
    assert (Frequency.rational(3), Frequency.zero(), DilationIndex.zero()) not in prod.terms
    assert _no_zero_coefficients(prod)


def test_coeff_map_refuses_an_index_of_the_wrong_type():
    x = Element.m(ONE) + Element.d(TWO)
    with pytest.raises(AxisMismatch, match="expects a Frequency"):
        coeff_map(x, "translation", DilationIndex.unit(1))
    with pytest.raises(AxisMismatch, match="expects a DilationIndex"):
        coeff_map(x, "dilation", ONE)

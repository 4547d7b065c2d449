"""Multiplicative functionals: evaluation points, families, composites."""

import cmath
import math
import random
import warnings
from fractions import Fraction

import pytest

from trisemi import (
    APPoint,
    AtomTable,
    AutomorphismSpec,
    BohrCharacter,
    DilationIndex,
    DiscPoint,
    Element,
    Frequency,
    GroupModeError,
    InvalidParameter,
    NotInDomain,
    TripleCharacter,
    UntrustedCharacterWarning,
    apply_automorphism,
    composite_eval,
    eval_character,
    mul,
    vanishing_point,
)

from helpers import random_lone_terms, random_m_poly, random_z_element

ONE = Frequency.rational(1)
TWO = Frequency.rational(2)


# the d1 character through an AP point evaluates the M-axis there
AT_ORIGIN = TripleCharacter.d1(APPoint.x1())
AT_INFINITY = TripleCharacter.d1(APPoint.infinity())


def test_aap_eval_at_the_origin_point(table):
    # trivial character, zero decay: evaluation at 0, i.e. coefficient sum
    f = Element.m(ONE) + Element.m(TWO) + Element.m(Frequency.zero())
    assert eval_character(AT_ORIGIN, f, table) == pytest.approx(3.0)
    g = Element.m(ONE) - Element.m(TWO)
    assert eval_character(AT_ORIGIN, g, table) == pytest.approx(0.0)


def test_aap_eval_at_infinity_keeps_the_constant_term(table):
    f = Element.m(ONE) + Element.identity() + Element.identity()
    assert eval_character(AT_INFINITY, f, table) == pytest.approx(2.0)


def test_aap_eval_decay(table):
    f = Element.m(ONE)
    p = TripleCharacter.d1(APPoint.finite(BohrCharacter.trivial(), 1))
    assert eval_character(p, f, table) == pytest.approx(math.exp(-1.0))
    chi = BohrCharacter({"ONE": Fraction(1, 2)})
    q = TripleCharacter.d1(APPoint.finite(chi, Fraction(1, 2)))
    assert eval_character(q, f, table) == pytest.approx(cmath.exp(0.5j) * math.exp(-0.5))


def test_aap_eval_rejects_bad_inputs(table):
    with pytest.raises(NotInDomain):
        eval_character(AT_ORIGIN, Element.m(Frequency.rational(-1)), table)
    # d1 kills the translation and dilation axes: those terms read as zero
    dv = Element.d(ONE) + Element.v(DilationIndex.unit(1))
    assert eval_character(AT_ORIGIN, dv, table) == 0
    assert eval_character(AT_ORIGIN, Element.m(ONE) + dv, table) == eval_character(
        AT_ORIGIN, Element.m(ONE), table
    )


def test_disc_point_powers():
    p = DiscPoint(0.5j)
    assert p.value(DilationIndex.unit(2)) == pytest.approx(-0.25)
    assert p.value(DilationIndex.zero()) == 1.0
    with pytest.raises(GroupModeError):
        p.value(DilationIndex.unit(Fraction(1, 2)))
    with pytest.raises(NotInDomain):
        p.value(DilationIndex.unit(-1))
    with pytest.raises(ValueError):
        DiscPoint(2.0)


def test_vanishing_points_kill_positive_dilations(table):
    z = vanishing_point("Z")
    assert z.value(DilationIndex.unit(3)) == 0
    assert z.is_vanishing()
    r = vanishing_point("R")
    assert r.value(DilationIndex.unit(3), table) == 0
    assert r.value(DilationIndex.zero(), table) == 1.0
    with pytest.raises(GroupModeError):
        vanishing_point("Q")


def test_d1_evaluates_m_and_kills_d_and_v(table):
    chi = TripleCharacter.d1(APPoint.finite(BohrCharacter.trivial(), 1))
    f = Element.m(ONE) + Element.d(ONE)
    assert eval_character(chi, f, table) == pytest.approx(math.exp(-1.0))
    g = Element.m(ONE) + Element.v(DilationIndex.unit(1))
    assert eval_character(chi, g, table) == pytest.approx(math.exp(-1.0))


def test_d2_is_the_shift_side_mirror(table):
    chi = TripleCharacter.d2(APPoint.finite(BohrCharacter.trivial(), 1))
    f = Element.d(ONE) + Element.m(ONE)
    assert eval_character(chi, f, table) == pytest.approx(math.exp(-1.0))


def test_d3_d4_delegate_to_the_dilation_point(table):
    w = 0.3 + 0.4j
    chi = TripleCharacter.d3(DiscPoint(w))
    x = mul(Element.m(Frequency.zero()), Element.v(DilationIndex.unit(1)))
    assert eval_character(chi, x, table) == pytest.approx(w)
    chi4 = TripleCharacter.d4(DiscPoint(w))
    y = Element.v(DilationIndex.unit(2))
    assert eval_character(chi4, y, table) == pytest.approx(w * w)


@pytest.mark.parametrize("atoms", [{}, {"h": math.e}], ids=["no-atom-h", "atom-h"])
def test_half_plane_point_reads_dilation_symbols_from_the_dilation_table(atoms):
    # e is not within 1e-9 of a small rational multiple of ONE, so the
    # atom h raises no collision warning; it must not stand in for the
    # dilation symbol h = 1/2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = AtomTable(atoms, {"h": 0.5})
    chi = TripleCharacter.d3(APPoint.finite(decay=1))
    value = eval_character(chi, Element.v(DilationIndex.single("h")), table)
    assert value == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert value == eval_character(chi, Element.v(DilationIndex.unit(Fraction(1, 2))), table)


def test_glue_point_agreement(table):
    rng = random.Random(1)
    chi1 = TripleCharacter.d1(APPoint.infinity())
    chi2 = TripleCharacter.d2(APPoint.infinity())
    chiinf = TripleCharacter.chi_inf("Z")
    for _ in range(25):
        x = random_z_element(rng, 4)
        a = eval_character(chi1, x, table)
        b = eval_character(chi2, x, table)
        c = eval_character(chiinf, x, table)
        assert a == b == c


def test_multiplicativity_randomized(table):
    rng = random.Random(7)
    chis = [
        TripleCharacter.d1(APPoint.finite(BohrCharacter({"s2": Fraction(1, 3)}), Fraction(1, 2))),
        TripleCharacter.d2(APPoint.x1()),
        TripleCharacter.d3(DiscPoint(0.6)),
        TripleCharacter.d4(DiscPoint(-0.2 + 0.1j)),
        TripleCharacter.chi_inf("Z"),
    ]
    for _ in range(40):
        x = random_z_element(rng, 3)
        y = random_z_element(rng, 3)
        for chi in chis:
            lhs = eval_character(chi, mul(x, y), table)
            rhs = eval_character(chi, x, table) * eval_character(chi, y, table)
            assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("family", ["d3", "chi0"])
def test_disc_point_reads_the_dilation_of_killed_terms(table, family):
    # D(1) kills the term in both families, yet its dilation index 1/2
    # still reaches the disc point, which refuses non-integer indices
    chi = getattr(TripleCharacter, family)(DiscPoint(0.5))
    x = mul(Element.d(ONE), Element.v(DilationIndex.unit(Fraction(1, 2))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UntrustedCharacterWarning)
        with pytest.raises(GroupModeError):
            eval_character(chi, x, table)


def test_character_domain_guard(table):
    chi = TripleCharacter.d1(APPoint.x1())
    with pytest.raises(NotInDomain):
        eval_character(chi, Element.m(Frequency.rational(-2)), table)


def test_untrusted_chi0_warns(table):
    off = TripleCharacter.chi0(DiscPoint(0.5))
    assert not off.trusted
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eval_character(off, Element.v(DilationIndex.unit(1)), table)
    assert any(issubclass(w.category, UntrustedCharacterWarning) for w in caught)
    trusted = TripleCharacter.chi0(vanishing_point("Z"))
    assert trusted.trusted
    # trust follows the point, also through the public constructor
    direct = TripleCharacter("chi0", DiscPoint(0.5))
    assert not direct.trusted
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eval_character(direct, Element.v(DilationIndex.unit(1)), table)
    assert any(issubclass(w.category, UntrustedCharacterWarning) for w in caught)


def test_a_function_axis_family_refuses_a_disc_point():
    with pytest.raises(InvalidParameter):
        TripleCharacter("d1", DiscPoint(0.5))


def test_composites_match_families_at_level_zero(table):
    rng = random.Random(11)
    d3v = TripleCharacter.d3(vanishing_point("Z"))
    d4v = TripleCharacter.d4(vanishing_point("Z"))
    for _ in range(25):
        x = random_z_element(rng, 4)
        assert composite_eval(x, "m", None, table) == pytest.approx(
            eval_character(d3v, x, table), abs=1e-12
        )
        assert composite_eval(x, "d", None, table) == pytest.approx(
            eval_character(d4v, x, table), abs=1e-12
        )


def test_composites_match_the_per_term_level_sums(table, rng):
    for _ in range(30):
        x = random_z_element(rng) + random_lone_terms(rng)
        for n in (0, 1, 2):
            t = DilationIndex.unit(n)
            for side, component in (("m", 1), ("d", 0)):
                expected = sum(
                    (c.numeric(table) for key, c in x.sorted_terms()
                     if key[2] == t and key[component].is_zero()),
                    0j,
                )
                assert abs(composite_eval(x, side, t, table) - expected) < 1e-12


def test_composite_eval_reads_a_number_as_a_dilation_level(table):
    # a number t is the level V(t), as cesaro_mean reads its index
    x = mul(Element.m(ONE, 2), Element.v(1)) + Element.v(1, 3) + Element.d(TWO)
    for t in (1, Fraction(1), DilationIndex.unit(1)):
        assert composite_eval(x, "m", t, table) == 5
    assert composite_eval(x, "d", 0, table) == composite_eval(x, "d", None, table) == 1
    assert composite_eval(x, "m", 0, table) == 0


def test_composite_eval_refuses_an_unknown_side(table):
    with pytest.raises(InvalidParameter):
        composite_eval(Element.identity(), "q", None, table)


def test_composites_multiplicative_at_level_zero(table):
    rng = random.Random(13)
    for _ in range(30):
        x = random_z_element(rng, 3)
        y = random_z_element(rng, 3)
        for side in ("m", "d"):
            lhs = composite_eval(mul(x, y), side, None, table)
            rhs = composite_eval(x, side, None, table) * composite_eval(y, side, None, table)
            assert abs(lhs - rhs) < 1e-9


def test_composites_fail_multiplicativity_above_level_zero(table):
    # V_1 * V_1 = V_2: the level-1 slice sees V_1 but not V_2
    x = Element.v(DilationIndex.unit(1))
    t = DilationIndex.unit(1)
    lhs = composite_eval(mul(x, x), "m", t, table)
    rhs = composite_eval(x, "m", t, table) ** 2
    assert abs(lhs - rhs) == pytest.approx(1.0)


def test_arens_automorphism_is_isometric(table):
    # the twist-and-rescale of analytic M-polynomials is the dilation
    # twist family restricted to the multiplication axis
    rng = random.Random(17)
    chi = BohrCharacter({"ONE": Fraction(2, 7), "s2": Fraction(-1, 3)})
    spec = AutomorphismSpec(dil=DilationIndex.unit(1), mod_char=chi)
    for _ in range(20):
        x = random_m_poly(rng, 4)
        y = random_m_poly(rng, 3)
        fx = apply_automorphism(x, spec, table)
        fy = apply_automorphism(y, spec, table)
        assert apply_automorphism(mul(x, y), spec, table) == mul(fx, fy)
        assert fx.l1_norm(table) == pytest.approx(x.l1_norm(table), rel=1e-12)


def test_chi0_reads_a_half_plane_point_under_the_real_group(table):
    # under group R the dilation-side point of chi0 is an AP point: at
    # infinity it keeps the constant term, at a finite point it decays
    x = Element.identity().scale(2) + Element.v(DilationIndex.unit(1)) + Element.m(ONE)
    chi_inf = TripleCharacter.chi_inf("R")
    assert chi_inf.trusted and chi_inf.point == APPoint.infinity()
    assert eval_character(chi_inf, x, table) == 2
    chi = TripleCharacter.chi0(APPoint.finite(decay=1))
    assert not chi.trusted
    with pytest.warns(UntrustedCharacterWarning):
        value = eval_character(chi, x, table)
    assert value == pytest.approx(2 + math.exp(-1.0))

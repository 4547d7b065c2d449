"""Commutator ideal membership, generator certificates, telescoping."""

import math
import random
from fractions import Fraction

import pytest

from trisemi import (
    APPoint,
    DegeneratePhase,
    DilationIndex,
    Element,
    Frequency,
    IdealId,
    InvalidScale,
    NotInAmbient,
    PhaseExponent,
    Scalar,
    TripleCharacter,
    adjoint,
    certificate_dict,
    commutator_certificate,
    eval_character,
    in_ideal,
    jt_reduce,
    mul,
    quotient_defect,
    verify_certificate,
)
from trisemi.ideals import _telescope_split

from helpers import random_ap_element, random_lone_terms, random_z_element

ONE = Frequency.rational(1)
TWO = Frequency.rational(2)


def commutator(x, y):
    return mul(x, y) - mul(y, x)


def test_cp_membership_oracles(table):
    assert in_ideal(mul(Element.m(ONE), Element.d(ONE)), IdealId.cp(), table)
    assert not in_ideal(Element.m(ONE), IdealId.cp(), table)
    assert not in_ideal(Element.d(ONE), IdealId.cp(), table)
    assert not in_ideal(Element.identity(), IdealId.cp(), table)
    # sums of cross terms stay inside
    x = mul(Element.m(ONE), Element.d(TWO)) - mul(Element.m(TWO), Element.d(ONE))
    assert in_ideal(x, IdealId.cp(), table)


def test_cp_rejects_elements_outside_the_ambient(table):
    with pytest.raises(NotInAmbient):
        in_ideal(Element.v(DilationIndex.unit(1)), IdealId.cp(), table)
    with pytest.raises(NotInAmbient):
        in_ideal(Element.m(Frequency.rational(-1)), IdealId.cp(), table)


def test_cph_and_i0_reject_elements_outside_the_ambient(table):
    with pytest.raises(NotInAmbient):
        in_ideal(Element.v(DilationIndex.unit(-1)), IdealId.cph_g(), table)
    with pytest.raises(NotInAmbient):
        in_ideal(Element.v(DilationIndex.unit(1)), IdealId.i0(), table)


@pytest.mark.parametrize(
    "ideal",
    [IdealId.cp(), IdealId.i0(), IdealId.jt(DilationIndex.unit(1))],
    ids=["cp", "i0", "jt"],
)
def test_the_parabolic_ideals_share_one_ambient_check(table, ideal):
    with pytest.raises(NotInAmbient) as info:
        in_ideal(Element.v(DilationIndex.unit(1)), ideal, table)
    assert str(info.value) == "element leaves the parabolic algebra"


def test_the_jt_step_is_checked_before_the_ambient(table):
    with pytest.raises(InvalidScale):
        in_ideal(Element.v(DilationIndex.unit(1)), IdealId.jt(DilationIndex.zero()), table)


@pytest.mark.parametrize("ideal", [IdealId.i0(), IdealId.jt(DilationIndex.unit(1))], ids=["i0", "jt"])
def test_the_function_ideals_reject_a_translation_term(table, ideal):
    # M(1) + D(1) lies in the parabolic algebra but not in the
    # multiplication polynomials, where the function ideals live
    with pytest.raises(NotInAmbient, match="multiplication polynomials"):
        in_ideal(Element.m(ONE) + Element.d(ONE), ideal, table)


def test_cph_membership_oracles(table):
    v1 = Element.v(DilationIndex.unit(1))
    x = mul(Element.m(ONE), v1) - mul(Element.m(TWO), v1)
    assert in_ideal(x, IdealId.cph_g(), table)
    assert not in_ideal(mul(Element.m(ONE), v1), IdealId.cph_g(), table)
    # pure generators are excluded
    assert not in_ideal(Element.m(ONE), IdealId.cph_g(), table)
    assert not in_ideal(Element.d(ONE), IdealId.cph_g(), table)
    assert not in_ideal(v1, IdealId.cph_g(), table)
    # M D cross terms belong
    assert in_ideal(mul(Element.m(ONE), Element.d(ONE)), IdealId.cph_g(), table)


def test_cph_t_level_sums_must_vanish(table):
    v1 = Element.v(DilationIndex.unit(1))
    # matching M and D level sums cancel at t = 1
    x = mul(Element.m(ONE), v1) - mul(Element.m(TWO), v1)
    y = mul(Element.d(ONE), v1) - mul(Element.d(TWO), v1)
    assert in_ideal(x + y, IdealId.cph_g(), table)
    # breaking one sum breaks membership
    assert not in_ideal(x + mul(Element.d(ONE), v1), IdealId.cph_g(), table)


def test_cph_membership_matches_the_per_term_level_sums(table, rng):
    verdicts = set()
    for _ in range(60):
        a, b = random_z_element(rng, 3), random_z_element(rng, 3)
        # a level-sum-cancelling pair keeps a commutator in the ideal;
        # random lone terms mostly break it
        lone_axis = rng.choice((Element.m, Element.d))
        pair = lone_axis(ONE) - lone_axis(TWO)
        x = commutator(a, b) + mul(pair, Element.v(DilationIndex.unit(rng.randint(1, 2))))
        if rng.random() < 0.5:
            x = x + random_lone_terms(rng)
        m_sums, d_sums, lone = {}, {}, False
        for (lam, mu, t), c in x.terms.items():
            lone = lone or sum(i.is_zero() for i in (lam, mu, t)) >= 2
            if mu.is_zero():
                m_sums[t] = m_sums.get(t, Scalar.zero()) + c
            if lam.is_zero():
                d_sums[t] = d_sums.get(t, Scalar.zero()) + c
        expected = not lone and all(s.is_zero() for s in [*m_sums.values(), *d_sums.values()])
        assert in_ideal(x, IdealId.cph_g(), table) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_random_commutators_land_in_the_ideals(table):
    rng = random.Random(23)
    for _ in range(60):
        a, b = random_ap_element(rng, 3), random_ap_element(rng, 3)
        assert in_ideal(commutator(a, b), IdealId.cp(), table)
    for _ in range(60):
        a, b = random_z_element(rng, 3), random_z_element(rng, 3)
        assert in_ideal(commutator(a, b), IdealId.cph_g(), table)


def test_quotient_defect(table):
    rng = random.Random(29)
    for _ in range(40):
        x = random_ap_element(rng, 4)
        assert in_ideal(quotient_defect(x), IdealId.cp(), table)


def test_i0_membership(table):
    x = Element.m(ONE) - Element.m(TWO)
    assert in_ideal(x, IdealId.i0(), table)
    assert not in_ideal(Element.m(ONE), IdealId.i0(), table)
    # nonzero constant term is excluded even when the sum cancels
    y = Element.identity() - Element.m(ONE)
    assert not in_ideal(y, IdealId.i0(), table)


def test_jt_matches_i0_and_validates_the_step(table):
    x = Element.m(ONE) - Element.m(TWO)
    assert in_ideal(x, IdealId.jt(DilationIndex.unit(1)), table)
    with pytest.raises(InvalidScale):
        in_ideal(x, IdealId.jt(DilationIndex.zero()), table)
    with pytest.raises(InvalidScale):
        in_ideal(x, IdealId.jt(DilationIndex.unit(-2)), table)


def test_commutator_certificate_exact(table):
    for lam, s in ((ONE, ONE), (ONE, TWO), (Frequency.atom("s2"), ONE)):
        cert = commutator_certificate(lam, s)
        assert verify_certificate(cert)
        lhs = commutator(cert.f, Element.d(s))
        assert lhs == cert.target
        assert in_ideal(cert.target, IdealId.cp(), table)


def test_commutator_certificate_degenerate_inputs():
    with pytest.raises(DegeneratePhase):
        commutator_certificate(Frequency.zero(), ONE)
    with pytest.raises(DegeneratePhase):
        commutator_certificate(ONE, Frequency.zero())


def test_jt_reduce_oracles():
    cert = jt_reduce(3.0, 0.7)
    assert cert.items  # nontrivial telescope
    assert verify_certificate(cert)
    # lam = 1: the difference is zero, certificate is empty
    trivial = jt_reduce(1.0, 0.5)
    assert not trivial.items
    assert verify_certificate(trivial)
    # lam < 1 exercises the negative-step branch
    low = jt_reduce(0.37, 0.9)
    assert verify_certificate(low)


@pytest.mark.parametrize(
    "lam, t", [(0.0036978637164829316, 0.7), (0.8025187979624784, 0.01)]
)
def test_jt_reduce_floor_corrections(lam, t):
    # log(lam)/t rounds onto the wrong side of an integer, so the first
    # floor leaves rho outside [1, e^t): below 1 for the first input, at
    # e^t or above for the second
    n = math.floor(math.log(lam) / t)
    assert not 1 <= lam * math.exp(-n * t) < math.exp(t)
    cert = jt_reduce(lam, t)
    assert verify_certificate(cert)
    # lam < 1, so the bare generators are rho e^{kt} for k < 0 and the
    # base crossing rho is one step past the largest; it sits on an edge
    # of the interval up to rounding
    rho = max(mu for _, kappa, mu in cert.items if kappa is None) * math.exp(t)
    assert 1 - 1e-12 <= rho <= math.exp(t) * (1 + 1e-12)


@pytest.mark.parametrize(
    "lam, t", [(0.0036978637164829316, 0.7), (0.8025187979624784, 0.01)]
)
def test_jt_reduce_keeps_rho_inside_the_base_interval(lam, t):
    # the corrected floor used to land rho on e^t exactly, or one ulp
    # below 1, where a negative base weight dropped the base item
    growth = math.exp(t)
    n, rho = _telescope_split(lam, t, growth)
    assert 1.0 <= rho < growth
    assert rho * math.exp(n * t) == pytest.approx(lam, rel=1e-12)
    cert = jt_reduce(lam, t)
    assert verify_certificate(cert)
    # a base crossing weight lies in (0, 1), and exactly when rho > 1
    weights = [mu for _, kappa, mu in cert.items if kappa is not None]
    assert len(weights) == (rho > 1.0)
    assert all(0.0 < mu < 1.0 for mu in weights)


@pytest.mark.parametrize("lam, t", [(0.0, 1.0), (-2.0, 1.0), (2.0, 0.0), (2.0, -1.0)])
def test_jt_reduce_rejects_a_nonpositive_frequency_or_step(lam, t):
    with pytest.raises(InvalidScale, match="must be positive"):
        jt_reduce(lam, t)


def test_jt_reduce_randomized():
    rng = random.Random(31)
    for _ in range(30):
        lam = rng.uniform(0.1, 10.0)
        t = rng.uniform(0.1, 3.0)
        assert verify_certificate(jt_reduce(lam, t))


def test_certificate_serialization():
    d = certificate_dict(commutator_certificate(ONE, TWO))
    assert d["kind"] == "commutator"
    assert d["verified"] is True
    d2 = certificate_dict(jt_reduce(2.0, 0.5))
    assert d2["kind"] == "telescope"
    assert d2["residual"] < 1e-9
    assert {"sign", "kappa", "mu"} <= set(d2["items"][0])


def test_membership_agrees_with_character_vanishing(table):
    # i0 membership is equivalent to vanishing at the origin and at infinity
    rng = random.Random(37)
    for _ in range(40):
        x = Element.zero()
        for _ in range(rng.randint(1, 4)):
            lam = Frequency.rational(Fraction(rng.randint(0, 5), rng.randint(1, 2)))
            x = x + Element.m(lam).scale(Scalar.gaussian(rng.randint(-3, 3), rng.randint(-3, 3)))
        member = in_ideal(x, IdealId.i0(), table)
        at_origin = eval_character(TripleCharacter.d1(APPoint.x1()), x, table)
        at_inf = eval_character(TripleCharacter.d1(APPoint.infinity()), x, table)
        vanishes = abs(at_origin) < 1e-9 and abs(at_inf) < 1e-9
        assert member == vanishes


def test_adjoint_commutator_stays_in_the_ideal(table):
    rng = random.Random(41)
    for _ in range(20):
        a, b = random_ap_element(rng, 3), random_ap_element(rng, 3)
        c = commutator(a, b)
        # the adjoint of a commutator is a commutator of the adjoint algebra
        assert in_ideal(adjoint(adjoint(c)), IdealId.cp(), table)


# ------------------------------- reduced coefficients of certificate chains

# f = M(lam)/(1 - e^{-i lam s}) and g = f + D(s): every coefficient of
# f*g^k lives in the Laurent ring of u = e^{i lam s}.  Keys (j, l) stand
# for M(j lam) D(l s), and the product (a, b)(c, d) carries u^{-c b}.
CHAIN_DEPTH = 8
SYMPY_NUM_TERMS = (1, 2, 3, 5, 7, 10, 13, 17)


@pytest.fixture(scope="module")
def sympy_chain():
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    f = {(1, 0): 1 / (1 - 1 / u)}
    g = {**f, (0, 1): sympy.Integer(1)}
    p, steps = f, []
    for _ in range(CHAIN_DEPTH):
        q = {}
        for (a, b), x in p.items():
            for (c, d), y in g.items():
                q[(a + c, b + d)] = q.get((a + c, b + d), 0) + x * y * u ** (-c * b)
        p = {key: sympy.cancel(v) for key, v in q.items()}
        steps.append({key: v for key, v in p.items() if v != 0})
    return sympy, u, steps


def _to_sympy(ps, theta, sympy, u):
    """A phase sum whose exponents are integer multiples of theta, as a
    Laurent polynomial in u = e^{i theta}."""
    total = sympy.Integer(0)
    for pe, amp in ps.terms:
        n = pe.terms[0][1] / theta.terms[0][1] if pe.terms else Fraction(0)
        assert n.denominator == 1 and theta.scale(n) == pe
        total += (sympy.Rational(amp.re) + sympy.I * sympy.Rational(amp.im)) * u ** int(n)
    return total


def _chain_pairs():
    rng = random.Random(6001)
    pairs = []
    for a, b in (("ONE", "s2"), ("s2", "s3"), ("s3", "ONE"), ("s2", "s2")):
        q = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) * rng.choice((1, -1)) for _ in range(2)]
        pairs.append((Frequency.atom(a, q[0]), Frequency.atom(b, q[1])))
    return pairs


@pytest.mark.parametrize("lam, s", _chain_pairs())
def test_certificate_chain_coefficients_are_reduced(sympy_chain, lam, s):
    sympy, u, steps = sympy_chain
    f = commutator_certificate(lam, s).f
    theta = PhaseExponent.product(lam, s)
    g = f + Element.d(s)
    p = f
    for k, expected in enumerate(steps, start=1):
        p = mul(p, g)
        got = {}
        for (mu_lam, mu_s, _), c in p.terms.items():
            j = mu_lam.terms[0][1] / lam.terms[0][1] if mu_lam.terms else 0
            l = mu_s.terms[0][1] / s.terms[0][1] if mu_s.terms else 0
            got[(int(j), int(l))] = c
        assert set(got) == set(expected)
        top_mult, top_terms = 0, 0
        for key, c in got.items():
            ref_num, ref_den = sympy.fraction(expected[key])
            num = _to_sympy(c.num, theta, sympy, u)
            den = _to_sympy(c.den, theta, sympy, u)
            assert sympy.expand(num * ref_den - ref_num * den) == 0
            # the same numerator as sympy's up to a unit, over one binomial
            assert len(c.num.terms) == len(sympy.Poly(ref_num, u).terms())
            assert len(c.factors) <= 1
            mult = 0
            if c.factors:
                (factor, mult), = c.factors
                assert len(factor.terms) == 2 and mult <= k + 1
            unit_num, unit_den = sympy.fraction(sympy.cancel(den / ref_den))
            assert len(sympy.Poly(unit_num, u).terms()) == len(sympy.Poly(unit_den, u).terms()) == 1
            top_mult = max(top_mult, mult)
            top_terms = max(top_terms, len(c.num.terms))
        assert top_mult == k + 1
        assert top_terms == SYMPY_NUM_TERMS[k - 1]

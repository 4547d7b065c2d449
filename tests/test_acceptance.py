"""End-to-end gate: one test per release criterion, pinned tolerances.

Each test is self-contained and uses its own seeded generator so the
sampled cases are reproducible.  The terminal summary prints one
PASS/FAIL line per criterion (see conftest).
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np

from trisemi import (
    AlgebraId,
    APPoint,
    AtomTable,
    AutomorphismSpec,
    Axis,
    BFSpec,
    BohrCharacter,
    DilationIndex,
    DiscPoint,
    Element,
    Frequency,
    GaussianPacket,
    IdealId,
    PacketSum,
    Scalar,
    TripleCharacter,
    adjoint,
    apply_automorphism,
    apply_element,
    apply_word,
    bf_report,
    bochner_fejer,
    certificate_residual,
    cesaro_mean,
    check_flip_contradiction,
    coeff_map,
    column_norms,
    commutator_certificate,
    composite_eval,
    eval_character,
    fourier_conjugation_check,
    in_ideal,
    jt_reduce,
    mul,
    norm_lower_bound,
    quotient_defect,
    recurrence_schedule,
    recurrence_search,
    section_weights,
    support_basis,
    support_predicate,
    verify_certificate,
    wot_compression_demo,
)

from helpers import (
    mp_diff_norm,
    mp_norm,
    random_ap_element,
    random_element,
    random_packet,
    random_packet_sum,
    random_word,
    random_z_element,
)

TABLE = AtomTable({"s2": math.sqrt(2), "s3": math.sqrt(3)}, {"h": 0.5})
ONE = Frequency.rational(1)
TWO = Frequency.rational(2)


def _l1(x):
    return x.l1_norm(TABLE)


def _exact_modulus(c: Scalar) -> Fraction:
    # single-phase coefficients have an exactly rational modulus
    single = c.single_phase()
    assert single is not None
    a2 = single[1].abs2()
    rn, rd = math.isqrt(a2.numerator), math.isqrt(a2.denominator)
    assert rn * rn == a2.numerator and rd * rd == a2.denominator
    return Fraction(rn, rd)


def test_c01_exact_ring_laws():
    rng = random.Random(1001)
    for _ in range(1000):
        x = random_element(rng, max_terms=5)
        y = random_element(rng, max_terms=5)
        z = random_element(rng, max_terms=5)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, y + z) == mul(x, y) + mul(x, z)
        assert mul(x + y, z) == mul(x, z) + mul(y, z)
        assert adjoint(mul(x, y)) == mul(adjoint(y), adjoint(x))


def test_c02_rewrite_matches_representation():
    rng = random.Random(1002)
    for _ in range(200):
        word = random_word(rng, rng.randint(1, 8))
        normal = Element.from_word(word)
        for _ in range(5):
            f = PacketSum.single(random_packet(rng))
            gap = mp_diff_norm(apply_word(word, f, TABLE), apply_element(normal, f, TABLE))
            assert gap < 1e-10 * float(mp_norm(f))


def test_c03_bochner_fejer_sections():
    x = Element.d(ONE)
    rows = bf_report(x, "translation", [2, 3, 4], TABLE)
    expected = {2: Fraction(1, 2), 3: Fraction(5, 6), 4: Fraction(23, 24)}
    for row in rows:
        (weight,) = row["weights"].values()
        assert weight == expected[row["m"]]
    errors = [row["l1_error"] for row in rows]
    assert errors[0] > errors[1] > errors[2]

    rng = random.Random(1003)
    for _ in range(100):
        y = random_ap_element(rng, 4)
        basis = support_basis(y, "translation")
        total = _l1(y)
        prev_err = None
        prev_wmin = None
        # coordinate denominators can carry primes well past 7 (they pick
        # up leading numerators during elimination), so grow m until the
        # factorial lattice resolves the whole support
        for m in range(max(2, len(basis)), 61):
            out = bochner_fejer(y, BFSpec(m, "translation"))
            assert out.l1_norm(TABLE) <= total + 1e-12
            weights = section_weights(y, BFSpec(m, "translation"))
            wmin = min(weights.values())
            err = (y - out).l1_norm(TABLE)
            if prev_err is not None:
                assert err <= prev_err + 1e-12
                assert wmin >= prev_wmin
            prev_err, prev_wmin = err, wmin
            if wmin >= Fraction(99, 100):
                break
        assert prev_wmin >= Fraction(99, 100)


def test_c04_cesaro_decay_constant():
    # the symmetric gauge window gives sin(dT)/(dT) factors, so e(T)*T
    # oscillates under a flat envelope; fit the constant as the grid max
    # up to T=50, then the T=400 value must sit within twice that
    rng = random.Random(202)

    def coarse_freq():
        out = Frequency.zero()
        for sym in (None, "s2", "s3"):
            c = rng.randint(0, 2)
            if c:
                f = Frequency.rational(c) if sym is None else Frequency.atom(sym).scale(Fraction(c))
                out = out + f
        return out

    def coarse_ap(terms):
        x = Element.zero()
        for _ in range(terms):
            c = Scalar.gaussian(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
            if c.is_zero():
                c = Scalar.one()
            x = x + mul(Element.m(coarse_freq()), Element.d(coarse_freq())).scale(c)
        return x

    for _ in range(50):
        x = coarse_ap(rng.randint(1, 3))
        for s in {key[1] for key in x.terms}:
            fiber = coeff_map(x, Axis.TRANSLATION, s)
            fitted = max(
                _l1(cesaro_mean(x, "translation", s, 1.25 * k, steps=2048, table=TABLE) - fiber)
                * 1.25
                * k
                for k in range(1, 41)
            )
            e400 = _l1(cesaro_mean(x, "translation", s, 400.0, steps=16384, table=TABLE) - fiber)
            if fitted == 0.0:
                assert e400 == 0.0
            else:
                assert e400 * 400.0 <= 2.0 * fitted


def test_c05_column_norm_identity():
    rng = random.Random(1005)
    for i in range(100):
        grading = "translation" if i < 50 else "dilation"
        x = random_element(rng, max_terms=3, with_v=(grading == "dilation"))
        xi = random_packet_sum(rng, 2)
        lhs, rhs = column_norms(x, xi, grading=grading, table=TABLE)
        assert abs(lhs - rhs) < 1e-9 * _l1(x) ** 2


def test_c06_expectations():
    rng = random.Random(1006)
    zero_f = Frequency.zero()
    for _ in range(500):
        x = random_ap_element(rng, 3)
        y = random_ap_element(rng, 3)
        ex = coeff_map(x, Axis.TRANSLATION, zero_f)
        ey = coeff_map(y, Axis.TRANSLATION, zero_f)
        assert coeff_map(mul(x, y), Axis.TRANSLATION, zero_f) == mul(ex, ey)

    # contractivity, exact rational moduli on single-phase coefficients;
    # term-key collisions merge phases, so skip the rare merged elements
    def all_single(x):
        return all(c.single_phase() is not None for c in x.terms.values())

    exact_cases = 0
    for _ in range(130):
        x = random_element(rng, max_terms=4, with_v=False, single_phase=True)
        z = random_element(rng, max_terms=4, single_phase=True)
        if not (all_single(x) and all_single(z)):
            continue
        exact_cases += 1
        total = sum(_exact_modulus(c) for c in x.terms.values())
        for axis in (Axis.TRANSLATION, Axis.MULTIPLICATION):
            pick = 1 if axis is Axis.TRANSLATION else 0
            for idx in {key[pick] for key in x.terms}:
                fiber = coeff_map(x, axis, idx)
                assert sum(_exact_modulus(c) for c in fiber.terms.values()) <= total
        ztotal = sum(_exact_modulus(c) for c in z.terms.values())
        for idx in {key[2] for key in z.terms}:
            fiber = coeff_map(z, Axis.DILATION, idx)
            assert sum(_exact_modulus(c) for c in fiber.terms.values()) <= ztotal
    assert exact_cases >= 100

    # numeric fallback for mixed-phase coefficients
    for _ in range(100):
        x = random_element(rng, max_terms=4, with_v=False)
        for idx in {key[1] for key in x.terms}:
            assert _l1(coeff_map(x, Axis.TRANSLATION, idx)) <= _l1(x) + 1e-10


def test_c07_commutator_ideals():
    rng = random.Random(1007)
    for _ in range(500):
        a, b = random_ap_element(rng, 3), random_ap_element(rng, 3)
        assert in_ideal(mul(a, b) - mul(b, a), IdealId.cp(), TABLE)
    for _ in range(500):
        a, b = random_z_element(rng, 3), random_z_element(rng, 3)
        assert in_ideal(mul(a, b) - mul(b, a), IdealId.cph_g(), TABLE)
    for _ in range(500):
        x = random_ap_element(rng, 4)
        assert in_ideal(quotient_defect(x), IdealId.cp(), TABLE)
    for _ in range(50):
        lam = Frequency.rational(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
        s = Frequency.rational(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
        assert verify_certificate(commutator_certificate(lam, s))
    for _ in range(100):
        lam = rng.uniform(0.1, 10.0)
        t = rng.uniform(0.1, 3.0)
        cert = jt_reduce(lam, t)
        assert certificate_residual(cert) < 1e-9
        assert verify_certificate(cert)


def test_c08_characters_multiplicative():
    rng = random.Random(1008)
    finite1 = APPoint.finite(BohrCharacter({"s2": Fraction(1, 3), "ONE": Fraction(1, 5)}), Fraction(1, 2))
    finite2 = APPoint.finite(BohrCharacter({"s3": Fraction(2, 7)}), Fraction(1, 3))
    families = {
        "d1": [TripleCharacter.d1(p) for p in (finite1, APPoint.x1(), APPoint.infinity())],
        "d2": [TripleCharacter.d2(p) for p in (finite2, APPoint.x1(), APPoint.infinity())],
        "d3": [TripleCharacter.d3(DiscPoint(w)) for w in (0.6, 0.25j, -0.2 + 0.1j, 0j)],
        "d4": [TripleCharacter.d4(DiscPoint(w)) for w in (0.7, -0.5j, 0.3 + 0.3j, 0j)],
        "chi_inf": [TripleCharacter.chi_inf("Z")],
    }
    for pool in families.values():
        for k in range(200):
            chi = pool[k % len(pool)]
            x = random_z_element(rng, 3)
            y = random_z_element(rng, 3)
            lhs = eval_character(chi, mul(x, y), TABLE)
            rhs = eval_character(chi, x, TABLE) * eval_character(chi, y, TABLE)
            assert abs(lhs - rhs) < 1e-9
    for side in ("m", "d"):
        for _ in range(200):
            x = random_z_element(rng, 3)
            y = random_z_element(rng, 3)
            lhs = composite_eval(mul(x, y), side, None, TABLE)
            rhs = composite_eval(x, side, None, TABLE) * composite_eval(y, side, None, TABLE)
            assert abs(lhs - rhs) < 1e-9
    chi1 = TripleCharacter.d1(APPoint.infinity())
    chi2 = TripleCharacter.d2(APPoint.infinity())
    for _ in range(200):
        x = random_z_element(rng, 3)
        assert eval_character(chi1, x, TABLE) == eval_character(chi2, x, TABLE)


def _random_spec(rng):
    return AutomorphismSpec(
        dil=DilationIndex.unit(Fraction(rng.randint(-2, 2), rng.choice((1, 2)))),
        mod_char=BohrCharacter(
            {b: Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for b in ("ONE", "s2")}
        ),
        shift_char=BohrCharacter(
            {b: Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for b in ("ONE", "s3")}
        ),
        v_angle=Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))),
    )


def test_c09_automorphisms():
    rng = random.Random(1009)
    specs = [_random_spec(rng) for _ in range(10)]
    elements = [random_z_element(rng, 3) for _ in range(200)]
    for spec in specs:
        for x in elements:
            fx = apply_automorphism(x, spec, TABLE)
            # per-term coefficient moduli survive exactly, so the map
            # is an l1 isometry term by term
            for key, coeff in x.terms.items():
                img = apply_automorphism(Element({key: coeff}), spec, TABLE)
                ((ic),) = img.terms.values()
                assert ic * ic.conj() == coeff * coeff.conj()
            assert support_predicate(fx, AlgebraId.APH_G_PLUS, TABLE)
        for i in range(0, 100, 2):
            x, y = elements[i], elements[i + 1]
            lhs = apply_automorphism(mul(x, y), spec, TABLE)
            assert lhs == mul(
                apply_automorphism(x, spec, TABLE), apply_automorphism(y, spec, TABLE)
            )
    for _ in range(20):
        report = check_flip_contradiction(rng.uniform(0.05, 20.0), rng.uniform(0.05, 20.0))
        assert report.contradiction


def test_c10_chirality():
    rng = random.Random(1010)
    specs = [_random_spec(rng) for _ in range(10)] + [AutomorphismSpec()]
    for spec in specs:
        for t in (1, 2, 3):
            image = apply_automorphism(Element.v(DilationIndex.unit(t)), spec, TABLE)
            assert not support_predicate(image, AlgebraId.APH_G_PLUS_ADJOINT, TABLE)


def test_automorphisms_compose_by_adding_parameters():
    # the c09 specs, each composed with the next and with its inverse;
    # characters are keyed by atom base, so the parameters add
    rng = random.Random(1009)
    specs = [_random_spec(rng) for _ in range(10)]
    elements = [random_z_element(rng, 3) for _ in range(50)]
    for a, b in zip(specs, specs[1:] + specs[:1]):
        ab, inv = a.compose(b), a.inverse()
        assert ab.dil == a.dil + b.dil and ab.v_angle == a.v_angle + b.v_angle
        assert ab.mod_char == BohrCharacter(a.mod_char.angles + b.mod_char.angles)
        assert a.compose(inv) == inv.compose(a) == AutomorphismSpec()
        for x in elements:
            fx = apply_automorphism(x, a, TABLE)
            assert apply_automorphism(fx, b, TABLE) == apply_automorphism(x, ab, TABLE)
            assert apply_automorphism(fx, inv, TABLE) == x


def test_c11_recurrence_and_wot():
    assert recurrence_search([1.0], 0.05, 10**5) == 44
    devs = np.abs(np.exp(1j * np.arange(1, 101)) - 1.0)
    assert int(np.nonzero(devs < 0.05)[0][0]) + 1 == 44

    schedule = recurrence_schedule([1.0, math.sqrt(2)], 0.3, 10**5)
    assert len(schedule) >= 3
    x = Element.m(ONE) + mul(Element.m(ONE), Element.v(DilationIndex.unit(1)))
    f = PacketSum.single()
    g = PacketSum.single(GaussianPacket(amp=1.0, a=0.8, b=0.3, c=-0.2))
    report = wot_compression_demo(x, f, g, "translation", schedule[:4], TABLE)
    rels = report.relative_errors
    assert all(b < a for a, b in zip(rels, rels[1:]))
    assert rels[-1] < 0.1

    V1, V2 = Element.v(DilationIndex.unit(1)), Element.v(DilationIndex.unit(2))
    y = (
        mul(Element.m(ONE), V1)
        + mul(Element.d(ONE), V1)
        + mul(Element.m(TWO), V2)
        + mul(Element.d(TWO), V2)
        + Element.m(ONE)
        + Element.d(ONE)
    )
    for mode in ("dilation-in", "dilation-out"):
        demo = wot_compression_demo(y, f, g, mode, list(range(1, 13)), TABLE)
        assert demo.relative_errors[-1] < 1e-2


def test_c12_fourier_duality():
    rng = random.Random(1012)
    for lam in (0.5, 1.0, 2.0):
        for _ in range(10):
            f = random_packet_sum(rng, 2)
            g = random_packet_sum(rng, 2)
            assert fourier_conjugation_check(lam, f, g) < 1e-8


def test_c13_norm_sandwich():
    rng = random.Random(1013)
    for k in range(100):
        x = random_element(rng, max_terms=3)
        bound = norm_lower_bound(x, trials=12, seed=k, table=TABLE)
        assert bound <= _l1(x) + 1e-8
    two = Element.m(ONE) + Element.m(TWO)
    assert norm_lower_bound(two, trials=2000, seed=7, table=TABLE) > 1.98

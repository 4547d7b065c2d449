"""Bochner-Fejer sums, gauge twists, Cesaro means, recurrence scans."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from trisemi import (
    AtomTable,
    AxisMap,
    InvalidParameter,
    NotFound,
    AxisMismatch,
    PacketSum,
    BasisTooShort,
    BFSpec,
    D,
    DilationIndex,
    Element,
    Frequency,
    FrequencyAtom,
    M,
    PhaseExponent,
    PhaseMonomial,
    QI,
    Sc,
    Scalar,
    V,
    bf_report,
    bochner_fejer,
    cesaro_mean,
    gauge,
    mul,
    norm_lower_bound,
    parse_element,
    parse_frequency,
    rational_basis,
    recurrence_schedule,
    recurrence_search,
    section_weights,
    support_basis,
    wot_compression_demo,
)
from trisemi.approx import bf_kernel_many

from helpers import ATOMS, random_ap_element, random_element, random_fraction, random_scalar

ONE = Frequency.rational(1)
SQRT2 = Frequency.atom("s2")


def test_rational_basis_spans_the_support():
    basis = rational_basis([ONE, SQRT2, ONE + SQRT2])
    assert basis.basis == (ONE, SQRT2)
    assert basis.coords_of(ONE + SQRT2) == (Fraction(1), Fraction(1))
    assert basis.coords_of(Frequency.rational(Fraction(7, 3))) == (
        Fraction(7, 3),
        Fraction(0),
    )
    outside = Frequency.atom("s3")
    assert basis.coords_of(outside) is None


def test_rational_basis_handles_dependent_fractions():
    basis = rational_basis([ONE, Frequency.rational(Fraction(1, 7))])
    assert basis.basis == (ONE,)
    assert basis.coords_of(Frequency.rational(Fraction(1, 7))) == (Fraction(1, 7),)


def _rank(sums) -> int:
    """Rank over the rationals of exact sums: dense Fraction elimination
    on their coefficient matrix."""
    keys = list({k for f in sums for k, _ in f.terms})
    rows = [[dict(f.terms).get(k, Fraction(0)) for k in keys] for f in sums]
    rank = 0
    for col in range(len(keys)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


_FREQ_PARTS = [("ONE", None), ("s2", None), ("s3", None), ("s5", None),
               ("s2", DilationIndex.unit(1)), ("s3", DilationIndex.single("h"))]


def _random_frequency(rng):
    parts = rng.sample(_FREQ_PARTS, rng.randint(1, 3))
    return sum((Frequency.atom(b, random_fraction(rng), e) for b, e in parts), Frequency.zero())


def _random_dilation(rng):
    syms = rng.sample(("UNIT", "h", "g", "k"), rng.randint(1, 3))
    return sum((DilationIndex.single(s, random_fraction(rng)) for s in syms), DilationIndex.zero())


def _combination(rng, sums, zero):
    """A random rational combination of up to three of the given sums."""
    picks = rng.sample(sums, rng.randint(1, min(3, len(sums))))
    return sum((f.scale(random_fraction(rng)) for f in picks), zero)


@pytest.mark.parametrize("kind", ["frequency", "dilation"])
def test_rational_basis_matches_an_elimination_oracle(kind):
    make, zero = {
        "frequency": (_random_frequency, Frequency.zero()),
        "dilation": (_random_dilation, DilationIndex.zero()),
    }[kind]
    rng = random.Random(f"basis:{kind}")
    for _ in range(40):
        inputs = [make(rng) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(1, 4)):  # planted dependencies, anywhere in the list
            inputs.insert(rng.randrange(len(inputs) + 1), _combination(rng, inputs, zero))
        basis = rational_basis(inputs)
        greedy = []
        for f in inputs:
            if _rank(greedy + [f]) > len(greedy):
                greedy.append(f)
        assert basis.basis == tuple(greedy)
        assert len(basis) == _rank(inputs)
        again = rational_basis(basis.basis)  # knows the inputs outside the basis only by elimination
        queries = [_combination(rng, inputs, zero) for _ in range(4)] + [make(rng) for _ in range(4)]
        for f in inputs + queries:
            coords = basis.coords_of(f)
            if _rank(greedy + [f]) > len(greedy):
                assert coords is None
                continue
            assert len(coords) == len(basis)
            assert sum((b.scale(c) for b, c in zip(basis.basis, coords)), zero) == f
            assert coords == again.coords_of(f)


def test_bf_weights_on_the_unit_shift():
    x = Element.d(ONE)
    expected = {1: Fraction(0), 2: Fraction(1, 2), 3: Fraction(5, 6), 4: Fraction(23, 24)}
    for m, weight in expected.items():
        out = bochner_fejer(x, BFSpec(m, "translation"))
        key = (Frequency.zero(), ONE, DilationIndex.zero())
        if weight == 0:
            assert out.is_zero()
        else:
            assert out.coefficient(key) == Scalar.from_rational(weight)


def test_bf_l1_error_strictly_decreases(table):
    x = Element.d(ONE)
    report = bf_report(x, "translation", [2, 3, 4, 5], table)
    errors = [row["l1_error"] for row in report]
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_bf_never_expands_and_converges(table):
    rng = random.Random(9)
    for _ in range(25):
        x = random_ap_element(rng, 4)
        spec_basis = support_basis(x, "translation")
        l1 = x.l1_norm(table)
        converged = False
        for m in range(1, 9):
            if m < len(spec_basis):
                continue
            out = bochner_fejer(x, BFSpec(m, "translation"))
            assert out.l1_norm(table) <= l1 + 1e-12
            if out == x:
                converged = False  # equality only in the m -> inf limit
            weights = section_weights(x, BFSpec(m, "translation"))
            if all(w == 1 for w in weights.values()):
                converged = True
                break
        # weights are (1 - |nu|/(m!)^2) products: reach 1 only at nu = 0,
        # so full convergence needs the support inside the coarse lattice
        if not converged:
            big = section_weights(x, BFSpec(8, "translation"))
            assert all(w > Fraction(9, 10) for w in big.values())


def test_bf_non_integer_lattice_handling():
    # basis is [1], so 4/3 has coordinate 4/3 and nu = 8/3 is off-lattice
    x = Element.d(ONE) + Element.d(Frequency.rational(Fraction(4, 3)))
    spec = BFSpec(2, "translation")
    out = bochner_fejer(x, spec)
    key = (Frequency.zero(), Frequency.rational(Fraction(4, 3)), DilationIndex.zero())
    assert out.coefficient(key).is_zero()
    kept = (Frequency.zero(), ONE, DilationIndex.zero())
    assert out.coefficient(kept) == Scalar.from_rational(Fraction(1, 2))


def test_bf_basis_too_short():
    x = Element.d(ONE) + Element.d(SQRT2)
    with pytest.raises(BasisTooShort):
        bochner_fejer(x, BFSpec(1, "translation"))


def test_bf_kernel_values(table):
    basis = rational_basis([ONE])
    # m = 1: the kernel collapses to the constant 1
    assert bf_kernel_many(basis, 1, [0.37], table)[0] == pytest.approx(1.0)
    two = rational_basis([ONE, SQRT2])
    # K(0) multiplies (m!)^2 over the first m basis vectors
    assert bf_kernel_many(two, 2, [0.0], table)[0] == pytest.approx(16.0)
    with pytest.raises(BasisTooShort):
        bf_kernel_many(basis, 2, [0.0], table)
    ts = [0.1 * k for k in range(-30, 31)]
    values = bf_kernel_many(two, 2, ts, table)
    assert min(values) >= -1e-9  # nonnegative up to roundoff


def test_gauge_exact_rational_angle(table):
    x = Element.d(ONE)
    out = gauge(x, "translation", Fraction(2), table)
    key = (Frequency.zero(), ONE, DilationIndex.zero())
    assert out.coefficient(key) == Scalar.rational_angle(Fraction(2))


def test_gauge_pi_flips_the_sign(table):
    out = gauge(Element.d(ONE), "translation", math.pi, table)
    key = (Frequency.zero(), ONE, DilationIndex.zero())
    val = out.coefficient(key).numeric(table)
    assert val == pytest.approx(-1.0, abs=1e-12)


def test_gauge_gives_an_exponent_bearing_index_its_exact_phase(table):
    # s2*e has no exact rational value: the phase is theta*s2*e itself,
    # with theta read at its exact binary value
    idx = parse_frequency("s2@{1}")
    theta = 0.3
    out = gauge(Element.d(idx), "translation", theta, table)
    coeff = out.coefficient((Frequency.zero(), idx, DilationIndex.zero()))
    phase = PhaseExponent(((FrequencyAtom("s2", DilationIndex.unit(1)), Fraction(theta)),))
    assert coeff.single_phase() == (phase, QI(1, 0))
    want = cmath.exp(1j * theta * table.atom_value("s2") * math.e)
    assert coeff.numeric(table) == pytest.approx(want, abs=1e-12)


def _twisted_index(rng: random.Random, degree: int) -> Frequency:
    """A frequency whose monomials have at most ``degree`` atoms: a
    rational part, atoms, atoms scaled by e^t, and at degree 2 products
    of two atoms."""
    parts = [(PhaseMonomial(), random_fraction(rng))]
    for _ in range(rng.randint(0, 2) if degree else 0):
        bases = rng.sample(ATOMS, rng.randint(1, degree))
        exp = DilationIndex.unit(rng.randint(-2, 2)) if len(bases) == 1 else None
        parts.append((PhaseMonomial(tuple(bases), exp), random_fraction(rng)))
    return Frequency(parts)


def _twisted_pair(rng: random.Random):
    """Two V-free elements whose indices carry exponents or two atoms.
    The product's phases pair a modulation with a translation index, so
    a side with two-atom indices meets a rational other side: every
    phase monomial keeps at most two atoms."""
    lam_deg, mu_deg = rng.choice(((1, 1), (2, 0), (0, 2)))
    pair = []
    for _ in range(2):
        x = Element.zero()
        for _ in range(rng.randint(1, 3)):
            lam, mu = _twisted_index(rng, lam_deg), _twisted_index(rng, mu_deg)
            x = x + Element.from_word([Sc(random_scalar(rng)), M(lam), D(mu)])
        pair.append(x)
    return pair


@pytest.mark.parametrize("grading", ["translation", "multiplication"])
def test_gauge_is_exactly_multiplicative_on_v_free_pairs(grading, table):
    # the phase theta*index is symbolic, so the twist is a homomorphism
    # over the atoms, exponent-bearing and two-atom indices included
    rng = random.Random(f"gauge-pairs:{grading}")
    for _ in range(200):
        x, y = _twisted_pair(rng)
        theta = random_fraction(rng, max_num=7, max_den=5)
        twisted = [gauge(z, grading, theta, table) for z in (x, y)]
        assert gauge(mul(x, y), grading, theta, table) == mul(*twisted)


@pytest.mark.parametrize("grading", ["translation", "multiplication"])
def test_gauge_is_exactly_multiplicative_on_generic_v_free_monomials(grading):
    # c M(l_i) D(m_i) with undeclared atoms: free symbols, no table
    coeffs = (Scalar.one(), Scalar.gaussian(2, -1), Scalar.rational_angle(Fraction(1, 3)))
    xs = [
        Element.from_word([Sc(c), M(Frequency.atom(f"l{i}")), D(Frequency.atom(f"m{i}"))])
        for i, c in enumerate(coeffs)
    ]
    xs.append(xs[1] + xs[2])
    theta = Fraction(5, 7)
    for x in xs:
        for y in xs:
            twisted = [gauge(z, grading, theta) for z in (x, y)]
            assert gauge(mul(x, y), grading, theta) == mul(*twisted)
    # theta*m_i is a phase in the atom itself
    (coeff,) = gauge(xs[0], grading, theta).terms.values()
    atom = "m0" if grading == "translation" else "l0"
    assert coeff.single_phase() == (PhaseExponent(((FrequencyAtom(atom), theta),)), QI(1, 0))


def test_the_dilation_gauge_is_the_v_twisted_axis_map(rng, table):
    for _ in range(100):
        h = DilationIndex.single("h", rng.choice((1, -2, Fraction(1, 2))))
        x = random_element(rng) + mul(random_element(rng), Element.v(h))
        theta = random_fraction(rng)
        assert gauge(x, "dilation", theta, table) == AxisMap(v_angle=theta)(x, table)


def test_dilation_grading_basis_reads_the_dilation_table():
    b = support_basis(parse_element("V(h) + V(1)"), "dilation")
    assert b.basis == (DilationIndex.unit(1), DilationIndex.single("h"))
    ts = [0.0, 1.0]
    # an atom of the same name (e, far from rational) does not leak in
    for atoms in ({}, {"h": math.e}):
        table = AtomTable(atoms, {"h": 0.5})
        assert b.numeric(table) == [1.0, 0.5]
        # the Fejer sums prod_j sum_{|v|<4} (1 - |v|/4) e^{i v t beta_j / 2}
        want = [
            math.prod(sum((1 - abs(v) / 4) * math.cos(v * t * beta / 2) for v in range(-3, 4))
                      for beta in (1.0, 0.5))
            for t in ts
        ]
        assert list(bf_kernel_many(b, 2, ts, table)) == pytest.approx(want, rel=1e-12)


def test_gauge_respects_the_grading_sum(table):
    x = Element.d(ONE) + Element.m(ONE)
    out = gauge(x, "translation", Fraction(1, 3), table)
    # modulation part has translation index zero: untouched
    assert out.coefficient((ONE, Frequency.zero(), DilationIndex.zero())) == Scalar.one()


def test_cesaro_mean_and_the_kernel_refuse_too_few_panels_or_order(table):
    with pytest.raises(InvalidParameter, match=r"quadrature panels must be an integer in \[2, "):
        cesaro_mean(Element.d(ONE), "translation", ONE, 30.0, 1, table)
    with pytest.raises(InvalidParameter, match=r"kernel order m must be an integer in \[1, inf\]"):
        bf_kernel_many(rational_basis([ONE]), 0, [0.5], table)


@pytest.mark.parametrize(
    "what, call",
    [
        pytest.param("scan limit", lambda: recurrence_search([1.0], 0.05, math.inf), id="limit-inf"),
        pytest.param("scan limit", lambda: recurrence_search([1.0], 0.05, math.nan), id="limit-nan"),
        pytest.param("scan limit", lambda: recurrence_search([1.0], 0.05, 44.9), id="limit-44.9"),
        pytest.param("scan limit", lambda: recurrence_schedule([1.0], 0.05, 100.0), id="limit-100.0"),
        pytest.param(
            "quadrature panels",
            lambda: cesaro_mean(Element.d(ONE), "translation", ONE, 30.0, 2.5),
            id="steps-2.5",
        ),
        pytest.param("section order m", lambda: BFSpec(1.5), id="order-1.5"),
        pytest.param("section order m", lambda: BFSpec(math.nan), id="order-nan"),
        pytest.param(
            "kernel order m", lambda: bf_kernel_many(rational_basis([ONE]), 1.0, [0.5]), id="kernel-1.0"
        ),
        pytest.param("trials", lambda: norm_lower_bound(Element.m(ONE), 2.5), id="trials-2.5"),
        pytest.param("seed", lambda: norm_lower_bound(Element.m(ONE), 2, 0.5), id="seed-0.5"),
        pytest.param(
            "compression step",
            lambda: wot_compression_demo(
                Element.m(ONE), PacketSum.single(), PacketSum.single(), "translation", [1.7, 2.2]
            ),
            id="schedule-1.7",
        ),
    ],
)
def test_a_count_must_be_an_integer_in_its_range(what, call):
    # no count is rounded, and a NaN or infinite one is refused like any other
    with pytest.raises(InvalidParameter, match=rf"^{what} must be an integer in \[.*\], got "):
        call()


def test_a_count_too_long_to_print_is_refused_by_name():
    # repr() of an int past the digit limit of int/str conversion raises
    # ValueError: the refusal names the argument and the limit instead
    huge = 10**5000
    order = r"^section order m must be an integer in \[1, 20000\], got "
    limit = r"^scan limit must be an integer in \[1, 100000000\], got "
    calls = ((order, lambda: BFSpec(huge)), (limit, lambda: recurrence_search([1.0], 0.1, huge)))
    for prefix, call in calls:
        with pytest.raises(InvalidParameter, match=prefix + "an integer of over 4300 digits$"):
            call()
    with pytest.raises(InvalidParameter, match=order + "0$"):
        BFSpec(0)


def test_cesaro_single_fiber_is_exact(table):
    x = Element.d(ONE)
    out = cesaro_mean(x, "translation", ONE, 30.0, 512, table)
    assert out == Element.identity()


def test_cesaro_cross_term_decays(table):
    x = Element.d(ONE) + Element.d(Frequency.rational(2))
    for T, steps in ((50.0, 8192), (400.0, 65536)):
        out = cesaro_mean(x, "translation", ONE, T, steps, table)
        gap = (out - Element.identity()).l1_norm(table)
        assert gap <= 2.5 / T


def test_cesaro_dilation_grading(table):
    t = DilationIndex.unit(1)
    x = mul(Element.m(ONE), Element.v(t)) + Element.d(ONE)
    out = cesaro_mean(x, "dilation", t, 40.0, 4096, table)
    assert not out.coefficient((ONE, Frequency.zero(), DilationIndex.zero())).is_zero()
    with pytest.raises(AxisMismatch):
        cesaro_mean(x, "translation", ONE, 40.0, 512, table)


def _weighted_by_products(x, axis, weights):
    """Each coefficient times the scalar of its weight's exact value, the
    terms on their stripped keys: the Cesaro mean built by products."""
    return Element(
        (axis.strip(key), coeff * Scalar.from_rational(Fraction(w)))
        for (key, coeff), w in zip(x.terms.items(), weights)
    )


def _assert_same_terms(got, want):
    assert got == want
    for key, c in want.terms.items():
        assert got.terms[key].num._items == c.num._items
        assert got.terms[key].factors == c.factors


# a binomial denominator, a two-term numerator over a binomial, plain terms
CESARO_TEXT = (
    "M(1)*D(1) + 2*M(s2)*D(1/2) + (3/(1 + exp(i*1)))*D(1)"
    " + ((1 - i)*exp(i*2/3) + 5)/(2 + exp(i*1/3))*M(s3)*D(2) + D(s2) + (2 + i)*M(1/2)"
)


def test_cesaro_mean_scales_by_the_exact_weights(table):
    from trisemi import _kernels
    from trisemi.algebra import Axis

    rng = random.Random("cesaro weights")
    axis = Axis.TRANSLATION
    xs = [parse_element(CESARO_TEXT)] + [random_ap_element(rng, 6) for _ in range(12)]
    assert any(c.factors for c in xs[0].terms.values())
    for x in xs:
        for s in dict.fromkeys(axis.index(key) for key in x.terms):
            for T, steps in ((3.0, 4), (50.0, 1024), (400.0, 65536)):
                deltas = [axis.index(key).numeric(table) - s.numeric(table) for key in x.terms]
                weights = _kernels.phase_mean_weights(deltas, T, steps)
                want = _weighted_by_products(x, axis, weights.tolist())
                _assert_same_terms(cesaro_mean(x, axis, s, T, steps, table), want)


def test_cesaro_mean_drops_zero_weights_and_keeps_subnormal_ones(table, monkeypatch):
    from trisemi import _kernels
    from trisemi.algebra import Axis

    x = parse_element(CESARO_TEXT)
    weights = [0.0, 5e-324, -2.2250738585072014e-308, -0.0, 1e-310, 0.75][: len(x.terms)]
    assert len(weights) == len(x.terms)
    monkeypatch.setattr(_kernels, "phase_mean_weights", lambda *_: np.array(weights))
    got = cesaro_mean(x, "translation", ONE, 50.0, 1024, table)
    _assert_same_terms(got, _weighted_by_products(x, Axis.TRANSLATION, weights))
    # the two zero weights drop their terms, every other term stays
    kept = {Axis.TRANSLATION.strip(key) for key, w in zip(x.terms, weights) if w}
    assert set(got.terms) == kept and len(kept) < len(set(map(Axis.TRANSLATION.strip, x.terms)))


def test_recurrence_search_unit_frequency():
    assert recurrence_search([1.0], 0.05, 100000) == 44
    # 2|sin(44/2)| really is below 0.05
    assert 2.0 * abs(math.sin(22.0)) < 0.05


def test_recurrence_schedule_is_strictly_improving():
    sched = recurrence_schedule([1.0], 0.05, 100000)
    assert sched[0] == 44
    devs = [2.0 * abs(math.sin(0.5 * n)) for n in sched]
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_recurrence_schedule_two_frequencies():
    sched = recurrence_schedule([1.0, math.sqrt(2.0)], 0.3, 100000)
    assert len(sched) >= 3
    assert sched == sorted(sched)


def test_recurrence_not_found():
    from trisemi import NotFound

    with pytest.raises(NotFound):
        recurrence_search([1.0], 1e-9, 50)


def _first_recurrence(freqs, eps, limit):
    """Brute force: the first M with max_f 2|sin(f M / 2)| < eps."""
    return next(
        (m for m in range(1, limit + 1) if max(2.0 * abs(math.sin(0.5 * f * m)) for f in freqs) < eps),
        None,
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InvalidParameter, NotFound) as exc:
        return type(exc), str(exc)


def test_recurrence_search_is_the_head_of_the_schedule():
    rng = random.Random("recurrence")
    for _ in range(40):
        freqs = [rng.uniform(0.1, 5.0) for _ in range(rng.randint(1, 3))]
        eps = rng.uniform(0.02, 0.6)
        limit = rng.choice([50, 2000])
        search = _outcome(recurrence_search, freqs, eps, limit)
        schedule = _outcome(recurrence_schedule, freqs, eps, limit)
        assert search == (schedule[0] if isinstance(schedule, list) else schedule)
        assert _first_recurrence(freqs, eps, limit) == (search if isinstance(search, int) else None)
    for eps, limit in ((0.0, 10), (-1.0, 10), (math.nan, 10), (0.1, 0), (0.1, -3), (0.0, 0), (1e-9, 50)):
        search = _outcome(recurrence_search, [1.0], eps, limit)
        assert search == _outcome(recurrence_schedule, [1.0], eps, limit)
        assert search[0] is (NotFound if eps > 0 and limit > 0 else InvalidParameter)


def test_recurrence_search_stops_at_its_first_hit(monkeypatch):
    from trisemi import _kernels

    # a scan of the whole limit would hold or compute 10^8 deviations
    assert recurrence_search([1.0], 0.05, 10**8) == 44
    scan, pulled = _kernels.recurrence_hits, []

    def counted(*args):
        for chunk in scan(*args):
            pulled.append(chunk)
            yield chunk

    monkeypatch.setattr(_kernels, "recurrence_hits", counted)
    assert recurrence_search([1.0], 0.05, 10**8) == 44
    assert len(pulled) == 1


def _brute_schedule(freqs, eps, limit):
    """Brute force: the M with max_f 2|sin(f M / 2)| below eps and below
    every earlier deviation."""
    out, best = [], math.inf
    for m in range(1, limit + 1):
        dev = max((2.0 * abs(math.sin(0.5 * f * m)) for f in freqs), default=0.0)
        if dev < eps and dev < best:
            out.append(m)
        best = min(best, dev)
    return out


def test_recurrence_schedule_matches_a_brute_force_scan_across_chunks():
    from trisemi._kernels import _CHUNK

    rng = random.Random("chunk edges")
    for _ in range(8):
        freqs = [rng.uniform(-5.0, 5.0) for _ in range(rng.randint(1, 3))]
        eps = rng.uniform(0.02, 0.6)
        # limits just below, at and past the first two chunk edges
        limit = rng.choice([_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 17])
        want = _brute_schedule(freqs, eps, limit)
        got = _outcome(recurrence_schedule, freqs, eps, limit)
        assert got == want if want else got[0] is NotFound


def test_cesaro_mean_of_zero_is_zero(table):
    assert cesaro_mean(Element.zero(), "translation", 1, 10.0, table=table) == Element.zero()

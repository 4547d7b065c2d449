"""Analytic Gaussian backend: inner products, generator action, limits."""

import cmath
import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from trisemi import (
    AtomTable,
    AxisMap,
    DilationIndex,
    DivergentPacket,
    Element,
    Frequency,
    GaussianPacket,
    InvalidParameter,
    M,
    NumericOverflow,
    PacketSum,
    PhaseExponent,
    ScheduleTooShort,
    Scalar,
    adjoint,
    apply_element,
    apply_word,
    column_norms,
    fourier_conjugation_check,
    lr_apply,
    mul,
    norm_lower_bound,
    relation_residual,
    wot_compression_demo,
    wot_limit,
)
from trisemi import algebra, l2sim
from trisemi._kernels import gaussian_inner
from trisemi.algebra import compress
from trisemi.l2sim import sample_widths_centers

from helpers import (
    mp_diff_norm,
    mp_norm,
    orbit,
    random_element,
    random_packet,
    random_packet_sum,
    random_word,
)

ONE = Frequency.rational(1)


def quad_inner(f: PacketSum, g: PacketSum) -> complex:
    re = quad(lambda x: (f.value(x) * g.value(x).conjugate()).real, -40, 40, limit=400)[0]
    im = quad(lambda x: (f.value(x) * g.value(x).conjugate()).imag, -40, 40, limit=400)[0]
    return complex(re, im)


def test_packet_inner_matches_quadrature():
    rng = random.Random(5)
    for _ in range(8):
        f = random_packet_sum(rng, 2)
        g = random_packet_sum(rng, 2)
        exact = f.inner(g)
        numeric = quad_inner(f, g)
        assert abs(exact - numeric) < 1e-10 * (1 + abs(exact))


def test_unit_packet_norm():
    f = PacketSum.single()
    assert math.isclose(f.norm_sq(), math.sqrt(math.pi / 2), rel_tol=1e-14)
    assert math.isclose(f.norm(), (math.pi / 2) ** 0.25, rel_tol=1e-14)


def test_generator_letters_are_unitary():
    rng = random.Random(11)
    for _ in range(20):
        f = random_packet_sum(rng, 3)
        n0 = f.norm_sq()
        for g in (
            f.modulate(rng.uniform(-4, 4)),
            f.translate(rng.uniform(-4, 4)),
            f.dilate(rng.uniform(-1.5, 1.5)),
        ):
            assert math.isclose(g.norm_sq(), n0, rel_tol=1e-10)


def test_relation_residuals_unit_packet():
    # with centered packets the dilation relations map parameters identically
    f = PacketSum.single()
    assert relation_residual("dilM", (0.7, 1.3), f) == 0.0
    assert relation_residual("dilD", (0.7, 1.3), f) == 0.0


def test_equal_packets_merge_so_the_weyl_residual_is_exact():
    f = PacketSum.single(GaussianPacket(1.0, 0.8, 0.3, -0.4))
    assert len(f - f) == 0
    assert (f + f).packets == (GaussianPacket(2.0, 0.8, 0.3, -0.4),)
    assert relation_residual("weyl", (1.0, 0.7), f) < 1e-15


def test_dilation_past_the_double_range_raises(table):
    f = PacketSum.single()
    for t in (-800, 800):
        with pytest.raises(NumericOverflow):
            f.dilate(t)
        with pytest.raises(NumericOverflow):
            apply_element(Element.v(DilationIndex.unit(t)), f, table)


def test_relation_residuals_random():
    rng = random.Random(13)
    for _ in range(15):
        f = random_packet_sum(rng, 2)
        lam, mu = rng.uniform(0.2, 3), rng.uniform(0.2, 3)
        t = rng.uniform(-1, 1)
        # all three relations hold analytically; only rounding noise remains
        assert relation_residual("dilM", (t, lam), f) < 1e-6 * f.norm()
        assert relation_residual("dilD", (t, mu), f) < 1e-6 * f.norm()
        assert relation_residual("weyl", (lam, mu), f) < 1e-6 * f.norm()
        lhs = f.translate(mu).modulate(lam)
        rhs = f.modulate(lam).translate(mu).scale(cmath.exp(1j * lam * mu))
        assert mp_diff_norm(lhs, rhs) < 1e-12 * float(mp_norm(f))


def test_relation_residual_rejects_unknown_kind():
    with pytest.raises(ValueError):
        relation_residual("braid", (1.0, 1.0), PacketSum.single())


def test_fourier_round_trip():
    rng = random.Random(17)
    for _ in range(10):
        f = random_packet_sum(rng, 2)
        back = f.fourier().inv_fourier()
        assert mp_diff_norm(f, back) < 1e-12 * float(mp_norm(f))
        # Plancherel
        assert math.isclose(f.fourier().norm_sq(), f.norm_sq(), rel_tol=1e-10)


def test_fourier_conjugation():
    rng = random.Random(19)
    for lam in (0.5, 1.0, 2.0):
        for _ in range(4):
            f, g = random_packet_sum(rng, 2), random_packet_sum(rng, 2)
            assert fourier_conjugation_check(lam, f, g) < 1e-8
            assert fourier_conjugation_check(lam, f, g, dual=True) < 1e-8


def fourier_gaps(table, axes):
    """Per seed, |<F x F^-1 f, g> - <axes(x) f, g>| over l1(x) ||f|| ||g||,
    for 300 seeded elements x with no dilation part and packet sums f, g."""
    gaps = []
    for seed in range(300):
        rng = random.Random(seed)
        x = random_element(rng, with_v=False)
        f, g = random_packet_sum(rng, 2), random_packet_sum(rng, 2)
        lhs = apply_element(x, f.inv_fourier(), table).fourier().inner(g)
        rhs = apply_element(axes(x, table), f, table).inner(g)
        gaps.append(abs(lhs - rhs) / (x.l1_norm(table) * f.norm() * g.norm()))
    return gaps


def test_the_swapped_map_is_fourier_conjugation_on_packets(table):
    # every term, exchange phase included, not only one generator
    assert max(fourier_gaps(table, l2sim._FOURIER_AXES)) <= 1e-14


def test_a_swap_that_keeps_the_translation_orientation_is_caught(table, monkeypatch):
    assert max(fourier_gaps(table, AxisMap(swap=True))) > 1e-3
    # the same map read by the one-generator check: D(lam) goes to M(lam),
    # not M(-lam)
    rng = random.Random(2902)
    cases = [
        (rng.uniform(0.5, 3), random_packet_sum(rng), random_packet_sum(rng)) for _ in range(20)
    ]
    assert max(fourier_conjugation_check(lam, f, g, dual=True) for lam, f, g in cases) < 1e-8
    monkeypatch.setattr(l2sim, "_FOURIER_AXES", AxisMap(swap=True))
    assert fourier_conjugation_check(1.0, *cases[0][1:]) < 1e-8
    assert max(fourier_conjugation_check(lam, f, g, dual=True) for lam, f, g in cases) > 1e-3


def test_apply_element_matches_letterwise_action(table):
    rng = random.Random(23)
    for _ in range(10):
        word = random_word(rng, 4)
        f = random_packet_sum(rng, 2)
        via_word = apply_word(word, f, table)
        via_element = apply_element(Element.from_word(word), f, table)
        assert mp_diff_norm(via_word, via_element) < 1e-10 * (1 + float(mp_norm(via_word)))


def _orbit_in_doubles(packets: dict, table) -> list:
    """The exact orbit's packets (T, b, c): A as (amp, a, b, c) doubles:
    e^{T/2} A exp(-1/2 e^{2T} (x - b)^2 + icx)."""
    out = []
    for (big_t, b, c), amp in packets.items():
        t = big_t.numeric(table)
        out.append((math.exp(t / 2) * amp.numeric(table), 0.5 * math.exp(2 * t), b.numeric(table), c.numeric(table)))
    return out


def _close(u, v, tol=1e-12) -> bool:
    """Every entry of u within tol of v's, relative."""
    return all(abs(p - q) <= tol * max(abs(p), abs(q)) for p, q in zip(u, v))


def _packets_by_parameters(f: PacketSum) -> dict:
    """f's amplitudes keyed by (a, b, c): packets whose parameters agree
    to 1e-12 relative summed into one, and sums that cancel to 1e-12 of
    their parts dropped."""
    sums = {}
    for p in f.packets:
        params = (p.a, p.b, p.c)
        key = next((k for k in sums if _close(k, params)), params)
        total = sums.setdefault(key, [0j, 0.0])
        total[0] += p.amp
        total[1] += abs(p.amp)
    return {key: amp for key, (amp, size) in sums.items() if abs(amp) > 1e-12 * size}


def test_the_float_backend_acts_as_the_exact_orbit(table):
    # x (y f0) in doubles is the exact orbit evaluated in doubles, packet
    # by packet, every parameter to 1e-12 relative.  The composed action
    # matters: on f0 alone b = c = 0, and the exchange phase never runs.
    # An orbit with the phase e^{+icmu} must miss in L2.
    rng = random.Random(3301)
    f0 = PacketSum.single(GaussianPacket(1, 0.5, 0, 0))
    missed = 0
    for _ in range(100):
        x, y = random_element(rng, 3), random_element(rng, 3)
        got = apply_element(x, apply_element(y, f0, table), table)
        amps = _packets_by_parameters(got)
        want = _orbit_in_doubles(orbit(x, orbit(y)), table)
        assert len(amps) == len(want)
        for amp, *params in want:
            (key,) = [k for k in amps if _close(k, params)]
            assert _close((amps[key],), (amp,))
        flipped = _orbit_in_doubles(_phase_flipped_orbit(x, orbit(y)), table)
        wrong = PacketSum(GaussianPacket(*p) for p in flipped)
        missed += (got - wrong).norm() > 1e-3 * got.norm()
    assert missed > 50


def _phase_flipped_orbit(x: Element, packets: dict) -> dict:
    """helpers.orbit with D(mu)'s phase e^{+icmu}: a wrong orbit."""
    out: dict = {}
    for (lam, mu, t), coeff in x.terms.items():
        for (big_t, b, c), amp in packets.items():
            c = c.scale_exp(t)
            amp = (coeff * amp).rotate(PhaseExponent.product(c, mu))
            key = (big_t + t, b.scale_exp(-t) + mu, c + lam)
            out[key] = out[key] + amp if key in out else amp
    return {key: amp for key, amp in out.items() if not amp.is_zero()}


def adjoint_gaps(table, adj):
    """Per seed, |<x f, g> - <f, adj(x) g>| over l1(x) ||f|| ||g||, for
    300 seeded elements x and packet sums f and g."""
    gaps = []
    for seed in range(300):
        rng = random.Random(seed)
        x = random_element(rng)
        f, g = random_packet_sum(rng, 2), random_packet_sum(rng, 2)
        lhs = apply_element(x, f, table).inner(g)
        rhs = f.inner(apply_element(adj(x), g, table))
        gaps.append(abs(lhs - rhs) / (x.l1_norm(table) * f.norm() * g.norm()))
    return gaps


def test_adjoint_is_the_hilbert_space_adjoint(table):
    assert max(adjoint_gaps(table, adjoint)) <= 1e-14


def test_an_adjoint_without_its_exchange_phase_is_caught(table):
    def unphased(x):
        return Element(
            ((-lam.scale_exp(-t), -mu.scale_exp(t), -t), c.conj())
            for (lam, mu, t), c in x.terms.items()
        )

    assert max(adjoint_gaps(table, unphased)) > 1e-3


def test_norm_lower_bound_respects_l1(table):
    rng = random.Random(29)
    for _ in range(10):
        x = random_element(rng, max_terms=3)
        bound = norm_lower_bound(x, trials=20, seed=rng.randrange(10**6), table=table)
        assert 0.0 <= bound <= x.l1_norm(table) + 1e-8


def test_norm_lower_bound_is_tight_for_a_single_unitary(table):
    x = mul(Element.m(ONE), Element.d(ONE))
    bound = norm_lower_bound(x, trials=5, seed=0, table=table)
    assert math.isclose(bound, 1.0, rel_tol=1e-9)


def test_norm_lower_bound_is_the_rayleigh_quotient_of_apply_element(table):
    # one trial: the bound is |x f| / |f| for the one packet it samples
    rng = random.Random(37)
    for _ in range(10):
        x = random_element(rng, max_terms=4)
        seed = rng.randrange(10**6)
        a, b, c = sample_widths_centers(np.random.default_rng(seed), 1)
        f = PacketSum.single(GaussianPacket(1.0, a[0], b[0], c[0]))
        want = apply_element(x, f, table).norm() / f.norm()
        got = norm_lower_bound(x, 1, seed, table)
        assert math.isclose(got, want, rel_tol=1e-10)


def test_norm_lower_bound_in_chunks_is_the_single_pass_bound(table, monkeypatch):
    # more trials than one pass holds: the chunked bound is the
    # single-pass formula bit for bit
    x = Element.m(ONE) + mul(Element.d(ONE), Element.v(DilationIndex.unit(1))).scale(2)
    x = x + Element.v(DilationIndex.single("h", -1))

    def single_pass(trials, seed):
        a, b, c = sample_widths_centers(np.random.default_rng(seed), trials)
        f = PacketSum._of(*np.array([np.ones(trials), a, b, c], dtype=np.complex128))
        image = [v.reshape(len(x.terms), trials) for v in apply_element(x, f, table)._params]
        gram = gaussian_inner(*(v[:, None] for v in image), *(v[None, :] for v in image))
        base = gaussian_inner(*f._params, *f._params).real
        return float(np.sqrt(np.maximum(gram.real.sum(axis=(0, 1)), 0.0) / base).max())

    assert 10**5 > l2sim._TRIAL_CHUNK
    assert norm_lower_bound(x, 10**5, 7, table) == single_pass(10**5, 7)
    # chunks of two and three trials: the best trial lies in every chunk
    # for some seed, the last one included
    monkeypatch.setattr(l2sim, "_TRIAL_CHUNK", 2)
    for seed in range(40):
        assert norm_lower_bound(x, 9, seed, table) == single_pass(9, seed)


def test_lr_apply_and_column_norms(table):
    from trisemi import LRVector

    x = Element.m(ONE) + Element.d(ONE)
    xi = PacketSum.single()
    v = lr_apply(x, LRVector.delta(Frequency.zero(), xi), table=table)
    # one fiber per translation level in the support
    assert set(v.components) == {Frequency.zero(), ONE}
    lhs, rhs = column_norms(x, xi, grading="translation", table=table)
    assert math.isclose(lhs, rhs, rel_tol=1e-9)
    lhs2, rhs2 = column_norms(x, xi, grading="dilation", table=table)
    assert math.isclose(lhs2, rhs2, rel_tol=1e-9)


def test_column_norms_take_axis_letters_and_refuse_multiplication(table):
    x = Element.m(ONE) + Element.d(ONE)
    y = x + mul(Element.m(ONE), Element.v(DilationIndex.unit(1)))
    xi = PacketSum.single()
    assert column_norms(x, xi, "E", table) == column_norms(x, xi, "translation", table)
    assert column_norms(y, xi, "h", table) == column_norms(y, xi, "dilation", table)
    with pytest.raises(InvalidParameter):
        column_norms(x, xi, grading="multiplication", table=table)


def test_wot_limit_translation_keeps_the_zero_dilation_fiber():
    x = Element.m(ONE) + mul(Element.m(ONE), Element.v(DilationIndex.unit(1)))
    assert wot_limit(x, "translation") == Element.m(ONE)


def test_wot_limit_dilation_modes_sum_the_side_terms_per_level(rng):
    # dilation-in keeps the translation-free terms, dilation-out the
    # modulation-free ones; each surviving term lands on V(t)
    zero = Frequency.zero()
    for _ in range(30):
        x = random_element(rng, 5)
        for mode, component in (("dilation-in", 1), ("dilation-out", 0)):
            sums = {}
            for key, c in x.terms.items():
                if key[component].is_zero():
                    level = (zero, zero, key[2])
                    sums[level] = sums.get(level, Scalar.zero()) + c
            assert wot_limit(x, mode) == Element(sums)


def test_wot_compression_demo_report(table):
    x = Element.m(ONE) + mul(Element.m(ONE), Element.v(DilationIndex.unit(1)))
    f = PacketSum.single()
    g = PacketSum.single(GaussianPacket(amp=1.0, a=0.7, b=0.4, c=-0.3))
    report = wot_compression_demo(x, f, g, "translation", [151, 622], table)
    assert report.mode == "translation"
    assert len(report.values) == 2
    assert report.errors[1] < report.errors[0]
    payload = report.to_dict()
    assert payload["mode"] == "translation"
    assert len(payload["steps"]) == 2
    assert {"re", "im"} <= set(payload["limit"])


def test_wot_compression_demo_is_the_stepwise_inner_product(table):
    # each value is the compressed element acting on f, met with g, up to
    # the summation rounding of the inner product's terms
    rng = random.Random(43)
    schedule = [-2, 1, 2, 3, 5]
    for _ in range(8):
        x = random_element(rng)
        f, g = (PacketSum([random_packet(rng), random_packet(rng)]) for _ in "fg")
        for mode in ("translation", "dilation-in", "dilation-out"):
            report = wot_compression_demo(x, f, g, mode, schedule, table)
            for n, value in zip(schedule, report.values):
                image = apply_element(compress(x, mode, n), f, table)
                terms = gaussian_inner(*(v[:, None] for v in image._params), *g._params)
                assert abs(value - image.inner(g)) <= 1e-15 * np.abs(terms).sum()


def test_wot_compression_demo_dilation_modes_need_no_products(table, monkeypatch):
    calls = []
    product = algebra.mul

    def counted(x, y):
        calls.append(1)
        return product(x, y)

    monkeypatch.setattr(algebra, "mul", counted)
    x = mul(Element.m(ONE), Element.v(DilationIndex.unit(1))) + Element.d(ONE)
    f = PacketSum.single()
    for mode in ("dilation-in", "dilation-out"):
        wot_compression_demo(x, f, f, mode, range(1, 13), table)
    assert not calls
    wot_compression_demo(x, f, f, "translation", [1, 2], table)
    assert calls


def test_wot_compression_demo_dilation_modes_read_each_coefficient_once(table, monkeypatch):
    reads = []
    numeric = Scalar.numeric

    def counted(self, tab):
        reads.append(self)
        return numeric(self, tab)

    monkeypatch.setattr(Scalar, "numeric", counted)
    one, two = ONE, Frequency.rational(2)
    v1, v2 = (Element.v(DilationIndex.unit(k)) for k in (1, 2))
    x = (
        mul(Element.m(one), v1) + mul(Element.d(one), v1) + mul(Element.m(two), v2)
        + mul(Element.d(two), v2) + Element.m(one) + Element.d(one)
    ).scale(Scalar.gaussian(3, -2))
    f = PacketSum.single()
    for mode in ("dilation-in", "dilation-out"):
        reads.clear()
        wot_compression_demo(x, f, f, mode, range(1, 13), table)
        assert len(reads) == len(x.terms) + len(wot_limit(x, mode).terms)


def test_wot_compression_demo_needs_two_steps(table):
    x = Element.m(ONE)
    f = PacketSum.single()
    with pytest.raises(ScheduleTooShort):
        wot_compression_demo(x, f, f, "translation", [151], table)


def test_divergent_packet_rejected():
    with pytest.raises(DivergentPacket):
        GaussianPacket(a=-1.0)
    with pytest.raises(DivergentPacket):
        GaussianPacket(a=0.0)


def test_letterwise_word_action_matches_normal_form(table):
    # normalize first, then act: same vector as acting letter by letter
    rng = random.Random(31)
    for _ in range(10):
        word = [M(ONE)] + random_word(rng, 3)
        f = random_packet_sum(rng, 2)
        literal = apply_word(word, f, table)
        normal = apply_element(Element.from_word(word), f, table)
        assert mp_diff_norm(literal, normal) < 1e-10 * (1 + float(mp_norm(literal)))

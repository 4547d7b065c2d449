"""Closed-form numeric kernels against brute-force and high-precision oracles."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from trisemi import NotFound, recurrence_schedule, recurrence_search
from trisemi import _kernels as K


def test_active_backend_reports_a_known_value():
    assert K.active_backend() == "numpy"


def test_phase_mean_weight_of_zero_delta_is_one():
    out = K.phase_mean_weights(np.array([0.0]), 10.0, 128)
    assert out[0] == pytest.approx(1.0, abs=1e-14)


# ------------------------------------------------------- Cesaro trapezoid


def trapezoid_mean(delta, T, steps):
    """(1/2T) times the trapezoid sum of e^{i t delta} over [-T, T]."""
    h = 2.0 * T / steps
    t = -T + h * np.arange(steps + 1)
    w = np.ones(steps + 1)
    w[0] = w[-1] = 0.5
    return np.sum(w * np.exp(1j * t * delta)) * h / (2.0 * T)


@pytest.mark.parametrize("steps", [512, 511])
def test_phase_mean_weights_match_the_trapezoid(steps):
    T = 25.0
    h = 2.0 * T / steps
    rng = np.random.default_rng(steps)
    deltas = [0.0, 1e-12, -1e-12, *rng.uniform(-40.0, 40.0, 24)]
    for k in (1, -1, 2, 3):
        peak = 2.0 * math.pi * k / h
        deltas += [peak, peak * (1 + 1e-12), peak * (1 - 1e-12)]
    got = K.phase_mean_weights(np.array(deltas), T, steps)
    want = np.array([trapezoid_mean(d, T, steps) for d in deltas])
    assert np.isrealobj(got)
    assert np.max(np.abs(got - want)) <= 1e-12


# ------------------------------------------------------------ Fejer kernel


def fejer_cosine_sum(ts, betas, fac):
    big = fac * fac
    out = np.ones_like(ts)
    for beta in betas:
        x = ts * beta / fac
        total = np.ones_like(ts)
        for v in range(1, big):
            total += 2.0 * (1.0 - v / big) * np.cos(v * x)
        out *= total
    return out


@pytest.mark.parametrize("fac", [2, 6])
def test_fejer_kernel_matches_the_cosine_sum(fac):
    rng = np.random.default_rng(fac)
    betas = np.array([1.0, 2**0.5, 3**0.5])
    ts = np.concatenate(
        [rng.uniform(-20.0, 20.0, 200), [0.0], 2 * math.pi * fac * np.arange(1, 4)]
    )
    for m in (1, 2, 3):
        got = K.bf_kernel_values(ts, betas[:m], fac)
        want = fejer_cosine_sum(ts, betas[:m], fac)
        assert np.max(np.abs(got - want)) <= 1e-12 * (fac * fac) ** m


def fejer_mp(t, beta, fac):
    big = fac * fac
    with mpmath.workdps(50):
        half = mpmath.mpf(t) * mpmath.mpf(beta) / fac / 2
        s = mpmath.sin(half)
        if s == 0:
            return float(big)
        return float((mpmath.sin(big * half) / s) ** 2 / big)


@pytest.mark.parametrize("fac", [6, 24])
@pytest.mark.parametrize("beta", [1.0, 2**0.5])
def test_fejer_kernel_at_its_peaks_matches_mpmath(fac, beta):
    big = fac * fac
    ts = [
        2 * math.pi * k * fac / beta * s
        for k in (1, 2, 5, 17)
        for s in (1.0, 1 + 1e-13, 1 - 1e-13, 1 + 1e-11, 1 - 1e-11)
    ]
    got = K.bf_kernel_values(np.array(ts), np.array([beta]), fac)
    want = np.array([fejer_mp(t, beta, fac) for t in ts])
    assert np.max(np.abs(got - want)) <= 1e-13 * big


# ------------------------------------------------------ Gaussian packets


def expanded_square_inner(amp1, a1, b1, c1, amp2, a2, b2, c2):
    """The inner product with the square of the exponent expanded."""
    aa, bb = np.conj(a2), np.conj(b2)
    p = a1 + aa
    q = 2.0 * a1 * b1 + 2.0 * aa * bb + 1j * (c1 - np.conj(c2))
    r = -(a1 * b1 * b1 + aa * bb * bb)
    return amp1 * np.conj(amp2) * np.sqrt(np.pi / p) * np.exp(q * q / (4.0 * p) + r)


def test_gaussian_inner_matches_the_expanded_square():
    rng = np.random.default_rng(3)

    def packets(n=4000):
        amp = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
        a = rng.uniform(0.2, 2.5, n) + 1j * rng.uniform(-1.0, 1.0, n)
        return amp, a, rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n)

    f, g = packets(), packets()
    scale = np.abs(f[0] * g[0]) * np.sqrt(np.pi / np.abs(f[1] + np.conj(g[1])))
    err = np.abs(K.gaussian_inner(*f, *g) - expanded_square_inner(*f, *g)) / scale
    assert err.max() <= 1e-13


def test_gaussian_inner_of_far_apart_packets_is_zero():
    b = np.array([0.0, 1e10, 1e155, 1e270, -1e300])
    for a in (7.0, 7.0 - 2.0j):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = K.gaussian_inner(1.0, a, b, 0.0, 1.0 + 1j, 0.6, 0.2, 0.1)
        assert got[0] != 0.0
        assert np.array_equal(got[1:], np.zeros(4))


# --------------------------------------------------------- recurrence scan


def outer_product_devs(freqs, m_max):
    ms = np.arange(1, m_max + 1, dtype=np.float64)
    if not len(freqs):
        return np.zeros(m_max)
    return (2.0 * np.abs(np.sin(0.5 * np.outer(ms, freqs)))).max(axis=1)


def scanned_hits(freqs, eps, m_max):
    """The kernel's (ms, devs) chunks joined into two arrays."""
    chunks = list(K.recurrence_hits(freqs, eps, m_max))
    assert all(ms.size and ms.size == devs.size for ms, devs in chunks)
    ms = np.concatenate([np.empty(0, np.int64)] + [ms for ms, _ in chunks])
    devs = np.concatenate([np.empty(0)] + [devs for _, devs in chunks])
    return ms, devs


def assert_hits_equal_the_outer_product_form(freqs, eps, m_max, want=None):
    if want is None:
        want = outer_product_devs(freqs, m_max)
    below = want[:m_max] < eps
    ms, devs = scanned_hits(freqs, eps, m_max)
    assert np.array_equal(ms, np.flatnonzero(below) + 1)
    assert np.array_equal(devs, want[:m_max][below])


# 0, pi and 2pi/3 have rational f/2pi, so some residue class keeps all of a
# span or none of it; +-1e-9 keep long runs; 1e6 widens the width past 1/4
EDGE_FREQS = {
    "zero": 0.0,
    "pi": math.pi,
    "2pi/3": 2 * math.pi / 3,
    "1e-9": 1e-9,
    "-1e-9": -1e-9,
    "1e6": 1e6,
}
SCAN_FREQS = [
    pytest.param(np.random.default_rng(n).uniform(-6.0, 6.0, n), id=str(n)) for n in range(4)
] + [
    pytest.param(np.array([e, *more]), id=name + tail)
    for name, e in EDGE_FREQS.items()
    for more, tail in (([], ""), ([2.5], "+2.5"))
]


@pytest.mark.parametrize("freqs", SCAN_FREQS)
def test_recurrence_hits_equal_the_outer_product_form_below_eps(freqs):
    # at eps = 1 the steps listed lie within about 1/6 of an integer, so a
    # span is about 3 _CHUNK steps, and the spans begin after the _HEAD
    # steps swept whole: the last limits straddle the ends of one and two spans
    span = 3 * K._CHUNK
    edges = (K._HEAD + span - 7, K._HEAD + span + 7, K._HEAD + 2 * span + 7)
    for signed in (freqs, -freqs):
        want = outer_product_devs(signed, edges[-1])
        # eps >= 2 keeps every step the outer form keeps
        for eps in (0.005, 0.3, 1.0, 1.5, 2.0, 7.0):
            for m_max in (1, 777, K._CHUNK + 1234) + (edges if eps == 1.0 else ()):
                assert_hits_equal_the_outer_product_form(signed, eps, m_max, want)


def test_near_integer_steps_hold_every_step_near_an_integer():
    rng = np.random.default_rng(11)
    specials = [0.0, 0.5, 0.25, 1 / 3, -2 / 3, 1e-10, 3.0]
    for i in range(300):
        c = specials[i] if i < len(specials) else rng.uniform(-4.0, 4.0)
        w = 10 ** rng.uniform(-7.0, math.log10(0.24))
        start = int(rng.integers(1, 10**5))
        stop = start + int(rng.integers(1, 10**5 + 1))
        listed = K._near_integer_steps(c, w, start, stop)
        assert np.all(np.diff(listed) > 0)
        assert listed.size == 0 or (listed[0] > start and listed[-1] <= stop)
        ms = np.arange(start + 1, stop + 1, dtype=np.float64)
        u = ms * c
        near = ms[np.abs(u - np.rint(u)) < w - 1e-9].astype(np.int64)
        assert np.isin(near, listed).all(), (c, w, start, stop)


def test_recurrence_scan_lists_about_the_steps_near_integers(monkeypatch):
    scan, sizes = K._scan_chunks, []

    def counted(*args):
        for ms, stop in scan(*args):
            sizes.append(ms.size)
            yield ms, stop

    monkeypatch.setattr(K, "_scan_chunks", counted)
    recurrence_schedule([1.0], 0.05, 10**6)
    # a sweep would hand the filters all 10^6 steps, not the ~2w 10^6 near
    # an integer and two per interval of a residue class
    w = math.asin(0.025) / math.pi
    assert 0 < sum(sizes) <= 2 * (2 * w * 10**6) + 4 * 10**3


def scan_sizes(monkeypatch, fn, *args):
    """fn(*args) and the sizes of the chunks its scan handed the filters,
    and the stops of those chunks."""
    scan, sizes, stops = K._scan_chunks, [], []

    def counted(*scan_args):
        for ms, stop in scan(*scan_args):
            sizes.append(ms.size)
            stops.append(stop)
            yield ms, stop

    monkeypatch.setattr(K, "_scan_chunks", counted)
    out = fn(*args)
    monkeypatch.setattr(K, "_scan_chunks", scan)
    return out, sizes, stops


@pytest.mark.parametrize("freqs", [[1.0], [2.5, -1.3], [math.pi, 2.5], [0.7, 4.1, -2.2]])
def test_recurrence_hits_equal_the_outer_product_form_at_the_head_and_span_edges(
    freqs, monkeypatch
):
    freqs = np.array(freqs)
    for eps in (0.3, 1.0):
        # the first listed span ends where the second chunk of a long scan stops
        _, _, stops = scan_sizes(monkeypatch, list, K.recurrence_hits(freqs, eps, 10**6))
        head, span = stops[0], stops[1] - stops[0]
        assert head == K._HEAD < span
        limits = (head - 1, head, head + 1, head + span - 1, head + span, head + span + 1)
        want = outer_product_devs(freqs, limits[-1])
        for m_max in limits:
            assert_hits_equal_the_outer_product_form(freqs, eps, m_max, want)


def test_a_scan_inside_the_head_is_the_full_scan(monkeypatch):
    def listed(*args):
        raise AssertionError("a scan inside the head lists nothing")

    monkeypatch.setattr(K, "_near_integer_steps", listed)
    assert_hits_equal_the_outer_product_form([1.0], 0.05, 2000)
    devs = outer_product_devs([1.0], 2000)
    assert recurrence_search([1.0], 0.05, 2000) == 1 + int(np.flatnonzero(devs < 0.05)[0]) == 44


def test_a_search_that_hits_inside_the_head_lists_nothing(monkeypatch):
    listing, calls = K._near_integer_steps, []

    def counted(*args):
        calls.append(args)
        return listing(*args)

    monkeypatch.setattr(K, "_near_integer_steps", counted)
    assert recurrence_search([1.0], 0.05, 10**8) == 44
    assert recurrence_search([2.5, 0.7], 0.3, 10**6) < K._HEAD
    assert not calls
    # past the head the scan lists
    recurrence_schedule([1.0], 0.05, 10**6)
    assert calls


@pytest.mark.parametrize("edge", [2 * math.pi / 3, 1e-9])
def test_the_listing_frequency_is_the_one_that_lists_fewest_steps(edge, monkeypatch):
    # f/2pi near 1/3 or 0 lists a third of the steps or long runs; 2.5
    # lists about 2 asin(eps/2)/pi of them, and so does the pair
    alone = scan_sizes(monkeypatch, recurrence_schedule, [2.5], 1e-3, 10**7)
    pair = scan_sizes(monkeypatch, recurrence_schedule, [edge, 2.5], 1e-3, 10**7)
    assert sum(pair[1]) <= 2 * sum(alone[1]) < 10**5
    for freqs in ([edge, 2.5], [2.5, edge]):
        assert_hits_equal_the_outer_product_form(np.array(freqs), 1e-3, 10**6)


def test_a_non_finite_frequency_ends_the_scan_at_once(monkeypatch):
    for freqs in ([math.nan], [1.0, math.inf]):
        hits, sizes, _ = scan_sizes(monkeypatch, list, K.recurrence_hits(freqs, 0.1, 10**8))
        assert hits == [] and sizes == []
        with pytest.raises(NotFound):
            recurrence_search(freqs, 0.1, 10**8)


@pytest.mark.parametrize(
    "freqs", [[math.nan], [math.inf, 1.0], [1.0, -math.inf], [0.5, math.nan, 2.0]]
)
def test_recurrence_hits_drop_non_finite_deviations(freqs):
    # the outer form's deviations are NaN at every step, as the scan's were
    with np.errstate(invalid="ignore"):
        for eps in (0.3, 3.0):
            assert_hits_equal_the_outer_product_form(freqs, eps, 777)
            assert scanned_hits(freqs, eps, 777)[0].size == 0


def prefix_minimum_flags(devs, eps):
    flags = []
    best = math.inf
    for d in devs:
        flags.append(d < eps and d < best)
        best = min(best, d)
    return flags


def test_schedule_minima_match_a_prefix_minimum_loop(monkeypatch):
    rng = np.random.default_rng(7)
    for size in (0, 1, 50, 400):
        # rounded values repeat, so ties with the running minimum occur
        devs = np.round(rng.uniform(0.0, 2.0, size), 2)
        ms = np.arange(1, size + 1)
        for eps in (0.05, 0.6, 3.0):
            # the hits in chunks of 37 steps, so minima carry across chunks
            chunks = []
            for i in range(0, size, 37):
                m, d = ms[i : i + 37], devs[i : i + 37]
                chunks.append((m[d < eps], d[d < eps]))
            monkeypatch.setattr(K, "recurrence_hits", lambda *_: iter(chunks))
            want = [m for m, flag in zip(ms.tolist(), prefix_minimum_flags(devs, eps)) if flag]
            if want:
                assert recurrence_schedule([1.0], eps, max(size, 1)) == want
            else:
                with pytest.raises(NotFound):
                    recurrence_schedule([1.0], eps, max(size, 1))

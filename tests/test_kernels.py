"""Closed-form numeric kernels against brute-force and high-precision oracles."""

import math

import mpmath
import numpy as np
import pytest

from trisemi import NotFound, recurrence_schedule
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


def assert_hits_equal_the_outer_product_form(freqs, eps, m_max):
    want = outer_product_devs(freqs, m_max)
    below = want < eps
    ms, devs = scanned_hits(freqs, eps, m_max)
    assert np.array_equal(ms, np.flatnonzero(below) + 1)
    assert np.array_equal(devs, want[below])


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_recurrence_hits_equal_the_outer_product_form_below_eps(n):
    rng = np.random.default_rng(n)
    freqs = rng.uniform(-6.0, 6.0, n)
    # eps >= 2 keeps every step the outer form keeps
    for eps in (0.005, 0.3, 1.5, 2.0, 7.0):
        for m_max in (1, 777, K._CHUNK + 1234):
            for signed in (freqs, -freqs):
                assert_hits_equal_the_outer_product_form(signed, eps, m_max)


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

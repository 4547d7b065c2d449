"""Closed-form numeric kernels against brute-force and high-precision oracles."""

import math

import mpmath
import numpy as np
import pytest

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


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_recurrence_devs_equal_the_outer_product_form(n):
    rng = np.random.default_rng(n)
    freqs = rng.uniform(-6.0, 6.0, n)
    for m_max in (1, 777, K._CHUNK + 1234):
        got = K.recurrence_devs(freqs, m_max)
        assert np.array_equal(got, outer_product_devs(freqs, m_max))


def prefix_minimum_flags(devs, eps):
    flags = []
    best = math.inf
    for d in devs:
        flags.append(d < eps and d < best)
        best = min(best, d)
    return flags


def test_successive_minima_match_a_prefix_minimum_loop():
    rng = np.random.default_rng(7)
    for size in (0, 1, 50, 400):
        # rounded values repeat, so ties with the running minimum occur
        devs = np.round(rng.uniform(0.0, 2.0, size), 2)
        for eps in (0.05, 0.6, 3.0):
            got = K.successive_minima(devs, eps)
            assert got.tolist() == prefix_minimum_flags(devs, eps)

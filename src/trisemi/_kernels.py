"""Numeric kernels of the analysis layer, one numpy function per formula.

The Fejér and trapezoid kernels are closed-form ratios of sines, O(1) per
point, evaluated on the half-angle reduced modulo pi: there the ratio is
accurate and its removable singularity has an exact limit.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 16


def active_backend() -> str:
    return "numpy"


def _reduce_half(half):
    """(r, k) with half = r + pi k, k an integer and |r| <= pi/2."""
    k = np.round(half / np.pi)
    return half - np.pi * k, k


def recurrence_hits(freqs, eps, m_max):
    """Yield (ms, devs) chunk by chunk, in scan order: the m in [1, m_max]
    with dev(m) = max_j |e^{i f_j m} - 1| = 2 max_j |sin(f_j m / 2)| < eps.

    dev(m) < eps needs every u = m f_j / 2pi within asin(eps/2)/pi of an
    integer, so each frequency in turn filters the steps left; only the
    survivors get sines.  The filter is conservative: eps is widened by
    1e-9 relatively before the arcsine (the sine is flat near eps = 2),
    and the width by 1e-9 + 1e-12 |u|max, thousands of times the rounding
    of u and of the sine's argument.  A survivor's deviation is the same
    double a full scan makes: m f, times 0.5, sin, abs, maximum over the
    frequencies from 0, times 2.  A NaN or infinite product fails both
    tests, and with no frequencies every deviation is 0.
    """
    freqs = np.asarray(freqs, dtype=np.float64).ravel()
    m_max = int(m_max)
    width = np.arcsin(np.clip(0.5 * eps * (1.0 + 1e-9), 0.0, 1.0)) / np.pi + 1e-9
    for start in range(0, m_max, _CHUNK):
        stop = min(start + _CHUNK, m_max)
        ms = np.arange(start + 1, stop + 1, dtype=np.float64)
        for f in freqs:
            c = f / (2.0 * np.pi)
            u = ms * c
            u -= np.rint(u)
            ms = ms[np.abs(u, out=u) < width + 1e-12 * abs(c) * stop]
        devs = np.zeros(ms.size)
        part = np.empty(ms.size)
        for f in freqs:
            np.multiply(ms, f, out=part)
            part *= 0.5
            np.abs(np.sin(part, out=part), out=part)
            np.maximum(devs, part, out=devs)
        devs *= 2.0
        keep = devs < eps
        if keep.any():
            yield ms[keep].astype(np.int64), devs[keep]


def gaussian_inner(amp1, a1, b1, c1, amp2, a2, b2, c2):
    """Integral of amp1 e^{-a1 (x-b1)^2 + i c1 x} times the conjugate of
    amp2 e^{-a2 (x-b2)^2 + i c2 x}, broadcasting over the arguments."""
    aa = np.conj(a2)
    bb = np.conj(b2)
    p = a1 + aa
    q = 2.0 * a1 * b1 + 2.0 * aa * bb + 1j * (c1 - np.conj(c2))
    r = -(a1 * b1 * b1 + aa * bb * bb)
    return amp1 * np.conj(amp2) * np.sqrt(np.pi / p) * np.exp(q * q / (4.0 * p) + r)


def phase_mean_weights(deltas, T, steps):
    """(1/2T) times the trapezoid rule for the integral of e^{i t delta}
    over [-T, T] with `steps` panels of width h = 2T/steps.

    The sum is (h/2T) sin(T delta) cot(h delta/2).  With h delta/2 =
    r + pi k this is (-1)^{steps k} sin(steps r) cos(r) / (steps sin r),
    and (-1)^{steps k} at r = 0.
    """
    r, k = _reduce_half(np.asarray(deltas, dtype=np.float64) * (T / steps))
    sign = np.where((steps % 2 == 1) & (np.fmod(k, 2.0) != 0.0), -1.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(steps * r) * np.cos(r) / (steps * np.sin(r))
    return sign * np.where(r == 0.0, 1.0, ratio)


def bf_kernel_values(ts, betas, fac):
    """prod_j F_N(t beta_j / fac) with N = fac^2 and the Fejér kernel
    F_N(x) = sum_{|v|<N} (1 - |v|/N) e^{ivx} = (1/N) (sin(N x/2) / sin(x/2))^2.

    With x/2 = r + pi k the square cancels the sign, so F_N(x) =
    (1/N) (sin(N r) / sin r)^2, and N at r = 0.
    """
    ts = np.asarray(ts, dtype=np.float64)
    big = fac * fac
    out = np.ones_like(ts)
    for beta in np.asarray(betas, dtype=np.float64):
        r, _ = _reduce_half(0.5 * (ts * (beta / fac)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.sin(big * r) / np.sin(r)
        out *= np.where(r == 0.0, float(big), ratio * ratio / big)
    return out

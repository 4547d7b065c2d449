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


def recurrence_devs(freqs, m_max):
    """max_j |e^{i f_j m} - 1| = 2 max_j |sin(f_j m / 2)| for m = 1..m_max."""
    freqs = np.asarray(freqs, dtype=np.float64).ravel()
    out = np.zeros(int(m_max), dtype=np.float64)
    buf = np.empty(min(_CHUNK, out.size), dtype=np.float64)
    for start in range(0, out.size, _CHUNK):
        view = out[start : start + _CHUNK]
        ms = np.arange(start + 1, start + view.size + 1, dtype=np.float64)
        dev = buf[: view.size]
        for f in freqs:
            # one reused buffer: fresh chunk temporaries cost more than sin
            np.multiply(ms, f, out=dev)
            dev *= 0.5
            np.abs(np.sin(dev, out=dev), out=dev)
            np.maximum(view, dev, out=view)
    out *= 2.0
    return out


def successive_minima(devs, eps):
    """Flags of the entries below eps and below every earlier entry; an
    entry below eps beats every earlier one at or above eps, so only the
    entries below eps need the running minimum."""
    devs = np.asarray(devs, dtype=np.float64)
    hits = np.flatnonzero(devs < eps)
    vals = devs[hits]
    prior = np.concatenate(([np.inf], np.minimum.accumulate(vals)[:-1]))
    flags = np.zeros(devs.shape, dtype=np.bool_)
    flags[hits[vals < prior]] = True
    return flags


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

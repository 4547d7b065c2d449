"""Numeric kernels of the analysis layer, one numpy function per formula.

The Fejér and trapezoid kernels are closed-form ratios of sines, O(1) per
point, evaluated on the half-angle reduced modulo pi: there the ratio is
accurate and its removable singularity has an exact limit.  Past a short
head swept whole, the recurrence scan lists only the steps where one
frequency can recur, residue class by residue class, before any sine is
taken.
"""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 1 << 16
# steps swept whole before any listing: planning a listing takes some forty
# numpy calls (~0.1 ms) whatever its length, a sweep of the head a few
# microseconds per frequency, and a search's first hit mostly lies inside it
_HEAD = 1 << 12


def active_backend() -> str:
    return "numpy"


def _reduce_half(half):
    """(r, k) with half = r + pi k, k an integer and |r| <= pi/2."""
    k = np.round(half / np.pi)
    return half - np.pi * k, k


def _classes(c, width, start, stop):
    """Residue-class intervals holding every step m in [start + 1, stop]
    where m c may lie within `width` of an integer: (first, q, length),
    interval i being the steps first[i] + q k for 0 <= k < length[i].

    Dirichlet: some q <= sqrt(L) has ||q c|| < 1/sqrt(L), L = stop - start,
    and the q minimising L ||q c|| + q is taken.  On the residue class
    m = start + 1 + j + q k, m c moves by delta = q c - rint(q c) per step
    of k, so its hits near each integer n form one interval of k, widened
    here to whole steps.  With delta == 0 a class keeps all of the span
    or none of it.  The work is O(sqrt(L)), and the lengths' sum is the
    count a listing would hold; the rounding is a few ulps of |c| stop,
    which the caller's width must cover.
    """
    size = stop - start
    c -= np.rint(c)
    qs = np.arange(1, math.isqrt(size) + 1)
    drift = qs * c
    drift -= np.rint(drift)
    q = int(np.argmin(size * np.abs(drift) + qs)) + 1
    delta = drift[q - 1]
    js = np.arange(q)
    last = (size - 1 - js) // q
    x = (start + 1 + js) * c
    x -= np.rint(x)
    if delta == 0.0:
        js = js[np.abs(x) < width]
        k_lo, k_hi = np.zeros(js.size, np.int64), last[js]
    else:
        end = x + last * delta
        n_lo = np.ceil(np.minimum(x, end) - width).astype(np.int64)
        count = np.floor(np.maximum(x, end) + width).astype(np.int64) - n_lo + 1
        js = np.repeat(js, count)
        n = np.repeat(n_lo - (np.cumsum(count) - count), count) + np.arange(js.size)
        a = (n - width - x[js]) / delta
        b = (n + width - x[js]) / delta
        # the clips keep every length at 0 or more
        k_lo = np.clip(np.floor(np.minimum(a, b)), 0, last[js] + 1).astype(np.int64)
        k_hi = np.clip(np.ceil(np.maximum(a, b)), -1, last[js]).astype(np.int64)
    return start + 1 + js + q * k_lo, q, k_hi - k_lo + 1


def _near_integer_steps(c, width, start, stop):
    """The steps m in [start + 1, stop] where m c may lie within `width`
    of an integer, sorted and each once: an int64 array holding every m
    with |m c - n| < width for an integer n, and a few neighbours.  None
    when they number more than 2 _CHUNK."""
    first, q, length = _classes(c, width, start, stop)
    total = int(length.sum())
    if total > 2 * _CHUNK:
        return None
    ms = np.repeat(first - q * (np.cumsum(length) - length), length) + q * np.arange(total)
    ms.sort()
    # the widened intervals of one class may share an end step
    return ms[np.diff(ms, prepend=-1) != 0]


def _listing(freqs, width, start, m_max):
    """(c, wide, span) of the frequency that lists the fewest candidates
    per step over its first span past `start`, or None when no frequency
    can list.

    A frequency's widened width adds 1e-9 + 2e-12 |c| m_max to the
    filter's threshold, far above the rounding of either side; at 1/4 or
    more half the steps or more would be listed, and it lists none.  Its
    span, about _CHUNK / (2 wide) steps, holds about _CHUNK candidates
    when c is far from a rational of small denominator.  A frequency near
    one (0, pi, 2 pi/3, 1e-9) lists a third of the steps or long runs,
    which its count, O(sqrt(span)) to get, shows.
    """
    listable = []
    for f in freqs:
        c = f / (2.0 * np.pi)
        wide = width + 1e-9 + 2e-12 * abs(c) * m_max
        if wide < 0.25:
            listable.append((c, wide, max(_CHUNK, math.ceil(_CHUNK / (2.0 * wide)))))
    if len(listable) < 2:
        return listable[0] if listable else None

    def per_step(plan):
        c, wide, span = plan
        stop = min(start + span, m_max)
        return _classes(c, wide, start, stop)[2].sum() / (stop - start)

    return min(listable, key=per_step)


def _scan_chunks(freqs, width, m_max):
    """Yield (ms, stop) in scan order: float steps in (start, stop] that
    cover every step passing the filters of recurrence_hits, for finite
    frequencies.

    The first _HEAD steps are swept as one range: a listing costs some
    forty numpy calls whatever its length, and most searches end inside
    the head.  Past it, the frequency of ``_listing`` lists its
    candidates span by span.  Plain ranges of _CHUNK steps are scanned
    when no frequency can list (none given, or every widened width 1/4
    or more), and for a span with too many candidates.
    """
    head = min(_HEAD, m_max)
    if head:
        yield np.arange(1, head + 1, dtype=np.float64), head
    listing = _listing(freqs, width, head, m_max) if head < m_max else None
    c, wide, span = listing or (None, None, _CHUNK)
    for start in range(head, m_max, span):
        stop = min(start + span, m_max)
        ms = _near_integer_steps(c, wide, start, stop) if listing else None
        if ms is not None:
            yield ms.astype(np.float64), stop
            continue
        for lo in range(start, stop, _CHUNK):
            hi = min(lo + _CHUNK, stop)
            yield np.arange(lo + 1, hi + 1, dtype=np.float64), hi


def recurrence_hits(freqs, eps, m_max):
    """Yield (ms, devs) chunk by chunk, in scan order: the m in [1, m_max]
    with dev(m) = max_j |e^{i f_j m} - 1| = 2 max_j |sin(f_j m / 2)| < eps.

    dev(m) < eps needs every u = m f_j / 2pi within asin(eps/2)/pi of an
    integer.  After a short head swept whole, the frequency that lists
    the fewest steps where that can hold lists them, residue class by
    residue class (``_scan_chunks``), and each frequency in turn filters
    them; only the survivors get sines.  The filter is
    conservative: eps is widened by 1e-9 relatively before the arcsine
    (the sine is flat near eps = 2), and the width by 1e-9 + 1e-12 |u|max,
    thousands of times the rounding of u and of the sine's argument.  A
    survivor's deviation is the same double a full scan makes: m f, times
    0.5, sin, abs, maximum over the frequencies from 0, times 2.  A NaN or
    infinite product fails both tests, so a frequency that is not finite
    leaves no step and the scan yields nothing at once.  With no
    frequencies every deviation is 0.
    """
    freqs = np.asarray(freqs, dtype=np.float64).ravel()
    if not np.isfinite(freqs).all():
        return
    m_max = int(m_max)
    width = np.arcsin(np.clip(0.5 * eps * (1.0 + 1e-9), 0.0, 1.0)) / np.pi + 1e-9
    for ms, stop in _scan_chunks(freqs, width, m_max):
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
    amp2 e^{-a2 (x-b2)^2 + i c2 x}, broadcasting over the arguments.

    With p = a1 + conj(a2) and k = c1 - conj(c2) the exponent is
    i k (a1 b1 + conj(a2 b2)) / p - k^2 / 4p - a1 conj(a2) (b1 - conj(b2))^2 / p,
    free of the cancellation of expanding the square.  For packets so far
    apart that the square overflows, the real part of the exponent is
    -inf (the other part may be NaN), and exp makes the entry exactly 0.
    """
    aa = np.conj(a2)
    bb = np.conj(b2)
    p = a1 + aa
    k = c1 - np.conj(c2)
    d = b1 - bb
    with np.errstate(over="ignore", invalid="ignore"):
        expo = k * (1j * (a1 * b1 + aa * bb) - 0.25 * k) / p - a1 * (aa / p) * (d * d)
    return amp1 * np.conj(amp2) * np.sqrt(np.pi / p) * np.exp(expo)


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

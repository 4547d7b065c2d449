"""Analytic backend on square integrable functions.

Test vectors are finite sums of Gaussian wave packets
amp * exp(-a(x-b)^2 + icx); all three generator semigroups act on the
packet parameters in closed form, and inner products come from one
analytic Gaussian integral, so there is no grid and no interpolation
error.  On top of the packets sit the concrete demonstrations: word
versus normal form residuals, Rayleigh-quotient norm bounds, the column
norm identity of the left regular picture (read on the one vector that
it needs, delta_e (x) xi), weak operator compressions along recurrence
schedules, and the Fourier conjugation swapping multiplications with
translations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import _kernels
from .algebra import (
    _COMPRESSIONS,
    Axis,
    AxisMap,
    CompressionMode,
    Element,
    coeff_map,
    compress,
    conjugate,
    side_sums,
)
from .errors import (
    DivergentPacket,
    InvalidParameter,
    NumericOverflow,
    ScheduleTooShort,
)
from .exactnum import (
    DEFAULT_TABLE,
    AtomTable,
    DilationIndex,
    _count,
    _exp,
)

# ------------------------------------------------------------------ packets

# relative distance under which two packet parameters count as one value
# in a relation residual
_FEW_ULPS = 4 * np.finfo(np.float64).eps

# a dilation by e^t scales the width by e^{2t}, which leaves the double
# range (or underflows to zero) for |t| above this
_MAX_DILATION = 0.5 * math.log(np.finfo(np.float64).max)

# a relation's phase (lam mu, e^t lam or e^-t mu) above 2^26 is held to no
# better than 2^-26 ~ 1.5e-8, so a residual there measures the rounding
# of the phase rather than the relation
_MAX_PHASE = 2.0**26


@dataclass(frozen=True)
class GaussianPacket:
    """amp * exp(-a (x - b)^2 + i c x) with Re(a) > 0."""

    amp: complex = 1.0
    a: complex = 1.0
    b: complex = 0.0
    c: complex = 0.0

    def __post_init__(self):
        if not complex(self.a).real > 0:
            raise DivergentPacket(
                f"width parameter {self.a!r} has nonpositive real part"
            )


def _columns(rows):
    """The amp, a, b, c arrays of (amp, a, b, c) rows."""
    return np.array(rows, dtype=np.complex128).reshape(-1, 4).T


class PacketSum:
    """Finite linear combination of Gaussian packets.

    The packets are four complex parameter arrays amp, a, b, c of one
    shape, one entry per packet, so each generator acts by one array
    expression.  Action parameters broadcast against them: an action by
    a column of parameters yields one row of packets per parameter.
    """

    __slots__ = ("amp", "a", "b", "c")

    def __init__(self, packets=()):
        rows = [(p.amp, p.a, p.b, p.c) for p in packets]
        self.amp, self.a, self.b, self.c = _columns(rows)

    @classmethod
    def _of(cls, amp, a, b, c) -> "PacketSum":
        out = cls.__new__(cls)
        out.amp, out.a, out.b, out.c = amp, a, b, c
        return out

    @classmethod
    def single(cls, packet: GaussianPacket | None = None) -> "PacketSum":
        return cls((packet or GaussianPacket(),))

    @property
    def packets(self) -> tuple:
        return tuple(GaussianPacket(*row) for row in self._rows())

    @property
    def _params(self) -> tuple:
        return self.amp, self.a, self.b, self.c

    def _rows(self):
        return zip(*(v.ravel().tolist() for v in self._params))

    def __add__(self, other: "PacketSum") -> "PacketSum":
        """Packets with identical (a, b, c) merge into one with the summed
        amplitude, and packets of amplitude exactly zero drop, so a
        difference of equal terms is exactly zero."""
        merged = {}
        for amp, a, b, c in (*self._rows(), *other._rows()):
            merged[a, b, c] = merged.get((a, b, c), 0j) + amp
        rows = [(amp, *key) for key, amp in merged.items() if amp]
        return PacketSum._of(*_columns(rows))

    def __sub__(self, other: "PacketSum") -> "PacketSum":
        return self + other.scale(-1.0)

    def __len__(self) -> int:
        return self.amp.size

    def scale(self, z) -> "PacketSum":
        return PacketSum._of(self.amp * z, self.a, self.b, self.c)

    def modulate(self, lam) -> "PacketSum":
        """Multiply by e^{i lam x}."""
        return PacketSum._of(self.amp, self.a, self.b, self.c + lam)

    def translate(self, mu) -> "PacketSum":
        """Shift the argument by mu."""
        amp = self.amp * np.exp(self.c * (-1j * mu))
        return PacketSum._of(amp, self.a, self.b + mu, self.c)

    def dilate(self, t) -> "PacketSum":
        """Apply the unitary dilation by e^t."""
        if np.abs(t).max(initial=0.0) > _MAX_DILATION:
            raise NumericOverflow("a dilation e^{2t} leaves the double range")
        g = np.exp(t)
        # b e^-t, not b / e^t, so a centred packet moved by D(mu) lands on e^-t mu exactly
        return PacketSum._of(
            self.amp * np.exp(0.5 * t), self.a * g * g, self.b * np.exp(-t), self.c * g
        )

    def fourier(self) -> "PacketSum":
        """Unitary Fourier transform (2 pi)^{-1/2} integral of f e^{-i xi x}."""
        return self._fourier(1)

    def inv_fourier(self) -> "PacketSum":
        return self._fourier(-1)

    def _fourier(self, sign: int) -> "PacketSum":
        amp = self.amp / np.sqrt(2 * self.a) * np.exp(1j * self.b * self.c)
        return PacketSum._of(amp, 1 / (4 * self.a), sign * self.c, -sign * self.b)

    def value(self, x: float) -> complex:
        terms = self.amp * np.exp(-self.a * (x - self.b) ** 2 + 1j * self.c * x)
        return complex(terms.sum())

    def inner(self, other: "PacketSum") -> complex:
        left = (v[:, None] for v in self._params)
        return complex(_kernels.gaussian_inner(*left, *other._params).sum())

    def norm_sq(self) -> float:
        return max(self.inner(self).real, 0.0)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())


# --------------------------------------------------------- element action


def _act(steps: list[tuple[list, DilationIndex]], f: PacketSum, table: AtomTable) -> PacketSum:
    """Every monomial z M(lam) D(mu) V(t) of each step applied to every
    packet of f, as parameter arrays of shape (steps, terms, packets):
    dilate, then shift, then modulate, then scale.  The dilation touches
    all four parameters, so each array comes out with the full shape.

    A step is a term list and a dilation shift s: the terms with each key
    (lam, mu, t) sent to (e^s lam, e^-s mu, t), and all lists have one
    length.  Consecutive steps that share a list are read together: each
    distinct coefficient and index once, each distinct frequency once for
    all their shifts (``Frequency.numeric_at``), and no scaled key built."""
    seen: dict = {}

    def value(obj, shifts=None):
        key = id(obj) if shifts is None else (id(obj), shifts)
        v = seen.get(key)
        if v is None:
            v = seen[key] = obj.numeric(table) if shifts is None else obj.numeric_at(shifts, table)
        return v

    z, keys = [], []
    for _, group in groupby(steps, key=lambda step: id(step[0])):
        group = list(group)
        terms = group[0][0]
        ups = tuple([s for _, s in group])
        downs = tuple([-s for s in ups])
        z += [[value(c) for _, c in terms]] * len(ups)
        cols = [(value(lam, ups), value(mu, downs), value(t)) for (lam, mu, t), _ in terms]
        keys += [[(lams[i], mus[i], tv) for lams, mus, tv in cols] for i in range(len(ups))]
    z = np.array(z, dtype=np.complex128).reshape(len(steps), -1)
    keys = np.array(keys, dtype=np.float64).reshape(len(steps), -1, 3)
    lam, mu, t = keys.transpose(2, 0, 1)[..., None]
    return f.dilate(t).translate(mu).modulate(lam).scale(z[..., None])


def apply_element(x: Element, f: PacketSum, table: AtomTable = DEFAULT_TABLE) -> PacketSum:
    """Act by the concrete operator sum: dilate, then shift, then modulate."""
    out = _act([(x.sorted_terms(), DilationIndex.zero())], f, table)
    return PacketSum._of(*(v.ravel() for v in out._params))


def apply_word(word, f: PacketSum, table: AtomTable = DEFAULT_TABLE) -> PacketSum:
    """Apply one-term letters c M(lam) D(mu) V(t) literally, rightmost
    factor first: each nonzero index by its packet action, then the
    coefficient, so a generator letter is one action."""
    current = f
    for letter in reversed(list(word)):
        if not isinstance(letter, Element) or len(letter.terms) != 1:
            raise TypeError(f"not a one-term letter: {letter!r}")
        ((lam, mu, t), c), = letter.terms.items()
        if not t.is_zero():
            current = current.dilate(t.numeric(table))
        if not mu.is_zero():
            current = current.translate(mu.numeric(table))
        if not lam.is_zero():
            current = current.modulate(lam.numeric(table))
        current = current.scale(c.numeric(table))
    return current


def _phase(scale, factor) -> float:
    """The relation phase scale * factor, refused above _MAX_PHASE."""
    phase = float(scale) * float(factor)
    if not abs(phase) <= _MAX_PHASE:
        raise InvalidParameter(
            f"relation phase {phase:.6g} exceeds 2^26: its rounding would swamp the residual"
        )
    return phase


def relation_residual(kind: str, params, f: PacketSum) -> float:
    """Norm of (left side - right side) applied to f for one relation.

    A phase above _MAX_PHASE is refused; a dilation past the double range
    raises NumericOverflow first.
    """
    if kind == "weyl":
        lam, mu = params
        phase = _phase(lam, mu)
        lhs = f.translate(mu).modulate(lam)
        rhs = f.modulate(lam).translate(mu).scale(cmath.exp(1j * phase))
    elif kind == "dilM":
        t, lam = params
        lhs = f.modulate(lam).dilate(t)
        rhs = f.dilate(t).modulate(_phase(np.exp(t), lam))
    elif kind == "dilD":
        t, mu = params
        lhs = f.translate(mu).dilate(t)
        rhs = f.dilate(t).translate(_phase(np.exp(-t), mu))
    else:
        raise InvalidParameter(f"unknown relation {kind!r}")
    # The two sides round the same packet parameters differently, e.g. the
    # dilated centre (b + mu) e^-t against b e^-t + e^-t mu.  Unmerged, such
    # packets leave ||lhs||^2 + ||rhs||^2 - 2 Re<lhs, rhs> at the square
    # root of the rounding error; taking parameters that agree to a few
    # ulps as equal merges them, and the norm is the true residual.
    pairs = list(zip(lhs._params[1:], rhs._params[1:]))
    near = np.logical_and.reduce(
        [np.abs(u - v) <= _FEW_ULPS * np.maximum(np.abs(u), np.abs(v)) for u, v in pairs]
    )
    rhs = PacketSum._of(rhs.amp, *(np.where(near, u, v) for u, v in pairs))
    return (lhs - rhs).norm()


# ------------------------------------------------------------- norm bounds

# most sampled packets: the cap bounds time (0.07 s for one term at 10^5)
_MAX_TRIALS = 10**5

# trials per pass of a norm bound: a pass holds terms^2 * chunk Gram
# entries, so past the three sampled parameters per trial the memory is
# bounded for any number of trials
_TRIAL_CHUNK = 1024


def sample_widths_centers(rng, trials: int):
    """The packet sampling law for norm bounds: wide log-uniform widths,
    uniform centers and momenta."""
    a = np.exp(rng.uniform(math.log(0.02), math.log(20.0), trials))
    b = rng.uniform(-20.0, 20.0, trials)
    c = rng.uniform(-20.0, 20.0, trials)
    return a, b, c


# A dilation near the edge of the double range can still overflow a
# sampled width (up to 20 e^{2t}) with no Python exception: the array
# arithmetic runs silent and a non-finite bound is raised.
@np.errstate(all="ignore")
def norm_lower_bound(
    x: Element,
    trials: int,
    seed: int = 0,
    table: AtomTable = DEFAULT_TABLE,
) -> float:
    """Best Rayleigh quotient over seeded random packets.

    Always a lower bound for the operator norm and never above the l1
    norm; long slowly varying packets (small width) push almost
    periodic multipliers toward their sup norm.
    """
    trials = _count(trials, "trials", 1, _MAX_TRIALS)
    seed = _count(seed, "seed", 0)
    sample = np.array(sample_widths_centers(np.random.default_rng(seed), trials))
    # the trials in chunks of near-equal length, none a lone trial split
    # off (its Gram sum would switch to numpy's pairwise order), so every
    # quotient is bit for bit that of a single pass
    chunks = -(-trials // _TRIAL_CHUNK)
    edges = [trials * k // chunks for k in range(chunks + 1)]
    best = []
    for lo, hi in zip(edges, edges[1:]):
        f = PacketSum._of(*np.array([np.ones(hi - lo), *sample[:, lo:hi]], dtype=np.complex128))
        image = [v[0] for v in _act([(x.sorted_terms(), DilationIndex.zero())], f, table)._params]
        # trial i of every term against trial i of every term
        left = (v[:, None] for v in image)
        right = (v[None, :] for v in image)
        image_sq = _kernels.gaussian_inner(*left, *right).real.sum(axis=(0, 1))
        base_sq = _kernels.gaussian_inner(*f._params, *f._params).real
        ratios = np.sqrt(np.maximum(image_sq, 0.0) / base_sq)
        if not np.isfinite(ratios).all():
            raise NumericOverflow("the dilated packets leave the double range")
        best.append(ratios.max())
    return float(max(best))


# ------------------------------------------------- left regular representation


def column_norms(
    x: Element,
    xi: PacketSum,
    grading: Axis | str = Axis.TRANSLATION,
    table: AtomTable = DEFAULT_TABLE,
) -> tuple[float, float]:
    """Both sides of the column norm identity, independently computed.

    Left: the squared norm of x acting on the delta vector delta_e (x) xi
    of the left regular picture, one fiber per group index.  A term at
    index s sends xi to the fiber at s, twisted by the action at -s: on E
    the phase e^{i lam s}, on H a translation by mu e^s and a modulation
    by lam e^-s.  Terms landing on one fiber add in first-seen order.
    Right: the sum over those fibers s of the squared norm of the
    coefficient part at s, conjugated exactly by the grading unitary at s,
    applied to the packet directly.
    """
    axis = Axis.parse(grading)
    if axis is Axis.MULTIPLICATION:
        raise InvalidParameter(f"no left regular picture along {axis.grading}")
    axis.check_support(x)
    # fibers in canonical key order: a set would sum in string-hash order,
    # which differs between processes
    fibers = {}
    for key, coeff in x.sorted_terms():
        lam, mu, _t = key
        s = axis.index(key)
        z, lam_n, mu_n, w = (v.numeric(table) for v in (coeff, lam, mu, s))
        if axis is Axis.TRANSLATION:
            phase = 1j * lam_n * w
            if not cmath.isfinite(phase):
                raise NumericOverflow("a twist phase lam*s leaves the double range")
            moved = xi.modulate(lam_n).scale(z * cmath.exp(phase))
        else:
            moved = xi.translate(mu_n * _exp(w)).modulate(lam_n * _exp(-w)).scale(z)
        fibers[s] = fibers[s] + moved if s in fibers else moved
    lhs = sum(ps.norm_sq() for ps in fibers.values())

    rhs = 0.0
    for s in fibers:
        twisted = conjugate(coeff_map(x, axis, s), axis.generator(s))
        rhs += apply_element(twisted, xi, table).norm_sq()
    return lhs, rhs


# ----------------------------------------------------------- WOT compression


@dataclass(frozen=True)
class ConvergenceReport:
    mode: str
    schedule: tuple
    values: tuple
    limit_value: complex
    errors: tuple
    relative_errors: tuple
    nonmonotone_fraction: float

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "steps": [
                {
                    "n": n,
                    "value": {"re": v.real, "im": v.imag},
                    "error": e,
                    "relative": r,
                }
                for n, v, e, r in zip(
                    self.schedule, self.values, self.errors, self.relative_errors
                )
            ],
            "limit": {"re": self.limit_value.real, "im": self.limit_value.imag},
            "nonmonotone_fraction": self.nonmonotone_fraction,
        }


def wot_limit(x: Element, mode) -> Element:
    """The weak limit of the compression sequence, as an element."""
    mode = CompressionMode.parse(mode)
    if mode is CompressionMode.TRANSLATION:
        return coeff_map(x, Axis.DILATION, DilationIndex.zero())
    # V* x V keeps the translation-free terms, V x V* the modulation-free ones
    killed = Axis.TRANSLATION if mode is CompressionMode.DILATION_IN else Axis.MULTIPLICATION
    return side_sums(x, killed)


def wot_compression_demo(
    x: Element,
    f: PacketSum,
    g: PacketSum,
    mode,
    schedule,
    table: AtomTable = DEFAULT_TABLE,
) -> ConvergenceReport:
    """Track matrix entries of the compressions along a schedule.

    Each step is compressed exactly.  Conjugation by a unitary monomial
    maps terms one to one, so every step has the terms of x, and all
    steps act on f as one (steps, terms, |f|) array and meet g in one
    inner product: O(steps * terms * |f| * |g|) complex entries, one
    packet each for f and g from the command line.  In a dilation mode,
    u = V(sign n) and u* x u is x's keys under e^-(sign n), so every step
    is x's sorted terms at that shift: ``_act`` reads each coefficient
    and index once for all steps, and each frequency at every shift
    without building a scaled key.  Translation steps are the sorted
    terms of ``compress``, one element per step, at shift 0.
    """
    schedule = [_count(n, "compression step", -math.inf) for n in schedule]
    if len(schedule) < 2:
        raise ScheduleTooShort(
            f"need at least two compression steps, got {len(schedule)}"
        )
    mode = CompressionMode.parse(mode)
    limit = wot_limit(x, mode)
    limit_value = apply_element(limit, f, table).inner(g)
    axis, sign = _COMPRESSIONS[mode]
    if axis is Axis.DILATION:
        terms = x.sorted_terms()
        steps = [(terms, DilationIndex.unit(-sign * n)) for n in schedule]
    else:
        steps = [(compress(x, mode, n).sorted_terms(), DilationIndex.zero()) for n in schedule]
    images = _act(steps, f, table)
    left = (v.reshape(len(schedule), -1, 1) for v in images._params)
    inner = _kernels.gaussian_inner(*left, *g._params).reshape(len(schedule), -1)
    values = [complex(v) for v in inner.sum(axis=1)]
    errors = [abs(val - limit_value) for val in values]
    scale = abs(limit_value)
    if scale > 1e-9:
        relative = [e / scale for e in errors]
    else:
        relative = list(errors)
    bad = sum(
        1 for e0, e1 in zip(errors, errors[1:]) if e1 > e0 + 1e-15
    )
    frac = bad / (len(errors) - 1)
    return ConvergenceReport(
        mode=mode.value,
        schedule=tuple(schedule),
        values=tuple(values),
        limit_value=limit_value,
        errors=tuple(errors),
        relative_errors=tuple(relative),
        nonmonotone_fraction=frac,
    )


# ------------------------------------------------------------ Fourier duality


# F's action on the function axes: x -> F x F^{-1} sends M(lam) to D(lam)
# and D(mu) to M(-mu)
_FOURIER_AXES = AxisMap(swap=True, d_scale=-1)


def fourier_conjugation_check(
    lam: float, f: PacketSum, g: PacketSum, dual: bool = False
) -> float:
    """Matrix-entry gap for conjugation by the Fourier transform.

    x is M_lam, or D_lam in the dual form; F x F^{-1} f is compared with
    the swapped map's image of x applied to f: D_lam, or M_{-lam}.
    """
    x = (Element.d if dual else Element.m)(lam)
    conjugated = apply_element(x, f.inv_fourier()).fourier()
    direct = apply_element(_FOURIER_AXES(x), f)
    return abs((conjugated - direct).inner(g))

"""Analytic backend on square integrable functions.

Test vectors are finite sums of Gaussian wave packets
amp * exp(-a(x-b)^2 + icx); all three generator semigroups act on the
packet parameters in closed form, and inner products come from one
analytic Gaussian integral, so there is no grid and no interpolation
error.  On top of the packets sit the concrete demonstrations: word
versus normal form residuals, Rayleigh-quotient norm bounds, the left
regular representation with its column norm identity, weak operator
compressions along recurrence schedules, and the Fourier conjugation
swapping multiplications with translations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .algebra import (
    Axis,
    CompressionMode,
    D,
    Element,
    M,
    Sc,
    V,
    coeff_map,
    compress,
)
from .errors import (
    AxisMismatch,
    DivergentPacket,
    InvalidParameter,
    NumericOverflow,
    ScheduleTooShort,
)
from .exactnum import (
    AtomTable,
    DilationIndex,
    Frequency,
    Scalar,
    _exp,
    _frac,
    scalar_numeric,
)

# ------------------------------------------------------------------ packets


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

    @classmethod
    def unit(cls) -> "GaussianPacket":
        return cls()

    def value(self, x: float) -> complex:
        return self.amp * cmath.exp(
            -self.a * (x - self.b) ** 2 + 1j * self.c * x
        )

    def scale(self, z: complex) -> "GaussianPacket":
        return GaussianPacket(self.amp * z, self.a, self.b, self.c)

    def modulate(self, lam: float) -> "GaussianPacket":
        """Multiply by e^{i lam x}."""
        return GaussianPacket(self.amp, self.a, self.b, self.c + lam)

    def translate(self, mu: float) -> "GaussianPacket":
        """Shift the argument by mu."""
        return GaussianPacket(
            self.amp * cmath.exp(-1j * self.c * mu),
            self.a,
            self.b + mu,
            self.c,
        )

    def dilate(self, t: float) -> "GaussianPacket":
        """Apply the unitary dilation by e^t."""
        g = _exp(t)
        return GaussianPacket(
            self.amp * _exp(0.5 * t), self.a * g * g, self.b / g, self.c * g
        )

    def fourier(self) -> "GaussianPacket":
        """Unitary Fourier transform (2 pi)^{-1/2} integral of f e^{-i xi x}."""
        amp = self.amp / cmath.sqrt(2 * self.a) * cmath.exp(1j * self.b * self.c)
        return GaussianPacket(amp, 1 / (4 * self.a), self.c, -self.b)

    def inv_fourier(self) -> "GaussianPacket":
        amp = self.amp / cmath.sqrt(2 * self.a) * cmath.exp(1j * self.b * self.c)
        return GaussianPacket(amp, 1 / (4 * self.a), -self.c, self.b)


class PacketSum:
    """Finite linear combination of Gaussian packets."""

    __slots__ = ("packets",)

    def __init__(self, packets=()):
        self.packets = tuple(packets)

    @classmethod
    def single(cls, packet: GaussianPacket | None = None) -> "PacketSum":
        return cls((packet or GaussianPacket.unit(),))

    def __add__(self, other: "PacketSum") -> "PacketSum":
        return PacketSum(self.packets + other.packets)

    def __sub__(self, other: "PacketSum") -> "PacketSum":
        return self + other.scale(-1.0)

    def __len__(self) -> int:
        return len(self.packets)

    def scale(self, z: complex) -> "PacketSum":
        return PacketSum(p.scale(z) for p in self.packets)

    def modulate(self, lam: float) -> "PacketSum":
        return PacketSum(p.modulate(lam) for p in self.packets)

    def translate(self, mu: float) -> "PacketSum":
        return PacketSum(p.translate(mu) for p in self.packets)

    def dilate(self, t: float) -> "PacketSum":
        return PacketSum(p.dilate(t) for p in self.packets)

    def fourier(self) -> "PacketSum":
        return PacketSum(p.fourier() for p in self.packets)

    def inv_fourier(self) -> "PacketSum":
        return PacketSum(p.inv_fourier() for p in self.packets)

    def value(self, x: float) -> complex:
        return sum((p.value(x) for p in self.packets), 0j)

    def _arrays(self):
        n = len(self.packets)
        amp = np.empty(n, dtype=np.complex128)
        a = np.empty(n, dtype=np.complex128)
        b = np.empty(n, dtype=np.complex128)
        c = np.empty(n, dtype=np.complex128)
        for i, p in enumerate(self.packets):
            amp[i], a[i], b[i], c[i] = p.amp, p.a, p.b, p.c
        return amp, a, b, c

    def inner(self, other: "PacketSum") -> complex:
        if not self.packets or not other.packets:
            return 0j
        left = (v[:, None] for v in self._arrays())
        right = (v[None, :] for v in other._arrays())
        return complex(_kernels.gaussian_inner(*left, *right).sum())

    def norm_sq(self) -> float:
        return max(self.inner(self).real, 0.0)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())


def packet_inner(f: PacketSum, g: PacketSum) -> complex:
    return f.inner(g)


# --------------------------------------------------------- element action


def apply_element(
    x: Element, f: PacketSum, table: AtomTable | None = None
) -> PacketSum:
    """Act by the concrete operator sum: dilate, then shift, then modulate."""
    table = table or AtomTable.default()
    out = []
    for (lam, mu, t), coeff in x.sorted_terms():
        z = scalar_numeric(coeff, table)
        lam_n = lam.numeric(table)
        mu_n = mu.numeric(table)
        t_n = t.numeric(table)
        for p in f.packets:
            q = p
            if t_n:
                q = q.dilate(t_n)
            if mu_n:
                q = q.translate(mu_n)
            if lam_n:
                q = q.modulate(lam_n)
            out.append(q.scale(z))
    return PacketSum(out)


def apply_word(word, f: PacketSum, table: AtomTable | None = None) -> PacketSum:
    """Apply generator letters literally, rightmost factor first."""
    table = table or AtomTable.default()
    current = f
    for letter in reversed(list(word)):
        if isinstance(letter, M):
            current = current.modulate(letter.freq.numeric(table))
        elif isinstance(letter, D):
            current = current.translate(letter.freq.numeric(table))
        elif isinstance(letter, V):
            current = current.dilate(letter.index.numeric(table))
        elif isinstance(letter, Sc):
            current = current.scale(scalar_numeric(letter.value, table))
        else:
            raise TypeError(f"not a generator letter: {letter!r}")
    return current


def relation_residual(kind: str, params, f: PacketSum) -> float:
    """Norm of (left side - right side) applied to f for one relation."""
    if kind == "weyl":
        lam, mu = params
        lhs = f.translate(mu).modulate(lam)
        rhs = f.modulate(lam).translate(mu).scale(cmath.exp(1j * lam * mu))
    elif kind == "dilM":
        t, lam = params
        lhs = f.modulate(lam).dilate(t)
        rhs = f.dilate(t).modulate(_exp(t) * lam)
    elif kind == "dilD":
        t, mu = params
        lhs = f.translate(mu).dilate(t)
        rhs = f.dilate(t).translate(_exp(-t) * mu)
    else:
        raise InvalidParameter(f"unknown relation {kind!r}")
    return (lhs - rhs).norm()


# ------------------------------------------------------------- norm bounds


def sample_widths_centers(rng, trials: int):
    """The packet sampling law for norm bounds: wide log-uniform widths,
    uniform centers and momenta."""
    a = np.exp(rng.uniform(math.log(0.02), math.log(20.0), trials))
    b = rng.uniform(-20.0, 20.0, trials)
    c = rng.uniform(-20.0, 20.0, trials)
    return a, b, c


# Dilations such as V(400) or V(-1000) push the packet parameters past the
# double range (e^800 overflows, e^-1000 is 0) with no Python exception:
# the array arithmetic runs silent and a non-finite bound is raised.
@np.errstate(all="ignore")
def norm_lower_bound(
    x: Element,
    trials: int,
    seed: int = 0,
    table: AtomTable | None = None,
) -> float:
    """Best Rayleigh quotient over seeded random packets.

    Always a lower bound for the operator norm and never above the l1
    norm; long slowly varying packets (small width) push almost
    periodic multipliers toward their sup norm.
    """
    if trials < 1:
        raise InvalidParameter("need at least one trial")
    table = table or AtomTable.default()
    rng = np.random.default_rng(seed)
    a, b, c = sample_widths_centers(rng, trials)
    a = a.astype(np.complex128)
    b = b.astype(np.complex128)
    c = c.astype(np.complex128)
    amp = np.ones_like(a)

    terms = []
    for (lam, mu, t), coeff in x.sorted_terms():
        terms.append(
            (
                scalar_numeric(coeff, table),
                lam.numeric(table),
                mu.numeric(table),
                t.numeric(table),
            )
        )
    # transformed packet parameter arrays, one row per term
    rows = []
    for z, lam_n, mu_n, t_n in terms:
        g = _exp(t_n)
        ta = a * g * g
        tb = b / g
        tc = c * g
        tamp = amp * z * _exp(0.5 * t_n)
        tamp = tamp * np.exp(-1j * tc * mu_n)
        tb = tb + mu_n
        tc = tc + lam_n
        rows.append((tamp, ta, tb, tc))

    base_sq = _kernels.gaussian_inner(amp, a, b, c, amp, a, b, c).real
    image_sq = np.zeros_like(base_sq)
    for r1 in rows:
        for r2 in rows:
            image_sq = image_sq + _kernels.gaussian_inner(*r1, *r2).real
    ratios = np.sqrt(np.maximum(image_sq, 0.0) / base_sq)
    if not np.isfinite(ratios).all():
        raise NumericOverflow("the dilated packets leave the double range")
    return float(ratios.max()) if len(rows) else 0.0


# ------------------------------------------------- left regular representation


class LRVector:
    """Finitely supported vector over the grading group with packet fibers."""

    __slots__ = ("components",)

    def __init__(self, components=None):
        comps = {}
        for key, ps in (components or {}).items():
            if len(ps):
                comps[key] = ps
        self.components = comps

    @classmethod
    def delta(cls, key, xi: PacketSum) -> "LRVector":
        return cls({key: xi})

    def norm_sq(self) -> float:
        return sum(ps.norm_sq() for ps in self.components.values())

    def add_component(self, key, ps: PacketSum):
        if key in self.components:
            self.components[key] = self.components[key] + ps
        else:
            self.components[key] = ps


def lr_apply(
    x: Element,
    v: LRVector,
    grading: str = "translation",
    table: AtomTable | None = None,
) -> LRVector:
    """Act on the left regular representation along the chosen grading.

    A term supported at group index s sends the fiber at u to the fiber
    at s + u, twisted by the action at -(s + u); translation twists are
    pure phases, dilation twists rescale both function axes.
    """
    table = table or AtomTable.default()
    out = LRVector()
    if grading == "translation":
        for (lam, mu, t), coeff in x.sorted_terms():
            if not t.is_zero():
                raise AxisMismatch(
                    "translation grading needs a dilation-free element"
                )
            z = scalar_numeric(coeff, table)
            lam_n = lam.numeric(table)
            for u, xi in v.components.items():
                target = mu + u
                w = target.numeric(table)
                phase = cmath.exp(1j * lam_n * w)
                out.add_component(target, xi.modulate(lam_n).scale(z * phase))
        return out
    if grading == "dilation":
        for (lam, mu, t), coeff in x.sorted_terms():
            z = scalar_numeric(coeff, table)
            lam_n = lam.numeric(table)
            mu_n = mu.numeric(table)
            for u, xi in v.components.items():
                target = t + u
                w = target.numeric(table)
                lam_eff = lam_n * _exp(-w)
                mu_eff = mu_n * _exp(w)
                moved = xi.translate(mu_eff).modulate(lam_eff).scale(z)
                out.add_component(target, moved)
        return out
    raise InvalidParameter(f"unknown grading {grading!r}")


def column_norms(
    x: Element,
    xi: PacketSum,
    grading: str = "translation",
    table: AtomTable | None = None,
) -> tuple[float, float]:
    """Both sides of the column norm identity, independently computed.

    Left: the squared norm of x acting on the delta vector at the group
    identity.  Right: the fiberwise sum of squared norms of the twisted
    coefficient parts applied to the packet directly.
    """
    table = table or AtomTable.default()
    zero_key = Frequency.zero() if grading == "translation" else DilationIndex.zero()
    lhs = lr_apply(x, LRVector.delta(zero_key, xi), grading, table).norm_sq()

    rhs = 0.0
    if grading == "translation":
        support = {mu for _, mu, _ in x.terms}
        for s in support:
            fiber = coeff_map(x, Axis.TRANSLATION, s)
            s_n = s.numeric(table)
            twisted = []
            for (lam, _, _), coeff in fiber.terms.items():
                angle = _frac(lam.numeric(table) * s_n)
                key = (lam, Frequency.zero(), DilationIndex.zero())
                twisted.append((key, coeff * Scalar.rational_angle(angle)))
            rhs += apply_element(Element(twisted), xi, table).norm_sq()
    else:
        support = {t for _, _, t in x.terms}
        for s in support:
            fiber = coeff_map(x, Axis.DILATION, s)
            s_n = s.numeric(table)
            moved = []
            for (lam, mu, _), coeff in fiber.terms.items():
                z = scalar_numeric(coeff, table)
                lam_eff = lam.numeric(table) * _exp(-s_n)
                mu_eff = mu.numeric(table) * _exp(s_n)
                for p in xi.packets:
                    moved.append(p.translate(mu_eff).modulate(lam_eff).scale(z))
            rhs += PacketSum(moved).norm_sq()
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

    @property
    def final_relative(self) -> float:
        return self.relative_errors[-1]

    def ok(self, tol: float = 0.1, slack: float = 0.2) -> bool:
        return self.final_relative < tol and self.nonmonotone_fraction <= slack

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
    mode = CompressionMode.parse(mode) if isinstance(mode, str) else mode
    if mode is CompressionMode.TRANSLATION:
        return coeff_map(x, Axis.DILATION, DilationIndex.zero())
    items = []
    for (lam, mu, t), coeff in x.terms.items():
        if mode is CompressionMode.DILATION_IN and not mu.is_zero():
            continue
        if mode is CompressionMode.DILATION_OUT and not lam.is_zero():
            continue
        items.append(((Frequency.zero(), Frequency.zero(), t), coeff))
    return Element(items)


def wot_compression_demo(
    x: Element,
    f: PacketSum,
    g: PacketSum,
    mode,
    schedule,
    table: AtomTable | None = None,
) -> ConvergenceReport:
    """Track matrix entries of the compressions along a schedule."""
    table = table or AtomTable.default()
    schedule = [int(n) for n in schedule]
    if len(schedule) < 2:
        raise ScheduleTooShort(
            f"need at least two compression steps, got {len(schedule)}"
        )
    mode = CompressionMode.parse(mode) if isinstance(mode, str) else mode
    limit = wot_limit(x, mode)
    limit_value = apply_element(limit, f, table).inner(g)
    values = []
    errors = []
    for n in schedule:
        y = compress(x, mode, n)
        val = apply_element(y, f, table).inner(g)
        values.append(val)
        errors.append(abs(val - limit_value))
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


def fourier_conjugation_check(
    lam: float, f: PacketSum, g: PacketSum, dual: bool = False
) -> float:
    """Matrix-entry gap for conjugation by the Fourier transform.

    Default: compare F M_lam F^{-1} against D_lam.  Dual form: compare
    F D_lam F^{-1} against M_{-lam}.
    """
    if dual:
        conjugated = f.inv_fourier().translate(lam).fourier()
        direct = f.modulate(-lam)
    else:
        conjugated = f.inv_fourier().modulate(lam).fourier()
        direct = f.translate(lam)
    return abs((conjugated - direct).inner(g))

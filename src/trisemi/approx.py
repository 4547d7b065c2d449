"""Almost periodic approximation tools, one code path per result.

``RationalBasis`` finds exact coordinates over a rational basis of a
support by one elimination.  ``section_weights`` is the one weight pass
of a section: support basis, order check and one factorial lattice
weight per distinct index; ``bochner_fejer`` and ``bf_report`` scale
terms by those weights.  Also here: summation kernels, exact gauge
twists, Cesaro means by trapezoid quadrature, and the recurrence scan.
The scan streams the steps below the tolerance chunk by chunk, in
memory bounded by one chunk: past a short head swept whole, each chunk
lists only the steps where one frequency lies near a multiple of 2 pi,
residue class by residue class, so it touches about 2 asin(eps/2)/pi of
the steps.  The schedule keeps the running minima of the hits, and the
search, the schedule's head, stops at the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Axis, AxisMap, Element
from .errors import BasisTooShort, InvalidParameter, NotFound
from .exactnum import (
    _ZERO,
    DEFAULT_TABLE,
    AtomTable,
    DilationIndex,
    Frequency,
    PhaseExponent,
    _count,
    _frac,
)

# longest recurrence scan: it streams in chunks of bounded size, so the cap
# bounds its time, not its memory.  At 10^8 a scan that lists its steps
# takes under half a second on a 2-core Xeon; one that sweeps every step
# (eps near 2, or no finite frequency) about two seconds
_MAX_SCAN = 10**8
# highest section order: the weights are fractions over powers of m!, so
# the cap bounds their time (about a second at 2*10^4 for a support of rank 1)
_MAX_ORDER = 2 * 10**4
# most quadrature panels: the weights are closed forms, O(1) per term
# whatever the count, so the cap only keeps it an integer a double holds
_MAX_STEPS = 2**53

# ------------------------------------------------------------ rational basis


class RationalBasis:
    """Echelon family spanning a list of exact sums (frequencies, or
    dilation indices) over the rationals.

    The basis is the subsequence of inputs that were independent when
    first seen.  One elimination, ``_reduce``, builds the basis and
    answers ``coords_of``; each echelon row keeps its expansion as a
    sparse dict keyed by basis position, and the coordinates of the
    inputs are kept from construction.  Coordinates over an independent
    family are unique, so any nonzero entry of a reduced vector serves
    as its pivot.
    """

    __slots__ = ("basis", "_rows", "_coords")

    def __init__(self, freqs: list[Frequency] | list[DilationIndex]):
        basis: list = []
        # each row: (pivot key, reduced sum, expansion {basis position: q})
        self._rows: list[tuple[object, object, dict]] = []
        self._coords: dict = {}
        for f in freqs:
            reduced, combo = self._reduce(f)
            if not reduced.is_zero():
                expansion = {j: -q for j, q in combo.items()}
                expansion[len(basis)] = Fraction(1)
                self._rows.append((reduced.terms[0][0], reduced, expansion))
                combo = {len(basis): Fraction(1)}
                basis.append(f)
            self._coords[f] = combo
        self.basis = tuple(basis)

    def _reduce(self, f):
        """The remainder of f against the rows, a sum of f's kind, and the
        combination of basis vectors taken away."""
        rem = f
        combo: dict = {}
        for pivot, red, expansion in self._rows:
            head = rem.coefficient(pivot)
            if head:
                factor = head / red.coefficient(pivot)
                rem = rem - red.scale(factor)
                for j, q in expansion.items():
                    combo[j] = combo.get(j, _ZERO) + factor * q
        return rem, combo

    def __len__(self) -> int:
        return len(self.basis)

    def coords_of(self, f: Frequency | DilationIndex):
        """Exact coordinates over the basis, or None if outside the span."""
        combo = self._coords.get(f)
        if combo is None:
            rem, combo = self._reduce(f)
            if not rem.is_zero():
                return None
        return tuple(combo.get(j, _ZERO) for j in range(len(self.basis)))

    def numeric(self, table: AtomTable) -> list[float]:
        return [b.numeric(table) for b in self.basis]


rational_basis = RationalBasis


# --------------------------------------------------------- weighted sections


@dataclass(frozen=True)
class BFSpec:
    m: int
    grading: Axis = Axis.TRANSLATION

    def __post_init__(self):
        object.__setattr__(self, "m", _count(self.m, "section order m", 1, _MAX_ORDER))
        object.__setattr__(self, "grading", Axis.parse(self.grading))


def _support_indices(x: Element, axis: Axis) -> list:
    return list(dict.fromkeys(axis.index(key) for key, _ in x.sorted_terms()))


def support_basis(x: Element, grading) -> RationalBasis:
    return rational_basis(_support_indices(x, Axis.parse(grading)))


def _section_weight(coords, fac: int) -> Fraction:
    """prod_j (1 - |nu_j|/(m!)^2) over the lattice points nu = m! coords,
    or 0 when a coordinate misses the order-m lattice."""
    big = fac * fac
    weight = Fraction(1)
    for c in coords:
        nu = c * fac
        n = abs(nu.numerator)
        if nu.denominator != 1 or n >= big:
            return Fraction(0)
        weight *= Fraction(big - n, big)
    return weight


def section_weights(x: Element, spec: BFSpec) -> dict:
    """Section weight per distinct support index, as exact fractions.

    The one pass of a section: the support basis along the spec's
    grading (BasisTooShort when it has more than m vectors), then each
    index's weight read off its lattice coordinates.  A weight is 0
    exactly when the index misses the order-m lattice.
    """
    indices = _support_indices(x, spec.grading)
    basis = rational_basis(indices)
    if len(basis) > spec.m:
        raise BasisTooShort(
            f"support spans {len(basis)} independent directions, "
            f"section order is {spec.m}"
        )
    fac = math.factorial(spec.m)
    return {idx: _section_weight(basis.coords_of(idx), fac) for idx in indices}


def _weighted(x: Element, axis: Axis, weights: dict) -> Element:
    """x with each coefficient times its index's weight; weight 0 drops the term."""
    scaled = ((key, coeff, weights[axis.index(key)]) for key, coeff in x.terms.items())
    return Element({key: coeff.times_rational(w) for key, coeff, w in scaled if w})


def bochner_fejer(x: Element, spec: BFSpec) -> Element:
    """Weighted section of x along the grading of the given spec.

    Terms keep their keys; each coefficient is scaled by its index's
    ``section_weights`` entry.  Support points whose coordinates miss
    the order-m lattice have weight 0 and are dropped, as the weighted
    sum defines.
    """
    return _weighted(x, spec.grading, section_weights(x, spec))


def bf_report(x: Element, grading, m_values, table: AtomTable = DEFAULT_TABLE):
    """Convergence rows (m, weights, l1 error) for the CLI table, one
    weight pass per order."""
    rows = []
    for m in m_values:
        spec = BFSpec(m, grading)
        weights = section_weights(x, spec)
        err = (x - _weighted(x, spec.grading, weights)).l1_norm(table)
        rows.append({"m": m, "weights": weights, "l1_error": err})
    return rows


# ------------------------------------------------------------- gauge twists


def gauge(x: Element, grading, theta, table: AtomTable = DEFAULT_TABLE) -> Element:
    """Twist each coefficient by the unimodular e^{i theta * index}.

    On E and Z the phase is the symbolic product theta * index, one
    ``PhaseExponent.product`` that reads no table, so the twist is a
    homomorphism on the V-free part for every value of the atoms.  On H
    it is ``AxisMap(v_angle=theta)``, which rotates by theta times the
    exact value of t over the declared doubles.
    """
    axis = Axis.parse(grading)
    theta_q = _frac(theta)
    if axis is Axis.DILATION:
        return AxisMap(v_angle=theta_q)(x, table)
    theta_f = Frequency.rational(theta_q)
    # a rotation keeps every key and every nonzero coefficient
    return Element._canonical(
        {key: c.rotate(PhaseExponent.product(theta_f, axis.index(key))) for key, c in x.terms.items()}
    )


def cesaro_mean(
    x: Element,
    grading,
    s,
    T: float,
    steps: int = 4096,
    table: AtomTable = DEFAULT_TABLE,
) -> Element:
    """Trapezoid quadrature of the gauge integral at grading index s.

    Converges to the coefficient map at s with error of order 1/T; the
    result carries the stripped keys of the matching axis map.  Each
    coefficient is scaled in place by the exact binary value of its
    double weight (``Scalar.times_rational``), and a weight of 0 drops
    its term.
    """
    axis = Axis.parse(grading)
    if not T > 0:
        raise InvalidParameter("averaging length T must be positive")
    if T == math.inf:
        raise InvalidParameter("averaging length T must be finite")
    steps = _count(steps, "quadrature panels", 2, _MAX_STEPS)
    s = axis.as_index(s)
    axis.check_support(x)
    s_num = s.numeric(table)

    entries = [(axis.strip(key), coeff) for key, coeff in x.terms.items()]
    deltas = [axis.index(key).numeric(table) - s_num for key in x.terms]
    from . import _kernels

    weights = _kernels.phase_mean_weights(deltas, float(T), int(steps))
    return Element(
        (stripped, coeff.times_rational(w))
        for (stripped, coeff), w in zip(entries, weights.tolist())
    )


# ---------------------------------------------------------- summation kernel


def bf_kernel_many(basis: RationalBasis, m: int, ts, table: AtomTable = DEFAULT_TABLE):
    if _count(m, "kernel order m", 1) > len(basis):
        raise BasisTooShort(f"kernel order {m} exceeds basis length {len(basis)}")
    from . import _kernels

    betas = [b.numeric(table) for b in basis.basis[:m]]
    return _kernels.bf_kernel_values(ts, betas, math.factorial(m))


# --------------------------------------------------------------- recurrence


def _recurrence_hits(freqs, eps: float, limit: int):
    """The validated scan: (ms, devs) below eps for M in [1, limit], chunk
    by chunk in scan order."""
    if not eps > 0:
        raise InvalidParameter("tolerance must be positive")
    limit = _count(limit, "scan limit", 1, _MAX_SCAN)
    from . import _kernels

    return _kernels.recurrence_hits(list(freqs), eps, limit)


def _no_recurrence(eps: float, limit: int) -> NotFound:
    return NotFound(
        f"no recurrence time up to {int(limit)} at tolerance {eps}; "
        "raise the limit or loosen the tolerance"
    )


def recurrence_schedule(freqs, eps: float, limit: int) -> list[int]:
    """The successive minima of max_f |e^{i f M} - 1| below eps for M in
    [1, limit]: recurrence times with strictly improving deviation, in
    scan order.  A hit beats every earlier step at or above eps, so the
    running minimum runs over the hits only, and over a chunk's hits
    below the best so far."""
    ms: list[int] = []
    best = math.inf
    for hits, devs in _recurrence_hits(freqs, eps, limit):
        below = devs < best
        for m, dev in zip(hits[below].tolist(), devs[below].tolist()):
            if dev < best:
                ms.append(m)
                best = dev
    if not ms:
        raise _no_recurrence(eps, limit)
    return ms


def recurrence_search(freqs, eps: float, limit: int) -> int:
    """Smallest integer M in [1, limit] with |e^{i f M} - 1| < eps for all
    f: the head of the schedule, since the first deviation below eps is a
    successive minimum.  The scan stops at that first hit."""
    for hits, _ in _recurrence_hits(freqs, eps, limit):
        return int(hits[0])
    raise _no_recurrence(eps, limit)

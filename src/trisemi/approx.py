"""Almost periodic approximation tools.

Rational basis extraction by exact elimination, weighted sections with
factorial lattice weights, summation kernels, numeric gauge twists,
Cesaro means by trapezoid quadrature, and recurrence time search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Axis, Element
from .errors import (
    BasisTooShort,
    InvalidParameter,
    NonIntegerLattice,
    NotFound,
)
from .exactnum import (
    AtomTable,
    DilationIndex,
    Frequency,
    Scalar,
    _frac,
)


# ------------------------------------------------------------ rational basis


class RationalBasis:
    """Echelon family spanning a list of exact sums (frequencies, or
    dilation indices) over the rationals.

    The basis is the subsequence of inputs that were independent when
    first seen; every input, and any later query in the span, gets an
    exact coordinate vector.  Coordinates over an independent family are
    unique, so any nonzero entry of a reduced vector serves as its pivot.
    """

    __slots__ = ("basis", "coords", "_rows")

    def __init__(self, freqs: list[Frequency] | list[DilationIndex]):
        basis: list = []
        # each row: (pivot key, reduced dict, expansion over current basis)
        rows: list[tuple[object, dict, list[Fraction]]] = []
        coords: dict = {}
        for f in freqs:
            reduced, combo = self._reduce(f.terms, rows, len(basis))
            if reduced:
                pivot = next(iter(reduced))
                expansion = [-c for c in combo] + [Fraction(1)]
                for i in range(len(rows)):
                    p, r, e = rows[i]
                    rows[i] = (p, r, e + [Fraction(0)])
                rows.append((pivot, reduced, expansion))
                basis.append(f)
                combo = [Fraction(0)] * (len(basis) - 1) + [Fraction(1)]
            if f.key() not in coords:
                coords[f.key()] = tuple(combo) + (Fraction(0),) * (
                    len(basis) - len(combo)
                )
        self.basis = tuple(basis)
        self._rows = rows
        # pad early vectors to the final dimension
        k = len(basis)
        self.coords = {
            key: tuple(c) + (Fraction(0),) * (k - len(c))
            for key, c in coords.items()
        }

    @staticmethod
    def _reduce(terms: tuple, rows, width: int):
        rem = dict(terms)
        combo = [Fraction(0)] * width
        for idx, (pivot, red, expansion) in enumerate(rows):
            if pivot in rem and rem[pivot]:
                factor = rem[pivot] / red[pivot]
                for atom, q in red.items():
                    val = rem.get(atom, Fraction(0)) - factor * q
                    if val:
                        rem[atom] = val
                    else:
                        rem.pop(atom, None)
                for j, e in enumerate(expansion):
                    combo[j] += factor * e
        return rem, combo

    def __len__(self) -> int:
        return len(self.basis)

    def coords_of(self, f: Frequency | DilationIndex):
        """Exact coordinates over the basis, or None if outside the span."""
        hit = self.coords.get(f.key())
        if hit is not None:
            return hit
        rem, combo = self._reduce(f.terms, self._rows, len(self.basis))
        if rem:
            return None
        return tuple(combo)

    def numeric(self, table: AtomTable) -> list[float]:
        return [b.numeric(table) for b in self.basis]


def rational_basis(freqs: list[Frequency] | list[DilationIndex]) -> RationalBasis:
    return RationalBasis(list(freqs))


# --------------------------------------------------------- weighted sections


@dataclass(frozen=True)
class BFSpec:
    m: int
    grading: Axis = Axis.TRANSLATION

    def __post_init__(self):
        if self.m < 1:
            raise InvalidParameter("section order m must be at least 1")
        object.__setattr__(self, "grading", Axis.parse(self.grading))


def support_basis(x: Element, grading) -> RationalBasis:
    axis = Axis.parse(grading)
    return rational_basis(list(dict.fromkeys(axis.index(key) for key, _ in x.sorted_terms())))


def _section_weight(coords, fac: int, strict: bool) -> Fraction:
    big = fac * fac
    weight = Fraction(1)
    for c in coords:
        nu = c * fac
        if nu.denominator != 1:
            if strict:
                raise NonIntegerLattice(
                    f"coordinate {c} times {fac} is not an integer"
                )
            return Fraction(0)
        n = abs(int(nu))
        if n >= big:
            if strict:
                raise NonIntegerLattice(
                    f"lattice point {n} outside the bound {big}"
                )
            return Fraction(0)
        weight *= Fraction(big - n, big)
    return weight


def _section_setup(x: Element, spec: BFSpec) -> tuple[RationalBasis, int]:
    """The support basis of x along the spec's grading, checked to fit the
    section order, and the lattice factor m!."""
    basis = support_basis(x, spec.grading)
    if len(basis) > spec.m:
        raise BasisTooShort(
            f"support spans {len(basis)} independent directions, "
            f"section order is {spec.m}"
        )
    return basis, math.factorial(spec.m)


def bochner_fejer(x: Element, spec: BFSpec, strict: bool = False) -> Element:
    """Weighted section of x along the grading of the given spec.

    Terms keep their keys; each coefficient is scaled by the exact
    product weight read off the term's lattice coordinates.  Support
    points whose coordinates miss the order-m lattice are dropped, or
    rejected when strict is set.
    """
    basis, fac = _section_setup(x, spec)
    out: dict = {}
    for key, coeff in x.terms.items():
        coords = basis.coords_of(spec.grading.index(key))
        weight = _section_weight(coords, fac, strict)
        if weight:
            out[key] = coeff * Scalar.from_rational(weight)
    return Element(out)


def section_weights(x: Element, spec: BFSpec) -> dict:
    """Surviving weight per support index, as exact fractions."""
    basis, fac = _section_setup(x, spec)
    out = {}
    for key, _ in x.sorted_terms():
        idx = spec.grading.index(key)
        if idx in out:
            continue
        out[idx] = _section_weight(basis.coords_of(idx), fac, strict=False)
    return out


def bf_report(x: Element, grading, m_values, table: AtomTable | None = None):
    """Convergence rows (m, weights, l1 error) for the CLI table."""
    table = table or AtomTable.default()
    rows = []
    for m in m_values:
        spec = BFSpec(m, grading)
        image = bochner_fejer(x, spec)
        weights = section_weights(x, spec)
        err = (x - image).l1_norm(table)
        rows.append({"m": m, "weights": weights, "l1_error": err})
    return rows


# ------------------------------------------------------------- gauge twists


def gauge(x: Element, grading, theta, table: AtomTable | None = None) -> Element:
    """Twist each coefficient by the unimodular e^{i theta * index}.

    Angles are exact rational multiples whenever the grading index has
    an exact numeric value (always true for dilation indices and for
    exponent-free frequencies), so the twist is then a homomorphism on
    the nose; otherwise the angle rounds through a double.
    """
    axis = Axis.parse(grading)
    table = table or AtomTable.default()
    theta_q = _frac(theta)
    out: dict = {}
    for key, coeff in x.terms.items():
        idx = axis.index(key)
        exact = idx.exact_numeric(table)
        if exact is not None:
            angle = theta_q * exact
        else:
            angle = _frac(float(theta_q) * idx.numeric(table))
        out[key] = coeff * Scalar.rational_angle(angle)
    return Element(out)


def cesaro_mean(
    x: Element,
    grading,
    s,
    T: float,
    steps: int = 4096,
    table: AtomTable | None = None,
) -> Element:
    """Trapezoid quadrature of the gauge integral at grading index s.

    Converges to the coefficient map at s with error of order 1/T; the
    result carries the stripped keys of the matching axis map.
    """
    axis = Axis.parse(grading)
    table = table or AtomTable.default()
    if not T > 0:
        raise InvalidParameter("averaging length T must be positive")
    if T == math.inf:
        raise InvalidParameter("averaging length T must be finite")
    if steps < 2:
        raise InvalidParameter("need at least two quadrature panels")
    s = axis.as_index(s)
    axis.check_support(x)
    s_num = s.numeric(table)

    entries = [(axis.strip(key), coeff) for key, coeff in x.terms.items()]
    deltas = [axis.index(key).numeric(table) - s_num for key in x.terms]
    if not entries:
        return Element.zero()
    from . import _kernels

    weights = _kernels.phase_mean_weights(deltas, float(T), int(steps))
    return Element(
        (stripped, coeff * Scalar.from_rational(_frac(float(w))))
        for (stripped, coeff), w in zip(entries, weights)
    )


# ---------------------------------------------------------- summation kernel


def bf_kernel(
    basis: RationalBasis, m: int, t: float, table: AtomTable | None = None
) -> float:
    return float(bf_kernel_many(basis, m, [t], table)[0])


def bf_kernel_many(
    basis: RationalBasis, m: int, ts, table: AtomTable | None = None
):
    if m < 1:
        raise InvalidParameter("kernel order m must be at least 1")
    if m > len(basis):
        raise BasisTooShort(
            f"kernel order {m} exceeds basis length {len(basis)}"
        )
    from . import _kernels

    table = table or AtomTable.default()
    betas = [b.numeric(table) for b in basis.basis[:m]]
    return _kernels.bf_kernel_values(ts, betas, math.factorial(m))


# --------------------------------------------------------------- recurrence


def _recurrence_devs(freqs, eps: float, limit: int):
    """Deviations max_f |e^{i f M} - 1| for M = 1..limit as a numpy
    array, after the parameter checks shared by the recurrence searches."""
    if eps <= 0:
        raise InvalidParameter("tolerance must be positive")
    limit = int(limit)
    if limit < 1:
        raise InvalidParameter("scan limit must be at least 1")
    from . import _kernels

    return _kernels.recurrence_devs(list(freqs), limit)


def _no_recurrence(eps: float, limit: int) -> NotFound:
    return NotFound(
        f"no recurrence time up to {int(limit)} at tolerance {eps}; "
        "raise the limit or loosen the tolerance"
    )


def recurrence_search(freqs, eps: float, limit: int) -> int:
    """Smallest integer M in [1, limit] with |e^{i f M} - 1| < eps for all f."""
    hits = (_recurrence_devs(freqs, eps, limit) < eps).nonzero()[0]
    if hits.size == 0:
        raise _no_recurrence(eps, limit)
    return int(hits[0]) + 1


def recurrence_schedule(freqs, eps: float, limit: int) -> list[int]:
    """Recurrence times with strictly improving deviation, in scan order."""
    devs = _recurrence_devs(freqs, eps, limit)
    from . import _kernels

    flags = _kernels.successive_minima(devs, eps)
    ms = (flags.nonzero()[0] + 1).tolist()
    if not ms:
        raise _no_recurrence(eps, limit)
    return [int(m) for m in ms]

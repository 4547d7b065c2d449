"""Independent references the benchmark checks trisemi's outputs against.

Nothing here calls into trisemi: the references work from plain numbers,
exact fractions, mpmath, and the documented text form of coefficients.
"""

from __future__ import annotations

import math
import re

import mpmath as mp
import numpy as np

MP_DPS = 50


# ------------------------------------------------------ chain products (mp)
# An element with only M and D factors is a dict from (lam, mu) to an mpc
# coefficient, where lam and mu are tuples of exact coefficients over the
# atom basis.  M(a)D(b) * M(c)D(d) = e^{-i c.b} M(a+c)D(b+d), the exchange
# relation M(l)D(m) = e^{ilm} D(m)M(l) read right to left.


def mp_atoms(values: dict[str, float], basis: tuple[str, ...]) -> list:
    """Atom values at MP_DPS digits, taken from the program's float table
    so that reference and program evaluate the same numbers."""
    return [mp.mpf(1) if name == "ONE" else mp.mpf(values[name]) for name in basis]


def mp_dot(u: tuple, v: tuple, atoms: list):
    x = sum((mp.mpf(q.numerator) / q.denominator * a for q, a in zip(u, atoms)), mp.mpf(0))
    y = sum((mp.mpf(q.numerator) / q.denominator * a for q, a in zip(v, atoms)), mp.mpf(0))
    return x * y


def mp_product(x: dict, y: dict, atoms: list) -> dict:
    out: dict = {}
    for (a, b), cx in x.items():
        for (c, d), cy in y.items():
            key = (tuple(p + q for p, q in zip(a, c)), tuple(p + q for p, q in zip(b, d)))
            out[key] = out.get(key, 0) + cx * cy * mp.expj(-mp_dot(c, b, atoms))
    return out


def certificate_multiplier(lam: tuple, s: tuple, atoms: list):
    """1 / (1 - e^{-i lam s}), the commutator-certificate coefficient."""
    return 1 / (1 - mp.expj(-mp_dot(lam, s, atoms)))


# ------------------------------------------- coefficient text at mp precision

_NUMBER = re.compile(r"(?<![A-Za-z0-9_])\d+")
_TEXT_CHARS = re.compile(r"^[\sA-Za-z0-9_()*/+\-.]*$")


def eval_scalar_text(text: str, atom_values: dict[str, float]):
    """Value of a printed coefficient such as
    ``(1 - exp(i*5/2*s2))/(2 + exp(i*s2*s3))`` at MP_DPS digits.

    The printed form is the package's documented exact syntax; every
    integer literal becomes an mpf so rationals stay exact to MP_DPS.
    """
    if not _TEXT_CHARS.match(text) or "__" in text:
        raise ValueError(f"unexpected coefficient text {text!r}")
    expr = _NUMBER.sub(lambda m: f"F({m.group(0)})", text)
    names = {name: mp.mpf(v) for name, v in atom_values.items()}
    names.update({"F": mp.mpf, "exp": mp.exp, "i": mp.mpc(0, 1)})
    return mp.mpc(eval(expr, {"__builtins__": {}}, names))


# ------------------------------------------------------------- closed forms


def fejer_product(ts: np.ndarray, betas: np.ndarray, fac: int) -> np.ndarray:
    """prod_j (1/N)(sin(N x_j/2)/sin(x_j/2))^2 with x_j = t beta_j / fac and
    N = fac^2, the closed form of the order-m Bochner-Fejer kernel; the
    removable singularity at x_j in 2 pi Z takes the value N."""
    big = fac * fac
    out = np.ones_like(ts)
    for beta in betas:
        x = ts * beta / fac
        half = np.sin(x / 2)
        near = np.abs(half) < 1e-7
        safe = np.where(near, 1.0, half)
        val = np.sin(big * x / 2) ** 2 / (big * safe * safe)
        out = out * np.where(near, float(big), val)
    return out


def cesaro_weight(delta: float, T: float, steps: int) -> complex:
    """(h/2T) sin(T delta) cot(h delta/2): the trapezoid mean of e^{i t delta}
    over [-T, T] with `steps` panels of width h = 2T/steps."""
    h = 2.0 * T / steps
    half = h * delta / 2
    if abs(math.sin(half)) < 1e-12:
        return 1.0 + 0j
    return complex(h / (2 * T) * math.sin(T * delta) / math.tan(half))


def recurrence_devs(freqs, ms: np.ndarray) -> np.ndarray:
    """max_f |e^{i f m} - 1| at each m, by the complex exponential."""
    ms = np.asarray(ms, dtype=float)
    out = np.zeros(ms.shape)
    for f in freqs:
        out = np.maximum(out, np.abs(np.exp(1j * f * ms) - 1.0))
    return out


def packet_values(packets, xs) -> np.ndarray:
    """Pointwise values of a Gaussian packet sum, amp*exp(-a(x-b)^2 + icx),
    from the packets' public parameters."""
    xs = np.asarray(xs, dtype=float)
    total = np.zeros(xs.shape, dtype=complex)
    for p in packets:
        total += p.amp * np.exp(-p.a * (xs - p.b) ** 2 + 1j * p.c * xs)
    return total


"""Shared generators, a high-precision inner product and an exact packet
orbit for the tests.

Norms of tiny differences between packet sums cannot be trusted in
double precision: the bilinear expansion of ||f - g||^2 cancels down to
the sqrt(eps) noise floor (~1e-8) even when the true residual is 1e-13.
mp_norm evaluates the same closed form at 40 digits so that residual
assertions below 1e-10 measure the actual gap, not the arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath as mp

from trisemi import (
    D,
    DilationIndex,
    Element,
    Frequency,
    GaussianPacket,
    M,
    PacketSum,
    PhaseExponent,
    Sc,
    Scalar,
    V,
    exactnum,
)

MP_DPS = 40
_I = mp.mpc(0, 1)


def _mpc(z) -> mp.mpc:
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def mp_inner(f: PacketSum, g: PacketSum) -> mp.mpc:
    """<f, g> via the closed form, evaluated at MP_DPS digits."""
    with mp.workdps(MP_DPS):
        total = mp.mpc(0)
        for pk in f.packets:
            for qk in g.packets:
                a1, b1, c1 = _mpc(pk.a), _mpc(pk.b), _mpc(pk.c)
                a2, b2, c2 = mp.conj(_mpc(qk.a)), mp.conj(_mpc(qk.b)), mp.conj(_mpc(qk.c))
                p = a1 + a2
                q = 2 * a1 * b1 + 2 * a2 * b2 + _I * (c1 - c2)
                r = -(a1 * b1 * b1 + a2 * b2 * b2)
                amp = _mpc(pk.amp) * mp.conj(_mpc(qk.amp))
                total += amp * mp.sqrt(mp.pi / p) * mp.exp(q * q / (4 * p) + r)
        return total


def mp_norm(f: PacketSum) -> mp.mpf:
    with mp.workdps(MP_DPS):
        v = mp.re(mp_inner(f, f))
        return mp.sqrt(v) if v > 0 else mp.mpf(0)


def mp_diff_norm(f: PacketSum, g: PacketSum) -> float:
    return float(mp_norm(f - g))


# ------------------------------------------------------------ exact orbit

# f0(x) = e^{-x^2/2}: the packet (T, b, c) = (0, 0, 0) with coefficient 1
F0 = {(DilationIndex.zero(), Frequency.zero(), Frequency.zero()): Scalar.one()}


def orbit(x: Element, packets: dict = F0) -> dict:
    """x applied exactly to a sum of packets on the orbit of f0.

    A packet e^{T/2} A exp(-1/2 e^{2T} (x - b)^2 + icx) is the item
    (T, b, c): A, with T a DilationIndex, b and c Frequencies and A a
    nonzero Scalar.  A term A' M(lam) D(mu) V(t) acts on it by l2sim's
    own parameter maps, rightmost first:
    - V(t) sends (T, b, c) to (T + t, e^{-t} b, e^t c);
    - D(mu) sends b to b + mu and multiplies A by e^{-i c mu};
    - M(lam) sends c to c + lam, and the coefficient multiplies A by A'.
    Packets that land on one key add, and zero sums drop.  Gaussians of
    distinct parameters are linearly independent and x f0 has one packet
    per term of x, so two elements act alike on the orbit exactly when
    their packet dicts are equal.
    """
    out: dict = {}
    for (lam, mu, t), coeff in x.terms.items():
        for (big_t, b, c), amp in packets.items():
            c = c.scale_exp(t)
            amp = (coeff * amp).rotate(PhaseExponent.product(c, -mu))
            key = (big_t + t, b.scale_exp(-t) + mu, c + lam)
            out[key] = out[key] + amp if key in out else amp
    return {key: amp for key, amp in out.items() if not amp.is_zero()}


def reduced_product(c1: Scalar, c2: Scalar) -> Scalar:
    """c1 * c2 with the numerators multiplied out and reduced over the
    merged factors every time, never skipping the reduction: the
    reference for the Scalar product."""
    merged = dict(c1.factors)
    for f, m in c2.factors:
        merged[f] = merged.get(f, 0) + m
    return Scalar._reduce(c1.num * c2.num, tuple(sorted(merged.items(), key=exactnum._factor_order)))


# ---------------------------------------------------------------- generic


def generic(i: int, coeff: Scalar = Scalar.one()) -> Element:
    """coeff M(l_i) D(m_i) V(h_i), with the undeclared atoms l_i and m_i
    and the undeclared dilation symbol h_i.  mul, adjoint and AxisMap
    read no atom table, so these act as free symbols, and a law that
    holds exactly on generic monomials holds for every value of the
    parameters, as long as the engine branches on the shape of a
    coefficient and never on a value."""
    word = [M(Frequency.atom(f"l{i}")), D(Frequency.atom(f"m{i}")), V(DilationIndex.single(f"h{i}", 1))]
    return Element.from_word([Sc(coeff), *word])


# ----------------------------------------------------------------- random


ATOMS = ("s2", "s3")
DIL_SYMS = ("h",)


def random_fraction(rng: random.Random, max_num=6, max_den=4, nonneg=False) -> Fraction:
    lo = 0 if nonneg else -max_num
    return Fraction(rng.randint(lo, max_num), rng.randint(1, max_den))


def random_frequency(
    rng: random.Random,
    atoms=ATOMS,
    nonneg=False,
    allow_atoms=True,
    max_parts=2,
) -> Frequency:
    pairs = []
    for _ in range(rng.randint(1, max_parts)):
        use_atom = allow_atoms and atoms and rng.random() < 0.4
        base = rng.choice(atoms) if use_atom else "ONE"
        q = random_fraction(rng, nonneg=nonneg)
        pairs.append((base, q))
    total = Frequency.zero()
    for base, q in pairs:
        total = total + Frequency.atom(base, q)
    return total


def random_dilation(
    rng: random.Random, syms=DIL_SYMS, nonneg=False, allow_syms=True
) -> DilationIndex:
    if allow_syms and syms and rng.random() < 0.3:
        return DilationIndex.single(rng.choice(syms), random_fraction(rng, 3, 2, nonneg))
    return DilationIndex.unit(random_fraction(rng, 3, 2, nonneg))


def random_scalar(rng: random.Random, single_phase=False) -> Scalar:
    if single_phase:
        # pure rational or pure imaginary amplitude: exact modulus
        q = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice((1, -1))
        amp = Scalar.gaussian(q, 0) if rng.random() < 0.5 else Scalar.gaussian(0, q)
    else:
        amp = Scalar.gaussian(random_fraction(rng), random_fraction(rng))
        if amp.is_zero():
            amp = Scalar.one()
    if rng.random() < 0.5:
        amp = amp * Scalar.rational_angle(random_fraction(rng))
    return amp


def random_monomial(
    rng: random.Random,
    nonneg=False,
    with_v=True,
    single_phase=False,
    atoms=ATOMS,
    syms=DIL_SYMS,
) -> Element:
    word = [Sc(random_scalar(rng, single_phase))]
    if rng.random() < 0.85:
        word.append(M(random_frequency(rng, atoms, nonneg)))
    if rng.random() < 0.85:
        word.append(D(random_frequency(rng, atoms, nonneg)))
    if with_v and rng.random() < 0.6:
        word.append(V(random_dilation(rng, syms, nonneg)))
    return Element.from_word(word)


def random_element(
    rng: random.Random,
    max_terms=5,
    nonneg=False,
    with_v=True,
    single_phase=False,
    atoms=ATOMS,
    syms=DIL_SYMS,
) -> Element:
    x = Element.zero()
    for _ in range(rng.randint(1, max_terms)):
        x = x + random_monomial(rng, nonneg, with_v, single_phase, atoms, syms)
    return x


def random_ap_element(rng: random.Random, max_terms=5, atoms=ATOMS) -> Element:
    """Nonnegative frequencies, no dilation part."""
    return random_element(rng, max_terms, nonneg=True, with_v=False, atoms=atoms)


def random_z_element(rng: random.Random, max_terms=4, atoms=ATOMS) -> Element:
    """Nonnegative frequencies with integer dilation powers: the domain of
    the disc-point character families."""
    x = Element.zero()
    for _ in range(rng.randint(1, max_terms)):
        word = [Sc(random_scalar(rng))]
        if rng.random() < 0.85:
            word.append(M(random_frequency(rng, atoms, nonneg=True)))
        if rng.random() < 0.85:
            word.append(D(random_frequency(rng, atoms, nonneg=True)))
        if rng.random() < 0.6:
            word.append(V(DilationIndex.unit(rng.randint(0, 3))))
        x = x + Element.from_word(word)
    return x


def random_lone_terms(rng: random.Random) -> Element:
    """One to three terms ±M(f)V(n) or ±D(f)V(n), n in 0..2: added to an
    element, they make its dilation side sums nonzero or cancel them."""
    x = Element.zero()
    for _ in range(rng.randint(1, 3)):
        f = Frequency.rational(rng.randint(1, 3))
        lone = Element.m(f) if rng.random() < 0.5 else Element.d(f)
        v = Element.v(DilationIndex.unit(rng.randint(0, 2)))
        x = x + (lone * v).scale(rng.choice((1, -1)))
    return x


def random_m_poly(rng: random.Random, max_terms=4, nonneg=True) -> Element:
    """Pure multiplication polynomial."""
    x = Element.zero()
    for _ in range(rng.randint(1, max_terms)):
        x = x + Element.m(random_frequency(rng, nonneg=nonneg)).scale(
            random_scalar(rng)
        )
    return x


def random_word(rng: random.Random, length: int, nonneg=False):
    letters = []
    for _ in range(length):
        kind = rng.randrange(4)
        if kind == 0:
            letters.append(M(random_frequency(rng, nonneg=nonneg)))
        elif kind == 1:
            letters.append(D(random_frequency(rng, nonneg=nonneg)))
        elif kind == 2:
            letters.append(V(random_dilation(rng, nonneg=nonneg)))
        else:
            letters.append(Sc(random_scalar(rng)))
    return letters


def random_packet(rng: random.Random) -> GaussianPacket:
    return GaussianPacket(
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) or 1.0,
        rng.uniform(0.2, 2.5),
        rng.uniform(-3, 3),
        rng.uniform(-3, 3),
    )


def random_packet_sum(rng: random.Random, max_packets=2) -> PacketSum:
    return PacketSum(random_packet(rng) for _ in range(rng.randint(1, max_packets)))

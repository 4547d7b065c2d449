"""Seeded input generators for the benchmark workloads.

The distributions follow the ones the test suite samples from (term
counts, fraction ranges, atom and dilation-symbol probabilities), but
live here so that edits to the tests cannot silently change what the
benchmark measures.  Every function takes an explicit ``random.Random``;
nothing reads global random state.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from trisemi import (
    D,
    AtomTable,
    DilationIndex,
    Element,
    Frequency,
    GaussianPacket,
    M,
    PacketSum,
    Sc,
    Scalar,
    V,
)

ATOMS = ("s2", "s3")
DIL_SYMS = ("h",)
# s5 gives the fourth rationally independent direction that an order-4
# Bochner-Fejer kernel needs; the ring-law inputs never draw it.
ATOM_VALUES = {"s2": math.sqrt(2), "s3": math.sqrt(3), "s5": math.sqrt(5)}
DIL_VALUES = {"h": 0.5}


def atom_table() -> AtomTable:
    return AtomTable(dict(ATOM_VALUES), dict(DIL_VALUES))


def fraction(rng: random.Random, max_num=6, max_den=4, nonneg=False) -> Fraction:
    lo = 0 if nonneg else -max_num
    return Fraction(rng.randint(lo, max_num), rng.randint(1, max_den))


def frequency(rng: random.Random, atoms=ATOMS, nonneg=False, max_parts=2) -> Frequency:
    total = Frequency.zero()
    for _ in range(rng.randint(1, max_parts)):
        base = rng.choice(atoms) if atoms and rng.random() < 0.4 else "ONE"
        total = total + Frequency.atom(base, fraction(rng, nonneg=nonneg))
    return total


def dilation(rng: random.Random, nonneg=False) -> DilationIndex:
    if rng.random() < 0.3:
        return DilationIndex.single(rng.choice(DIL_SYMS), fraction(rng, 3, 2, nonneg))
    return DilationIndex.unit(fraction(rng, 3, 2, nonneg))


def scalar(rng: random.Random) -> Scalar:
    amp = Scalar.gaussian(fraction(rng), fraction(rng))
    if amp.is_zero():
        amp = Scalar.one()
    if rng.random() < 0.5:
        amp = amp * Scalar.rational_angle(fraction(rng))
    return amp


def monomial(rng: random.Random, nonneg=False, with_v=True) -> Element:
    word = [Sc(scalar(rng))]
    if rng.random() < 0.85:
        word.append(M(frequency(rng, nonneg=nonneg)))
    if rng.random() < 0.85:
        word.append(D(frequency(rng, nonneg=nonneg)))
    if with_v and rng.random() < 0.6:
        word.append(V(dilation(rng, nonneg)))
    return Element.from_word(word)


def element(rng: random.Random, max_terms=5, nonneg=False, with_v=True) -> Element:
    x = Element.zero()
    for _ in range(rng.randint(1, max_terms)):
        x = x + monomial(rng, nonneg, with_v)
    return x


def ap_element(rng: random.Random, max_terms=5) -> Element:
    """Nonnegative frequencies, no dilation part."""
    return element(rng, max_terms, nonneg=True, with_v=False)


def z_element(rng: random.Random, max_terms=4) -> Element:
    """Nonnegative frequencies with integer dilation powers."""
    x = Element.zero()
    for _ in range(rng.randint(1, max_terms)):
        word = [Sc(scalar(rng))]
        if rng.random() < 0.85:
            word.append(M(frequency(rng, nonneg=True)))
        if rng.random() < 0.85:
            word.append(D(frequency(rng, nonneg=True)))
        if rng.random() < 0.6:
            word.append(V(DilationIndex.unit(rng.randint(0, 3))))
        x = x + Element.from_word(word)
    return x


def word(rng: random.Random, length: int) -> list:
    letters = []
    for _ in range(length):
        kind = rng.randrange(4)
        if kind == 0:
            letters.append(M(frequency(rng)))
        elif kind == 1:
            letters.append(D(frequency(rng)))
        elif kind == 2:
            letters.append(V(dilation(rng)))
        else:
            letters.append(Sc(scalar(rng)))
    return letters


def packet(rng: random.Random) -> GaussianPacket:
    return GaussianPacket(
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) or 1.0,
        rng.uniform(0.2, 2.5),
        rng.uniform(-3, 3),
        rng.uniform(-3, 3),
    )


def packet_sum(rng: random.Random, max_packets=2) -> PacketSum:
    return PacketSum(packet(rng) for _ in range(rng.randint(1, max_packets)))

"""Workload ``coeff-swell``: products whose coefficients grow.

Each chain draws nonzero frequencies lam and s (rational, s2 or s3
multiples), takes f from commutator_certificate(lam, s), and forms
P_k = f * (f + D(s))^k for k = 1..6.  A chain is seven ops: building and
verifying the certificate, then one op per step: a ``mul``, then
``Scalar.numeric`` of every coefficient of the product.

The reference is the same chain multiplied out in mpmath at 50 digits.
A coefficient whose float value misses the reference by more than 1e-9
relative fails the step.  The failure counts as known float drift when
the coefficient's exact printed form, evaluated at up to 400 digits,
still matches the reference; otherwise the output is wrong.
"""

from __future__ import annotations

import itertools
import operator
import random
from fractions import Fraction

import mpmath as mp
from trisemi import (
    Element,
    Frequency,
    FrequencyAtom,
    commutator_certificate,
    mul,
    scalar_text,
    verify_certificate,
)

import gen
import refs
from ops import DRIFT, Failure, Op, wrong
from sizes import coeff_size

BASIS = ("ONE", "s2", "s3")
DEPTH = 6
FLOAT_TOL = 1e-9
EXACT_TOL = mp.mpf("1e-15")  # exact coefficient vs reference, relative to the largest
ZERO_TOL = mp.mpf("1e-40")  # reference entries below this share of the largest are zero
EXACT_DPS = (50, 100, 200, 400)
PROBE_PAIRS = ((0, 1), (1, 2), (2, 3))


def _vec(f: Frequency) -> tuple:
    vec = tuple(f.coefficient(FrequencyAtom(b)) for b in BASIS)
    if _freq(vec) != f:
        raise ValueError(f"frequency {f!r} leaves the chain basis")
    return vec


def _freq(vec: tuple) -> Frequency:
    total = Frequency.zero()
    for b, q in zip(BASIS, vec):
        if q:
            total = total + Frequency.atom(b, q)
    return total


class CoeffSwell:
    name = "coeff-swell"

    def __init__(self, seed: int):
        self.rng = random.Random(f"coeff-swell:{seed}")
        self.table = gen.atom_table()
        self.values = dict(gen.ATOM_VALUES)
        mp.mp.dps = refs.MP_DPS
        self.atoms = refs.mp_atoms(self.values, BASIS)

    def _draw(self, i: int) -> tuple:
        """A nonzero multiple of basis atom i with a seeded rational factor."""
        q = Fraction(self.rng.randint(1, 6), self.rng.randint(1, 3)) * self.rng.choice((1, -1))
        return tuple(q if j == i else Fraction(0) for j in range(len(BASIS)))

    def ops(self):
        # chains cycle through the nine (lam, s) atom pairs, so every run
        # of a few seconds sees the same mix of atom pairings
        n = len(BASIS)
        for chain in itertools.count():
            lam, s = self._draw(chain % n), self._draw(chain // n % n)
            state, ref = {}, {}
            yield self._certificate(lam, s, state, ref)
            for k in range(1, DEPTH + 1):
                yield self._step(k, state, ref)

    def _values(self, tr, x: Element) -> list:
        values = [
            (key, c, tr.call("exactnum.Scalar.numeric", c.numeric, self.table))
            for key, c in x.terms.items()
        ]
        if tr.on:
            for _, c, _ in values:
                num, den = coeff_size(c)
                tr.high("exactnum.num_terms_max", num)
                tr.high("exactnum.den_terms_max", den)
        return values

    def _certificate(self, lam: tuple, s: tuple, state: dict, ref: dict) -> Op:
        def run(tr):
            cert = tr.call("ideals.commutator_certificate", commutator_certificate, _freq(lam), _freq(s))
            verified = tr.call("ideals.verify_certificate", verify_certificate, cert)
            state["p"] = cert.f
            state["g"] = cert.f + Element.d(_freq(s))
            return verified, self._values(tr, cert.f)

        def check(out):
            verified, values = out
            zero = (Fraction(0),) * len(BASIS)
            ref["p"] = {(lam, zero): refs.certificate_multiplier(lam, s, self.atoms)}
            ref["g"] = {**ref["p"], (zero, s): mp.mpc(1)}
            if not verified:
                return wrong("commutator certificate did not verify")
            return self._compare(values, ref["p"])

        return Op("certificate", run, check)

    def _step(self, k: int, state: dict, ref: dict) -> Op:
        def run(tr):
            state["p"] = tr.call(f"algebra.mul.d{k}", mul, state["p"], state["g"])
            return self._values(tr, state["p"])

        def check(values):
            ref["p"] = refs.mp_product(ref["p"], ref["g"], self.atoms)
            return self._compare(values, ref["p"])

        def probe(tr, out):
            if k != DEPTH:
                return
            coeffs = [c for _, c, _ in out]
            for i, j in PROBE_PAIRS:
                if j < len(coeffs):
                    tr.call("exactnum.Scalar.mul", operator.mul, coeffs[i], coeffs[j])
                    tr.call("exactnum.Scalar.add", operator.add, coeffs[i], coeffs[j])
                    tr.call("exactnum.Scalar.eq", operator.eq, coeffs[i], coeffs[j])

        return Op(f"step{k}", run, check, probe=probe)

    def _compare(self, values, expected: dict) -> Failure | None:
        scale = max(abs(v) for v in expected.values())
        expected = {key: v for key, v in expected.items() if abs(v) > scale * ZERO_TOL}
        got = {}
        for (lam, mu, t), c, z in values:
            if not t.is_zero():
                return wrong("chain product grew a dilation part")
            got[(_vec(lam), _vec(mu))] = (c, z)
        if set(got) != set(expected):
            return wrong("product support differs from the reference")
        drift = None
        for key, (c, z) in got.items():
            r = expected[key]
            if abs(mp.mpc(z) - r) <= FLOAT_TOL * abs(r):
                continue
            if not self._exact_matches(scalar_text(c, atomic=True), r, scale):
                return wrong("exact coefficient differs from the reference")
            rel = float(abs(mp.mpc(z) - r) / abs(r))
            if drift is None or rel > drift:
                drift = rel
        if drift is not None:
            return Failure(DRIFT, f"Scalar.numeric off by {drift:.3g} relative")
        return None

    def _exact_matches(self, text: str, r, scale) -> bool:
        """Evaluate the printed exact coefficient at rising precision: an
        uncancelled fraction can lose more than 50 digits to cancellation."""
        for dps in EXACT_DPS:
            with mp.workdps(dps):
                if abs(refs.eval_scalar_text(text, self.values) - r) <= EXACT_TOL * scale:
                    return True
        return False

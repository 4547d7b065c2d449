"""Workload ``numeric``: the float kernels, with the exact layer nearly idle.

A fixed cycle of twenty ops with seeded parameters: recurrence schedules
over 1-3 frequencies up to 1M and searches up to 200k, a Cesaro mean of a 64-term
element at T = 400 with 65536 panels, Bochner-Fejer kernels of order 3
and 4 on 4096 points, a norm lower bound, the column norm identity, a
WOT compression demo, and word-versus-normal-form actions on packets.

References: the kernels' closed forms (Fejer product, trapezoid Cesaro
weight), the complex-exponential recurrence deviation, the laws
recurrence_search([1.0], 0.05, 1e5) == 44 and norm_lower_bound <= l1
norm, and pointwise packet values computed from packet parameters.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
from trisemi import (
    DilationIndex,
    Element,
    Frequency,
    GaussianPacket,
    PacketSum,
    Scalar,
    apply_element,
    apply_word,
    cesaro_mean,
    column_norms,
    mul,
    norm_lower_bound,
    rational_basis,
    recurrence_schedule,
    recurrence_search,
    wot_compression_demo,
)
from trisemi.approx import bf_kernel_many

import calib
import gen
import refs
from ops import Op, expect, first_failure

SCHEDULE_LIMIT = 1_000_000
SEARCH_LIMIT = 200_000
RECURRENCE_EPS = {1: 0.02, 2: 0.1, 3: 0.3}
CESARO_TERMS, CESARO_T, CESARO_STEPS = 64, 400.0, 65536
KERNEL_POINTS = 4096
PACKET_POINTS = np.linspace(-6.0, 6.0, 25)
WOT_SCHEDULE = list(range(1, 13))


class NumericMix:
    name = "numeric"
    # the recurrence, Cesaro and kernel ops are array arithmetic (see calib.py)
    kernels = {"main": calib.slowdown, "array": calib.array_slowdown}

    def __init__(self, seed: int):
        self.rng = random.Random(f"numeric:{seed}")
        self.table = gen.atom_table()
        one = Frequency.rational(1)
        self.basis = rational_basis([one] + [Frequency.atom(a) for a in ("s2", "s3", "s5")])
        self.betas = np.array(self.basis.numeric(self.table))
        v1, v2 = Element.v(DilationIndex.unit(1)), Element.v(DilationIndex.unit(2))
        two = Frequency.rational(2)
        self.wot_element = (
            mul(Element.m(one), v1)
            + mul(Element.d(one), v1)
            + mul(Element.m(two), v2)
            + mul(Element.d(two), v2)
            + Element.m(one)
            + Element.d(one)
        )
        # Twenty ops per cycle, ordered cheap to dear: eight sub-millisecond
        # word actions and norm checks, an order-3 kernel, five WOT demos
        # (the median falls inside this block), a search, a schedule, an
        # order-4 kernel and three Cesaro means (the 90th percentile falls
        # inside this top block of four ~200 ms ops).
        self.cycle = (
            [self._word] * 4
            + [self._column_norms, self._norm_bound] * 2
            + [lambda: self._kernel(3)]
            + [self._wot] * 5
            + [self._search, self._schedule, lambda: self._kernel(4)]
            + [self._cesaro] * 3
        )
        self.freq_counts = [1, 2, 3]

    def ops(self):
        i = 0
        while True:
            yield self.cycle[i % len(self.cycle)]()
            i += 1

    def _freqs(self, n: int) -> list[float]:
        return [self.rng.uniform(0.1, 5.0) for _ in range(n)]

    # ------------------------------------------------------------- ops

    def _schedule(self) -> Op:
        n = self.freq_counts[0]
        self.freq_counts.append(self.freq_counts.pop(0))
        freqs, eps = self._freqs(n), RECURRENCE_EPS[n]
        probe = np.array(sorted(self.rng.sample(range(1, SCHEDULE_LIMIT + 1), 4096)))

        def run(tr):
            return tr.call("approx.recurrence_schedule", recurrence_schedule, freqs, eps, SCHEDULE_LIMIT)

        def check(ms):
            devs = refs.recurrence_devs(freqs, ms)
            if not (np.all(devs < eps) and np.all(np.diff(devs) < 0) and np.all(np.diff(ms) > 0)):
                return expect(False, "schedule entries are not improving recurrences")
            prefix = refs.recurrence_devs(freqs, np.arange(1, ms[0]))
            if np.any(prefix < eps):
                return expect(False, "schedule missed an earlier recurrence")
            # every sampled m must be beaten by the last entry at or before it
            at = np.searchsorted(ms, probe, side="right") - 1
            sampled = refs.recurrence_devs(freqs, probe)
            best = np.where(at >= 0, devs[np.maximum(at, 0)], np.inf)
            missed = (sampled < eps) & (sampled < best - 1e-12)
            return expect(not np.any(missed), "schedule missed a sampled improvement")

        return Op(f"recurrence_schedule.{n}", run, check, calibration="array")

    def _search(self) -> Op:
        n = self.rng.randint(1, 3)
        freqs, eps = self._freqs(n), RECURRENCE_EPS[n]

        def run(tr):
            found = tr.call("approx.recurrence_search", recurrence_search, freqs, eps, SEARCH_LIMIT)
            known = tr.call("approx.recurrence_search", recurrence_search, [1.0], 0.05, 10**5)
            return found, known

        def check(out):
            found, known = out
            devs = refs.recurrence_devs(freqs, np.arange(1, found + 1))
            return first_failure(
                expect(known == 44, "recurrence_search([1.0], 0.05, 1e5) != 44"),
                expect(devs[-1] < eps and not np.any(devs[:-1] < eps), "first recurrence is wrong"),
            )

        return Op("recurrence_search", run, check, calibration="array")

    def _cesaro(self) -> Op:
        x = Element.zero()
        for _ in range(CESARO_TERMS):
            lam = gen.frequency(self.rng, nonneg=True)
            mu = Frequency.rational(Fraction(self.rng.randint(0, 8), 2))
            x = x + mul(Element.m(lam), Element.d(mu)).scale(gen.scalar(self.rng))
        s = self.rng.choice(sorted({key[1] for key in x.terms}, key=lambda f: f.numeric(self.table)))

        def run(tr):
            return tr.call(
                "approx.cesaro_mean", cesaro_mean, x, "translation", s, CESARO_T, CESARO_STEPS, self.table
            )

        def check(mean):
            s_num = s.numeric(self.table)
            expected: dict = {}
            scale = 0.0
            for (lam, mu, _), coeff in x.terms.items():
                z = coeff.numeric(self.table)
                w = refs.cesaro_weight(mu.numeric(self.table) - s_num, CESARO_T, CESARO_STEPS)
                expected[lam] = expected.get(lam, 0) + z * w
                scale += abs(z)
            got = {lam: c.numeric(self.table) for (lam, _, _), c in mean.terms.items()}
            err = max(abs(got.get(lam, 0) - v) for lam, v in expected.items())
            extra = set(got) - set(expected)
            return expect(not extra and err <= 1e-9 * scale, f"Cesaro mean off the closed form by {err:.3g}")

        return Op("cesaro_mean", run, check, calibration="array")

    def _kernel(self, m: int) -> Op:
        ts = np.array([self.rng.uniform(-20.0, 20.0) for _ in range(KERNEL_POINTS)])

        def run(tr):
            return tr.call(f"approx.bf_kernel_many.m{m}", bf_kernel_many, self.basis, m, ts, self.table)

        def check(values):
            want = refs.fejer_product(ts, self.betas[:m], math.factorial(m))
            err = np.max(np.abs(np.asarray(values) - want)) / np.max(np.abs(want))
            return expect(err < 1e-9, f"order-{m} kernel off the Fejer closed form by {err:.3g}")

        return Op(f"bf_kernel_many.m{m}", run, check, calibration="array")

    def _word(self) -> Op:
        letters = gen.word(self.rng, self.rng.randint(1, 8))
        f = PacketSum.single(gen.packet(self.rng))

        def run(tr):
            normal = Element.from_word(letters)
            by_word = tr.call("l2sim.apply_word", apply_word, letters, f, self.table)
            by_normal = tr.call("l2sim.apply_element", apply_element, normal, f, self.table)
            return by_word, by_normal

        def check(out):
            a = refs.packet_values(out[0].packets, PACKET_POINTS)
            b = refs.packet_values(out[1].packets, PACKET_POINTS)
            scale = max(np.max(np.abs(a)), 1e-300)
            return expect(np.max(np.abs(a - b)) <= 1e-9 * scale, "word and normal form act differently")

        return Op("apply_word", run, check)

    def _norm_bound(self) -> Op:
        x = gen.element(self.rng, 3)
        seed = self.rng.randrange(2**31)

        def run(tr):
            return tr.call("l2sim.norm_lower_bound", norm_lower_bound, x, 64, seed, self.table)

        def check(bound):
            return expect(0 <= bound <= x.l1_norm(self.table) + 1e-8, "norm bound above the l1 norm")

        return Op("norm_lower_bound", run, check)

    def _column_norms(self) -> Op:
        grading = self.rng.choice(("translation", "dilation"))
        x = gen.element(self.rng, 3, with_v=(grading == "dilation"))
        xi = gen.packet_sum(self.rng, 2)

        def run(tr):
            return tr.call("l2sim.column_norms", column_norms, x, xi, grading, self.table)

        def check(out):
            lhs, rhs = out
            return expect(abs(lhs - rhs) < 1e-9 * x.l1_norm(self.table) ** 2, "column norm identity")

        return Op("column_norms", run, check)

    def _wot(self) -> Op:
        mode = self.rng.choice(("dilation-in", "dilation-out"))
        coeff = Scalar.gaussian(Fraction(self.rng.randint(1, 4)), Fraction(self.rng.randint(-2, 2)))
        x = self.wot_element.scale(coeff)
        f = PacketSum.single()
        g = PacketSum.single(GaussianPacket(amp=1.0, a=self.rng.uniform(0.5, 1.2), b=0.3, c=-0.2))

        def run(tr):
            return tr.call("l2sim.wot_compression_demo", wot_compression_demo, x, f, g, mode, WOT_SCHEDULE, self.table)

        def check(report):
            return first_failure(
                expect(len(report.values) == len(WOT_SCHEDULE), "one value per schedule step"),
                expect(report.relative_errors[-1] < 1e-2, "compressions do not approach the limit"),
            )

        return Op(f"wot.{mode}", run, check)

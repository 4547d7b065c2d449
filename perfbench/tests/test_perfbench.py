"""Tests of the benchmark itself: reproducible inputs, exact counts, and
failures that are counted rather than hidden.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import os
import random
import subprocess
from collections import deque

import mpmath as mp
import numpy as np
import pytest

import gen
import refs
import run
from cli_mix import CliMix
from laws import ExactLaws
from ops import CONTRACT, DRIFT, WRONG, Failure, Op
from swell import CoeffSwell
from tracer import NullTracer, Tracer
from trisemi import Scalar, element_text
from worker import measure

ROOT = run.ROOT


def _first_ops(workload, n):
    ops = workload.ops()
    return [next(ops) for _ in range(n)]


# ------------------------------------------------------------ reproducible


def test_generators_repeat_for_a_seed():
    def draw(seed):
        rng = random.Random(seed)
        return [element_text(gen.element(rng, 5)) for _ in range(20)]

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_workload_inputs_repeat_for_a_seed():
    def laws(seed):  # op 11 evaluates characters on seeded elements
        return [op.run(NullTracer()) for op in _first_ops(ExactLaws(seed), 12)]

    def swell(seed):
        outs = [op.run(NullTracer()) for op in _first_ops(CoeffSwell(seed), 7)]
        values = [outs[0][1]] + outs[1:]  # the certificate op also returns its verdict
        return [[z for _, _, z in v] for v in values]

    def cli_args(seed):
        mix, seen = CliMix(seed, ROOT), []
        mix._spawn = lambda args: seen.append(list(args))
        for op in _first_ops(mix, 10):
            op.run(NullTracer())
        return seen

    for draw in (laws, swell, cli_args):
        assert draw(3) == draw(3)
        assert draw(3) != draw(4)


def test_traced_counts_repeat_for_a_seed():
    first = run._worker("coeff-swell", 5, "fixed", ops=14, trace=1)
    second = run._worker("coeff-swell", 5, "fixed", ops=14, trace=1)
    for key in ("counts", "highs", "failures", "kinds"):
        assert first[key] == second[key]
    assert first["highs"]["exactnum.num_terms_max"] > 1


# --------------------------------------------------------- failures count


def _measure(ops):
    return measure(deque(ops), iter(()), NullTracer(), lambda n: n >= len(ops))


def test_measure_counts_raised_and_failed_checks():
    def boom(tr):
        raise ZeroDivisionError("planted")

    ops = [
        Op("ok", lambda tr: 1, lambda out: None),
        Op("raises", boom, lambda out: None),
        Op("wrong", lambda tr: 1, lambda out: Failure(WRONG, "planted")),
        Op("drift", lambda tr: 1, lambda out: Failure(DRIFT, "planted")),
        Op("unreadable", lambda tr: 1, lambda out: out["missing"]),
    ]
    stats = _measure(ops)
    assert stats["attempted"] == 5
    assert stats["failed"] == 4
    assert stats["unexpected"] == 3  # drift is a known defect, the rest are not
    assert stats["failures"] == {WRONG: 3, DRIFT: 1}


def test_planted_wrong_coefficient_fails():
    ops = _first_ops(CoeffSwell(2), 3)
    ops[0].check(ops[0].run(NullTracer()))
    ops[1].check(ops[1].run(NullTracer()))
    values = ops[2].run(NullTracer())
    key, c, z = values[0]
    planted = [(key, c * Scalar.from_rational(2), 2 * z)] + values[1:]
    failure = ops[2].check(planted)
    assert failure is not None and failure.kind == WRONG


def test_planted_float_drift_fails():
    ops = _first_ops(CoeffSwell(2), 2)
    ops[0].check(ops[0].run(NullTracer()))
    values = ops[1].run(NullTracer())
    key, c, z = values[0]
    failure = ops[1].check([(key, c, z * (1 + 1e-6))] + values[1:])
    assert failure is not None and failure.kind == DRIFT


def test_equality_that_always_says_yes_fails():
    ring = _first_ops(ExactLaws(1), 1)[0]
    assert ring.check(ring.run(NullTracer())) is None
    failure = ring.check((True, True, True, True, True))
    assert failure is not None and failure.kind == WRONG


def _cli_with(proc):
    mix = CliMix(1, ROOT)
    mix._spawn = lambda args: proc
    return mix


def test_cli_traceback_is_counted():
    proc = subprocess.CompletedProcess([], 1, "", "Traceback (most recent call last):\nValueError: x\n")
    mix = _cli_with(proc)
    malformed = _first_ops(mix, 5)[4]
    tracer = Tracer()
    out = malformed.run(tracer)
    assert tracer.counts["cli.traceback"] == 1
    assert tracer.counts["cli.exit2_json"] == 0
    assert malformed.check(out).kind == CONTRACT


def test_cli_wrong_exit_code_fails():
    record = json.dumps({"error": {"code": "parse", "message": "x"}})
    mix = _cli_with(subprocess.CompletedProcess([], 2, "", record + "\n"))
    ops = _first_ops(mix, 5)
    assert ops[4].check(ops[4].run(NullTracer())) is None  # exit 2 with a record
    failure = ops[0].check(ops[0].run(NullTracer()))  # a well-formed op must exit 0
    assert failure is not None and failure.kind == WRONG
    no_record = subprocess.CompletedProcess([], 2, "", "usage: trisemi\n")
    assert ops[4].check(no_record).kind == CONTRACT


def test_cli_readme_example_end_to_end():
    mix = CliMix(1, ROOT)
    readme = _first_ops(mix, 2)[1]
    assert readme.kind == "normalize"
    assert readme.check(readme.run(NullTracer())) is None


# --------------------------------------------------------------- references


def test_fejer_closed_form_matches_the_sum():
    ts = np.linspace(-7.0, 7.0, 101)
    betas = np.array([1.0, math.sqrt(2)])
    fac = 2
    big = fac * fac
    brute = np.ones_like(ts)
    for beta in betas:
        acc = np.ones_like(ts)
        for v in range(1, big):
            acc += 2 * (1 - v / big) * np.cos(ts * v * beta / fac)
        brute *= acc
    assert np.allclose(refs.fejer_product(ts, betas, fac), brute, rtol=1e-12, atol=1e-12)


def test_cesaro_closed_form_matches_the_trapezoid():
    T, steps = 7.0, 64
    grid = np.linspace(-T, T, steps + 1)
    w = np.ones(steps + 1)
    w[0] = w[-1] = 0.5
    for delta in (0.0, 0.3, -1.7, 5.0):
        brute = (w * np.exp(1j * delta * grid)).sum() * (2 * T / steps) / (2 * T)
        assert abs(refs.cesaro_weight(delta, T, steps) - brute) < 1e-13


def test_scalar_text_evaluates_exactly():
    with mp.workdps(50):
        value = refs.eval_scalar_text("(1 - exp(i*5/2*s2))/(2 + 1/3*i)", {"s2": math.sqrt(2)})
        want = (1 - mp.expj(mp.mpf(5) / 2 * mp.mpf(math.sqrt(2)))) / (2 + mp.mpc(0, 1) / 3)
        assert abs(value - want) < mp.mpf("1e-45")


# ------------------------------------------------------------------ config


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_starts(workload):
    assert run._worker(workload, 1, "setup")["setup_s"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_run_length_is_whole_blocks_and_depends_on_nothing_measured(workload):
    _, block = run.RUN_RATE[workload]
    for seconds in (1, 25, 60):
        n = run.run_ops(workload, seconds)
        assert n % block == 0 and n >= run.MIN_OPS
        assert run.run_ops(workload, seconds) == n
    assert run.run_ops(workload, 60) >= run.run_ops(workload, 25)


def test_slowdown_brackets_each_op():
    worker = {"slowdown_samples": {"main": [1.0, 2.0, 4.0]}, "calibrations": ["main"] * 3}
    # op i ran between the kernel runs after ops i-1 and i
    assert run._slowdowns(worker) == pytest.approx([1.0, 1.5, 3.0])


def test_each_op_is_divided_by_its_own_kernel():
    worker = {
        "slowdown_samples": {"main": [1.0, 2.0, 4.0], "array": [10.0, 20.0, 40.0]},
        "calibrations": ["main", "array", "main"],
    }
    assert run._slowdowns(worker) == pytest.approx([1.0, 15.0, 3.0])

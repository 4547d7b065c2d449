"""Run one workload in a fresh process and print its raw measurements.

Started by ``run.py``; not meant to be run by hand.  The process imports
trisemi from the checkout's ``src`` directory, builds the workload and its
first batch of inputs (the set-up), then either stops (``--mode setup``)
or runs exactly ``--ops`` ops (``--mode fixed``, optionally traced).  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter, deque

import calib
from ops import KNOWN, WRONG, Failure
from tracer import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BATCH = 16  # ops whose inputs are generated during set-up
SETUP_CALIBRATION = 30  # kernel runs after a set-up-only start-up
MAX_DETAILS = 5  # failure details kept per failure kind


def _import_trisemi():
    if not os.path.isfile(os.path.join(SRC, "trisemi", "__init__.py")):
        raise SystemExit(f"no trisemi sources under {SRC}")
    sys.path.insert(0, SRC)
    import trisemi

    if not os.path.realpath(trisemi.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"imported trisemi from {trisemi.__file__}, not from {SRC}")
    return trisemi


def _workload(name: str, seed: int):
    if name == "exact-laws":
        from laws import ExactLaws

        return ExactLaws(seed)
    if name == "coeff-swell":
        from swell import CoeffSwell

        return CoeffSwell(seed)
    if name == "numeric":
        from numeric_mix import NumericMix

        return NumericMix(seed)
    if name == "cli":
        from cli_mix import CliMix

        return CliMix(seed, ROOT)
    raise SystemExit(f"unknown workload {name!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "fixed"], required=True)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args(argv)

    trisemi = _import_trisemi()
    workload = _workload(args.workload, args.seed)
    ops = workload.ops()
    pending = deque(next(ops) for _ in range(BATCH))
    setup_s = time.monotonic() - args.spawned
    if args.mode == "setup":
        cal = [calib.slowdown() for _ in range(SETUP_CALIBRATION)]
        print(json.dumps({"setup_s": setup_s, "slowdown": sum(cal) / len(cal)}))
        return 0

    tracer = Tracer() if args.trace else NullTracer()
    stats = measure(pending, ops, tracer, lambda n: n >= args.ops, getattr(workload, "kernels", None))

    who = resource.RUSAGE_CHILDREN if getattr(workload, "rss_from_children", False) else resource.RUSAGE_SELF
    result = {
        **stats,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "env": _env(trisemi),
    }
    if tracer.on:
        from probe import probe_all

        result["extras"] = probe_all(tracer, ROOT)
        result["spans"] = tracer.summary()
        result["counts"] = dict(tracer.counts)
        result["highs"] = dict(tracer.highs)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.dump()}, fh)
    print(json.dumps(result))
    return 0


def measure(pending, ops, tracer, done, kernels=None) -> dict:
    """Run ops one at a time until ``done(ops_run)``; time each ``run``,
    then check its output and sample every calibration kernel in
    ``kernels`` (name -> slowdown(); both untimed), and tally failures by
    kind."""
    kernels = kernels or {"main": calib.slowdown}
    latencies, kinds, calibrations = [], [], []
    slowdowns: dict = {name: [] for name in kernels}
    failures: Counter = Counter()
    details = []
    while not done(len(latencies)):
        op = pending.popleft() if pending else next(ops)
        with tracer.op(op.kind):
            t0 = time.perf_counter()
            try:
                out, exc = op.run(tracer), None
            except Exception as e:  # an op that raises is a failed op, not a crash
                out, exc = None, e
            latencies.append(time.perf_counter() - t0)
        kinds.append(op.kind)
        calibrations.append(op.calibration)
        if exc is not None:
            failure = Failure(WRONG, f"{type(exc).__name__}: {exc}"[:300])
        else:
            try:
                failure = op.check(out)
            except Exception as e:  # output the check cannot read is wrong output
                failure = Failure(WRONG, f"check raised {type(e).__name__}: {e}"[:300])
            if tracer.on and op.probe is not None:
                op.probe(tracer, out)
        for name, slowdown in kernels.items():
            slowdowns[name].append(slowdown())
        if failure is not None:
            failures[failure.kind] += 1
            if sum(d["failure"] == failure.kind for d in details) < MAX_DETAILS:
                details.append({"op": len(kinds) - 1, "kind": op.kind, "failure": failure.kind,
                                "detail": failure.detail})
    return {
        "latencies_s": latencies,
        "kinds": kinds,
        "slowdown_samples": slowdowns,
        "calibrations": calibrations,
        "attempted": len(latencies),
        "failed": sum(failures.values()),
        "unexpected": sum(n for kind, n in failures.items() if kind not in KNOWN),
        "failures": dict(failures),
        "details": details,
    }


def _env(trisemi) -> dict:
    import mpmath
    import numpy

    from trisemi import _kernels

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "trisemi": trisemi.__version__,
        "backend": _kernels.active_backend(),
    }


if __name__ == "__main__":
    sys.exit(main())

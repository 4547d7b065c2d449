"""trisemi benchmark: one seeded workload, end-to-end or per-module metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-laws --seed 1 --seconds 25 --trace 0

Workloads: exact-laws, coeff-swell, numeric, cli (see perfbench/README.md).
Every workload runs in fresh worker processes, one op at a time.

``--trace 0`` reports the end-to-end metrics: set-up time is the median
of several fresh worker start-ups; the measured worker then runs the
number of ops that takes about ``--seconds`` on the reference host (see
``run_ops``), so a seed fixes every input and every verdict, and
``attempted`` and ``failed`` repeat exactly.  ``--trace 1`` runs a fixed number
of ops twice, untraced and traced, reports per-module span times and
counts from the traced run, and their ratio as the tracing overhead.
Times are divided by the calibrated slowdown measured around each op or
start-up (see calib.py); the raw values are kept in the record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the environment, goes to ``.perfbench/`` in the checkout.  Any error
exits non-zero without printing that line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("exact-laws", "coeff-swell", "numeric", "cli")
SETUP_SPAWNS = 5
WORKER_TIMEOUT_S = 150
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
# Measured runs: (ops per second of wall time on the reference host, block).
# A run is a whole number of blocks, the period of the workload's op
# pattern: 3 x 7 ring/analysis ops, 9 chains of 7 ops over the nine atom
# pairs, the 20-op numeric cycle, 5 CLI ops of which one is malformed.
RUN_RATE = {"exact-laws": (40.0, 21), "coeff-swell": (15.0, 63), "numeric": (16.0, 20), "cli": (2.5, 5)}
# Fixed op counts for traced runs, so that counts repeat exactly per seed.
TRACE_OPS = {"exact-laws": 300, "coeff-swell": 49, "numeric": 60, "cli": 50}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

# (metric, unit, source): source is ("span", name, field), ("count", name),
# ("high", name), ("failures", kind), ("extra", name) or ("overhead",).
PER_LAYER = (
    ("algebra.mul.calls", "count", ("span", "algebra.mul", "calls")),
    ("algebra.mul.total_s", "s", ("span", "algebra.mul", "total_s")),
    ("algebra.adjoint.total_s", "s", ("span", "algebra.adjoint", "total_s")),
    ("algebra.Element.add.total_s", "s", ("span", "algebra.Element.add", "total_s")),
    ("algebra.Element.eq.total_s", "s", ("span", "algebra.Element.eq", "total_s")),
    ("algebra.apply_automorphism.total_s", "s", ("span", "algebra.apply_automorphism", "total_s")),
    ("ideals.in_ideal.total_s", "s", ("span", "ideals.in_ideal", "total_s")),
    ("ideals.quotient_defect.total_s", "s", ("span", "ideals.quotient_defect", "total_s")),
    ("characters.eval_character.total_s", "s", ("span", "characters.eval_character", "total_s")),
    ("characters.composite_eval.total_s", "s", ("span", "characters.composite_eval", "total_s")),
    ("approx.bochner_fejer.total_s", "s", ("span", "approx.bochner_fejer", "total_s")),
    ("approx.section_weights.total_s", "s", ("span", "approx.section_weights", "total_s")),
    ("algebra.product_terms", "count", ("count", "algebra.product_terms")),
    ("exactnum.coeff_terms_max", "count", ("high", "exactnum.coeff_terms_max")),
    *(
        (f"algebra.mul.d{k}_s", "s", ("span", f"algebra.mul.d{k}", "total_s"))
        for k in range(1, 7)
    ),
    ("exactnum.Scalar.numeric.total_s", "s", ("span", "exactnum.Scalar.numeric", "total_s")),
    ("exactnum.Scalar.mul.total_s", "s", ("span", "exactnum.Scalar.mul", "total_s")),
    ("exactnum.Scalar.add.total_s", "s", ("span", "exactnum.Scalar.add", "total_s")),
    ("exactnum.Scalar.eq.total_s", "s", ("span", "exactnum.Scalar.eq", "total_s")),
    ("ideals.commutator_certificate.total_s", "s", ("span", "ideals.commutator_certificate", "total_s")),
    ("ideals.verify_certificate.total_s", "s", ("span", "ideals.verify_certificate", "total_s")),
    ("exactnum.num_terms_max", "count", ("high", "exactnum.num_terms_max")),
    ("exactnum.den_terms_max", "count", ("high", "exactnum.den_terms_max")),
    ("exactnum.numeric_drift_fail", "count", ("failures", "numeric-drift")),
    ("approx.recurrence_schedule.total_s", "s", ("span", "approx.recurrence_schedule", "total_s")),
    ("approx.recurrence_search.total_s", "s", ("span", "approx.recurrence_search", "total_s")),
    ("approx.cesaro_mean.total_s", "s", ("span", "approx.cesaro_mean", "total_s")),
    ("approx.bf_kernel_many.m3_s", "s", ("span", "approx.bf_kernel_many.m3", "total_s")),
    ("approx.bf_kernel_many.m4_s", "s", ("span", "approx.bf_kernel_many.m4", "total_s")),
    ("l2sim.norm_lower_bound.total_s", "s", ("span", "l2sim.norm_lower_bound", "total_s")),
    ("l2sim.column_norms.total_s", "s", ("span", "l2sim.column_norms", "total_s")),
    ("l2sim.wot_compression_demo.total_s", "s", ("span", "l2sim.wot_compression_demo", "total_s")),
    ("l2sim.apply_element.total_s", "s", ("span", "l2sim.apply_element", "total_s")),
    ("l2sim.apply_word.total_s", "s", ("span", "l2sim.apply_word", "total_s")),
    ("cli.python_start_s", "s", ("extra", "cli.python_start_s")),
    ("cli.import_s", "s", ("extra", "cli.import_s")),
    ("cli.run.total_s", "s", ("span", "cli.run", "total_s")),
    ("exprs.parse_element.total_s", "s", ("span", "exprs.parse_element", "total_s")),
    ("exprs.element_text.total_s", "s", ("span", "exprs.element_text", "total_s")),
    ("config.load_config.total_s", "s", ("span", "config.load_config", "total_s")),
    ("cli.exit2_json", "count", ("count", "cli.exit2_json")),
    ("cli.traceback", "count", ("count", "cli.traceback")),
    ("bench.op.self_s", "s", ("op_self",)),
    ("bench.trace_overhead", "ratio", ("overhead",)),
)


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker(workload: str, seed: int, mode: str, **opts) -> dict:
    """Start worker.py in its own session, wait for it, parse its last line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    for key, value in opts.items():
        cmd += [f"--{key}", str(value)]
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} worker ({mode}) timed out after {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} worker ({mode}) printed nothing: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def _quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _slowdowns(worker: dict) -> list:
    """Per-op slowdown: the mean of the samples of the op's calibration
    kernel taken just before and just after the op (see calib.py).  The
    host's fast and slow phases last only a few ops, so a per-run mean
    would not follow them."""
    bracketed = {
        name: [(a + b) / 2 for a, b in zip(cal[:1] + cal[:-1], cal)]
        for name, cal in worker["slowdown_samples"].items()
    }
    return [bracketed[name][i] for i, name in enumerate(worker["calibrations"])]


def _timings(lat: list, setups: list) -> dict:
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * _quantile(lat, 0.9),
        "setup_s": statistics.median(setups),
    }


def run_ops(workload: str, seconds: float) -> int:
    """Ops in a measured run: about ``seconds`` of work on the reference
    host, in whole blocks, and at least MIN_OPS.  The count depends on
    nothing measured, so a seed fixes the inputs, the verdicts and the
    failed count of a run, however fast the machine is that day."""
    rate, block = RUN_RATE[workload]
    blocks = max(round(rate * seconds / block), -(-MIN_OPS // block))
    return blocks * block


def end_to_end(workload: str, seed: int, seconds: float):
    starts = [_worker(workload, seed, "setup") for _ in range(SETUP_SPAWNS)]
    run = _worker(workload, seed, "fixed", ops=run_ops(workload, seconds), trace=0)
    lat = run["latencies_s"]
    slow = _slowdowns(run)
    values = {
        **_timings([x / s for x, s in zip(lat, slow)],
                   [w["setup_s"] / w["slowdown"] for w in starts]),
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        "ok_ratio": (run["attempted"] - run["failed"]) / run["attempted"],
    }
    raw = _timings(lat, [w["setup_s"] for w in starts])
    by_kind: dict = {}
    for kind, x in zip(run["kinds"], lat):
        by_kind.setdefault(kind, []).append(x)
    notes = {
        "samples": len(lat),
        "beyond_p90": sum(1 for x in lat if 1e3 * x > raw["op_p90_ms"]),
        "mean_slowdown": statistics.mean(slow),
        "setup_slowdowns": [w["slowdown"] for w in starts],
        "raw": raw,
        "setup_samples_raw": [w["setup_s"] for w in starts],
        "median_ms_by_kind_raw": {
            k: [len(v), round(1e3 * statistics.median(v), 3)] for k, v in sorted(by_kind.items())
        },
    }
    return run, [run], values, dict(END_TO_END), notes


def _normalized_total(worker: dict) -> float:
    return sum(x / s for x, s in zip(worker["latencies_s"], _slowdowns(worker)))


def per_layer(workload: str, seed: int):
    n = TRACE_OPS[workload]
    base = _worker(workload, seed, "fixed", ops=n, trace=0)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_file = os.path.join(OUT_DIR, f"{workload}-seed{seed}-spans.json")
    traced = _worker(workload, seed, "fixed", ops=n, trace=1, spans=spans_file)
    slow = statistics.mean(_slowdowns(traced))
    values = {}
    for name, unit, source in PER_LAYER:
        kind = source[0]
        if kind == "span":
            value = traced["spans"].get(source[1], {}).get(source[2], 0)
        elif kind == "count":
            value = traced["counts"].get(source[1], 0)
        elif kind == "high":
            value = traced["highs"].get(source[1], 0)
        elif kind == "failures":
            value = traced["failures"].get(source[1], 0)
        elif kind == "extra":
            value = traced["extras"].get(source[1], 0.0)
        elif kind == "op_self":
            value = sum(row["self_s"] for key, row in traced["spans"].items() if key.startswith("op."))
        else:
            value = _normalized_total(traced) / _normalized_total(base)
        values[name] = value / slow if unit == "s" else value
    units = {name: unit for name, unit, _ in PER_LAYER}
    notes = {"ops": n, "mean_slowdown": slow, "spans_file": os.path.relpath(spans_file, ROOT)}
    return traced, [base, traced], values, units, notes


def environment(worker_env: dict) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "trisemi")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: _worker_env()[var] for var in THREAD_VARS},
        **worker_env,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "trisemi", "__init__.py")):
        print(f"no trisemi sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.trace:
            main_run, runs, values, units, notes = per_layer(args.workload, args.seed)
        else:
            main_run, runs, values, units, notes = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = environment(main_run["env"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "notes": notes, "failures": main_run["failures"], "failure_details": main_run["details"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, v in values.items():
        print(f"  {name:40s} {v:>14.6g} {units[name]}")
    print(f"  notes {json.dumps(notes)}")
    print(f"  failures {json.dumps(main_run['failures'])}")
    print(f"  env {json.dumps(env)}")
    print(json.dumps({
        "correct": all(r["unexpected"] == 0 for r in runs),
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

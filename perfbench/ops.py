"""The unit of work a workload hands to the timed loop.

An ``Op`` carries a timed ``run`` (the calls into trisemi), an untimed
``check`` that compares the output with an independent reference, and an
optional traced-only ``probe`` for per-module measurements that are not
part of the operation itself, and the name of the calibration kernel its
time is divided by (see calib.py).  An op whose ``run`` raises has failed.

A failed check returns a ``Failure``.  Its ``kind`` separates the defects
the package is known to have (``KNOWN``), which count as failed
operations but leave the run's output verdict alone, from anything else,
which marks the run incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Failure kinds for defects documented in ROADMAP.md: float evaluation of
# uncancelled coefficients (open item 4) and CLI inputs that end in a
# traceback instead of exit 2 with a JSON record (open item 5).
DRIFT = "numeric-drift"
CONTRACT = "cli-error-contract"
KNOWN = (DRIFT, CONTRACT)
WRONG = "wrong-output"


@dataclass(frozen=True)
class Failure:
    kind: str
    detail: str


@dataclass
class Op:
    kind: str
    run: Callable  # run(tracer) -> output, timed
    check: Callable  # check(output) -> Failure | None
    probe: Callable | None = None  # probe(tracer, output), traced runs only
    calibration: str = "main"  # which of the workload's kernels its time is divided by


def wrong(detail: str) -> Failure:
    return Failure(WRONG, detail)


def expect(cond: bool, detail: str) -> Failure | None:
    return None if cond else wrong(detail)


def first_failure(*failures) -> Failure | None:
    for f in failures:
        if f is not None:
            return f
    return None

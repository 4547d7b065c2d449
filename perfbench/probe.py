"""A traced run's closing probe: one small call into every traced entry point.

Each workload's ops exercise only some modules.  So that every per-module
time metric is measured on every workload, rather than reading a constant
zero, a traced run ends with this fixed probe: one call per span name on a
tiny fixed input.  Its cost is the floor a per-module time shows on a
workload that does not exercise that module.  The probe also times the
two process-level costs of the CLI: a bare interpreter start and a fresh
``import trisemi``.
"""

from __future__ import annotations

import contextlib
import io
import operator
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from trisemi import (
    AutomorphismSpec,
    BFSpec,
    DilationIndex,
    Element,
    Frequency,
    IdealId,
    M,
    PacketSum,
    Scalar,
    TripleCharacter,
    adjoint,
    apply_automorphism,
    apply_element,
    apply_word,
    bochner_fejer,
    cesaro_mean,
    column_norms,
    commutator_certificate,
    composite_eval,
    element_text,
    eval_character,
    in_ideal,
    load_config,
    mul,
    norm_lower_bound,
    parse_element,
    quotient_defect,
    rational_basis,
    recurrence_schedule,
    recurrence_search,
    section_weights,
    verify_certificate,
    wot_compression_demo,
)
from trisemi import cli as trisemi_cli
from trisemi.approx import bf_kernel_many

import gen

PROCESS_REPEATS = 5
IMPORT_TIMER = "import time; t = time.perf_counter(); import trisemi; print(time.perf_counter() - t)"


def _cli_run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return trisemi_cli.run(argv)


def probe_all(tr, root: str) -> dict:
    """Run the probe under ``tr``; return the process-level times."""
    table = gen.atom_table()
    one = Frequency.rational(1)
    x = Element.m(one) + Element.d(one)
    c = Scalar.rational_angle(Fraction(1, 2))
    f = PacketSum.single()
    basis = rational_basis([one] + [Frequency.atom(a) for a in ("s2", "s3", "s5")])
    spec = BFSpec(2, "translation")
    call = tr.call

    call("algebra.mul", mul, x, x)
    call("algebra.adjoint", adjoint, x)
    call("algebra.Element.add", operator.add, x, x)
    call("algebra.Element.eq", operator.eq, x, x)
    call("algebra.apply_automorphism", apply_automorphism, x, AutomorphismSpec(), table)
    call("ideals.in_ideal", in_ideal, x, IdealId.cp(), table)
    call("ideals.quotient_defect", quotient_defect, x)
    call("characters.eval_character", eval_character, TripleCharacter.chi_inf("Z"), x, table)
    call("characters.composite_eval", composite_eval, x, "m", None, table)
    call("approx.bochner_fejer", bochner_fejer, x, spec)
    call("approx.section_weights", section_weights, x, spec)
    power = x
    for k in range(1, 7):
        power = call(f"algebra.mul.d{k}", mul, power, x)
    call("exactnum.Scalar.numeric", c.numeric, table)
    call("exactnum.Scalar.mul", operator.mul, c, c)
    call("exactnum.Scalar.add", operator.add, c, c)
    call("exactnum.Scalar.eq", operator.eq, c, c)
    cert = call("ideals.commutator_certificate", commutator_certificate, one, one)
    call("ideals.verify_certificate", verify_certificate, cert)
    call("approx.recurrence_schedule", recurrence_schedule, [1.0], 0.05, 1000)
    call("approx.recurrence_search", recurrence_search, [1.0], 0.05, 1000)
    call("approx.cesaro_mean", cesaro_mean, x, "translation", one, 10.0, 64, table)
    call("approx.bf_kernel_many.m3", bf_kernel_many, basis, 3, [0.5], table)
    call("approx.bf_kernel_many.m4", bf_kernel_many, basis, 4, [0.5], table)
    call("l2sim.norm_lower_bound", norm_lower_bound, x, 4, 0, table)
    call("l2sim.column_norms", column_norms, x, f, "translation", table)
    y = x + mul(Element.m(one), Element.v(DilationIndex.unit(1)))
    call("l2sim.wot_compression_demo", wot_compression_demo, y, f, f, "dilation-in", [1, 2], table)
    call("l2sim.apply_element", apply_element, x, f, table)
    call("l2sim.apply_word", apply_word, [M(one)], f, table)
    call("cli.run", _cli_run, ["--json", "normalize", "D(1)*M(1)"])
    call("exprs.element_text", element_text, call("exprs.parse_element", parse_element, "D(1)*M(1)"))
    call("config.load_config", load_config, os.path.join(root, "perfbench", "bench.ini"))
    return _process_times(root)


def _process_times(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    starts, imports = [], []
    for _ in range(PROCESS_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
        starts.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=root, env=env,
                             capture_output=True, text=True, check=True)
        imports.append(float(out.stdout))
    return {"cli.python_start_s": statistics.median(starts), "cli.import_s": statistics.median(imports)}

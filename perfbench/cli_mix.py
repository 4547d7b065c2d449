"""Workload ``cli``: one ``python -m trisemi --json ...`` process per op.

Ops cycle through every subcommand with seeded expressions, the README
examples among them; every fifth op is the next malformed input from a
fixed rotation that includes the inputs ROADMAP open item 5 lists.  All runs use
the benchmark's INI file for the atom table.

Well-formed ops must exit 0 and print a payload that (a) equals what
the in-process ``trisemi.cli.run`` prints for the same arguments and (b)
passes a command-specific check against an independent result: the
library computation on the benchmark's own element objects, parsed back
exactly from the payload's element text, a closed form, or a law.
Malformed ops must exit 2 with a JSON error record on stderr; anything
else, a traceback above all, is a known error-contract failure.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
from trisemi import (
    AlgebraId,
    AutomorphismSpec,
    Axis,
    BohrCharacter,
    D,
    DilationIndex,
    DiscPoint,
    Element,
    Frequency,
    M,
    Sc,
    Scalar,
    TripleCharacter,
    V,
    adjoint,
    apply_automorphism,
    cesaro_mean,
    coeff_map,
    element_text,
    eval_character,
    gauge,
    load_config,
    mul,
    parse_element,
    support_predicate,
)
from trisemi import cli as trisemi_cli

import calib
import gen
import refs
from ops import CONTRACT, Failure, Op, expect, first_failure, wrong

CONFIG = os.path.join("perfbench", "bench.ini")
MALFORMED_EVERY = 5
TIMEOUT_S = 60
NESTING = 3000


# ------------------------------------------------------------ input text


def _signed(parts) -> str:
    """Join (q, name) parts as 'q*name + q' text; name None is a rational."""
    out = ""
    for q, name in parts:
        if q == 0:
            continue
        body = str(abs(q)) if name is None else f"{abs(q)}*{name}"
        if not out:
            out = ("-" if q < 0 else "") + body
        else:
            out += (" - " if q < 0 else " + ") + body
    return out or "0"


def _frequency(rng, nonneg=False):
    parts = []
    for _ in range(rng.randint(1, 2)):
        base = rng.choice(gen.ATOMS) if rng.random() < 0.4 else None
        parts.append((gen.fraction(rng, nonneg=nonneg), base))
    value = Frequency.zero()
    for q, base in parts:
        value = value + Frequency.atom(base or "ONE", q)
    return _signed(parts), value


def _dilation(rng):
    q = gen.fraction(rng, 3, 2)
    if rng.random() < 0.3:
        return _signed([(q, "h")]), DilationIndex.single("h", q)
    return _signed([(q, None)]), DilationIndex.unit(q)


def _scalar(rng):
    re_, im = gen.fraction(rng), gen.fraction(rng)
    if re_ == 0 and im == 0:
        re_ = Fraction(1)
    text, value = f"({re_} + {im}*i)", Scalar.gaussian(re_, im)
    if rng.random() < 0.5:
        angle = gen.fraction(rng)
        text += f"*exp(i*({angle}))"
        value = value * Scalar.rational_angle(angle)
    return text, value


def _element(rng, max_terms=3, nonneg=False, with_v=True, shifts=None):
    """Expression text and the same element built from generator objects.

    The text and frequency of every D factor are appended to ``shifts``
    when it is given, so a caller can ask for a fiber that exists."""
    texts, value = [], Element.zero()
    for _ in range(rng.randint(1, max_terms)):
        text, c = _scalar(rng)
        factors, word = [text], [Sc(c)]
        if rng.random() < 0.85:
            text, f = _frequency(rng, nonneg)
            factors.append(f"M({text})")
            word.append(M(f))
        if rng.random() < 0.85:
            text, f = _frequency(rng, nonneg)
            factors.append(f"D({text})")
            word.append(D(f))
            if shifts is not None:
                shifts.append((text, f))
        if with_v and rng.random() < 0.6:
            text, t = _dilation(rng)
            factors.append(f"V({text})")
            word.append(V(t))
        texts.append("*".join(factors))
        value = value + Element.from_word(word)
    return " + ".join(f"({t})" for t in texts), value


# ----------------------------------------------------------------- checks


def _same_element(payload, expected: Element):
    return expect(parse_element(payload["element"]) == expected, "element differs from the library result")


class CliMix:
    name = "cli"
    rss_from_children = True

    def __init__(self, seed: int, root: str):
        self.rng = random.Random(f"cli:{seed}")
        self.root = root
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.table = load_config(os.path.join(root, CONFIG)).table
        self.kernels = {"main": self.slowdown}
        self.bad_count = -1
        self.wellformed = [
            self._normalize, self._readme_normalize, self._mul, self._adjoint, self._coeff,
            self._support, self._bf, self._readme_bf, self._gauge, self._cesaro, self._kernel,
            self._recurrence, self._readme_recurrence, self._char_eval, self._ideal_test,
            self._readme_ideal, self._cert_commutator, self._cert_jt, self._auto_apply,
            self._flip_check, self._sim_residuals, self._sim_norm_bound, self._sim_wot,
            self._sim_column_identity, self._sim_fourier,
        ]

    def ops(self):
        i = 0
        while True:
            for _ in range(MALFORMED_EVERY - 1):
                args, check = self.wellformed[i % len(self.wellformed)]()
                yield self._op(args[0], args, check)
                i += 1
            yield self._malformed()

    # ----------------------------------------------------------- running

    def _argv(self, args):
        return ["--json", "--config", CONFIG, *args]

    def _spawn(self, args):
        return subprocess.run(
            [sys.executable, "-m", "trisemi", *self._argv(args)],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )

    def slowdown(self) -> float:
        """The calibration sample for process ops: a bare interpreter start."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=self.root, env=self.env, check=True)
        return (time.perf_counter() - t0) / calib.PROCESS_REF_S

    def _in_process(self, args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = trisemi_cli.run(self._argv(args))
        return code, out.getvalue()

    def _op(self, kind, args, check) -> Op:
        def run(tr):
            return self._spawn(args)

        def verify(proc):
            if proc.returncode != 0:
                return wrong(f"{kind} exited {proc.returncode}: {proc.stderr[-200:]!r}")
            payload = json.loads(proc.stdout)
            code, text = self._in_process(args)
            return first_failure(
                expect(code == 0 and _same_payload(json.loads(text), payload), f"{kind} payload differs in process"),
                check(payload),
            )

        return Op(kind, run, verify, probe=self._probe(args))

    def _malformed(self) -> Op:
        args = self._bad_args()

        def run(tr):
            proc = self._spawn(args)
            if tr.on:
                tr.add("cli.exit2_json", int(proc.returncode == 2 and _error_record(proc.stderr)))
                tr.add("cli.traceback", int("Traceback" in proc.stderr))
            return proc

        def verify(proc):
            if proc.returncode == 2 and _error_record(proc.stderr):
                return None
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            return Failure(CONTRACT, f"exit {proc.returncode}: {last[0][:120]}")

        return Op("malformed", run, verify, probe=self._probe(args))

    def _probe(self, args):
        """Traced-only: the same command in process, and the L4 helpers."""

        def probe(tr, _):
            tr.call("config.load_config", load_config, os.path.join(self.root, CONFIG))
            for text in args[1:]:
                if "(" in text:
                    with contextlib.suppress(Exception):
                        x = tr.call("exprs.parse_element", parse_element, text)
                        tr.call("exprs.element_text", element_text, x)
            with contextlib.suppress(Exception, SystemExit):
                tr.call("cli.run", self._in_process, args)

        return probe

    # ------------------------------------------------------ well-formed

    def _normalize(self):
        text, x = _element(self.rng)
        return ["normalize", text], lambda p: _same_element(p, x)

    def _readme_normalize(self):
        return ["normalize", "D(1)*M(1)"], lambda p: expect(
            p["element"] == "exp(-i*1) * M(1) * D(1)", "README normalize example"
        )

    def _mul(self):
        (a, x), (b, y) = _element(self.rng), _element(self.rng)
        return ["mul", a, b], lambda p: _same_element(p, mul(x, y))

    def _adjoint(self):
        text, x = _element(self.rng)
        return ["adjoint", text], lambda p: _same_element(p, adjoint(x))

    def _coeff(self):
        shifts = []
        text, x = _element(self.rng, with_v=False, shifts=shifts)
        mu_text, mu = self.rng.choice(shifts) if shifts else _frequency(self.rng)
        return ["coeff", "--axis", "E", f"--index={mu_text}", text], lambda p: _same_element(
            p, coeff_map(x, Axis.TRANSLATION, mu)
        )

    def _support(self):
        text, x = _element(self.rng)
        return ["support", "--algebra", "ap", text], lambda p: first_failure(
            expect(len(p["rows"]) == len(x.support()), "support size"),
            expect(p["member"] == support_predicate(x, AlgebraId.AP, self.table), "ap membership"),
        )

    def _bf(self):
        text, x = _element(self.rng, nonneg=True, with_v=False)
        return ["bf", "--m", "3,4", text], lambda p: expect(
            all(0 <= Fraction(w) <= 1 for row in p["rows"] for w in row["weights"].values()),
            "section weights outside [0, 1]",
        )

    def _readme_bf(self):
        return ["bf", "--m", "3", "D(1)"], lambda p: expect(
            p["rows"][0]["weights"] == {"1": "5/6"}, "README bf example"
        )

    def _gauge(self):
        text, x = _element(self.rng, with_v=False)
        theta = round(self.rng.uniform(-3, 3), 3)
        return ["gauge", "--theta", str(theta), text], lambda p: _same_element(
            p, gauge(x, "translation", theta, self.table)
        )

    def _cesaro(self):
        shifts = []
        text, x = _element(self.rng, with_v=False, shifts=shifts)
        mu_text, mu = self.rng.choice(shifts) if shifts else _frequency(self.rng)
        return ["cesaro", f"--index={mu_text}", "--T", "50", "--steps", "1024", text], lambda p: _same_element(
            p, cesaro_mean(x, "translation", mu, 50.0, 1024, self.table)
        )

    def _kernel(self):
        ts = [round(self.rng.uniform(-10, 10), 4) for _ in range(8)]
        betas = np.array([1.0, math.sqrt(2), math.sqrt(3)])

        def check(p):
            got = np.array([row["K"] for row in p["rows"]])
            want = refs.fejer_product(np.array(ts), betas, math.factorial(3))
            return expect(np.allclose(got, want, rtol=1e-9, atol=1e-9 * want.max()), "kernel closed form")

        return ["kernel", "--freqs", "1,s2,s3", "--m", "3", "--t=" + ",".join(map(str, ts))], check

    def _recurrence(self):
        freq = round(self.rng.uniform(0.1, 5.0), 4)

        def check(p):
            devs = refs.recurrence_devs([freq], np.arange(1, p["n"] + 1))
            return expect(devs[-1] < 0.05 and not np.any(devs[:-1] < 0.05), "first recurrence")

        return ["recurrence", "--freqs", str(freq), "--eps", "0.05", "--limit", "100000"], check

    def _readme_recurrence(self):
        return ["recurrence", "--freqs", "1", "--eps", "0.05", "--limit", "100000"], lambda p: expect(
            p["n"] == 44, "README recurrence example"
        )

    def _char_eval(self):
        text, x = _element(self.rng, nonneg=True, with_v=False)
        w = round(self.rng.uniform(-0.9, 0.9), 3)
        want = eval_character(TripleCharacter.d3(DiscPoint(complex(w, 0))), x, self.table)
        return ["char-eval", "--family", "d3", "--w", str(w), text], lambda p: expect(
            abs(complex(p["value"]["re"], p["value"]["im"]) - want) <= 1e-12 * max(1.0, abs(want)),
            "character value",
        )

    def _ideal_test(self):
        (a, _), (b, _) = (_element(self.rng, nonneg=True, with_v=False) for _ in range(2))
        text = f"({a})*({b}) - ({b})*({a})"
        return ["ideal-test", "--ideal", "cp", text], lambda p: expect(p["member"] is True, "commutator not in cp")

    def _readme_ideal(self):
        return ["ideal-test", "--ideal", "cph", "M(1)*V(1) - M(2)*V(1)"], lambda p: expect(
            p["member"] is True, "README ideal-test example"
        )

    def _cert_commutator(self):
        lam = Fraction(self.rng.randint(1, 6), self.rng.randint(1, 3))
        s = Fraction(self.rng.randint(1, 6), self.rng.randint(1, 3))

        def check(p):
            f = parse_element(p["multiplier"])
            ds = Element.d(Frequency.rational(s))
            return expect(mul(f, ds) - mul(ds, f) == parse_element(p["target"]), "certificate commutator")

        return ["cert-commutator", "--lam", str(lam), "--s", str(s)], check

    def _cert_jt(self):
        lam, t = round(self.rng.uniform(0.1, 10), 3), round(self.rng.uniform(0.1, 3), 3)
        return ["cert-jt", "--lam", str(lam), "--t", str(t)], lambda p: expect(p["verified"] is True, "jt certificate")

    def _auto_apply(self):
        text, x = _element(self.rng, nonneg=True)
        t = Fraction(self.rng.randint(-2, 2), self.rng.choice((1, 2)))
        theta = Fraction(self.rng.randint(-2, 2), self.rng.choice((1, 2, 3)))
        angle = Fraction(self.rng.randint(-3, 3), self.rng.choice((1, 2, 3)))
        spec = AutomorphismSpec(
            dil=DilationIndex.unit(t), mod_char=BohrCharacter({"s2": angle}), v_angle=theta
        )
        args = ["auto-apply", f"--t={t}", f"--theta={theta}", f"--angles=s2={angle}", text]
        return args, lambda p: _same_element(p, apply_automorphism(x, spec, self.table))

    def _flip_check(self):
        k1, k2 = round(self.rng.uniform(0.05, 20), 3), round(self.rng.uniform(0.05, 20), 3)
        return ["flip-check", "--k1", str(k1), "--k2", str(k2)], lambda p: expect(
            p["contradiction"] is True, "flip contradiction"
        )

    def _sim_residuals(self):
        lam, mu, t = (round(self.rng.uniform(-2, 2), 3) for _ in range(3))
        return ["sim-residuals", "--lam", str(lam), "--mu", str(mu), "--t", str(t)], lambda p: expect(
            all(row["residual"] < 1e-6 for row in p["rows"]), "relation residuals"
        )

    def _sim_norm_bound(self):
        text, x = _element(self.rng)
        seed = self.rng.randrange(1000)
        return ["sim-norm-bound", "--trials", "50", "--seed", str(seed), text], lambda p: expect(
            0 <= p["bound"] <= x.l1_norm(self.table) + 1e-8, "norm bound above the l1 norm"
        )

    def _sim_wot(self):
        c = self.rng.randint(1, 4)
        text = f"{c}*(M(1)*V(1) + D(1)*V(1) + M(2)*V(2) + D(2)*V(2) + M(1) + D(1))"
        mode = self.rng.choice(("dilation-in", "dilation-out"))
        return ["sim-wot", "--mode", mode, "--schedule", ",".join(map(str, range(1, 13))), text], lambda p: expect(
            p["steps"][-1]["relative"] < 1e-2, "compressions do not approach the limit"
        )

    def _sim_column_identity(self):
        text, x = _element(self.rng, with_v=False)
        return ["sim-column-identity", text], lambda p: expect(
            p["gap"] < 1e-9 * x.l1_norm(self.table) ** 2, "column norm identity"
        )

    def _sim_fourier(self):
        lam = round(self.rng.uniform(0.2, 3), 3)
        return ["sim-fourier", "--lam", str(lam)], lambda p: expect(p["residual"] < 1e-8, "Fourier conjugation")

    # ------------------------------------------------------- malformed

    def _bad_args(self):
        rng = self.rng
        n = rng.randint(1, 9)
        text, _ = _element(rng)
        item5 = [  # the inputs ROADMAP open item 5 lists
            ["cesaro", "--T", f"-{n}", "--index", "0", text],
            ["bf", "--m", "0", text],
            ["gauge", "--grading", "foo", "--theta", "1", text],
            ["recurrence", "--eps", "0.05", "--limit", "0"],
            ["sim-norm-bound", "--trials", "0", text],
            ["char-eval", "--family", "d3", "--w", str(n + 1), text],
            ["normalize", f"M({n}/0)"],
            ["normalize", f"V({n}/0)"],
            ["normalize", f"exp(i*{n}/0)"],
            ["normalize", f"M(s2@{{{n}/0}})"],
            ["normalize", "(" * NESTING + "M(1)" + ")" * NESTING],
            ["normalize", f"D({n})*V(1000)*M(1)"],
            ["sim-norm-bound", "V(1000)"],
        ]
        engine_errors = [  # inputs the engine rejects with an EngineError
            ["normalize", text + " +"],
            ["normalize", f"Q({n})"],
            ["normalize", f"M({n}"],
            ["mul", text, f"D({n}"],
            ["char-eval", "--family", "d1", "--y", f"{n}/0", text],
            ["kernel", "--freqs", "1,s2", "--m", "3", "--t", "0.5"],
            ["cert-commutator", "--lam", "0", "--s", str(n)],
            ["cert-jt", "--lam", f"-{n}", "--t", "1"],
            ["sim-wot", "--mode", "translation", "--schedule", str(n), text],
            ["support", "--algebra", "zz", text],
            ["recurrence", "--eps", "0.05", "--limit", "10"],
            ["ideal-test", "--ideal", "jt", text],
        ]
        # alternate the two lists so that any run sees both in equal share
        pool = [args for pair in itertools.zip_longest(item5, engine_errors) for args in pair if args]
        self.bad_count += 1
        return pool[self.bad_count % len(pool)]


def _same_payload(a, b) -> bool:
    """Equal JSON payloads, floats up to rounding: sums over sets run in
    hash order, which differs between processes, and a difference of two
    such sums (a reported gap or residual) can differ near 1e-16."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_payload(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same_payload(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return type(a) is type(b) and a == b


def _error_record(stderr: str) -> bool:
    lines = stderr.strip().splitlines()
    if not lines:
        return False
    try:
        record = json.loads(lines[-1])
    except ValueError:
        return False
    return isinstance(record, dict) and "code" in record.get("error", {})

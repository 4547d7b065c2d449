"""Command-line surface.

Every engine operation is a subcommand taking canonical expression
text (see exprs, parsed by the argument parser) plus flags.  Output is a human-readable
table by default or JSON with ``--json``; exact rationals are carried in
JSON as strings like ``"3/4"`` so nothing is rounded through doubles.
Errors print a machine-readable record to stderr and exit with code 2,
usage errors from argument parsing included.  Handlers read analysis
names through the package's lazy table (``trisemi.gauge``), so the exact
commands start without numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import warnings
from fractions import Fraction

import trisemi

from .algebra import (
    AlgebraId,
    Axis,
    AxisMap,
    Element,
    adjoint,
    check_flip_contradiction,
    coeff_map,
    mul,
    support_predicate,
)
from .config import GROUP_R, RunConfig, load_config
from .errors import EngineError, InvalidParameter, ParseError, UntrustedCharacterWarning
from .exactnum import BohrCharacter
from .exprs import (
    dil_text,
    element_text,
    freq_text,
    parse_dilation,
    parse_element,
    parse_frequency,
    rational_text,
    scalar_text,
)

__all__ = ["run"]


# ------------------------------------------------------------ serialization


def _cnum(z: complex) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _key_record(key) -> dict:
    lam, mu, t = key
    return {"m": freq_text(lam), "d": freq_text(mu), "v": dil_text(t)}


def _element_payload(x: Element, cfg: RunConfig) -> dict:
    terms = []
    for key, coeff in x.sorted_terms():
        val = coeff.numeric(cfg.table)
        terms.append(
            {
                "coeff": scalar_text(coeff, atomic=True),
                "coeff_value": _cnum(val),
                **_key_record(key),
            }
        )
    return {"element": element_text(x), "terms": terms}


# ------------------------------------------------------------- arg parsing


# The type functions raise ArgumentTypeError, whose text argparse prints;
# for a ValueError it prints "invalid <function name> value".
def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {text!r}") from None


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    try:
        return [_finite(p) for p in text.split(",") if p.strip()]
    except argparse.ArgumentTypeError:
        message = f"expected a comma list of finite numbers, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _freq_list(text: str) -> list:
    return [parse_frequency(p) for p in text.split(",") if p.strip()]


def _rational(text: str, what: str) -> Fraction:
    """The exact rational ``text``; ParseError names it as ``what``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{what} {text!r} is not a rational") from None


def _angles(text: str | None) -> BohrCharacter:
    """Parse ``atom=p/q,atom=p/q`` into a character with exact angles."""
    if not text:
        return BohrCharacter.trivial()
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, raw = part.partition("=")
        name = name.strip()
        if not eq or not name:
            raise ParseError(f"angle {part!r} is not of the form atom=value")
        pairs.append((name, _rational(raw, "angle value")))
    return BohrCharacter(pairs)


def _ap_point(y: str | None, angles: str | None) -> trisemi.APPoint:
    if y is not None and y.strip().lower() in ("inf", "infinity"):
        return trisemi.APPoint.infinity()
    decay = _rational(y, "decay") if y is not None else Fraction(0)
    return trisemi.APPoint.finite(_angles(angles), decay)


def _disc_w(text: str) -> complex:
    parts = [p.strip() for p in text.split(",")]
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ParseError(f"disc point {text!r} is not re or re,im")


def _build_character(args, cfg: RunConfig) -> trisemi.TripleCharacter:
    fam = args.family
    if fam in ("d1", "d2"):
        return getattr(trisemi.TripleCharacter, fam)(_ap_point(args.y, args.angles))
    if fam in ("d3", "d4", "chi0"):
        if args.w is None:
            v = trisemi.vanishing_point(cfg.group)
        elif cfg.group == GROUP_R:
            v = _ap_point(args.w, args.angles)
        else:
            v = trisemi.DiscPoint(_disc_w(args.w))
        return getattr(trisemi.TripleCharacter, fam)(v)
    if fam == "chi_inf":
        return trisemi.TripleCharacter.chi_inf(cfg.group)
    raise InvalidParameter(f"unknown character family {fam!r}")


# ---------------------------------------------------------------- handlers


def _cmd_normalize(args, cfg):
    return _element_payload(args.expr, cfg)


def _cmd_mul(args, cfg):
    return _element_payload(mul(args.left, args.right), cfg)


def _cmd_adjoint(args, cfg):
    return _element_payload(adjoint(args.expr), cfg)


def _cmd_coeff(args, cfg):
    axis = Axis.parse(args.axis)
    index = axis.parse_index(args.index)
    out = _element_payload(coeff_map(args.expr, axis, index), cfg)
    out["axis"] = axis.value
    out["index"] = args.index
    return out


def _cmd_support(args, cfg):
    out = {"rows": [_key_record(key) for key, _ in args.expr.sorted_terms()]}
    if args.algebra:
        algebra = AlgebraId.parse(args.algebra)
        out["algebra"] = algebra.value
        out["member"] = support_predicate(args.expr, algebra, cfg.table)
    return out


def _cmd_bf(args, cfg):
    report = trisemi.bf_report(args.expr, args.grading, args.m, cfg.table)
    axis = Axis.parse(args.grading)
    rows = []
    for entry in report:
        weights = {axis.index_text(idx): rational_text(w) for idx, w in entry["weights"].items()}
        rows.append({"m": entry["m"], "weights": weights, "l1_error": entry["l1_error"]})
    return {"grading": axis.grading, "rows": rows}


def _cmd_gauge(args, cfg):
    axis = Axis.parse(args.grading)
    out = _element_payload(trisemi.gauge(args.expr, axis, args.theta, cfg.table), cfg)
    out["grading"] = axis.grading
    return out


def _cmd_cesaro(args, cfg):
    axis = Axis.parse(args.grading)
    index = axis.parse_index(args.index)
    mean = trisemi.cesaro_mean(args.expr, axis, index, args.T, args.steps, cfg.table)
    out = _element_payload(mean, cfg)
    out.update({"grading": axis.grading, "index": args.index, "T": args.T, "steps": args.steps})
    return out


def _cmd_kernel(args, cfg):
    basis = trisemi.rational_basis(args.freqs)
    values = trisemi.approx.bf_kernel_many(basis, args.m, args.t, cfg.table)
    rows = [{"t": t, "K": float(v)} for t, v in zip(args.t, values)]
    return {
        "basis": [freq_text(b) for b in basis.basis],
        "m": args.m,
        "rows": rows,
    }


def _cmd_recurrence(args, cfg):
    numeric = [f.numeric(cfg.table) for f in args.freqs]
    out = {
        "freqs": [freq_text(f) for f in args.freqs],
        "eps": args.eps,
        "limit": args.limit,
    }
    if args.schedule:
        out["schedule"] = trisemi.recurrence_schedule(numeric, args.eps, args.limit)
    else:
        out["n"] = trisemi.recurrence_search(numeric, args.eps, args.limit)
    return out


def _cmd_char_eval(args, cfg):
    chi = _build_character(args, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = trisemi.eval_character(chi, args.expr, cfg.table)
    out = {"character": chi.describe(), "value": _cnum(value)}
    if any(issubclass(w.category, UntrustedCharacterWarning) for w in caught):
        out["warning"] = "untrusted character family"
    return out


def _cmd_ideal_test(args, cfg):
    ideal = trisemi.IdealId(args.ideal, args.t)
    member = trisemi.in_ideal(args.expr, ideal, cfg.table)
    out = {"ideal": args.ideal, "member": member}
    if args.t is not None:
        out["t"] = dil_text(args.t)
    return out


def _cmd_cert_commutator(args, cfg):
    return trisemi.certificate_dict(trisemi.commutator_certificate(args.lam, args.s))


def _cmd_cert_jt(args, cfg):
    return trisemi.certificate_dict(trisemi.jt_reduce(args.lam, args.t))


def _cmd_auto_apply(args, cfg):
    automorphism = AxisMap(
        dil=args.t,
        mod_char=_angles(args.angles),
        shift_char=_angles(args.shift_angles),
        v_angle=args.theta,
    )
    out = _element_payload(automorphism(args.expr, cfg.table), cfg)
    out["t"] = dil_text(args.t)
    out["theta"] = rational_text(args.theta)
    return out


def _cmd_flip_check(args, cfg):
    return dataclasses.asdict(check_flip_contradiction(args.k1, args.k2))


def _cmd_sim_residuals(args, cfg):
    f = trisemi.PacketSum.single(trisemi.GaussianPacket(1.0, 0.8, 0.3, -0.4))
    relations = [("weyl", [args.lam, args.mu]), ("dilM", [args.t, args.lam]),
                 ("dilD", [args.t, args.mu])]
    rows = [
        {"relation": rel, "params": params, "residual": trisemi.relation_residual(rel, params, f)}
        for rel, params in relations
    ]
    return {"rows": rows}


def _cmd_sim_norm_bound(args, cfg):
    seed = cfg.seed if args.seed is None else args.seed
    bound = trisemi.norm_lower_bound(args.expr, args.trials, seed, cfg.table)
    return {
        "bound": bound,
        "l1": args.expr.l1_norm(cfg.table),
        "trials": args.trials,
        "seed": seed,
    }


def _cmd_sim_wot(args, cfg):
    f = trisemi.PacketSum.single()
    g = trisemi.PacketSum.single(trisemi.GaussianPacket(1.0, 0.6, 0.2, 0.1))
    report = trisemi.wot_compression_demo(args.expr, f, g, args.mode, args.schedule, cfg.table)
    out = report.to_dict()
    out["limit_element"] = element_text(trisemi.wot_limit(args.expr, args.mode))
    return out


def _cmd_sim_column_identity(args, cfg):
    axis = Axis.parse(args.grading)
    xi = trisemi.PacketSum.single(trisemi.GaussianPacket(1.0, 0.9, 0.2, -0.5))
    lhs, rhs = trisemi.column_norms(args.expr, xi, axis, cfg.table)
    return {"grading": axis.grading, "lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs)}


def _cmd_sim_fourier(args, cfg):
    f = trisemi.PacketSum.single()
    g = trisemi.PacketSum.single(trisemi.GaussianPacket(1.0, 0.7, 0.4, -0.3))
    residual = trisemi.fourier_conjugation_check(args.lam, f, g, dual=args.dual)
    return {"lam": args.lam, "dual": args.dual, "residual": residual}


# ------------------------------------------------------------------ parser


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors as InvalidParameter, so `run` reports them
    as error records; subparsers inherit the class."""

    def error(self, message):
        raise InvalidParameter(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each call of ``run`` gets a fresh namespace."""
    top = _ArgumentParser(
        prog="trisemi",
        description="Exact engine for the multiplication-translation-dilation algebra.",
    )
    top.add_argument("--config", help="INI file with atoms, dilation symbols, options")
    top.add_argument("--json", action="store_true", help="emit JSON instead of tables")
    top.add_argument("--guard", type=float, default=None,
                     help="sign guard override (default from config, 1e-9)")
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = cmd("normalize", _cmd_normalize, "parse and print the canonical form")
    p.add_argument("expr", type=parse_element)

    p = cmd("mul", _cmd_mul, "product of two elements")
    p.add_argument("left", type=parse_element)
    p.add_argument("right", type=parse_element)

    p = cmd("adjoint", _cmd_adjoint, "adjoint of an element")
    p.add_argument("expr", type=parse_element)

    p = cmd("coeff", _cmd_coeff, "Fourier coefficient along one axis")
    p.add_argument("--axis", required=True, help="E, Z or H, or a grading name")
    p.add_argument("--index", required=True)
    p.add_argument("expr", type=parse_element)

    p = cmd("support", _cmd_support, "support triples, optionally membership")
    p.add_argument("--algebra", help="bp, ap, bph, aph or aph-adj")
    p.add_argument("expr", type=parse_element)

    p = cmd("bf", _cmd_bf, "Bochner-Fejer convergence table")
    p.add_argument("--m", type=_int_list, required=True, help="comma list of orders")
    p.add_argument("--grading", default="translation")
    p.add_argument("expr", type=parse_element)

    p = cmd("gauge", _cmd_gauge, "point evaluation of the gauge action")
    p.add_argument("--grading", default="translation")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("expr", type=parse_element)

    p = cmd("cesaro", _cmd_cesaro, "Cesaro mean extracting one grading fiber")
    p.add_argument("--grading", default="translation")
    p.add_argument("--index", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--steps", type=int, default=4096)
    p.add_argument("expr", type=parse_element)

    p = cmd("kernel", _cmd_kernel, "Bochner-Fejer kernel values")
    p.add_argument("--freqs", type=_freq_list, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=_float_list, required=True)

    p = cmd("recurrence", _cmd_recurrence, "almost-period search by scan")
    p.add_argument("--freqs", type=_freq_list, default=[parse_frequency("1")])
    p.add_argument("--eps", type=_finite, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--schedule", action="store_true",
                   help="emit all successive minima instead of the first hit")

    p = cmd("char-eval", _cmd_char_eval, "evaluate a character on an element")
    p.add_argument("--family", required=True, help="d1, d2, d3, d4, chi0 or chi_inf")
    p.add_argument("--y", help="decay, a rational or 'inf' (d1/d2)")
    p.add_argument("--angles", help="atom=p/q,... exact character angles")
    p.add_argument("--w", help="dilation point: re[,im] for Z, decay or 'inf' for R")
    p.add_argument("expr", type=parse_element)

    p = cmd("ideal-test", _cmd_ideal_test, "polynomial ideal membership")
    p.add_argument("--ideal", required=True, help="cp, cph, i0 or jt")
    p.add_argument("--t", type=parse_dilation, help="dilation step for jt")
    p.add_argument("expr", type=parse_element)

    p = cmd("cert-commutator", _cmd_cert_commutator,
            "exact f with f*D(s) - D(s)*f = M(lam)*D(s)")
    p.add_argument("--lam", type=parse_frequency, required=True)
    p.add_argument("--s", type=parse_frequency, required=True)

    p = cmd("cert-jt", _cmd_cert_jt, "telescoped J_t certificate for e^{i lam x} - e^{ix}")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--t", type=float, required=True)

    p = cmd("auto-apply", _cmd_auto_apply, "apply a twisted dilation automorphism")
    p.add_argument("--t", type=parse_dilation, default=parse_dilation("0"))
    p.add_argument("--theta", type=lambda text: _rational(text, "theta"), default=Fraction(0),
                   help="rational V-twist angle")
    p.add_argument("--angles", help="atom=p/q,... modulation twist")
    p.add_argument("--shift-angles", help="atom=p/q,... translation twist")
    p.add_argument("expr", type=parse_element)

    p = cmd("flip-check", _cmd_flip_check, "generator-exchange contradiction gaps")
    p.add_argument("--k1", type=float, required=True)
    p.add_argument("--k2", type=float, required=True)

    p = cmd("sim-residuals", _cmd_sim_residuals, "relation residuals on a packet")
    p.add_argument("--lam", type=_finite, default=1.0)
    p.add_argument("--mu", type=_finite, default=0.7)
    p.add_argument("--t", type=_finite, default=0.3)

    p = cmd("sim-norm-bound", _cmd_sim_norm_bound, "sampled lower bound for the norm")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("expr", type=parse_element)

    p = cmd("sim-wot", _cmd_sim_wot, "compression convergence toward the WOT limit")
    p.add_argument("--mode", required=True, help="translation, dilation-in or dilation-out")
    p.add_argument("--schedule", type=_int_list, required=True)
    p.add_argument("expr", type=parse_element)

    p = cmd("sim-column-identity", _cmd_sim_column_identity,
            "column norm identity for the left regular picture")
    p.add_argument("--grading", default="translation",
                   help="translation (E) or dilation (H)")
    p.add_argument("expr", type=parse_element)

    p = cmd("sim-fourier", _cmd_sim_fourier, "Fourier conjugation residual")
    p.add_argument("--lam", type=_finite, required=True)
    p.add_argument("--dual", action="store_true",
                   help="check the shift-to-modulation direction")

    return top


# ------------------------------------------------------------------ output


def _human_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, dict) and set(value) == {"re", "im"}:
        return f"{value['re']:.12g}{value['im']:+.12g}i"
    if isinstance(value, (dict, list)):
        return json.dumps(value, default=str)
    return str(value)


def _render_rows(rows, out) -> None:
    if not rows:
        print("(empty)", file=out)
        return
    headers = list(rows[0].keys())
    table = [[_human_value(r.get(h, "")) for h in headers] for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in table)) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)), file=out)
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)), file=out)


def _render_human(payload: dict, out) -> None:
    # a bare element result prints as its expression, nothing else
    if set(payload) <= {"element", "terms"}:
        print(payload["element"], file=out)
        return
    for key, value in payload.items():
        if key in ("rows", "terms"):
            continue
        print(f"{key}: {_human_value(value)}", file=out)
    if "rows" in payload:
        _render_rows(payload["rows"], out)


def run(argv=None) -> int:
    try:
        # typed options and operands parse inside the try, so their ParseError is reported
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config)
        if args.guard is not None:
            cfg = dataclasses.replace(cfg, table=cfg.table.with_guard(args.guard))
        payload = args.handler(args, cfg)
    except EngineError as exc:
        record = {"error": {"code": exc.code, "message": str(exc)}}
        span = getattr(exc, "span", None)
        if span is not None:
            record["error"]["span"] = list(span)
        print(json.dumps(record), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        _render_human(payload, sys.stdout)
    return 0

"""Run configuration: atom tables, group mode, and numeric knobs.

Config files are INI text with three sections::

    [atoms]
    s2 = 1.4142135623730951
    s3 = 1.7320508075688772

    [dilation]
    h = 0.5

    [options]
    group = Z
    guard = 1e-9
    seed = 0

All sections are optional; an empty file yields the default table (ONE
and UNIT only), group mode Z, guard 1e-9, seed 0.  The guard must be a
finite, non-negative number.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .errors import GroupModeError, InvalidParameter, ParseError
from .exactnum import DEFAULT_GUARD, DEFAULT_TABLE, AtomTable

__all__ = ["RunConfig", "load_config", "GROUP_Z", "GROUP_R"]

GROUP_Z = "Z"
GROUP_R = "R"


def checked_guard(guard: float) -> float:
    """A sign guard as given, refused unless finite and non-negative: a NaN
    or negative guard would switch refusal off without a word."""
    if not math.isfinite(guard) or guard < 0:
        raise InvalidParameter(f"sign guard must be finite and non-negative, got {guard!r}")
    return guard


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings shared by the CLI subcommands."""

    table: AtomTable = DEFAULT_TABLE
    group: str = GROUP_Z
    guard: float = DEFAULT_GUARD
    seed: int = 0

    def __post_init__(self):
        if self.group not in (GROUP_Z, GROUP_R):
            raise GroupModeError(f"group mode must be Z or R, got {self.group!r}")
        checked_guard(self.guard)


def load_config(path: str | None = None) -> RunConfig:
    """Read a config file into a RunConfig; None yields the defaults."""
    if path is None:
        return RunConfig()
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"malformed config file {path!r}: {exc}") from exc

    def floats(section: str) -> dict[str, float]:
        if not parser.has_section(section):
            return {}
        out = {}
        for name, raw in parser.items(section):
            try:
                out[name] = float(raw)
            except ValueError:
                raise ParseError(
                    f"config [{section}] {name} = {raw!r} is not a number"
                ) from None
        return out

    try:
        table = AtomTable(floats("atoms"), floats("dilation"))
    except ValueError as exc:
        raise ParseError(str(exc)) from None

    group = GROUP_Z
    guard = DEFAULT_GUARD
    seed = 0
    if parser.has_section("options"):
        opts = dict(parser.items("options"))
        group = opts.pop("group", group).strip()
        if "guard" in opts:
            try:
                guard = float(opts.pop("guard"))
            except ValueError:
                raise ParseError("config [options] guard is not a number") from None
        if "seed" in opts:
            try:
                seed = int(opts.pop("seed"))
            except ValueError:
                raise ParseError("config [options] seed is not an integer") from None
        if opts:
            unknown = ", ".join(sorted(opts))
            raise ParseError(f"unknown [options] keys: {unknown}")
    return RunConfig(table=table, group=group, guard=guard, seed=seed)

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
and UNIT only), group mode Z, guard 1e-9, seed 0.  Atom and dilation
names are read as written, so ``S2`` and ``s2`` are two atoms and ``ONE``
is the reserved one; ``[options]`` keys are read in any case.
``AtomTable.with_guard`` puts the guard on the table and refuses a NaN,
infinite or negative one.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace

from .errors import GroupModeError, ParseError
from .exactnum import DEFAULT_TABLE, AtomTable

__all__ = ["RunConfig", "load_config", "GROUP_Z", "GROUP_R"]

GROUP_Z = "Z"
GROUP_R = "R"


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings shared by the CLI subcommands."""

    table: AtomTable = DEFAULT_TABLE
    group: str = GROUP_Z
    seed: int = 0

    def __post_init__(self):
        if self.group not in (GROUP_Z, GROUP_R):
            raise GroupModeError(f"group mode must be Z or R, got {self.group!r}")


def load_config(path: str | None = None) -> RunConfig:
    """Read a config file into a RunConfig; None yields the defaults."""
    if path is None:
        return RunConfig()
    parser = configparser.ConfigParser()
    parser.optionxform = str  # atom and dilation names keep their case
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
    guard = table.guard
    seed = 0
    if parser.has_section("options"):
        opts = {}
        for name, raw in parser.items("options"):
            if name.lower() in opts:
                raise ParseError(f"config [options] key {name!r} repeats a key in another case")
            opts[name.lower()] = raw
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
    # RunConfig checks the group mode before the table checks the guard
    return replace(RunConfig(group=group, seed=seed), table=table.with_guard(guard))

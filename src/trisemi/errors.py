"""Shared exception types for the engine.

Every error raised on purpose by the library derives from EngineError so
callers (and the command line front end) can catch one base class and
emit a structured error record.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all deliberate engine errors."""

    code = "engine"


class InvalidParameter(EngineError, ValueError):
    """A numeric or named parameter outside its allowed range or set."""

    code = "invalid-parameter"


class IndeterminateSign(EngineError):
    """A frequency or dilation value fell within max(guard, rounding
    bound) of zero, so its sign is not decided."""

    code = "indeterminate-sign"


class DivisionByZero(EngineError):
    code = "division-by-zero"


class NumericOverflow(EngineError):
    """Numeric evaluation overflowed a double or hit a vanishing
    denominator, or an exact rational has more digits than the
    interpreter converts to text."""

    code = "numeric-overflow"


class AxisMismatch(EngineError):
    """A coefficient axis received an index of the wrong kind."""

    code = "axis-mismatch"


class EmptyElement(EngineError):
    code = "empty-element"


class InvalidScale(EngineError):
    code = "invalid-scale"


class NotInDomain(EngineError):
    """Character evaluation outside the character's domain algebra."""

    code = "not-in-domain"


class NotInAmbient(EngineError):
    """Ideal membership was asked for an element outside the ambient algebra."""

    code = "not-in-ambient"


class DegeneratePhase(EngineError):
    code = "degenerate-phase"


class BasisTooShort(EngineError):
    """A summation order too small to span the support of the element."""

    code = "basis-too-short"


class NotFound(EngineError):
    code = "not-found"


class ScheduleTooShort(EngineError):
    code = "schedule-too-short"


class DivergentPacket(EngineError):
    """A Gaussian overlap integral with nonpositive real quadratic part."""

    code = "divergent-packet"


class GroupModeError(EngineError):
    """A dilation index outside the configured dilation group."""

    code = "group-mode"


class ParseError(EngineError):
    """Bad expression text. Carries the offending span when known."""

    code = "parse"

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        super().__init__(message)
        self.span = span


class AtomCollisionWarning(UserWarning):
    """Two declared atom values are close to rationally dependent."""


class UntrustedCharacterWarning(UserWarning):
    """Evaluation of a character whose continuity is not established."""

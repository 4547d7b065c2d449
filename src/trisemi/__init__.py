"""Exact symbolic engine for the triple semigroup algebra on the line.

The package models finite linear combinations of products of three
one parameter semigroups acting on square integrable functions:
multiplications M(lam), translations D(mu), and dilations V(t).  The
generators are one-term elements, and products of them reduce to a
canonical sum of M*D*V monomials with exact coefficients drawn from a
field of quotients of phase sums.  A
numeric backend checks every symbolic law against Gaussian wave
packets, and approximation tools (Bochner-Fejer sections, gauge twists,
Cesaro means) expose the almost periodic structure.
"""

import importlib

from .errors import (
    AtomCollisionWarning,
    AxisMismatch,
    BasisTooShort,
    DegeneratePhase,
    DivergentPacket,
    DivisionByZero,
    EmptyElement,
    EngineError,
    GroupModeError,
    IndeterminateSign,
    InvalidParameter,
    InvalidScale,
    NotFound,
    NotInAmbient,
    NotInDomain,
    NumericOverflow,
    ParseError,
    ScheduleTooShort,
    UntrustedCharacterWarning,
)
from .exactnum import (
    AtomTable,
    BohrCharacter,
    DilationIndex,
    Frequency,
    FrequencyAtom,
    PhaseExponent,
    PhaseMonomial,
    PhaseSum,
    QI,
    Scalar,
    index_sign,
)
from .algebra import (
    AlgebraId,
    AutomorphismSpec,
    Axis,
    AxisMap,
    CompressionMode,
    D,
    Element,
    FlipReport,
    M,
    Sc,
    V,
    adjoint,
    apply_automorphism,
    check_flip_contradiction,
    coeff_map,
    compress,
    conjugate,
    first_coeff,
    mul,
    side_sums,
    support_predicate,
)
from .exprs import (
    dil_text,
    element_text,
    freq_text,
    parse_dilation,
    parse_element,
    parse_frequency,
    scalar_text,
)
from .config import RunConfig, load_config

__version__ = "0.1.0"

# The analysis layer loads on first use, so the exact engine and its
# commands start without numpy: name -> module, read by __getattr__.
_LAZY_MODULES = {
    "approx": (
        "BFSpec",
        "RationalBasis",
        "bf_report",
        "bochner_fejer",
        "cesaro_mean",
        "gauge",
        "rational_basis",
        "recurrence_schedule",
        "recurrence_search",
        "section_weights",
        "support_basis",
    ),
    "characters": (
        "APPoint",
        "DiscPoint",
        "TripleCharacter",
        "composite_eval",
        "eval_character",
        "vanishing_point",
    ),
    "ideals": (
        "CommutatorCertificate",
        "IdealId",
        "TelescopeCertificate",
        "certificate_dict",
        "certificate_residual",
        "commutator_certificate",
        "in_ideal",
        "jt_reduce",
        "quotient_defect",
        "verify_certificate",
    ),
    "l2sim": (
        "ConvergenceReport",
        "GaussianPacket",
        "PacketSum",
        "apply_element",
        "apply_word",
        "column_norms",
        "fourier_conjugation_check",
        "norm_lower_bound",
        "relation_residual",
        "wot_compression_demo",
        "wot_limit",
    ),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY_MODULES, *_LAZY})

"""Exact symbolic engine for the triple semigroup algebra on the line.

The package models finite linear combinations of products of three
one parameter semigroups acting on square integrable functions:
multiplications M(lam), translations D(mu), and dilations V(t).  Words
in the generators reduce to a canonical sum of M*D*V monomials with
exact coefficients drawn from a field of quotients of phase sums.  A
numeric backend checks every symbolic law against Gaussian wave
packets, and approximation tools (Bochner-Fejer sections, gauge twists,
Cesaro means) expose the almost periodic structure.
"""

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
    IllegalFlip,
    IndeterminateSign,
    InvalidParameter,
    InvalidScale,
    NonIntegerLattice,
    NotAnalytic,
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
    dilation_sign,
    freq_sign,
)
from .algebra import (
    AlgebraId,
    AutomorphismSpec,
    Axis,
    CompressionMode,
    D,
    Element,
    FlipReport,
    M,
    Monomial,
    Sc,
    V,
    adjoint,
    apply_automorphism,
    check_flip_contradiction,
    coeff_map,
    compress,
    first_coeff,
    mul,
    normalize_word,
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
from .approx import (
    BFSpec,
    RationalBasis,
    bf_kernel,
    bf_report,
    bochner_fejer,
    cesaro_mean,
    gauge,
    rational_basis,
    recurrence_schedule,
    recurrence_search,
    section_weights,
    support_basis,
)
from .characters import (
    APPoint,
    DiscPoint,
    HalfPlanePoint,
    TripleCharacter,
    aap_eval,
    arens_automorphism,
    composite_eval,
    eval_character,
    vanishing_point,
)
from .ideals import (
    CommutatorCertificate,
    IdealId,
    TelescopeCertificate,
    certificate_dict,
    certificate_residual,
    commutator_certificate,
    in_ideal,
    jt_reduce,
    quotient_defect,
    verify_certificate,
)
from .l2sim import (
    ConvergenceReport,
    GaussianPacket,
    LRVector,
    PacketSum,
    apply_element,
    apply_word,
    column_norms,
    fourier_conjugation_check,
    lr_apply,
    norm_lower_bound,
    relation_residual,
    wot_compression_demo,
    wot_limit,
)
from .config import RunConfig, load_config

__version__ = "0.1.0"

"""Exact multiplicity sequences of homogeneous ideals on cyclic modules.

The central object is the sequence c_0..c_d attached to a homogeneous
ideal I acting on M = R/K: the normalized top coefficients of a
bigraded Hilbert function that refines the classical multiplicity.
On top of it sit a support-wise decomposition check, a Rees-type
reduction test, and a seeded search for superficial elements.
"""

from .config import Params
from .errors import (
    EngineLimit,
    NonHomogeneousInput,
    PreconditionError,
    SearchExhausted,
    StabilizationError,
)
from .orders import MonomialOrder, elimination_order, grevlex, lex
from .poly import Polynomial, PolyRing
from .parse import ParseError, format_polynomial, parse_polynomial
from .groebner import buchberger, normal_form
from .ideals import Ideal
from .hilbert import (
    HilbertSeries,
    hilbert_series,
    krull_dimension,
    minimal_primes_monomial,
    quotient_degree,
    total_length,
)
from .multiplicity import (
    BigradedTable,
    CyclicModule,
    Diagnostics,
    MultiplicitySequence,
    analytic_spread,
    classical_multiplicity,
    component_ideal,
    component_length,
    diagnostics,
    extract_top_coefficients,
    height_on_module,
    hilbert_table,
    multiplicity_sequence,
    star_condition,
)
from .localization import (
    Contribution,
    FormulaReport,
    KSummary,
    LambdaSet,
    MonomialPrime,
    enumerate_lambda,
    local_c0,
    localize_ideal,
    localize_module,
    verify_formula,
)
from .reduction import (
    EvidenceItem,
    ReductionReport,
    SuperficialCandidate,
    TrialRecord,
    is_reduction,
    rees_criterion,
    revalidate,
    superficial_search,
)
from .corpus import generate_corpus
from .problem import Problem, ProblemError, canonical_json, load_problem, problem_from_dict

__version__ = "0.1.0"

__all__ = [
    "BigradedTable",
    "Contribution",
    "CyclicModule",
    "Diagnostics",
    "EngineLimit",
    "EvidenceItem",
    "FormulaReport",
    "HilbertSeries",
    "Ideal",
    "KSummary",
    "LambdaSet",
    "MonomialOrder",
    "MonomialPrime",
    "MultiplicitySequence",
    "NonHomogeneousInput",
    "Params",
    "ParseError",
    "PolyRing",
    "Polynomial",
    "PreconditionError",
    "Problem",
    "ProblemError",
    "ReductionReport",
    "SearchExhausted",
    "StabilizationError",
    "SuperficialCandidate",
    "TrialRecord",
    "analytic_spread",
    "buchberger",
    "canonical_json",
    "classical_multiplicity",
    "component_ideal",
    "component_length",
    "diagnostics",
    "elimination_order",
    "enumerate_lambda",
    "extract_top_coefficients",
    "format_polynomial",
    "generate_corpus",
    "grevlex",
    "height_on_module",
    "hilbert_series",
    "hilbert_table",
    "is_reduction",
    "krull_dimension",
    "lex",
    "load_problem",
    "local_c0",
    "localize_ideal",
    "localize_module",
    "minimal_primes_monomial",
    "multiplicity_sequence",
    "normal_form",
    "parse_polynomial",
    "problem_from_dict",
    "quotient_degree",
    "rees_criterion",
    "revalidate",
    "star_condition",
    "superficial_search",
    "total_length",
    "verify_formula",
]

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
)
from .orders import MonomialOrder, elimination_order, grevlex, lex
from .poly import Polynomial, PolyRing
from .parse import ParseError, format_polynomial, parse_polynomial
from .groebner import buchberger, normal_form
from .ideals import Ideal
from .hilbert import HilbertSeries, krull_dimension
from .multiplicity import (
    BigradedTable,
    CyclicModule,
    Diagnostics,
    MultiplicitySequence,
    analytic_spread,
    diagnostics,
    height_on_module,
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
    "SuperficialCandidate",
    "TrialRecord",
    "analytic_spread",
    "buchberger",
    "canonical_json",
    "diagnostics",
    "elimination_order",
    "enumerate_lambda",
    "format_polynomial",
    "generate_corpus",
    "grevlex",
    "height_on_module",
    "krull_dimension",
    "lex",
    "load_problem",
    "local_c0",
    "localize_ideal",
    "localize_module",
    "multiplicity_sequence",
    "normal_form",
    "parse_polynomial",
    "problem_from_dict",
    "rees_criterion",
    "revalidate",
    "star_condition",
    "superficial_search",
    "verify_formula",
]

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
from .orders import MonomialOrder, elimination_order, grevlex
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
    diagnostics,
    height_on_module,
    multiplicity_sequence,
)
from .localization import (
    Contribution,
    FormulaReport,
    KSummary,
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
    "MonomialOrder",
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
    "buchberger",
    "canonical_json",
    "diagnostics",
    "elimination_order",
    "format_polynomial",
    "generate_corpus",
    "grevlex",
    "height_on_module",
    "krull_dimension",
    "load_problem",
    "multiplicity_sequence",
    "normal_form",
    "parse_polynomial",
    "problem_from_dict",
    "rees_criterion",
    "revalidate",
    "superficial_search",
    "verify_formula",
]

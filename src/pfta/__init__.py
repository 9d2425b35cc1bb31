"""Parametric fault tree analysis via probabilistic Horn abduction.

Models of redundant systems are written in a small text language, parsed
into a parametric fault tree, translated into probabilistic Horn clause
theories, and analyzed with a best-first abductive search. Qualitative
results (minimal cut sets) and quantitative results (prior and posterior
unreliability) can be cross-checked against exhaustive enumeration.
"""

from .compile import compile_direct, compile_disjoint
from .dsl import parse_model, serialize_model
from .engine import (
    EXHAUSTIVE,
    AssumptionReport,
    ExactEvaluator,
    Explanation,
    ExplanationSearch,
    ProbabilityBounds,
    StopCriteria,
    check_assumptions,
    entails,
    explain,
    minimal_explanations,
    probability,
)
from .errors import (
    AnalysisError,
    DslError,
    EngineError,
    ModelInvalidError,
    OracleError,
    PftaError,
    TheoryError,
)
from .measures import (
    CutSet,
    TopEvent,
    UnreliabilityPoint,
    attach_posteriors,
    basic_event_posteriors,
    curve_times,
    minimal_cut_sets,
    parse_instance,
    top_event,
    unreliability_curve,
)
from .model import (
    EventNode,
    EventRef,
    FailureRate,
    Gate,
    Parameter,
    ParamType,
    PftModel,
    failure_probability,
    format_instance,
    instantiate,
)
from .oracle import (
    GroundFaultTree,
    evaluate,
    exact_probability,
    prime_implicants,
    top_enumeration,
    unfold,
)
from .pha import (
    Atom,
    Clause,
    DisjointDeclaration,
    PhaTheory,
    Var,
    parse_theory,
    serialize,
    unify,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "AssumptionReport",
    "Atom",
    "Clause",
    "CutSet",
    "DisjointDeclaration",
    "DslError",
    "EngineError",
    "EXHAUSTIVE",
    "EventNode",
    "EventRef",
    "ExactEvaluator",
    "Explanation",
    "ExplanationSearch",
    "FailureRate",
    "Gate",
    "GroundFaultTree",
    "ModelInvalidError",
    "OracleError",
    "Parameter",
    "ParamType",
    "PftaError",
    "PftModel",
    "PhaTheory",
    "ProbabilityBounds",
    "StopCriteria",
    "TheoryError",
    "TopEvent",
    "UnreliabilityPoint",
    "Var",
    "attach_posteriors",
    "basic_event_posteriors",
    "check_assumptions",
    "compile_direct",
    "compile_disjoint",
    "curve_times",
    "entails",
    "evaluate",
    "exact_probability",
    "explain",
    "failure_probability",
    "format_instance",
    "instantiate",
    "minimal_cut_sets",
    "minimal_explanations",
    "parse_instance",
    "parse_model",
    "parse_theory",
    "prime_implicants",
    "probability",
    "serialize",
    "serialize_model",
    "top_enumeration",
    "top_event",
    "unfold",
    "unify",
    "unreliability_curve",
]

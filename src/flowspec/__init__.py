"""flowspec: a bidirectional compiler between hierarchical business-process
models (statecharts with split/join/choice annotations) and Given-When-Then
feature files, with scenario replay, coverage checking, step-skeleton
generation and DOT diagram export."""

from .canon import canonical_form, isomorphic
from .dot import render_dot
from .dsl import parse_dsl, serialize_dsl
from .emit import emit_feature, enumerate_choice_subsets
from .errors import (
    Diagnostic,
    FeatureSyntaxError,
    FlowspecError,
    IllegalGiven,
    ModelSyntaxError,
    NondeterminismConflict,
    SemanticError,
    SourceSpan,
    TooManyChoiceBranches,
    UnbalancedQuotes,
    UnknownState,
    XmlError,
)
from .feature import (
    ActionSeq,
    DocHints,
    FeatureDoc,
    Scenario,
    Step,
    Term,
    format_feature,
    parse_feature,
)
from .generator import GeneratorLimits, random_model
from .infer import infer_model
from .model import (
    Configuration,
    GuardExpr,
    InBranch,
    OutBranch,
    PatternKind,
    ProcessModel,
    Pseudostate,
    StateNode,
    TransitionDecl,
    guard,
    initial_configuration,
    resolve,
    validate,
)
from .patterns import PatternInstance, StateSpecialCase, classify, guards_overlap, lint
from .replay import (
    CheckReport,
    StepResult,
    Verdict,
    check_suite,
    enabled,
    explore,
    replay_scenario,
    step,
)
from .skeletons import StepSkeleton, emit_skeletons, extract_skeleton, skeletons_to_json
from .xmlio import parse_xml

__version__ = "0.1.0"

__all__ = [
    "ActionSeq",
    "CheckReport",
    "Configuration",
    "Diagnostic",
    "DocHints",
    "FeatureDoc",
    "FeatureSyntaxError",
    "FlowspecError",
    "GeneratorLimits",
    "GuardExpr",
    "IllegalGiven",
    "InBranch",
    "ModelSyntaxError",
    "NondeterminismConflict",
    "OutBranch",
    "PatternInstance",
    "PatternKind",
    "ProcessModel",
    "Pseudostate",
    "Scenario",
    "SemanticError",
    "SourceSpan",
    "StateNode",
    "StateSpecialCase",
    "Step",
    "StepResult",
    "StepSkeleton",
    "Term",
    "TooManyChoiceBranches",
    "TransitionDecl",
    "UnbalancedQuotes",
    "UnknownState",
    "Verdict",
    "XmlError",
    "canonical_form",
    "check_suite",
    "classify",
    "emit_feature",
    "emit_skeletons",
    "enabled",
    "enumerate_choice_subsets",
    "explore",
    "extract_skeleton",
    "format_feature",
    "guard",
    "guards_overlap",
    "infer_model",
    "initial_configuration",
    "isomorphic",
    "lint",
    "parse_dsl",
    "parse_feature",
    "parse_xml",
    "random_model",
    "render_dot",
    "replay_scenario",
    "resolve",
    "serialize_dsl",
    "skeletons_to_json",
    "step",
    "validate",
]

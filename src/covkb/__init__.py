"""covkb: coverage-graph knowledge base with MML scoring and forgetting.

A knowledge-consolidation engine over a Prolog-like clause language.
Rules and evidence live in one coverage DAG; description-length support,
optimality and permanence metrics drive a forgetting / promotion /
demotion lifecycle under bounded working memory, with a deterministic
seeded experiment harness on top.
"""

from .covgraph import CoverageGraph, GraphError, transitive_reduce
from .deduce import (
    Background,
    CoverageOracle,
    DeriveLimits,
    LimitExceeded,
    covers,
)
from .harness import (
    ConfigError,
    GridConfig,
    ScenarioConfig,
    build_oneshot_state,
    export_dot,
    load_grid,
    load_scenario,
    run_grid,
    run_scenario,
)
from .lifecycle import KnowledgeState, Policy, StepLog, Threshold
from .metrics import (
    MetricsTable,
    compute_permanence,
    compute_support,
    compute_table,
    conservation_check,
    optimality_row,
    permanence_value,
)
from .parser import ParseError, parse_file, parse_program
from .rules import (
    Atom,
    Compound,
    Rule,
    SignatureStats,
    Var,
    canonical_form,
    render_rule,
    rule_length,
    signature_stats,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Background",
    "Compound",
    "ConfigError",
    "CoverageGraph",
    "CoverageOracle",
    "DeriveLimits",
    "GraphError",
    "GridConfig",
    "KnowledgeState",
    "LimitExceeded",
    "MetricsTable",
    "ParseError",
    "Policy",
    "Rule",
    "ScenarioConfig",
    "SignatureStats",
    "StepLog",
    "Threshold",
    "Var",
    "build_oneshot_state",
    "canonical_form",
    "compute_permanence",
    "compute_support",
    "compute_table",
    "conservation_check",
    "covers",
    "export_dot",
    "load_grid",
    "load_scenario",
    "optimality_row",
    "parse_file",
    "parse_program",
    "permanence_value",
    "render_rule",
    "rule_length",
    "run_grid",
    "run_scenario",
    "signature_stats",
    "transitive_reduce",
]

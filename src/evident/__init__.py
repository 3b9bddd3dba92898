"""evident: an evidential-reasoning engine.

Frames of discernment with bitmask propositions, mass distributions with
belief/plausibility intervals, orthogonal-sum evidence combination,
decision-or-conflict determination, belief-driven data-source routing, and a
replay harness that fuses time-stamped sensor evidence.
"""

from .combine import (
    CombinationReport,
    combine,
    combine_all,
    conflict_mass,
    discount,
)
from .decide import (
    Decision,
    DecisionStatus,
    SupportTriple,
    decide,
    support_pro_con,
)
from .errors import EvidentError
from .frames import (
    And,
    Atom,
    Frame,
    Implies,
    Or,
    Proposition,
    QueryExpr,
    translate_logical,
)
from .masses import (
    EvidentialInterval,
    MassFunction,
    bayesian_from_probabilities,
    mass_new,
    simple_support,
    vacuous,
)
from .routing import (
    RoutePlan,
    SourceDescriptor,
    answerability,
    decompose,
    load_query,
    load_sources,
    make_view,
    poll,
)
from .scenario import (
    Scenario,
    SensorReport,
    TraceRow,
    emit_trace,
    load_scenario,
    run_scenario,
)

__version__ = "0.1.0"

#: the numeric backend; NumPy is the only one
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "And",
    "Atom",
    "CombinationReport",
    "Decision",
    "DecisionStatus",
    "EvidentError",
    "EvidentialInterval",
    "Frame",
    "Implies",
    "MassFunction",
    "Or",
    "Proposition",
    "QueryExpr",
    "RoutePlan",
    "Scenario",
    "SensorReport",
    "SourceDescriptor",
    "SupportTriple",
    "TraceRow",
    "answerability",
    "bayesian_from_probabilities",
    "combine",
    "combine_all",
    "conflict_mass",
    "decide",
    "decompose",
    "discount",
    "emit_trace",
    "load_query",
    "load_scenario",
    "load_sources",
    "make_view",
    "mass_new",
    "poll",
    "run_scenario",
    "simple_support",
    "support_pro_con",
    "translate_logical",
    "vacuous",
]

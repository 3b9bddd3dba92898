"""evident: an evidential-reasoning engine.

Frames of discernment with bitmask propositions, mass distributions with
belief/plausibility intervals, orthogonal-sum evidence combination,
decision-or-conflict determination, belief-driven data-source routing, and a
replay harness that fuses time-stamped sensor evidence.

The public names are imported from their modules on first access (PEP 562),
so importing the package, or running a command that needs no arrays, does
not load NumPy.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

#: the numeric backend; NumPy is the only one
BACKEND = "numpy"

# the module that defines each public name
_PUBLIC = {
    "combine": ("CombinationReport", "combine", "combine_all", "conflict_mass", "discount"),
    "decide": ("Decision", "DecisionStatus", "SupportTriple", "decide", "support_pro_con"),
    "errors": ("EvidentError",),
    "frames": (
        "And",
        "Atom",
        "EvidentialInterval",
        "Frame",
        "Implies",
        "Or",
        "Proposition",
        "QueryExpr",
        "translate_logical",
    ),
    "masses": (
        "MassFunction",
        "bayesian_from_probabilities",
        "mass_new",
        "simple_support",
        "vacuous",
    ),
    "routing": (
        "RoutePlan",
        "SourceDescriptor",
        "answerability",
        "decompose",
        "load_query",
        "load_sources",
        "make_view",
        "poll",
    ),
    "scenario": (
        "Scenario",
        "SensorReport",
        "TraceRow",
        "emit_trace",
        "load_scenario",
        "run_scenario",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["BACKEND", *sorted(_HOME)]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The package module, whose public names submodules cannot shadow.

    Importing ``evident.combine`` binds the submodule on the package as
    ``combine``; that binding is dropped, so ``evident.combine`` stays the
    function. ``importlib.import_module`` still returns the module.
    """

    def __setattr__(self, name: str, value) -> None:
        if name in _HOME and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

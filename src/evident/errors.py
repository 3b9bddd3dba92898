"""Exception hierarchy for the evident package.

Every validation failure raises a subclass of :class:`EvidentError`, so
callers (and the CLI) can distinguish bad input from genuine bugs or I/O
failures. The range and order errors (``NegativeMass``, ``DegreeOutOfRange``,
``InvalidInterval``, ``FactorOutOfRange``, ``InvalidTraceRow``) and
``UnknownTraceFormat`` also derive from ``ValueError``, so ``except
ValueError`` catches them.

Every number the package accepts, from a document or a caller, is a finite
int or float, not a bool, inside its field's range; anything else (a string,
``None``, ``NaN``, ``inf``, an integer past the float range) raises that
field's subclass. ``_jsonutil.number`` is the one check. Every other argument
of the wrong type (a string where a mass function belongs) raises
:class:`WrongType`, also a ``TypeError``; ``_jsonutil.of_type`` is that check.
"""


class EvidentError(Exception):
    """Base class for all errors raised by this package."""


class WrongType(EvidentError, TypeError):
    """An argument is not of the type the call takes."""


# frames / propositions ------------------------------------------------------

class EmptyFrame(EvidentError):
    """A frame needs at least one atom."""


class DuplicateAtom(EvidentError):
    """Atom names within a frame must be unique."""


class TooManyAtoms(EvidentError):
    """Frames are capped at 64 atoms so propositions fit one machine word."""


class UnknownAtom(EvidentError):
    """An atom name was not declared by the frame."""


class FrameMismatch(EvidentError):
    """Operands belong to different frames."""


# query expressions ----------------------------------------------------------

class InvalidQuery(EvidentError):
    """Malformed query expression (empty connective, blank attribute, ...)."""


class UnmappedAttribute(EvidentError):
    """A query attribute has no proposition mapping."""


# mass functions -------------------------------------------------------------

class MassOnEmptySet(EvidentError):
    """Positive mass may never rest on the empty proposition."""


class NegativeMass(EvidentError, ValueError):
    """Masses must be non-negative."""


class NotNormalized(EvidentError):
    """Masses must total one.

    The offending total is kept on the ``total`` attribute.
    """

    def __init__(self, total: float):
        super().__init__(f"masses total {total!r}, expected 1.0")
        self.total = total


class EmptyFocus(EvidentError):
    """A simple support function needs a non-empty focus."""


class DegreeOutOfRange(EvidentError, ValueError):
    """Support degrees live in [0, 1]; conflict thresholds in (0, 1]."""


class MissingAtom(EvidentError):
    """A probability assignment must cover every atom of the frame."""


class InvalidInterval(EvidentError, ValueError):
    """An evidential interval needs 0 <= support <= plausibility <= 1."""


# combination ----------------------------------------------------------------

class TotalConflict(EvidentError):
    """The evidence is flatly contradictory: no positive product of the
    orthogonal sum lands on a non-empty set.

    ``index`` is the position of the input that triggered the condition when
    folding a list, or None for a single pairwise combination.
    """

    def __init__(self, index=None):
        at = "" if index is None else f" at input index {index}"
        super().__init__(f"total conflict: combined evidence is contradictory{at}")
        self.index = index


class CombinationTooLarge(EvidentError):
    """One orthogonal sum would pair more focals than ``combine.MAX_PAIRS``."""


class FactorOutOfRange(EvidentError, ValueError):
    """Discount factors live in [0, 1]."""


# decision -------------------------------------------------------------------

class TrivialProposition(EvidentError):
    """Pro/con support is meaningless for the empty or full proposition."""


# routing --------------------------------------------------------------------

class ImpliesNotRoutable(EvidentError):
    """Routing is defined over and/or/atom; rewrite implications first."""


class EmptyShortlist(EvidentError):
    """Decomposition needs at least one candidate source."""


class SchemaMismatch(EvidentError):
    """View parts must share an identical attribute set.

    ``attributes`` holds the sorted symmetric difference.
    """

    def __init__(self, attributes):
        self.attributes = tuple(sorted(attributes))
        super().__init__(f"schemas differ on attributes: {', '.join(self.attributes)}")


class TooFewParts(EvidentError):
    """A view merges two or more sources."""


class InvalidSource(EvidentError):
    """A source descriptor violated its invariants (blank id, weight range)."""


class DuplicateSourceId(EvidentError):
    """Source ids must be unique within one registry file."""


# scenarios ------------------------------------------------------------------

class ParseError(EvidentError):
    """Input document is not valid JSON or not the expected shape.

    ``line`` is the 1-based source line when known, else None.
    """

    def __init__(self, message: str, line=None):
        at = "" if line is None else f" (line {line})"
        super().__init__(f"{message}{at}")
        self.line = line


class InvalidReport(EvidentError):
    """A sensor report violated its invariants (negative time, blank sensor)."""


class UnsortedReports(EvidentError):
    """Scenario reports must be ordered by time ascending."""


class InvalidWindow(EvidentError):
    """Window and step lengths must be positive."""


class InvalidTraceRow(EvidentError, ValueError):
    """A trace row's time is not a finite number."""


class EmptyTrace(EvidentError):
    """Cannot format a trace with no rows."""


class UnknownTraceFormat(EvidentError, ValueError):
    """emit_trace renders "csv" and "table" (alias "pretty-table") only."""

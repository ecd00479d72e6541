"""Exception types shared across the toolkit."""


class GraphmetryError(Exception):
    """Base class for all toolkit errors."""


class InputError(GraphmetryError):
    """Base class for errors in user-supplied graph data."""


class ParseError(InputError):
    """Malformed edge-list text."""


class AsymmetryError(InputError):
    """Duplicate edge declarations with conflicting values."""


class DiagonalError(InputError):
    """Forbidden self-loop declaration."""


class NegativeWeightError(InputError):
    """Negative weight or conductance value."""


class InvalidArgument(InputError, ValueError):
    """A numeric parameter (cap, budget, threshold) outside its allowed range."""


class OutOfRange(InputError):
    """Finite input values that floats cannot resolve: a distance or resistance
    beyond float range, or two values whose float sum absorbs the smaller."""


class UnknownVertex(GraphmetryError):
    """Vertex id or label not present in the graph."""


class Unreachable(GraphmetryError):
    """No finite-weight path between the queried vertices."""


class SameVertex(GraphmetryError):
    """Operation requires two distinct vertices."""


class NotDistinct(GraphmetryError):
    """Operation requires pairwise distinct vertices."""


class SizeMismatch(GraphmetryError):
    """Vertex counts of the combined objects disagree."""


class InvalidMetric(GraphmetryError):
    """Input table violates the pseudo-metric axioms."""


class Disconnected(GraphmetryError):
    """Operation requires the relevant vertices to be connected."""


class EmptyInput(GraphmetryError):
    """Operation requires a non-empty collection."""


class MixedStart(GraphmetryError):
    """Input paths do not share a common starting vertex."""


class DuplicatePath(GraphmetryError):
    """Input paths must be pairwise distinct."""


class TooLarge(GraphmetryError):
    """Graph exceeds the hard cap of an exact enumeration oracle."""


class InternalInvariantError(GraphmetryError):
    """A theorem-backed invariant failed post-hoc; indicates a bug, not bad input."""

"""Exception types shared across the package.

Domain violations on plain arguments raise :class:`ValueError` directly;
the classes below cover numerical failures (most arise *during*
iteration), where the caller may want to distinguish a numerical
breakdown from bad input.
"""


class ConvergenceError(RuntimeError):
    """An iterative routine (series, root finder) failed to converge."""


class IterationCapError(RuntimeError):
    """A rejection loop exceeded its configured iteration budget."""


class DominationViolationError(RuntimeError):
    """A partial-sum lower bound of the target density exceeded the
    bounding kernel: the proposal no longer dominates and accepted draws
    would be biased.  Raised only once the density, summed in extended
    precision, confirms it."""


class EnvelopeValidityError(RuntimeError):
    """A freshly built saddlepoint envelope failed its pointwise
    dominance spot check."""


"""Exception types shared across the package.

Every error raised on a user-reachable path derives from MotivixError so the
CLI can map failures to exit codes in one place.
"""


class MotivixError(Exception):
    """Base class for all package errors."""


class ShapeError(MotivixError):
    """Matrix or vector dimensions do not match the operation."""


class RankError(MotivixError):
    """A basis is linearly dependent where independence is required."""


class LatticeError(MotivixError):
    """A lattice operation received inconsistent data."""


class InvalidInput(MotivixError):
    """User-supplied data fails validation."""


class UnsupportedQuery(MotivixError):
    """The axiomatic model cannot decide this query; not a failure of the
    query itself, just out of scope for the available axioms."""


class CandidateError(MotivixError):
    """A splitting candidate is structurally malformed."""


class HypothesisError(MotivixError):
    """A required hypothesis of the decision procedure fails on this model."""


class PreconditionError(HypothesisError):
    """A stated precondition of a lemma-level check fails.

    Subclass of HypothesisError: callers that only care about "the hypotheses
    do not hold" can catch the broader type.
    """


class VerificationError(MotivixError):
    """An internal check of a computed result failed: the result is wrong
    and must not be reported."""


class ReductionError(MotivixError):
    """A differential-form reduction has no solution in the allowed shape."""

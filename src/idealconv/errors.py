"""Exception taxonomy for the toolkit.

Every failure mode that callers are expected to branch on gets its own
class; generic ValueError/TypeError are reserved for plain programming
mistakes.
"""


class IdealConvError(Exception):
    """Base class for all toolkit errors."""


class UniverseMismatch(IdealConvError):
    """An operation mixed terms, elements or ideals over different universes."""


class UnsupportedCombination(IdealConvError):
    """No decision rule covers this combination of ideal and term shape.

    For catalog atoms this signals a gap in the rule table and is treated
    as a bug, not as an answer.
    """


class PreimageNotRepresentable(IdealConvError):
    """The preimage of a term atom under a bijection has no term form."""


class AdmissibilityRequired(IdealConvError):
    """The requested decision is only sound for admissible ideals."""


class NotStarConvergent(IdealConvError):
    """A witness was requested for a function that does not star-converge."""


class NotContinuous(IdealConvError):
    """The supplied map is not continuous between the given spaces."""


class PreconditionViolated(IdealConvError):
    """An operation precondition failed; the message names the clause."""


class FinitePartition(IdealConvError):
    """The partition has only finitely many blocks, or a finite block,
    where infinitely many infinite blocks are required."""


class FamilyNotInIdeal(IdealConvError):
    """A family member handed to a search was not in the ideal."""


class SampleNotInIdeal(IdealConvError):
    """A sampled set handed to a certifier was not in the ideal."""


class SizeTooLarge(IdealConvError):
    """A brute-force enumeration or a normal form went above its size cap."""


class InvalidFunction(IdealConvError):
    """A piecewise function failed validation."""

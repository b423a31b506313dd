"""Exception hierarchy.

Every error carries a stable machine-readable ``code`` so the CLI can emit
``{"error": code}`` on stderr and pick the right exit status.
"""


class SharpOrderError(Exception):
    """Base class for all domain errors raised by this library."""

    code = "error"

    def __init__(self, message=None):
        super().__init__(message or self.__class__.__name__)


class MalformedInput(SharpOrderError):
    code = "malformed_input"


class ShapeMismatch(SharpOrderError):
    code = "shape_mismatch"


class ModeMismatch(SharpOrderError):
    code = "mode_mismatch"


class NonSquare(SharpOrderError):
    code = "non_square"


class NotSupported(SharpOrderError):
    code = "not_supported"


class SingularMatrix(SharpOrderError):
    code = "singular_matrix"


class IndexTooLarge(SharpOrderError):
    code = "index_too_large"


class ZeroMatrix(SharpOrderError):
    code = "zero_matrix"


class InvalidSpec(SharpOrderError):
    code = "invalid_spec"


class IncompleteSpectrum(SharpOrderError):
    code = "incomplete_spectrum"


class ZeroEigenvalue(SharpOrderError):
    code = "zero_eigenvalue"


class NotAPredecessor(SharpOrderError):
    code = "not_a_predecessor"


class NotInTau(SharpOrderError):
    code = "not_in_tau"


class NotInDelta(SharpOrderError):
    code = "not_in_delta"


class SingularK(SharpOrderError):
    code = "singular_k"


class NonCommuting(SharpOrderError):
    code = "non_commuting"


class NoEligibleEigenvalue(SharpOrderError):
    code = "no_eligible_eigenvalue"


class PrecondViolated(SharpOrderError):
    code = "precondition_violated"


class MultiplicityExceedsOne(SharpOrderError):
    code = "multiplicity_exceeds_one"


class WNotProjector(SharpOrderError):
    code = "w_not_projector"


class SingularityMismatch(SharpOrderError):
    code = "singularity_mismatch"


class HypothesisViolated(SharpOrderError):
    code = "hypothesis_violated"


class BudgetExceeded(SharpOrderError):
    code = "budget_exceeded"

"""Exception types shared across the package."""


class DynexecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDistribution(DynexecError):
    """A probability vector violates non-negativity or does not sum to 1."""


class AllZero(DynexecError):
    """Every weight is zero, so no distribution can be formed."""


class NegativeWeight(DynexecError):
    """A weight is negative."""


class VocabMismatch(DynexecError):
    """A token or context is invalid for the model's vocabulary."""


class EmptyContext(DynexecError):
    """An operation that needs at least one context token received none."""


class AllZeroResidual(DynexecError):
    """Residual distribution is identically zero (p equals q elementwise)."""


class LengthMismatch(DynexecError):
    """Sequence lengths passed to verification do not line up."""


class ContractViolation(DynexecError):
    """An internal invariant was broken (e.g. a drafted token with zero draft probability)."""


class InsufficientData(DynexecError):
    """Not enough samples to fit the requested model."""


class SingularSystem(DynexecError):
    """Unregularized least squares on a rank-deficient design matrix."""


class NotConverged(DynexecError):
    """An iterative fit reached its iteration cap before its stopping rule held."""


class DegenerateData(DynexecError):
    """Training data is degenerate (e.g. one class entirely absent)."""


class StepsOutOfRange(DynexecError):
    """Requested denoising step count is outside [1, T]."""


class EmptyPrompt(DynexecError):
    """Routing difficulty needs a non-empty prompt."""


class ParseError(DynexecError):
    """A config or data file failed to parse; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(DynexecError):
    """A config violates the technique schema; carries the offending key."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class MissingSeries(DynexecError):
    """A report does not contain the series requested for plot emission."""

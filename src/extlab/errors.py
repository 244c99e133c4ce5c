"""Exception taxonomy shared by all modules.

The CLI maps these onto its exit-code contract: validation problems exit 2,
numerical failures exit 3, and honest property failures (a mathematical claim
that did not hold) exit 1.
"""


class ExtlabError(Exception):
    """Base class for all package errors."""


class StructuralError(ExtlabError):
    """Objects that cannot be combined: mismatched partitions, wrong shapes."""


class ValidationError(ExtlabError):
    """Malformed input: non-unitary matrices, bad partitions, bad configs."""


class NumericalError(ExtlabError):
    """A computation that ran but failed its own accuracy contract."""


class SingularParameterizationError(ValidationError):
    """The closed-form boundary-matrix denominator vanished for this unitary."""


class IllConditionedLoopError(NumericalError):
    """A loop violated its invertibility margin or produced unsafe phase steps."""


class PropertyFailure(ExtlabError):
    """A verified mathematical identity failed; reserved for verify suites."""

"""Domain errors.

Every failure mode that a caller can trigger with bad (but well-typed) input
gets its own class so the CLI can map it to a stable machine-readable code.
Programming errors stay ordinary ValueError/TypeError.
"""


class SpinelError(Exception):
    """Base class; `code` is the stable identifier used in JSON error output."""

    code = "error"


class ZeroInput(SpinelError):
    code = "zero-input"


class BoundExceeded(SpinelError):
    code = "bound-exceeded"


class NotPrime(SpinelError):
    code = "not-prime"


class AlgebraMismatch(SpinelError):
    code = "algebra-mismatch"


class NotInvertible(SpinelError):
    code = "not-invertible"


class NotUnit(SpinelError):
    code = "not-unit"


class DeltaMismatch(SpinelError):
    code = "delta-mismatch"


class NotPure(SpinelError):
    code = "not-pure"


class NoSpinStructure(SpinelError):
    code = "no-spin-structure"


class NotSpinorial(SpinelError):
    code = "not-spinorial"


class NotInClassList(SpinelError):
    code = "not-in-class-list"


class FieldTooLarge(SpinelError):
    code = "field-too-large"


class SearchExhausted(SpinelError):
    code = "search-exhausted"


class PrecheckFailed(SpinelError):
    code = "precheck-failed"

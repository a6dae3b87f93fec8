"""Exception types shared by every module; the package reports by raising
them and issues no warnings."""


class ChronosError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitianError(ChronosError):
    """A matrix required to be Hermitian failed the symmetry check."""


class NotUnitaryError(ChronosError):
    """A matrix required to be unitary failed the isometry check."""


class ConvergenceError(ChronosError):
    """An eigenvalue or singular-value computation did not converge."""


class DimensionMismatchError(ChronosError):
    """Operands were combined with incompatible dimensions."""


class WrongAxisError(ChronosError):
    """An axis-specific construction was given a grid with the wrong label."""


class WrongKindError(ChronosError):
    """A model-specific construction was given the wrong model kind."""


class OutOfBandError(ChronosError):
    """A requested energy lies beyond the band edge of the time grid."""


class OutOfRangeError(ChronosError):
    """A requested sample value lies outside the range covered by the grid."""


class OffLatticeError(ChronosError):
    """A value that must sit on the grid's frequency lattice does not."""


class IndexOutOfRangeError(ChronosError):
    """An eigenlevel index is outside the retained range."""


class TruncationTopError(ChronosError):
    """A raising step was applied at the top retained eigenlevel."""


class EmptyBasisError(ChronosError):
    """Span gaps were requested of an empty basis."""


class UnknownSuiteError(ChronosError):
    """A check suite was requested under an unrecognized name."""


class ScenarioSyntaxError(ChronosError):
    """A scenario file is not well-formed JSON.

    Carries the one-based line and column of the first offending character
    when the underlying parser provides them.
    """

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = "%s (line %d, column %d)" % (message, line, column)
        super().__init__(message)
        self.line = line
        self.column = column


class ScenarioValidationError(ChronosError):
    """A scenario file is well-formed but violates the schema.

    ``field`` names the offending key path, e.g. ``"steps[2].jump"``.
    """

    def __init__(self, message, field=None):
        if field is not None:
            message = "%s: %s" % (field, message)
        super().__init__(message)
        self.field = field


class ScenarioStepError(ChronosError):
    """A scenario step failed mid-run.

    Carries the trajectory records accumulated before the failure so a
    partial result can still be reported.
    """

    def __init__(self, message, records=()):
        super().__init__(message)
        self.records = tuple(records)

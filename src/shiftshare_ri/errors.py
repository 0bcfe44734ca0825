"""Exception hierarchy for shift-share randomization inference.

Two broad families matter to callers: data/usage problems (bad files,
inconsistent dimensions, invalid options) and numeric degeneracies (zero
instruments, vanishing studentizers).  The CLI maps the former to exit
code 2 and the latter to exit code 3.
"""


class ShiftShareError(Exception):
    """Base class for all package errors."""


class DataValidationError(ShiftShareError):
    """Invalid input data: bad file contents, dimension mismatches,
    negative or non-finite entries, missing columns or labels."""


class ConfigError(ShiftShareError):
    """Invalid run configuration (flags, experiment files, option values)."""


class NumericDegeneracyError(ShiftShareError):
    """Base class for numeric failure modes of the estimators."""


class DegenerateInstrumentError(NumericDegeneracyError):
    """The first-stage cross moment sum(Z_i * X_i) is numerically zero,
    so the shift-share estimator is undefined."""


class ZeroVarianceError(NumericDegeneracyError):
    """The studentizer at the observed shocks is numerically zero: the null
    (T1) or plug-in (T2) residuals are orthogonal to every shocked sector,
    which for T2 holds at any shocks when the exposure matrix has rank one."""


class NotReducedFormError(ShiftShareError):
    """An operation that requires X identical to Z (the plug-in variance
    and the T2 statistic) was called on a non-reduced-form design."""


class EnumerationSizeError(DataValidationError):
    """The transformation group is too large to enumerate exhaustively."""


class DegenerateDrawError(NumericDegeneracyError):
    """Replacement draws for degenerate simulated shocks were exhausted."""

"""Exception hierarchy shared by all modules.

Every error carries a stable kebab-case ``category`` used by the CLI for
machine-readable reporting and exit-code mapping: config errors exit 2,
data errors exit 3, numerical errors exit 4.
"""

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class CtrendError(Exception):
    """Base class; subclasses define `category` and `exit_code`."""

    category = "error"
    exit_code = EXIT_DATA


class ConfigError(CtrendError):
    category = "config"
    exit_code = EXIT_CONFIG


class DataError(CtrendError):
    exit_code = EXIT_DATA


class NumericalError(CtrendError):
    exit_code = EXIT_NUMERICAL


class OutOfFrame(DataError):
    category = "out-of-frame"


class NotOnBoundary(DataError):
    category = "not-on-boundary"


class MalformedFile(DataError):
    category = "malformed-file"


class UnknownSchema(ConfigError):
    category = "unknown-schema"


class NoObservations(DataError):
    category = "no-observations"


class FrameTooSmall(ConfigError):
    category = "frame-too-small"


class InvalidClusterSize(ConfigError):
    category = "invalid-cluster-size"


class SingularSystem(NumericalError):
    category = "singular-system"


class InsufficientDof(DataError):
    category = "insufficient-dof"


class TuningFailure(NumericalError):
    """Tuning failed; `fit` and `report` hold the best attempt."""

    def __init__(self, message, fit=None, report=None):
        super().__init__(message)
        self.fit = fit
        self.report = report


class NoConvergence(TuningFailure):
    """Tuner stopped short of delta: out of budget, or no step lowers the error."""

    category = "no-convergence"


class TargetUnreachable(TuningFailure):
    """A weight held at a bound of its range, or where the system turns
    singular, leaves its statistic short of the target."""

    category = "target-unreachable"


class IndexOutOfRange(ConfigError):
    category = "index-out-of-range"


class PlanOutOfFrame(DataError):
    category = "plan-out-of-frame"


class SpecMismatch(DataError):
    category = "spec-mismatch"

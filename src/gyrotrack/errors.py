"""Exception types shared across the package."""


class GyrotrackError(Exception):
    """Base class for all errors raised by this package."""


class NotSkewError(GyrotrackError):
    """Matrix handed to vee() is not skew-symmetric within tolerance."""


class SingularMetricError(GyrotrackError):
    """Metric tensor is not invertible."""


class KappaOutOfRangeError(GyrotrackError):
    """kappa lies outside the open interval (1/mu, 2/mu)."""


class DivergedStateError(GyrotrackError):
    """Integration produced a non-finite state.

    Attributes:
        step_index: index of the first offending sample.
        time: simulation time of that sample.
    """

    def __init__(self, step_index, time):
        self.step_index = step_index
        self.time = time
        super().__init__(f"state diverged at step {step_index} (t={time:.6g} s)")


class ConfigParseError(GyrotrackError):
    """Scenario config file is malformed.

    Attributes:
        key: offending key (or None), reported in the message.
        line: 1-based line number when known.
    """

    def __init__(self, message, key=None, line=None):
        self.key = key
        self.line = line
        where = []
        if key is not None:
            where.append(f"key '{key}'")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class SchemaMismatchError(GyrotrackError):
    """CSV file does not follow the telemetry column schema."""


class GainSynthesisError(GyrotrackError):
    """No certified gain set can be placed for the given inertia."""

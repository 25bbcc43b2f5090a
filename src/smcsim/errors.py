"""Exception types shared across the package."""


class SmcError(Exception):
    """Base class for all package errors."""


class ParameterError(SmcError, ValueError):
    """A parameter violates its contract (sign, range, finiteness)."""


class DomainError(SmcError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class PreconditionError(SmcError, ValueError):
    """A stated precondition of a bound or theorem check is not met."""


class ControllabilityError(SmcError, RuntimeError):
    """The control channel gain g(x, t) vanished on the trajectory."""


class InsufficientDataError(SmcError, RuntimeError):
    """A log is too short for the requested metric or diagnostic."""


class ConfigError(SmcError, ValueError):
    """A scenario file failed validation; message carries the offending key."""


class SimulationDiverged(SmcError, RuntimeError):
    """The closed-loop state became non-finite during integration.

    ``row`` is the log row at ``time``; ``state`` is the last finite state,
    and ``u`` and ``gain`` are the control and gain computed from it, or
    None when the controller had not run on it.
    """

    def __init__(self, time, message=None, row=None, state=None, u=None, gain=None):
        self.time, self.row, self.state, self.u, self.gain = time, row, state, u, gain
        if message is None:
            message = f"state became non-finite at t = {time:.6g} s"
            if row is not None:
                known = "" if u is None else f", u = {u!r}, gain = {gain!r}"
                message += f" (row {row}; last finite state x = {list(state)!r}{known})"
        super().__init__(message)

    def __reduce__(self):
        # The default rebuilds from args, the message alone, as `time`.
        return type(self), (self.time, str(self), self.row, self.state, self.u, self.gain)


class TuningWarning(UserWarning):
    """Parameter choice is valid but outside the recommended tuning range."""

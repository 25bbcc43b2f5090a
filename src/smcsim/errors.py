"""Exception types shared across the package."""


class SmcError(Exception):
    """Base class for all package errors."""


class ParameterError(SmcError, ValueError):
    """A parameter violates its contract (sign, range, finiteness)."""


class DomainError(SmcError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class InsufficientDataError(SmcError, RuntimeError):
    """A log is too short, or lacks a column, for the requested metric,
    diagnostic or file."""


class ConfigError(SmcError, ValueError):
    """A scenario file failed validation; message carries the offending key."""


class SimulationDiverged(SmcError, RuntimeError):
    """The closed-loop state, or the log ``column`` named, became non-finite.

    ``row`` is the log row at ``time``; ``state`` is the last finite state
    (that row's, for a named column), and ``u`` and ``gain`` are the control
    and gain computed from it, or None when the controller had not run on it.
    """

    def __init__(self, time, message=None, row=None, state=None, u=None, gain=None,
                 column="state"):
        self.time, self.row, self.state, self.u, self.gain = time, row, state, u, gain
        if message is None:
            message = f"{column} became non-finite at t = {time:.6g} s"
            if row is not None:
                known = "" if u is None else f", u = {u!r}, gain = {gain!r}"
                which = "last finite state" if column == "state" else "state"
                message += f" (row {row}; {which} x = {list(state)!r}{known})"
        super().__init__(message)

    def __reduce__(self):
        # The default rebuilds from args, the message alone, as `time`.
        return type(self), (self.time, str(self), self.row, self.state, self.u, self.gain)


class TuningWarning(UserWarning):
    """Parameter choice is valid but outside the recommended tuning range;
    ``section`` names the scenario-file section it concerns."""

    def __init__(self, message, section):
        super().__init__(message)
        self.section = section

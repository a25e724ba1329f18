"""Exception types shared across the package, and config fields' integer rule."""


class GpsdeError(Exception):
    """Base class for all package errors."""


class InputError(GpsdeError, ValueError):
    """A user-supplied value violates a documented precondition."""


class DataError(GpsdeError, ValueError):
    """An input file cannot be parsed; carries file and line when known."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = str(path)
            if line is not None:
                loc += f":{line}"
            loc += ": "
        super().__init__(loc + message)
        self.path = path
        self.line = line


class SimulationError(GpsdeError, RuntimeError):
    """A simulated path left the representable range.

    ``step`` and ``sample`` locate the first offending update when known.
    """

    def __init__(self, message, step=None, sample=None):
        super().__init__(message)
        self.step = step
        self.sample = sample


class InternalError(GpsdeError, RuntimeError):
    """Cached derived state does not correspond to the supplied model."""


class FitError(GpsdeError, RuntimeError):
    """Every optimisation candidate failed; carries per-candidate diagnostics."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


def integer(value, name: str, least: int) -> int:
    """int(value); an InputError naming the setting unless it is whole and >= least."""
    try:
        if int(value) == value and value >= least:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"{name} must be an integer >= {least}, got {value!r}")

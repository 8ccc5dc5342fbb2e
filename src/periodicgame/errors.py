"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError/ConfigError -> 1,
NumericalError -> 2, a failed property report -> 3.
"""


class InputError(ValueError):
    """A precondition on user-supplied data was violated."""


class ConfigError(InputError):
    """A configuration file or CLI argument is invalid.

    ``field`` names the offending entry when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced garbage."""

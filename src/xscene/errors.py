"""Exception types shared across the package: one for bad input, one for
a training that diverged."""


class InputError(ValueError):
    """A config, CSV or checkpoint that the program cannot take, or data
    that does not fit it; the message names the key, file or line."""


class DivergenceError(ArithmeticError):
    """Training produced a non-finite value; the message names the phase,
    the step and the quantity."""

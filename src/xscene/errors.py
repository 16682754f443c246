"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value or unknown configuration key."""


class DataError(ValueError):
    """Dataset violates a required property."""


class ParseError(ValueError):
    """Malformed file content; the message names the offending line."""


class DivergenceError(ArithmeticError):
    """Training produced a non-finite value; the message names the phase,
    the step and the quantity."""

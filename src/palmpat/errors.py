import numbers


class InvalidInputError(ValueError):
    """Raised when an operation receives arguments that violate its contract."""


def check_count(value, name: str, least: int = 1) -> int:
    """``value`` as an int: an integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        need = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise InvalidInputError(f"{name} must be {need}, got {value!r}")
    return int(value)

import numbers
from math import inf, isfinite, nan


class InvalidInputError(ValueError):
    """Raised when an operation receives arguments that violate its contract."""


def check_count(value, name: str, least: int = 1, most: int | None = 2**53) -> int:
    """``value`` as an int: an integer, not a bool, in [least, most]. The cap refuses a
    size numpy cannot allocate before numpy sees it; seeds pass ``most=None``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        need = "a positive integer" if least == 1 else f"an integer >= {least}"
    elif most is not None and value > most:
        need = f"at most {most}"
    else:
        return int(value)
    raise InvalidInputError(f"{name} must be {need}, got {value!r}")


def check_real(value, name: str, low=-inf, high=inf, low_open=False) -> float:
    """A finite real, not a bool, in [low, high] ((low, high] if ``low_open``), as a float."""
    try:
        x = float(value) if isinstance(value, numbers.Real) and type(value) is not bool else nan
    except OverflowError:  # an integer or fraction beyond the float range
        x = nan
    if isfinite(x) and (low < x if low_open else low <= x) and x <= high:
        return x
    need = {(-inf, inf, False): "finite", (0, inf, True): "positive and finite"}.get(
        (low, high, low_open), f"in {'(' if low_open else '['}{low:g}, {high:g}]")
    raise InvalidInputError(f"{name} must be {need}, got {value!r}")

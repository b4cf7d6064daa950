"""Scalar coefficient handling.

Two scalar backends share every algorithm in this package through duck
typing: exact rationals (int / fractions.Fraction) and floats.  The
helpers here keep division exact on the rational backend (plain int/int
would silently produce a float) and convert between the two lanes.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Union

from .errors import KinematicsError

Scalar = Union[int, Fraction, float]


def is_exact(x: Scalar) -> bool:
    """True for the exact backend (int or Fraction), False for floats."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def sdiv(x: Scalar, y: Scalar) -> Scalar:
    """Divide two scalars, staying exact when both operands are exact."""
    if is_exact(x) and is_exact(y):
        return Fraction(x) / Fraction(y)
    return x / y


def parse_scalar(text: str) -> Scalar:
    """Parse "p/q", integer, or decimal notation into an exact scalar, else ValueError."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def format_scalar(x: Scalar) -> Union[str, float]:
    """Exact scalars render as canonical rational strings, floats pass through.

    An exact value with more digits than the interpreter converts to text
    (sys.get_int_max_str_digits) raises KinematicsError.
    """
    if is_exact(x):
        q = Fraction(x)
        try:
            return str(q)
        except ValueError:
            size = math.log10(abs(q.numerator)) - math.log10(q.denominator)
            raise KinematicsError(
                f"an exact value of about 1e{size:+.0f} has more digits than the "
                f"{sys.get_int_max_str_digits()} that can be written"
            ) from None
    return float(x)

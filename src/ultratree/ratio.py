"""Exact rationals and their canonical "p/q" string form.

All quantities in this package (labels, distances, sequence terms, epsilons)
are `fractions.Fraction` values; nothing is ever a float.

:func:`coprime_fraction` is the trusted constructor: n/d from coprime ints
with d > 0, without the gcd that ``Fraction(n, d)`` runs.  Only producers
whose output is in lowest terms by a gcd rule may call it (the label
batches of ``seqs``); its result is equal, hashed and formatted as
``Fraction(n, d)``.  Input goes through :func:`parse_rational`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidDeclaration


def parse_rational(text) -> Fraction:
    """Parse "p/q" or "p" (also accepts int/Fraction passthrough); a float
    or a bool raises InvalidDeclaration."""
    if isinstance(text, Fraction):
        return text
    # a bool is an int, and Fraction(0.1) is not 1/10: refuse both
    if isinstance(text, (bool, float)):
        raise InvalidDeclaration(
            f"{type(text).__name__}s are not accepted, got {text!r}"
        )
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise InvalidDeclaration(f"not a rational: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidDeclaration(f"not a rational: {text!r}") from exc


def coprime_fraction(n: int, d: int) -> Fraction:
    """n/d for coprime ints n and d > 0, not normalized again (see above)."""
    x = object.__new__(Fraction)
    x._numerator, x._denominator = n, d
    return x


def format_rational(value: Fraction) -> str:
    """Canonical string: "p" for integers, "p/q" otherwise."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"

"""Exact algebra of physical units.

A quantity's units are a product of powers of the fundamental units of a
measurement system; the exponents form its dimension vector. All exponents
are exact rationals so that the downstream null-space computation produces
exact zeros rather than rank decisions made through floating-point noise.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

from ._value import Value
from .errors import ModelError

RationalLike = Union[int, str, Fraction]

# SI defines seven base units; no consistent system needs more.
MAX_FUNDAMENTAL_UNITS = 7

_ZERO = Fraction(0)  # the exponent of a unit that a dimension leaves out

# "p" or "p/q" in decimal digits: no decimal point, exponent, underscore or space
_RATIONAL_STRING = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an exponent to an exact rational. Accepts int, Fraction, "p" or "p/q"."""
    if type(value) is Fraction:
        return value
    if isinstance(value, str):  # str and int first: an isinstance of Fraction goes through the slow ABC check
        if not _RATIONAL_STRING.fullmatch(value):
            raise ModelError(f"rational exponent must be an integer or 'p/q' string, got {value!r}")
        numerator, _, denominator = value.partition("/")
        try:  # int() raises ValueError past the digit limit, Fraction ZeroDivisionError on q = 0
            return Fraction(int(numerator), int(denominator)) if denominator else Fraction(int(numerator))
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"cannot parse rational exponent {value!r}") from exc
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise ModelError(f"exponent must be an int, Fraction, or 'p/q' string, got {type(value).__name__}")


class UnitSystem(Value):
    """Ordered set of fundamental-unit labels, e.g. ("kg", "m", "s")."""

    def __init__(self, unit_names: Iterable[str]):
        names = tuple(unit_names)
        if not 1 <= len(names) <= MAX_FUNDAMENTAL_UNITS:
            raise ModelError(
                f"a unit system needs between 1 and {MAX_FUNDAMENTAL_UNITS} "
                f"fundamental units, got {len(names)}"
            )
        if any(not isinstance(n, str) or not n for n in names):
            raise ModelError("unit labels must be non-empty strings")
        if len(set(names)) != len(names):
            raise ModelError(f"unit labels must be unique, got {names}")
        self._set(unit_names=names)

    @property
    def k(self) -> int:
        return len(self.unit_names)

    def index(self, label: str) -> int:
        try:
            return self.unit_names.index(label)
        except ValueError:
            raise ModelError(
                f"unknown unit label {label!r}; system has units {self.unit_names}"
            ) from None


class DimensionVector(Value):
    """Exponents of a quantity's units over a system's fundamental units."""

    def __init__(self, exponents: Iterable[RationalLike], system: UnitSystem):
        exps = tuple(e if type(e) is Fraction else as_fraction(e) for e in exponents)
        if len(exps) != system.k:
            raise ModelError(
                f"dimension vector has {len(exps)} exponents but the system "
                f"has {system.k} units"
            )
        self._set(exponents=exps, system=system)


class QuantityDecl(Value):
    """A named physical quantity with units and (optional) positive range.

    Ranges bound the quantity in its own units and must be strictly positive
    because downstream work happens on logs; they may be omitted for models
    that are only nondimensionalized, never sampled.
    """

    def __init__(
        self,
        name: str,
        dimension: DimensionVector,
        range_lo: Optional[float] = None,
        range_hi: Optional[float] = None,
    ):
        if not name:
            raise ModelError("quantity name must be non-empty")
        if (range_lo is None) != (range_hi is None):
            raise ModelError(f"quantity {name!r}: give both range bounds or neither")
        if range_lo is not None:
            lo, hi = float(range_lo), float(range_hi)
            if not (0.0 < lo < hi):
                raise ModelError(
                    f"quantity {name!r}: range must satisfy 0 < lo < hi, "
                    f"got ({range_lo}, {range_hi})"
                )
            range_lo, range_hi = lo, hi
        self._set(name=name, dimension=dimension, range_lo=range_lo, range_hi=range_hi)

    @property
    def has_range(self) -> bool:
        return self.range_lo is not None


def make_dimension(
    system: UnitSystem, exponent_pairs: Iterable[Tuple[str, RationalLike]]
) -> DimensionVector:
    """Build a dimension vector from (unit label, exponent) pairs.

    Omitted units default to exponent 0; repeated labels accumulate, matching
    multiplication of the underlying unit powers.
    """
    exps = [_ZERO] * system.k
    for label, exponent in exponent_pairs:
        i, x = system.index(label), exponent if type(exponent) is Fraction else as_fraction(exponent)
        exps[i] = x if exps[i] is _ZERO else exps[i] + x  # adding to zero would only copy x
    return DimensionVector(tuple(exps), system)


def is_dimensionless(v: DimensionVector) -> bool:
    """True iff every exponent is exactly zero (no tolerance)."""
    return all(e == 0 for e in v.exponents)

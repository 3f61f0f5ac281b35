"""Points on the extended complex plane.

A single explicit point at infinity stands in for every overflowing or
pole-hitting value; NaN coordinates are rejected outright so downstream
numerics never have to re-check for them.
"""
from __future__ import annotations

import math


class ExtendedComplex:
    """A point of the Riemann sphere: either a finite complex number or infinity."""

    __slots__ = ("_value", "_infinite")

    def __init__(self, value: complex = 0j, at_infinity: bool = False):
        if at_infinity:
            self._value = None
            self._infinite = True
            return
        value = complex(value)
        if math.isnan(value.real) or math.isnan(value.imag):
            raise ValueError("NaN coordinates are not a point of the sphere")
        if math.isinf(value.real) or math.isinf(value.imag):
            # overflow is mapped to the point at infinity, never stored raw
            self._value = None
            self._infinite = True
            return
        self._value = value
        self._infinite = False

    @property
    def at_infinity(self) -> bool:
        return self._infinite

    @property
    def value(self) -> complex:
        if self._infinite:
            raise ValueError("the point at infinity has no finite value")
        return self._value

    def __repr__(self) -> str:
        return "ExtendedComplex(infinity)" if self._infinite else f"ExtendedComplex({self._value!r})"


INFINITY = ExtendedComplex(at_infinity=True)


"""Extended complex points."""

import cmath
import math

import pytest

from speiserdim import INFINITY, ExtendedComplex


def test_infinite_inputs_collapse_to_the_infinite_point():
    assert ExtendedComplex(complex(math.inf, 1.0)).at_infinity
    assert ExtendedComplex(complex(0.0, -math.inf)).at_infinity
    assert not ExtendedComplex(5).at_infinity


def test_nan_rejected():
    with pytest.raises(ValueError, match="NaN"):
        ExtendedComplex(complex(math.nan, 0.0))
    with pytest.raises(ValueError, match="NaN"):
        ExtendedComplex(cmath.nan * 1j)


def test_value_access_guarded():
    assert not ExtendedComplex(3j).at_infinity
    assert INFINITY.at_infinity
    with pytest.raises(ValueError):
        _ = INFINITY.value

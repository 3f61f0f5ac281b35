"""Extended complex points."""

import cmath
import math

import pytest

from speiserdim import INFINITY, ExtendedComplex, as_extended


def test_infinite_inputs_collapse_to_the_infinite_point():
    assert ExtendedComplex(complex(math.inf, 1.0)).at_infinity
    assert ExtendedComplex(complex(0.0, -math.inf)).at_infinity
    assert as_extended(math.inf).at_infinity
    assert not as_extended(5).at_infinity


def test_nan_rejected():
    with pytest.raises(ValueError, match="NaN"):
        ExtendedComplex(complex(math.nan, 0.0))
    with pytest.raises(ValueError, match="NaN"):
        ExtendedComplex(cmath.nan * 1j)


def test_equality_and_hash():
    assert ExtendedComplex(1 + 2j) == ExtendedComplex(1 + 2j)
    assert ExtendedComplex(1 + 2j) != ExtendedComplex(1 - 2j)
    assert INFINITY == ExtendedComplex(complex(math.inf, 0.0))
    assert hash(INFINITY) == hash(ExtendedComplex(complex(-math.inf, 3.0)))
    assert INFINITY != ExtendedComplex(0j)


def test_value_access_guarded():
    assert not ExtendedComplex(3j).at_infinity
    assert INFINITY.at_infinity
    with pytest.raises(ValueError):
        _ = INFINITY.value

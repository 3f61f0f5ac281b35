"""Weierstrass elliptic function on the square lattice with periods pi and i*pi."""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speiserdim import (
    PI,
    eisenstein_g4,
    square_lattice,
    wp,
    wp_direct_sum,
    wp_prime,
)
from speiserdim.elliptic import POLE_CUTOFF, _wp_array, direct_sum_radius


def brute_weight4_sum(k):
    """Plain double sum of omega^-4 over the square |m|, |n| <= k, origin excluded."""
    m, n = np.meshgrid(np.arange(-k, k + 1), np.arange(-k, k + 1))
    omega = PI * (m + 1j * n)
    omega[k, k] = 1.0  # placeholder, excluded below
    terms = 1.0 / omega ** 4
    terms[k, k] = 0.0
    return float(terms.sum().real)


def random_cell_points(count, seed, margin=0.15):
    """Points of the fundamental cell at least `margin` away from every pole
    (the nearest lattice point of a cell point is the origin)."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-PI / 2, PI / 2), rng.uniform(-PI / 2, PI / 2))
        if abs(z) > margin:
            pts.append(z)
    return pts


def test_weight4_sum_against_brute_double_sum():
    # the square-truncated sum has an O(1/k^2) tail; one Richardson step
    # against the doubled cutoff removes it to well below the tolerance
    s1, s2 = brute_weight4_sum(200), brute_weight4_sum(400)
    extrapolated = (4.0 * s2 - s1) / 3.0
    assert eisenstein_g4() == pytest.approx(extrapolated, abs=1e-10)


def test_half_period_values():
    lat = square_lattice()
    assert wp(PI / 2).imag == pytest.approx(0.0, abs=1e-12)
    assert wp(PI / 2).real == pytest.approx(lat.e1, abs=1e-12)
    assert abs(wp((PI + 1j * PI) / 2)) < 1e-9  # e2 = 0 on the square lattice
    assert wp(1j * PI / 2) == pytest.approx(-lat.e1 + 0j, abs=1e-12)  # e3 = -e1
    # the derivative vanishes at every half period
    for h in (PI / 2, 1j * PI / 2, (PI + 1j * PI) / 2):
        assert abs(wp_prime(h)) < 1e-9


def test_invariants():
    lat = square_lattice()
    assert lat.g2 == pytest.approx(4.0 * lat.e1 ** 2, rel=1e-14)
    assert lat.g2 == pytest.approx(60.0 * eisenstein_g4(), abs=1e-9)
    assert lat.e1 == pytest.approx(0.6966019648428382, abs=1e-12)


def test_e1_is_the_correctly_rounded_lemniscatic_constant():
    # Gamma(1/4)^4 / (8 pi^3) = 0.69660196484283842959...; the nearest
    # double is the one below, and the independent direct sum agrees
    e1 = square_lattice().e1
    assert e1 == 0.6966019648428384
    assert abs(e1 - wp_direct_sum(PI / 2, 1e-12).real) <= 2 * math.ulp(e1)


def test_lattice_init_does_not_sum_the_lattice():
    # the direct sum is an oracle only: start-up must not pay for it
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = (
        "import speiserdim.elliptic as e\n"
        "def boom(*args, **kwargs):\n"
        "    raise RuntimeError('direct lattice sum called')\n"
        "e.wp_direct_sum = boom\n"
        "print(repr(e.square_lattice().e1))\n"
    )
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "0.6966019648428384"


def test_matches_direct_lattice_sum():
    start = time.monotonic()
    pts = random_cell_points(100, seed=20260814)
    for z in pts:
        direct = wp_direct_sum(z, tol=1e-9)
        fast = wp(z)
        assert abs(fast - direct) <= 1e-8 * (1.0 + abs(direct))
    assert time.monotonic() - start < 5.0


def test_differential_equation():
    lat = square_lattice()
    for z in random_cell_points(60, seed=5):
        p = wp(z)
        dp = wp_prime(z)
        lhs = dp * dp
        rhs = 4.0 * p ** 3 - lat.g2 * p  # g3 = 0 on the square lattice
        assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(lhs))


def test_derivative_matches_central_difference():
    h = 1e-6
    for z in (0.3 + 0.2j, -1.1 + 0.7j, 0.9 - 1.2j):
        approx = (wp(z + h) - wp(z - h)) / (2.0 * h)
        assert wp_prime(z) == pytest.approx(approx, rel=1e-5)


def test_evenness_is_exact():
    for z in random_cell_points(50, seed=9):
        assert wp(-z) == wp(z)
        assert wp_prime(-z) == -wp_prime(z)


def test_periodicity():
    for z in random_cell_points(25, seed=13):
        ref = wp(z)
        for shift in (PI, 1j * PI, 5 * PI - 3j * PI, -41 * PI + 17j * PI):
            assert wp(z + shift) == pytest.approx(ref, rel=1e-9)


def test_reduction_small_case():
    # 10 + 7j reduces by 3*pi + 2i*pi into the cell, exactly as written here
    want = (10 - 3 * PI) + 1j * (7 - 2 * PI)
    assert -PI / 2 <= want.real < PI / 2 and -PI / 2 <= want.imag < PI / 2
    assert wp(10 + 7j) == wp(want)
    assert wp_prime(10 + 7j) == wp_prime(want)


def test_reduction_survives_huge_arguments():
    # single-pass reduction loses the cell entirely out here; the looped
    # version must still land near the cell and keep wp finite
    for z in (1e9 + 0.3 - 1j * (1e9 - 0.4), -3.2e12 + 1j * 7.7e11, 1e15 + 1j):
        assert np.isfinite(wp(z).real) and np.isfinite(wp(z).imag)
    # at 1e9 the reduction's own rounding (~1e-7) still leaves periodicity
    # visible against an exact rational reduction
    z = 1e9 + 0.3 - 1j * (1e9 - 0.4)
    k, l = round(z.real / PI), round(z.imag / PI)
    exact = complex(float(Fraction(z.real) - k * Fraction(PI)), float(Fraction(z.imag) - l * Fraction(PI)))
    assert wp(z) == pytest.approx(wp(exact), rel=1e-5)


def test_pole_handling():
    assert wp(0).real == math.inf
    assert wp(PI).real == math.inf  # lattice translate of the pole
    assert wp_prime(0).real == math.inf
    assert wp(POLE_CUTOFF / 2).real == math.inf
    near = wp(2 * POLE_CUTOFF)
    assert np.isfinite(near.real) and abs(near) > 1e14


def test_laurent_head_dominates_near_origin():
    for z in (1e-4 + 0j, 1e-4j, 7e-5 + 5e-5j):
        assert wp(z) == pytest.approx(1.0 / (z * z), rel=1e-7)


def test_direct_sum_radius_grows_with_tightness():
    assert direct_sum_radius(1.0, 1e-12) > direct_sum_radius(1.0, 1e-6)
    assert direct_sum_radius(10.0, 1e-9) > direct_sum_radius(1.0, 1e-9)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=20))
def test_scalar_matches_array_path(zs):
    # wp and wp' are size-1 calls into the array kernel; a batch must give
    # the same bits element by element, poles included
    values, derivs, pole = _wp_array(np.asarray(zs), derivative=True)
    for z, v, d, p in zip(zs, values, derivs, pole):
        if p:
            assert wp(z).real == math.inf and wp_prime(z).real == math.inf
        else:
            assert wp(z) == v and wp_prime(z) == d

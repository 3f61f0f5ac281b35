"""Weierstrass elliptic function on the square lattice with periods pi and i*pi."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
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
from speiserdim import elliptic
from speiserdim.elliptic import POLE_CUTOFF, _eisenstein_g8, _wp_array, direct_sum_radius


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


def test_weight8_sum_from_its_rows_is_three_sevenths_of_g4_squared():
    # g3 = 0 makes the Laurent recursion give G8 = 3 G4^2 / 7 (DLMF 23.9)
    g4 = eisenstein_g4()
    assert abs(_eisenstein_g8() - 3.0 * g4 * g4 / 7.0) <= 4 * math.ulp(_eisenstein_g8())


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
    # the direct sum is an oracle only: start-up must not pay for it, nor for its G8
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = (
        "import speiserdim.elliptic as e\n"
        "def boom(*args, **kwargs):\n"
        "    raise RuntimeError('direct lattice sum called')\n"
        "e.wp_direct_sum = boom\n"
        "print(repr(e.square_lattice().e1))\n"
        "print(e._eisenstein_g8.cache_info().misses)\n"
    )
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0.6966019648428384", "0"]


def test_matches_direct_lattice_sum():
    start = time.monotonic()
    pts = random_cell_points(100, seed=20260814)
    for z in pts:
        direct = wp_direct_sum(z, tol=1e-9)
        fast = wp(z)
        assert abs(fast - direct) <= 1e-8 * (1.0 + abs(direct))
    assert time.monotonic() - start < 5.0


def _lattice_within(R):
    """Integer pairs (j, k) with |pi*(j + i*k)| <= R."""
    K = int(R / PI) + 1
    j, k = np.meshgrid(np.arange(-K, K + 1), np.arange(-K, K + 1))
    keep = np.abs(PI * (j + 1j * k)) <= R
    return j[keep], k[keep]


@pytest.mark.parametrize("R", [3.0, PI, 12.0, 40.0, 40.0 * math.sqrt(2.0), 317.5])
def test_quadrant_representatives_tile_the_lattice(R):
    # each nonzero lattice point lies in exactly one orbit {w, iw, -w, -iw},
    # and the orbit has exactly one member with j >= 1, k >= 0
    j, k = _lattice_within(R)
    reps = (j >= 1) & (k >= 0)
    assert 4 * int(reps.sum()) + 1 == j.size
    orbits = {(a, b) for a, b in zip(j[reps].tolist(), k[reps].tolist())}
    for a, b in zip(j.tolist(), k.tolist()):
        if (a, b) != (0, 0):
            turns = {(a, b), (-b, a), (-a, -b), (b, -a)}
            assert len(turns & orbits) == 1


@pytest.mark.parametrize("z", [0.3 + 0.2j, -1.1 + 0.7j, PI / 2, 0.9 - 1.5j, 3 + 4j, 10 - 2j, -7.5 + 0.4j])
def test_folded_direct_sum_matches_the_unfolded_sum(monkeypatch, z):
    # with the radius pinned, the orbit sum must agree with the plain sum
    # over every lattice point of the disk to a few ulps per term
    R = 40.0
    monkeypatch.setattr(elliptic, "direct_sum_radius", lambda z_modulus, tol: R)
    j, k = _lattice_within(R)
    w = PI * (j + 1j * k)
    w = w[w != 0]
    terms = 1.0 / (z - w) ** 2 - sum((n + 1) * z ** n / w ** (n + 2) for n in range(8))
    restored = 3.0 * eisenstein_g4() * z * z + 7.0 * _eisenstein_g8() * z ** 6
    plain = 1.0 / (z * z) + terms.sum() + restored
    scale = abs(1.0 / (z * z)) + np.abs(terms).sum() + abs(restored)
    assert abs(wp_direct_sum(z) - plain) <= 4 * w.size * np.finfo(float).eps * scale


def test_direct_sum_reports_every_lattice_point_as_a_pole():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (0, PI, 1j * PI, PI + 1j * PI, -3 * PI + 2j * PI, PI + 1e-9, 1j * PI - 1e-9j):
            assert wp_direct_sum(z) == complex(math.inf, 0.0)
            assert wp(z).real == math.inf
        near = wp_direct_sum(PI + 2 * POLE_CUTOFF)
        assert np.isfinite(near.real) and abs(near) > 1e14


def _direct_sum_point_by_point(z, tol):
    """The one-point direct sum that a batch replaced: its own blocks, its own moduli."""
    R = direct_sum_radius(abs(z), 0.5 * tol)
    if abs(z - PI * complex(round(z.real / PI), round(z.imag / PI))) < POLE_CUTOFF:
        return complex(math.inf, 0.0)
    k = np.arange(int(R / PI) + 2)
    z4 = (z * z) ** 2
    s = 0j
    for start in range(0, k.size, 64):
        w = (PI * (k[None, 1:] + 1j * k[start:start + 64, None])).ravel()
        w4 = np.square(np.square(w[np.abs(w) <= R]))
        den = np.multiply(np.square(w4), np.square(np.subtract(w4, z4)))
        s += complex(np.sum(np.divide(np.subtract(np.multiply(11.0, w4), 7.0 * z4), den)))
    return (1.0 / (z * z) + 4.0 * z4 * z4 * z * z * s + 3.0 * eisenstein_g4() * z * z
            + 7.0 * _eisenstein_g8() * z4 * z * z)


def _degree3_direct_sum(z, tol):
    """The earlier oracle: Taylor terms subtracted through degree 3 only, so the
    tail falls like R^-4; R is the passing end of its closed-form bracket."""
    v = abs(z) ** 4 / (2.0 * PI * 0.5 * tol)
    R = max(12.0, 4.0 * abs(z), PI / math.sqrt(2.0) + (8.41 * v) ** 0.25)
    k = np.arange(int(R / PI) + 2)
    z4 = (z * z) ** 2
    s = 0j
    for start in range(0, k.size, 64):
        w = (PI * (k[None, 1:] + 1j * k[start:start + 64, None])).ravel()
        w4 = (w[np.abs(w) <= R] ** 2) ** 2
        s += complex(np.sum((7.0 * w4 - 3.0 * z4) / (w4 * (w4 - z4) ** 2)))
    return 1.0 / (z * z) + 4.0 * z4 * z * z * s + 3.0 * eisenstein_g4() * z * z


# radii from the floor 12 up to about 110 at tol 1e-9, four lattice points and one next to a fifth
_MIXED_BATCH = [0.01 + 0.02j, 0.3 + 0.2j, -1.1 + 0.7j, PI / 2, 0.9 - 1.5j, 1.5 + 1.5j, 3 + 4j,
                -7.5 + 0.4j, 0j, PI, 1j * PI, -3 * PI + 2j * PI, PI + 2 * POLE_CUTOFF]


def test_direct_sum_batch_equals_single_calls():
    # the batch shares its blocks but sums each point's elements as alone
    with np.errstate(all="raise"):
        batch = wp_direct_sum(_MIXED_BATCH, 1e-9)
        single = [wp_direct_sum(z, 1e-9) for z in _MIXED_BATCH]
    def bits(values):
        return np.asarray(values, dtype=complex).view(np.uint64).tolist()

    assert isinstance(batch, list) and all(type(v) is complex for v in single)
    assert bits(batch) == bits(single)
    assert bits(batch) == bits([_direct_sum_point_by_point(complex(z), 1e-9) for z in _MIXED_BATCH])
    assert batch[8:12] == [complex(math.inf, 0.0)] * 4
    assert all(math.isfinite(abs(v)) for v in batch[:8] + batch[12:])
    assert wp_direct_sum(np.asarray(_MIXED_BATCH[:3]), 1e-9) == batch[:3]


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_direct_sum_batch_needs_no_more_memory_than_its_largest_point():
    # at tol 1e-15 the largest point's arrays (R = 593) outweigh the batch's
    # per-point bookkeeping, about 150 bytes a point
    largest = max(_MIXED_BATCH[:8], key=lambda z: direct_sum_radius(abs(z), 0.5e-15))
    wp_direct_sum(_MIXED_BATCH, 1e-15)  # caches filled before measuring
    assert _peak_bytes(lambda: wp_direct_sum(_MIXED_BATCH, 1e-15)) <= _peak_bytes(
        lambda: _direct_sum_point_by_point(complex(largest), 1e-15))


def test_direct_sum_memory_stays_bounded():
    # the quadrant is summed in blocks of rows, so a call at R = 1,646 (about
    # 215,000 orbit representatives in 9 blocks) never holds the whole disk at once
    assert 1600 < direct_sum_radius(PI / 2, 0.5e-24) < 1700
    assert _peak_bytes(lambda: wp_direct_sum(PI / 2, 1e-24)) < 5e6


def test_tightest_oracle_call_sums_a_small_disk():
    # with the degree <= 7 terms subtracted the tail falls like R^-8: the e1
    # check's call sums to R = 55, where the degree-3 form needed R = 1,767
    assert direct_sum_radius(PI / 2, 0.5e-12) < 60
    wp_direct_sum(PI / 2, 1e-12)  # caches filled before measuring
    assert _peak_bytes(lambda: wp_direct_sum(PI / 2, 1e-12)) < 100e3


def test_direct_sum_agrees_with_the_degree3_sum():
    # at tol 1e-13 both forms are at rounding level; off the cell the restored
    # 7 G8 z^6 cancels against the orbit sum, so the new form's rounding grows
    # like |z|^6 (1.1e-13 at -7.5 + 0.4j, where 7 G8 |z|^6 is 566)
    zs = random_cell_points(20, seed=28) + _MIXED_BATCH[:8] + _MIXED_BATCH[12:]  # the finite points
    for z, new in zip(zs, wp_direct_sum(zs, 1e-13)):
        old = _degree3_direct_sum(z, 1e-13)
        assert abs(new - old) <= 2e-14 * max(1.0, abs(old), 7.0 * _eisenstein_g8() * abs(z) ** 6), z


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


def _coefficient_bound(j):
    # |d_j| <= 4.6 (4j+3) pi^(-4j-4), the bound of _laurent_order_for's docstring
    return 4.6 * (4 * j + 3) * PI ** (-4 * j - 4)


def test_laurent_coefficients_obey_the_stated_bound():
    lat = square_lattice()
    # the production table, and a longer one from the same recursion
    longer = elliptic._laurent_coefficients(lat.g2, 40)
    assert np.array_equal(longer[:lat.laurent.size], lat.laurent)
    for j, d in enumerate(longer):
        assert abs(d) <= _coefficient_bound(j), j


def test_laurent_order_keeps_the_tail_below_its_tolerance_at_the_halved_radius():
    # wp is summed at u = z/2 with |u| <= pi/(2 sqrt 2); the series left out
    # after the chosen order is bounded term by term by the coefficient bound
    r = PI / (2.0 * math.sqrt(2.0))
    order = square_lattice().laurent.size
    assert order == elliptic._laurent_order_for(1e-13, r) == 10
    tail = math.fsum(_coefficient_bound(j) * r ** (4 * j + 2) for j in range(order, 200))
    assert tail < 1e-13
    # the order is two terms of margin past the first one whose tail passes:
    # stopping a term before that one leaves the bound above tolerance
    assert math.fsum(_coefficient_bound(j) * r ** (4 * j + 2) for j in range(order - 3, 200)) > 1e-13


_DIRECTIONS = [complex(math.cos(a), math.sin(a)) for a in (0.0, 0.3, PI / 4, 1.2, PI / 2, 2.5, PI)]


@pytest.mark.parametrize("radius", [1e-6, 1e-3, 0.05])
def test_duplication_formula_near_the_pole(radius):
    # the halving and the doubling fraction keep wp's relative accuracy where
    # wp is huge; wp' is checked through wp'^2 = 4 wp^3 - g2 wp with the
    # direct sum's wp
    g2 = square_lattice().g2
    zs = np.array([radius * d for d in _DIRECTIONS])
    zs = np.concatenate([zs, zs + 1e-9])
    values, derivs, pole = _wp_array(zs, derivative=True)
    assert not pole.any()
    for z, v, d in zip(zs, values, derivs):
        ref = wp_direct_sum(z, 1e-13)
        assert abs(v - ref) <= 1e-15 * abs(ref), z
        rhs = 4.0 * ref ** 3 - g2 * ref
        assert abs(d * d - rhs) <= 4e-15 * (abs(d) ** 2 + abs(4.0 * ref ** 3) + abs(g2 * ref)), z


@pytest.mark.parametrize("half_period, wp_half_period", [(PI / 2, 1.0), (1j * PI / 2, -1.0), ((1 + 1j) * PI / 2, 0.0)])
def test_duplication_formula_at_the_half_periods(half_period, wp_half_period):
    # at u = z/2 the half periods sit at |u| = pi/4 and pi/(2 sqrt 2), the
    # edge of the disk the series covers; (1+i) pi/2 is the zero of wp, so
    # the bounds there are absolute
    lat = square_lattice()
    e_h = wp_half_period * lat.e1
    zs = np.array([half_period] + [half_period + 1e-9 * d for d in _DIRECTIONS])
    values, derivs, pole = _wp_array(zs, derivative=True)
    assert not pole.any()
    for z, v, d in zip(zs, values, derivs):
        ref = wp_direct_sum(z, 1e-13)
        assert abs(v - ref) <= 1e-15, z
        assert abs(d * d - (4.0 * ref ** 3 - lat.g2 * ref)) <= 1e-15, z
        # wp' vanishes at the half period and wp''' = 12 wp wp' does too, so
        # wp'(h + delta) = wp''(h) delta + O(delta^3) with wp'' = 6 wp^2 - g2/2
        assert abs(d - (6.0 * e_h * e_h - lat.g2 / 2.0) * (z - half_period)) <= 1e-15, z


def test_direct_sum_radius_grows_with_tightness():
    assert direct_sum_radius(1.0, 1e-12) > direct_sum_radius(1.0, 1e-6)
    assert direct_sum_radius(10.0, 1e-9) > direct_sum_radius(1.0, 1e-9)


def test_direct_sum_radius_is_minimal():
    # the tail bound of direct_sum_radius's docstring, recomputed here
    def bound(z_modulus, R):
        y0 = z_modulus / R
        S = R - math.pi / math.sqrt(2.0)
        tail = (2.0 / math.pi) * (1.0 / (8.0 * S ** 8) + (math.pi / math.sqrt(2.0)) / (9.0 * S ** 9))
        return (9.0 / (1.0 - y0) + y0 / (1.0 - y0) ** 2) * z_modulus ** 8 * tail

    on_floor = 0
    for z_modulus in np.linspace(0.0, 40.0, 81):
        for tol in (1e-6, 1e-9, 1e-12):
            R = direct_sum_radius(z_modulus, tol)
            assert bound(z_modulus, R) < tol
            if R == max(12.0, 4.0 * z_modulus):
                on_floor += 1
            else:
                assert not bound(z_modulus, R * (1 - 1e-6)) < tol, (z_modulus, tol, R)
    assert 0 < on_floor < 243


def test_direct_sum_rejects_non_finite_input():
    # the radius loop ends only for a finite |z| and a tol that compares: at
    # |z| = inf it never returns, and a NaN tol grows R until S ** 5 overflows
    for z_modulus, tol in ((math.inf, 1e-9), (math.nan, 1e-9), (1.0, math.nan), (1.0, 0.0), (1.0, -1e-9)):
        with pytest.raises(ValueError, match="positive tol and a finite"):
            direct_sum_radius(z_modulus, tol)
    for z, tol in ((0.5, math.nan), (complex(math.inf, 0.0), 1e-9), (complex(0.5, math.nan), 1e-9)):
        with pytest.raises(ValueError, match="positive tol and a finite"):
            wp_direct_sum(z, tol)


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

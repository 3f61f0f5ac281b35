"""Fixed points, orbit classification, Koenigs linearization, raster rendering."""

import threading

import numpy as np
import pytest
from scipy.optimize import brentq

from speiserdim import (
    CODE_JULIA,
    CODE_UNDETERMINED,
    GridSpec,
    LinearizationDomainError,
    MapFamily,
    NoAttractingFixedPointError,
    eval_deriv,
    eval_family,
    find_attracting_fixed_point,
    koenigs_check,
    koenigs_value,
    nearest_pole,
    render,
)
from speiserdim.dynamics import DEFAULT_GUARD_EXITS, DEFAULT_GUARD_MODULUS, _brentq, _iterate_block

FAM = MapFamily(tag="FLambda", lam=1.0, m=9, p=1, eta=0.3)
FP = find_attracting_fixed_point(1.0, 9, 1, 0.3)


def classify_point(z, tol=1e-6):
    """Code of one starting point, from the block iterator that render uses."""
    codes = _iterate_block(np.asarray([complex(z)]), FAM, FP, 500, tol,
                           DEFAULT_GUARD_MODULUS, DEFAULT_GUARD_EXITS, 3)
    return int(codes[0])


def test_fixed_point_location_and_residual():
    assert 0.0 < FP.location < 0.3
    gap = eval_family(FAM, complex(FP.location)).value - FP.location
    assert abs(gap) < 1e-12
    assert abs(FP.multiplier) < 1.0


def test_multiplier_is_chain_rule_through_the_strip_family():
    hm = MapFamily(tag="Hm", m=9, p=1, eta=0.3)
    lam = 0.85
    fp = find_attracting_fixed_point(lam, 9, 1, 0.3)
    want = lam * eval_deriv(hm, complex(lam * fp.location)).value.real
    assert fp.multiplier == pytest.approx(want, rel=1e-12)


def test_multiplier_negative_at_lambda_one():
    assert FP.multiplier < 0.0


def test_multiplier_vanishes_with_lambda():
    fp = find_attracting_fixed_point(1e-3, 9, 1, 0.3)
    assert abs(fp.multiplier) < 0.1


def test_multiplier_strictly_decreasing_in_lambda():
    mults = [
        find_attracting_fixed_point(float(lam), 9, 1, 0.3).multiplier
        for lam in np.linspace(0.1, 1.0, 10)
    ]
    assert all(b < a for a, b in zip(mults, mults[1:]))


def test_no_attracting_fixed_point_error():
    with pytest.raises(NoAttractingFixedPointError, match="not attracting"):
        find_attracting_fixed_point(1.0, 9, 1, 1.4)


def test_classify_fixed_point_is_step_zero():
    assert classify_point(complex(FP.location)) == 0


def test_classify_real_points_attract():
    for x in (-2.3, -0.7, 0.01, 0.29, 1.7, 3.0):
        code = classify_point(complex(x))
        assert code >= 0


def test_classify_pole_is_julia():
    assert classify_point(nearest_pole(FAM).location) == CODE_JULIA


def test_classification_symmetric_under_conjugation():
    rng = np.random.default_rng(6)
    for _ in range(30):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert classify_point(z) == classify_point(z.conjugate())
        assert classify_point(z) == classify_point(-z)


def test_attraction_step_monotone_in_tolerance():
    for z in (1.5 + 0.2j, -0.4 + 0.9j, 0.8 - 0.3j):
        loose = classify_point(z, tol=1e-3)
        tight = classify_point(z, tol=1e-9)
        assert loose >= 0 and tight >= 0
        assert tight >= loose


def test_render_deterministic_across_thread_counts():
    grid = GridSpec(center=0j, half_width=2.0, resolution=96, max_iterations=60)
    codes = [render(grid, FAM, FP, threads=t).codes for t in (1, 4, 0)]
    assert np.array_equal(codes[0], codes[1])
    assert np.array_equal(codes[0], codes[2])


def test_render_inside_the_immediate_basin_is_all_attracted():
    grid = GridSpec(center=complex(FP.location), half_width=0.05, resolution=32, max_iterations=200)
    result = render(grid, FAM, FP)
    assert result.attracted_fraction == 1.0
    assert result.julia_fraction == 0.0 and result.undetermined_fraction == 0.0


def test_exhausted_budget_reports_undetermined():
    grid = GridSpec(center=0j, half_width=2.0, resolution=32, max_iterations=2, attraction_tol=1e-12)
    result = render(grid, FAM, FP)
    total = result.attracted_fraction + result.julia_fraction + result.undetermined_fraction
    assert total == pytest.approx(1.0)
    assert result.undetermined_fraction > 0.0
    assert np.array_equal(result.target_mask(), result.codes < 0)


def test_cycle_sweep_detects_the_fixed_point_as_period_one():
    grid = GridSpec(center=complex(FP.location), half_width=0.05, resolution=24, max_iterations=200)
    result = render(grid, FAM, None, cycle_periods=1)
    assert result.attracted_fraction == 1.0


def test_cycle_sweep_everywhere_chaotic_family():
    grid = GridSpec(center=0j, half_width=2.0, resolution=64, max_iterations=200)
    result = render(grid, MapFamily(tag="FMax"), None, cycle_periods=3)
    assert result.attracted_fraction < 0.01


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(resolution=1)
    with pytest.raises(ValueError):
        GridSpec(half_width=0.0)
    with pytest.raises(ValueError):
        GridSpec(max_iterations=0)
    with pytest.raises(ValueError):
        GridSpec(attraction_tol=0.0)


def test_pixel_centers_layout():
    grid = GridSpec(center=1 - 1j, half_width=2.0, resolution=5)
    pts = grid.pixel_centers()
    assert pts.shape == (5, 5)
    assert pts[0, 0] == pytest.approx(-1 + 1j)  # top-left
    assert pts[-1, -1] == pytest.approx(3 - 3j)  # bottom-right
    assert pts[2, 2] == pytest.approx(1 - 1j)


@pytest.mark.parametrize("n", [5, 6, 512])
def test_pixel_centers_mirror_exactly_on_centred_axes(n):
    pts = GridSpec(center=0j, half_width=2.0, resolution=n).pixel_centers()
    xs, ys = pts[0].real, pts[:, 0].imag
    assert np.array_equal(pts.real, np.broadcast_to(xs, (n, n)))
    assert np.array_equal(pts.imag, np.broadcast_to(ys[:, None], (n, n)))
    for axis in (xs, ys):
        assert np.array_equal(axis, -axis[::-1])
        if n % 2:
            assert axis[n // 2] == 0.0 and not np.signbit(axis[n // 2])
    # off-centre axes are np.linspace, unchanged
    pts = GridSpec(center=0.3 - 0.7j, half_width=2.0, resolution=n).pixel_centers()
    assert np.array_equal(pts[0].real, np.linspace(0.3 - 2.0, 0.3 + 2.0, n))
    assert np.array_equal(pts[:, 0].imag, np.linspace(-0.7 + 2.0, -0.7 - 2.0, n))


def _full_grid_codes(grid, family, fp, guard, cycle_periods=3):
    """Every pixel iterated, in one call, at the same centres as render."""
    codes = _iterate_block(grid.pixel_centers(), family, fp, grid.max_iterations,
                           grid.attraction_tol, guard[0], guard[1], cycle_periods)
    return codes.reshape(grid.resolution, grid.resolution)


HM = MapFamily(tag="Hm", m=9, p=1, eta=0.3)  # FLambda at lam = 1, so FP is its fixed point too
SYMMETRY_FAMILIES = [MapFamily(tag="G"), MapFamily(tag="FMax"), MapFamily(tag="H", p=2), HM, FAM]


# A coarse attraction_tol makes orbits pass the tests that a wrong mirror
# would break (|v - fp| against |-conj v - fp|, |v_k - z0| against
# |v_k + z0|) often enough to show on small grids.
@pytest.mark.parametrize("tol", [1e-6, 0.5, 2.0])
@pytest.mark.parametrize("guard", [(30.0, 2), (1e12, 3)], ids=["guard30", "guard1e12"])
@pytest.mark.parametrize("center", [0j, 0.3 + 0j, 0.25j], ids=["centred", "real-offset", "imag-offset"])
@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("fixed_point", [True, False], ids=["fixed-point", "cycle"])
@pytest.mark.parametrize("family", SYMMETRY_FAMILIES, ids=lambda f: f.tag)
def test_symmetric_render_equals_full_grid_iteration(family, fixed_point, n, center, guard, tol):
    grid = GridSpec(center=center, half_width=2.0, resolution=n, max_iterations=40, attraction_tol=tol)
    fp = FP if fixed_point else None
    raster = render(grid, family, fp, threads=2, guard_modulus=guard[0], guard_exit_limit=guard[1])
    assert np.array_equal(raster.codes, _full_grid_codes(grid, family, fp, guard))


@pytest.mark.parametrize("threads", [1, 2, 0])
def test_symmetric_render_rechecks_step_zero_of_column_mirrors(threads):
    # -fp is the column mirror of fp, and only fp is attracted at step 0
    grid = GridSpec(center=0j, half_width=FP.location, resolution=3)
    codes = render(grid, FAM, FP, threads=threads).codes
    assert codes[1, 0] == 1 and codes[1, 2] == 0
    guard = (DEFAULT_GUARD_MODULUS, DEFAULT_GUARD_EXITS)
    assert np.array_equal(codes, _full_grid_codes(grid, FAM, FP, guard))


def test_render_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("render started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    grid = GridSpec(center=0j, half_width=2.0, resolution=131, max_iterations=30)
    raster = render(grid, FAM, FP, threads=2, guard_modulus=30.0, guard_exit_limit=2)
    assert raster.codes.shape == (131, 131)


@pytest.mark.parametrize("threads", [1, 2, 0])
def test_symmetric_render_over_several_blocks(threads):
    grid = GridSpec(center=0j, half_width=2.0, resolution=131, max_iterations=30)
    guard = (30.0, 2)
    raster = render(grid, FAM, FP, threads=threads, guard_modulus=guard[0], guard_exit_limit=guard[1])
    assert np.array_equal(raster.codes, _full_grid_codes(grid, FAM, FP, guard))


def test_pgm_bytes_structure():
    pole = nearest_pole(FAM).location
    grid = GridSpec(center=pole, half_width=0.01, resolution=3, max_iterations=50)
    result = render(grid, FAM, FP)
    blob = result.to_pgm(comments=["alpha = 1"])
    assert blob.startswith(b"P5\n# alpha = 1\n3 3\n255\n")
    pixels = np.frombuffer(blob[-9:], dtype=np.uint8).reshape(3, 3)
    assert result.codes[1, 1] == CODE_JULIA
    assert pixels[1, 1] == 0  # pole pixel renders black
    assert pixels[result.codes == CODE_UNDETERMINED].size == 0 or np.all(
        pixels[result.codes == CODE_UNDETERMINED] == 255
    )


def test_koenigs_linearization():
    assert abs(koenigs_value(FAM, FP, complex(FP.location))) < 1e-12
    assert koenigs_check(FAM, FP, FP.location + 1e-4) < 1e-8
    h = 1e-5
    slope = koenigs_value(FAM, FP, FP.location + h) / h
    assert slope == pytest.approx(1.0, abs=1e-4)


def test_koenigs_rejects_orbits_that_leave_the_domain():
    with pytest.raises(LinearizationDomainError):
        koenigs_value(FAM, FP, nearest_pole(FAM).location)


# the lambdas of the default sweep, of verify's multiplier scan and of
# acceptance criteria 06 and 09
SWEEP_LAMBDAS = sorted({float(x) for x in np.concatenate([
    np.linspace(0.75, 1.0, 8), np.linspace(0.1, 1.0, 10), [0.55], np.linspace(0.74, 1.0, 11),
])})


@pytest.mark.parametrize("lam", SWEEP_LAMBDAS)
def test_root_finder_matches_scipy_brentq_bitwise(lam):
    family = MapFamily(tag="FLambda", lam=lam, m=9, p=1, eta=0.3)

    def gap(x):
        return eval_family(family, complex(x)).value.real - x

    a, b = 1e-12, 0.3 * (1.0 - 1e-12)
    want = brentq(gap, a, b, xtol=1e-15, rtol=8.9e-16)
    assert _brentq(gap, a, b, xtol=1e-15, rtol=8.9e-16) == want
    assert find_attracting_fixed_point(lam, 9, 1, 0.3).location == want


def test_root_finder_endpoints_and_bad_bracket():
    assert _brentq(lambda x: x - 1.0, 1.0, 2.0, 1e-12, 1e-15) == 1.0
    assert _brentq(lambda x: x - 2.0, 1.0, 2.0, 1e-12, 1e-15) == 2.0
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-15)

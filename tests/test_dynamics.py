"""Fixed points, orbit classification, Koenigs linearization, raster rendering."""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

from speiserdim import dynamics
from speiserdim import (
    CODE_JULIA,
    CODE_UNDETERMINED,
    GridSpec,
    LinearizationDomainError,
    MapFamily,
    NoAttractingFixedPointError,
    eval_deriv_array,
    eval_family,
    eval_family_array,
    find_attracting_fixed_point,
    koenigs_check,
    koenigs_value,
    nearest_pole,
    render,
)
from speiserdim.dynamics import (
    DEFAULT_GUARD_EXITS,
    DEFAULT_GUARD_MODULUS,
    FixedPointData,
    _iterate_block,
    basin_majorant,
)
from speiserdim.elliptic import square_lattice

FAM = MapFamily(tag="FLambda", lam=1.0, m=9, p=1, eta=0.3)
FP = find_attracting_fixed_point(1.0, 9, 1, 0.3)
E1 = square_lattice().e1


def centers(grid):
    """All pixel centres over GridSpec.axes(), top row first, as render starts its orbits."""
    xs, ys = grid.axes()
    return xs[None, :] + 1j * ys[:, None]


def classify_point(z, tol=1e-6):
    """Code of one starting point: render's step-0 rule, then the block iterator it uses."""
    z = complex(z)
    if np.abs(z - FP.location) < tol:
        return 0
    codes = _iterate_block(np.array([z.real]), np.array([z.imag]), FAM, FP, 500, tol,
                           DEFAULT_GUARD_MODULUS, DEFAULT_GUARD_EXITS, 3)
    return int(codes[0, 0])


def test_fixed_point_location_and_residual():
    assert 0.0 < FP.location < 0.3
    gap = eval_family(FAM, complex(FP.location)).value - FP.location
    assert abs(gap) < 1e-12
    assert abs(FP.multiplier) < 1.0


def test_multiplier_is_chain_rule_through_the_strip_family():
    hm = MapFamily(tag="Hm", m=9, p=1, eta=0.3)
    lam = 0.85
    fp = find_attracting_fixed_point(lam, 9, 1, 0.3)
    want = lam * eval_deriv_array(hm, [lam * fp.location])[1][0].real
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


def test_block_iterator_codes_a_start_at_the_fixed_point_as_one():
    # the step-0 test is render's: the iterator classifies from step 1 on
    codes = _iterate_block(np.array([FP.location]), np.zeros(1), FAM, FP, 500, 1e-6,
                           DEFAULT_GUARD_MODULUS, DEFAULT_GUARD_EXITS, 3)
    assert codes[0, 0] == 1


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
    with pytest.raises(ValueError, match="cycle_periods"):
        render(GridSpec(resolution=4), MapFamily(tag="G"), None, cycle_periods=0)


def test_pixel_centers_layout():
    grid = GridSpec(center=1 - 1j, half_width=2.0, resolution=5)
    pts = centers(grid)
    assert pts.shape == (5, 5)
    assert pts[0, 0] == pytest.approx(-1 + 1j)  # top-left
    assert pts[-1, -1] == pytest.approx(3 - 3j)  # bottom-right
    assert pts[2, 2] == pytest.approx(1 - 1j)


@pytest.mark.parametrize("n", [5, 6, 512])
def test_pixel_centers_mirror_exactly_on_centred_axes(n):
    pts = centers(GridSpec(center=0j, half_width=2.0, resolution=n))
    xs, ys = pts[0].real, pts[:, 0].imag
    assert np.array_equal(pts.real, np.broadcast_to(xs, (n, n)))
    assert np.array_equal(pts.imag, np.broadcast_to(ys[:, None], (n, n)))
    for axis in (xs, ys):
        assert np.array_equal(axis, -axis[::-1])
        if n % 2:
            assert axis[n // 2] == 0.0 and not np.signbit(axis[n // 2])
    # off-centre axes are np.linspace, unchanged
    pts = centers(GridSpec(center=0.3 - 0.7j, half_width=2.0, resolution=n))
    assert np.array_equal(pts[0].real, np.linspace(0.3 - 2.0, 0.3 + 2.0, n))
    assert np.array_equal(pts[:, 0].imag, np.linspace(-0.7 + 2.0, -0.7 - 2.0, n))


def _full_grid_codes(grid, family, fp, guard, cycle_periods=3):
    """Every pixel iterated, in one call, at the same centres as render, then step 0 tested."""
    codes = _iterate_block(*grid.axes(), family, fp, grid.max_iterations,
                           grid.attraction_tol, guard[0], guard[1], cycle_periods)
    if fp is not None:
        codes[np.abs(centers(grid) - fp.location) < grid.attraction_tol] = 0
    return codes


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


def _full_band_codes(grid, family, fp, guard):
    """Every pixel iterated, then the step-0 test over every row within tol of the axis, as render took it before."""
    xs, ys = grid.axes()
    tol = grid.attraction_tol
    codes = _iterate_block(xs, ys, family, fp, grid.max_iterations, tol, guard[0], guard[1], 3)
    band = np.abs(ys) < tol
    codes[band] = np.where(np.hypot(xs[None, :] - fp.location, ys[band, None]) < tol, 0, codes[band])
    return codes


_EDGE = GridSpec(center=0.7 + 0j, half_width=0.5, resolution=16, max_iterations=40, attraction_tol=0.3)


# the step-0 test runs over the disk's bounding box only: tol > half_width,
# fp on the grid's last column, past it and below 0, and an off-centre grid
@pytest.mark.parametrize("grid, fp", [
    (GridSpec(center=0j, half_width=0.5, resolution=15, max_iterations=40, attraction_tol=0.8), FP),
    (_EDGE, replace(FP, location=float(_EDGE.axes()[0][-1]))),
    (_EDGE, replace(FP, location=float(_EDGE.axes()[0][-1]) + 0.2)),
    (GridSpec(center=0j, half_width=2.0, resolution=16, max_iterations=40, attraction_tol=0.5),
     replace(FP, location=-0.4)),
    (GridSpec(center=0.3 + 0.25j, half_width=1.0, resolution=15, max_iterations=40, attraction_tol=0.5), FP),
], ids=["tol-over-half-width", "fp-on-edge", "fp-past-edge", "fp-below-0", "off-centre"])
def test_render_step_zero_box_equals_the_full_row_band(grid, fp):
    guard = (30.0, 2)
    expected = _full_band_codes(grid, FAM, fp, guard)
    assert (expected == 0).any()
    raster = render(grid, FAM, fp, guard_modulus=guard[0], guard_exit_limit=guard[1])
    assert np.array_equal(raster.codes, expected)


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


# fixed-point mode with tol 0.05, so that some pixels near fp get code 0
# at step 0, FMax's cycle mode over column pairs with tol 0.5,
# so that some of its orbits count as attracted, cycle mode on FLambda, whose
# orbits mostly settle on fp, so that a refilled slot's stale history would
# count a revisit at once, and a budget of 4 steps that hundreds of orbits
# exhaust, most of them admitted late at small block sizes
@pytest.mark.parametrize("family, fp, grid, guard", [
    (FAM, FP, GridSpec(resolution=160, max_iterations=60, attraction_tol=0.05), (30.0, 2)),
    (MapFamily(tag="FMax"), None, GridSpec(resolution=48, max_iterations=120, attraction_tol=0.5),
     (DEFAULT_GUARD_MODULUS, DEFAULT_GUARD_EXITS)),
    (FAM, None, GridSpec(resolution=32, max_iterations=60, attraction_tol=0.05), (30.0, 2)),
    (FAM, FP, GridSpec(resolution=64, max_iterations=4, attraction_tol=0.05), (30.0, 2)),
], ids=["fixed-point", "cycle", "cycle-settling", "budget"])
def test_render_codes_do_not_depend_on_the_block_size(monkeypatch, family, fp, grid, guard):
    if fp is not None:
        assert (np.abs(centers(grid) - fp.location) < grid.attraction_tol).any()
    point_steps = [0]

    def counted(family, z):
        point_steps[0] += z.size
        return eval_family_array(family, z)

    monkeypatch.setattr("speiserdim.dynamics.eval_family_array", counted)
    codes, steps = [], []
    for block in (1, 7, 1000, 4096, grid.resolution ** 2 + 1):
        monkeypatch.setattr("speiserdim.dynamics._BLOCK_POINTS", block)
        point_steps[0] = 0
        codes.append(render(grid, family, fp, guard_modulus=guard[0], guard_exit_limit=guard[1]).codes)
        steps.append(point_steps[0])
    for other in codes[:-1]:
        assert np.array_equal(other, codes[-1])
    # every orbit runs its own steps, whenever it was admitted: an orbit that
    # ended on a shared step budget would lower the total
    assert steps == [steps[-1]] * len(steps)
    assert (codes[0] == CODE_JULIA).any() and (codes[0] >= 0).any()
    if grid.max_iterations == 4:
        assert (codes[0] == CODE_UNDETERMINED).sum() > 100 and (codes[0] == 4).any()


def test_render_refills_its_orbit_slots(monkeypatch):
    # the one pass makes one call per _BLOCK_POINTS point-steps while points
    # wait, and at most one per step of its longest orbit after that
    passes = []

    def pass_spy(xs, ys, *args):
        passes.append([])
        return _iterate_block(xs, ys, *args)

    def eval_spy(family, z):
        passes[-1].append(z.size)
        return eval_family_array(family, z)

    monkeypatch.setattr("speiserdim.dynamics._iterate_block", pass_spy)
    monkeypatch.setattr("speiserdim.dynamics.eval_family_array", eval_spy)
    grid = GridSpec(center=0j, half_width=2.0, resolution=131, max_iterations=30)
    runs = []
    for block in (grid.resolution ** 2 + 1, 4096):
        monkeypatch.setattr("speiserdim.dynamics._BLOCK_POINTS", block)
        passes.clear()
        render(grid, FAM, FP, guard_modulus=30.0, guard_exit_limit=2)
        runs.append(list(passes))
    # with a slot for every point, all orbits start at once and the call count
    # is the longest orbit's step count
    whole, refilled = runs
    assert len(refilled) == len(whole) == 1
    assert whole[0][0] > 4096  # more representatives than slots
    for one_set, sizes in zip(whole, refilled):
        assert sum(sizes) == sum(one_set)
        assert len(sizes) <= -(-sum(sizes) // 4096) + len(one_set)


def test_guard_exits_count_past_the_int16_range():
    # every step is a guard exit, so the orbit is Julia at step 33,000; an int16
    # count wraps at 32,767 and never gets there
    fp = FixedPointData(location=100.0, multiplier=0.0, lam=0.75)
    codes = _iterate_block(np.zeros(1), np.array([0.5]), MapFamily(tag="FLambda", lam=0.75), fp, 33000, 1e-300,
                           0.0, 33000, 3)
    assert codes[0, 0] == CODE_JULIA


def test_attraction_outranks_a_guard_exit_in_the_same_step():
    # |f(z0) - fp| is about 3.5e-5 < tol, and a guard below fp makes that step an exit too
    xs, ys = np.array([FP.location + 1e-4]), np.zeros(1)
    assert _iterate_block(xs, ys, FAM, FP, 50, 5e-5, FP.location / 2, 1, 3)[0, 0] == 1
    assert _iterate_block(xs, ys, FAM, FP, 50, 5e-6, FP.location / 2, 1, 3)[0, 0] == CODE_JULIA


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


def _second_order_koenigs(family, fp, z):
    """phi(z) from phi(w) = u + a2 u^2 + O(u^3), u = w - fp, a2 = f''(fp) / (2 mu (1 - mu)),
    read at the first iterate with |u| <= 1e-5: truncation and rounding stay near 1e-9."""
    zeta, mu, h = fp.location, fp.multiplier, 1e-6
    _, d, _ = eval_deriv_array(family, [zeta + h, zeta - h])
    a2 = (d[0] - d[1]).real / (2.0 * h) / (2.0 * mu * (1.0 - mu))
    w, power = complex(z), 1.0
    while abs(w - zeta) > 1e-5:
        w, power = eval_family(family, w).value, power * mu
    return ((w - zeta) + a2 * (w - zeta) ** 2) / power


@pytest.mark.parametrize("p, eta, m, lam", [(2, 0.5, 9, 0.9), (3, 0.1, 3, 0.15), (1, 0.3, 9, 1.0)],
                         ids=["mu-0.911", "mu-0.004", "default"])
def test_koenigs_value_of_the_singular_value_matches_a_second_order_reference(p, eta, m, lam):
    # at mu = -0.911 successive quotients never differ by less than about
    # 4e-6, so a stop on their difference fails; at mu = -0.004 the orbit of 0
    # lands on fp exactly, so phi(0) must come from an earlier iterate, not 0
    family = MapFamily(tag="FLambda", lam=lam, m=m, p=p, eta=eta)
    fp = find_attracting_fixed_point(lam, m, p, eta)
    phi = koenigs_value(family, fp, 0j)
    assert phi != 0.0
    assert abs(phi - _second_order_koenigs(family, fp, 0j)) < 1e-6


def test_koenigs_value_gives_up_where_the_orbit_is_too_slow():
    # |mu| = 0.996: after 400 steps the orbit of 0 is still 6e-3 from fp, and
    # its quotients are about 2% above the limit (3,602 steps reach 1e-8),
    # so it raises rather than return a value that far off
    family = MapFamily(tag="FLambda", lam=0.8, m=3, p=3, eta=0.5)
    fp = find_attracting_fixed_point(0.8, 3, 3, 0.5)
    with pytest.raises(LinearizationDomainError, match="400 steps"):
        koenigs_value(family, fp, 0j)
    # the majorant certificate needs no Koenigs limit: its disk exists and traps orbits
    _assert_disk_traps_orbits(family, fp)


@pytest.mark.parametrize("factor", [1.001, 0.999])
def test_koenigs_value_rejects_a_multiplier_that_is_not_the_derivative(factor):
    with pytest.raises(LinearizationDomainError, match="quotients still move"):
        koenigs_value(FAM, replace(FP, multiplier=FP.multiplier * factor), 0j)


# the lambdas of the default sweep, of verify's multiplier scan and of
# acceptance criteria 06 and 09
SWEEP_LAMBDAS = sorted({float(x) for x in np.concatenate([
    np.linspace(0.75, 1.0, 8), np.linspace(0.1, 1.0, 10), [0.55], np.linspace(0.74, 1.0, 11),
])})


# (p, eta, m) and lambdas with an attracting fixed point; the last three
# have |multiplier| 0.64-0.96, where orbits near fp slowly (at lam = 0.95,
# mu = -0.963, the orbit of 0 needs more than koenigs_value's 400 steps)
BASIN_PARAMS = [
    (1, 0.3, 9, SWEEP_LAMBDAS),
    (2, 0.3, 9, SWEEP_LAMBDAS),
    (1, 0.1, 3, SWEEP_LAMBDAS),
    (1, 0.5, 1, SWEEP_LAMBDAS),
    (3, 0.6, 5, (0.45, 0.5, 0.55, 0.6)),
    (2, 0.8, 3, (0.45, 0.5, 0.55)),
    (2, 0.5, 9, (0.9, 0.95)),
]


@pytest.mark.parametrize("p, eta, m, lam", [
    (p, eta, m, lam) for p, eta, m, lams in BASIN_PARAMS for lam in lams
])
def test_fixed_point_agrees_with_scipy_brentq(p, eta, m, lam):
    family = MapFamily(tag="FLambda", lam=lam, m=m, p=p, eta=eta)

    def gap(x):
        return eval_family(family, complex(x)).value.real - x

    want = brentq(gap, 0.0, eta, xtol=1e-15, rtol=8.9e-16)
    fp = find_attracting_fixed_point(lam, m, p, eta)
    assert abs(fp.location - want) <= 1e-15 + 8.9e-16 * abs(want)
    _, derivs, pole = eval_deriv_array(family, [fp.location])
    assert not pole[0] and fp.multiplier == derivs[0].real


@pytest.mark.parametrize("eta", [1e-13, 1e-10, 5e-7])
def test_fixed_point_search_finds_the_root_for_tiny_eta(eta):
    # the root lies about 2.8 eta^3 below eta, so the bracket must reach eta itself
    family = MapFamily(tag="FLambda", lam=1.0, m=9, p=1, eta=eta)
    fp = find_attracting_fixed_point(1.0, 9, 1, eta)
    assert 0.0 < fp.location <= eta
    gap = eval_family(family, complex(fp.location)).value.real - fp.location
    assert abs(gap) <= 8.9e-16 * eta


def test_fixed_point_search_takes_at_most_six_calls(monkeypatch):
    passes = []

    def counted(family, z):
        passes.append(z)
        return eval_deriv_array(family, z)

    monkeypatch.setattr(dynamics, "eval_deriv_array", counted)
    for lam in np.linspace(0.75, 1.0, 8):  # the default sweep
        passes.clear()
        find_attracting_fixed_point(float(lam), 9, 1, 0.3)
        assert 2 <= len(passes) <= 6
        # both bracket ends from one call, then one point a call
        assert list(passes[0]) == [0.0, 0.3] and all(len(z) == 1 for z in passes[1:])


def _fake_map(monkeypatch, f, df):
    """Make the fixed-point search see the real map x -> f(x) with derivative df."""
    def fake(family, z):
        x = np.asarray(z, dtype=complex).real
        return f(x) + 0j, df(x) + 0j, np.zeros(x.shape, dtype=bool)

    monkeypatch.setattr(dynamics, "eval_deriv_array", fake)


def test_fixed_point_search_needs_a_sign_change(monkeypatch):
    _fake_map(monkeypatch, lambda x: x + 1.0, np.ones_like)
    with pytest.raises(NoAttractingFixedPointError, match="no sign change on"):
        find_attracting_fixed_point(1.0, 9, 1, 0.3)


@pytest.mark.parametrize("lam, m, p, eta", [(0.83, 1, 2, 1.2), (0.8, 1, 3, 1.2), (0.95, 3, 3, 1.2)])
def test_fixed_point_search_rejects_a_repelling_root(lam, m, p, eta):
    # multipliers -1.96 to -2.28: Newton from the right end alone cycles
    # between the bracket ends here, where gap' is near -1 at both
    with pytest.raises(NoAttractingFixedPointError, match="is not attracting: multiplier -"):
        find_attracting_fixed_point(lam, m, p, eta)


def test_fixed_point_search_bisects_when_newton_leaves_the_bracket(monkeypatch):
    # f(x) = x + c tanh((r - x)/w) is flat far from r, so Newton from the
    # right end jumps out of the bracket; f'(r) = 1 - c/w = -0.5
    r, c, w = 0.1, 0.015, 0.01
    _fake_map(monkeypatch, lambda x: x + c * np.tanh((r - x) / w),
              lambda x: 1.0 - c / w / np.cosh((r - x) / w) ** 2)
    fp = find_attracting_fixed_point(1.0, 9, 1, 0.3)
    assert abs(fp.location - r) <= 1e-15 + 8.9e-16 * r
    assert fp.multiplier == pytest.approx(-0.5, abs=1e-12)


def _assert_disk_traps_orbits(family, fp, guard=30.0, tol=1e-6):
    """The disk D(fp, r) of basin_majorant: from samples on its circle and inside it, every step hits
    no pole, stays below the guard and within S^k(r) of fp, and n steps, S^n(r) < tol, reach tol."""
    r, majorant = basin_majorant(family, fp, guard)
    assert r > 0.0
    rng = np.random.default_rng(8)
    inside = np.sqrt(rng.uniform(0.0, 1.0, 64)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 64))
    z, s = fp.location + r * np.concatenate([np.exp(2j * np.pi * np.arange(64) / 64), inside]), r
    while s >= tol:
        assert majorant(s) < s
        z, pole = eval_family_array(family, z)
        s = majorant(s)
        assert not pole.any()
        assert np.max(np.abs(z)) < guard
        assert np.max(np.abs(z - fp.location)) <= s
    assert np.max(np.abs(z - fp.location)) < tol


@pytest.mark.parametrize("p, eta, m, lams", BASIN_PARAMS,
                         ids=[f"{p}-{eta}-{m}" for p, eta, m, _ in BASIN_PARAMS])
def test_basin_disk_traps_orbits(p, eta, m, lams):
    for lam in lams:
        family = MapFamily(tag="FLambda", lam=lam, m=m, p=p, eta=eta)
        _assert_disk_traps_orbits(family, find_attracting_fixed_point(lam, m, p, eta))


@pytest.mark.parametrize("p, eta, attracting", [(1, 0.3, True), (2, 0.5, False)])
def test_basin_disk_of_h(p, eta, attracting):
    # H's wp argument is z + i pi/2; at p = 2, eta = 0.5 its fixed point repels
    # (mu = -1.014), and no disk is certified, though theta is capped below 1
    family = MapFamily(tag="H", p=p, eta=eta)
    x = brentq(lambda x: eval_family(family, complex(x)).value.real - x, 0.0, eta, xtol=1e-15, rtol=8.9e-16)
    _, d, _ = eval_deriv_array(family, [x])
    fp = FixedPointData(location=x, multiplier=float(d[0].real), lam=1.0)
    assert (abs(fp.multiplier) < 1.0) == attracting
    if attracting:
        _assert_disk_traps_orbits(family, fp)
    else:
        assert basin_majorant(family, fp, 30.0) is None


@pytest.mark.parametrize("p, eta, m, lams", BASIN_PARAMS,
                         ids=[f"{p}-{eta}-{m}" for p, eta, m, _ in BASIN_PARAMS])
def test_majorant_bounds_the_map_on_the_outer_circle(p, eta, m, lams):
    # basin_majorant's M2 = eta ((delta^-2 + T) / e1)^(2p) + |fp| on |z - fp| = R2 = 4 R1 / 3, where the
    # wp argument is delta = pi/2 - m arcsin(lam (|fp| + R2) / m) from the lattice
    T = math.fsum(4.6 * (4 * j + 3) * np.pi ** (-4 * j - 4) * (np.pi / np.sqrt(2)) ** (4 * j + 2) for j in range(60))
    assert T == pytest.approx(4.6 * 26 / (9 * np.pi ** 2), rel=1e-14)
    assert 1.3464 < T < 1.3465
    circle = np.exp(2j * np.pi * (np.arange(4096) + 0.5) / 4096)
    for lam in lams:
        family = MapFamily(tag="FLambda", lam=lam, m=m, p=p, eta=eta)
        fp = find_attracting_fixed_point(lam, m, p, eta)
        for r2 in 4.0 * np.array([0.2, 0.4, 0.6, 0.8]) / 3.0:
            s = lam * (fp.location + r2) / m
            if s >= 1 or (delta := np.pi / 2 - m * np.arcsin(s)) <= 0:
                continue
            m2 = eta * ((delta ** -2 + T) / E1) ** (2 * p) + fp.location
            v, pole = eval_family_array(family, fp.location + r2 * circle)
            assert not pole.any()
            assert np.max(np.abs(v - fp.location)) <= m2


def test_basin_radius_bits_at_the_default_sweep_ends():
    # the DFT matrix is indexed from one row of N roots of unity; r keeps its bits
    for lam, r in ((0.75, 0.5907304583757997), (1.0, 0.3668016172818685)):
        family = MapFamily(tag="FLambda", lam=lam, m=9, p=1, eta=0.3)
        assert basin_majorant(family, find_attracting_fixed_point(lam, 9, 1, 0.3), 30.0)[0] == r


def test_basin_disk_radius_follows_the_majorant_rule(monkeypatch):
    # the default map: r = 0.4 * 2^(-4/32), the largest grid radius with S(r) <= theta r,
    # theta = (1 + |mu|) / 2; the next grid radius fails
    r, majorant = basin_majorant(FAM, FP, 30.0)
    assert r == pytest.approx(0.4 * 2 ** (-4 / 32), rel=1e-15)
    theta = (1 + abs(FP.multiplier)) / 2
    assert majorant(r) <= theta * r
    assert majorant(r * 2 ** (1 / 32)) > theta * r * 2 ** (1 / 32)
    # a smaller theta certifies a smaller disk
    assert basin_majorant(FAM, replace(FP, multiplier=0.0), 30.0)[0] < r
    # orbits stay below |fp| + r, which must be below the guard
    r_guard, _ = basin_majorant(FAM, FP, FP.location + 0.1)
    assert 0.1 * 2 ** (-1 / 32) <= r_guard < 0.1
    assert basin_majorant(FAM, FP, abs(FP.location)) is None

    real = dynamics.eval_family_array

    def bumped(size):
        def sample(family, z):
            v, pole = real(family, z)
            return v + size * (np.arange(v.shape[-1]) == 0), pole
        return sample

    # a bump on one sample of each circle raises every coefficient: the radius shrinks, or no disk is left
    monkeypatch.setattr(dynamics, "eval_family_array", bumped(1.0))
    assert 0.0 < basin_majorant(FAM, FP, 30.0)[0] < r
    monkeypatch.setattr(dynamics, "eval_family_array", bumped(10.0))
    assert basin_majorant(FAM, FP, 30.0) is None


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("lam", [0.75, 1.0])
def test_second_derivative_at_the_critical_point_matches_a_finite_difference(p, lam):
    # f''(0) = -8 p eta e1 lam^2, as wp(w + i pi/2) = -e1 + 2 e1^2 w^2 + O(w^4)
    family = MapFamily(tag="FLambda", lam=lam, m=9, p=p, eta=0.3)
    h = 1e-4
    v, _ = eval_family_array(family, [h, 0.0, -h])
    fd = (v[0] - 2.0 * v[1] + v[2]) / h ** 2
    assert abs(fd - (-8.0 * p * 0.3 * E1 * lam ** 2)) < 1e-6 * abs(fd)


def _widened(grid, family, fp, guard):
    """The grid with attraction_tol widened to the basin radius, as the sweep renders it."""
    basin = basin_majorant(family, fp, guard)
    assert basin
    return replace(grid, attraction_tol=max(grid.attraction_tol, basin[0]))


def _render_with_and_without_basin(lam, grid, guard, exits):
    fp = find_attracting_fixed_point(lam, 9, 1, 0.3)
    family = MapFamily(tag="FLambda", lam=lam, m=9, p=1, eta=0.3)
    plain = render(grid, family, fp, guard_modulus=guard, guard_exit_limit=exits)
    trapped = render(_widened(grid, family, fp, guard), family, fp, guard_modulus=guard, guard_exit_limit=exits)
    return plain.codes, trapped.codes


@pytest.mark.parametrize("lam, grid, guard, exits", [
    (0.75, GridSpec(resolution=64, max_iterations=60), 30.0, 2),
    (1.0, GridSpec(resolution=64, max_iterations=100), 30.0, 2),
    (0.87, GridSpec(resolution=128, max_iterations=60), 30.0, 2),
    (1.0, GridSpec(center=0.3 + 0.2j, half_width=1.5, resolution=96, max_iterations=60), 30.0, 2),
    (0.9, GridSpec(resolution=64, max_iterations=60), 1e12, 3),
])
def test_basin_disk_keeps_the_render_masks(lam, grid, guard, exits):
    plain, trapped = _render_with_and_without_basin(lam, grid, guard, exits)
    assert np.array_equal(plain < 0, trapped < 0)
    assert np.array_equal(plain == CODE_JULIA, trapped == CODE_JULIA)


def test_basin_disk_cuts_the_sweep_point_steps(monkeypatch):
    # the default sweep's lambdas at 128^2: orbits stop in the disk, with the same masks
    steps = []
    real = dynamics.eval_family_array

    def counted(family, z):
        steps[-1] += np.size(z)
        return real(family, z)

    grid = GridSpec(resolution=128)
    totals = {}
    for lam in np.linspace(0.75, 1.0, 8):
        family = MapFamily(tag="FLambda", lam=float(lam), m=9, p=1, eta=0.3)
        fp = find_attracting_fixed_point(float(lam), 9, 1, 0.3)
        widened = _widened(grid, family, fp, 30.0)
        monkeypatch.setattr(dynamics, "eval_family_array", counted)
        masks = []
        for name, chosen in (("plain", grid), ("disk", widened)):
            steps.append(0)
            masks.append(render(chosen, family, fp, guard_modulus=30.0, guard_exit_limit=2).codes < 0)
            totals[name] = totals.get(name, 0) + steps[-1]
        monkeypatch.setattr(dynamics, "eval_family_array", real)
        assert np.array_equal(masks[0], masks[1])
    assert totals["disk"] <= 0.2 * totals["plain"], totals


@pytest.mark.parametrize("lam, iterations", [(0.75, 12), (1.0, 16)])
def test_basin_disk_only_turns_undetermined_into_attracted(lam, iterations):
    # a small budget runs out on orbits the disk already proves convergent
    plain, trapped = _render_with_and_without_basin(
        lam, GridSpec(resolution=64, max_iterations=iterations), 30.0, 2)
    flips = np.minimum(plain, 0) != np.minimum(trapped, 0)
    assert flips.any()
    assert np.all(plain[flips] == CODE_UNDETERMINED)
    assert np.all(trapped[flips] >= 0)

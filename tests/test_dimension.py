"""Dimension machinery: Bowen solver, measured branches, pole series,
box counting, and quasiconformal envelopes."""
import math

import numpy as np
import pytest
from scipy.stats import linregress

from speiserdim import (
    ContractionViolationError,
    DegenerateMultiplierError,
    DegenerateSystemError,
    DimensionEstimate,
    IFSBranch,
    IFSBranchSet,
    InsufficientPolesError,
    MapFamily,
    PoleData,
    UndefinedDimensionError,
    box_counting,
    continuity_envelope,
    enumerate_poles,
    estimate_branch_contractions,
    formula_lower,
    formula_upper,
    multiplier_sign_mismatch,
    qc_dilatation,
    series_exponent,
    series_terms,
    solve_bowen,
    synthetic_lattice_branches,
)
from speiserdim.config import ExperimentConfig
from speiserdim.dimension import auto_base_index, default_box_scales
from speiserdim.families import _linear_fit


def make_branch_set(constants):
    branches = tuple(
        IFSBranch(index=i + 1, contraction_lower=float(b), pole_location=complex(i + 1))
        for i, b in enumerate(constants)
    )
    return IFSBranchSet(branches=branches, base_index=1)


def pseries_poles(n=4096):
    """|a_j| = j and |b_j| = j with multiplicity 1, so the series term at
    exponent t is exactly j**(-t)."""
    return [PoleData(location=complex(j), multiplicity=1, coeff_magnitude=float(j))
            for j in range(1, n + 1)]


# ---------------------------------------------------------------------------
# Bowen equation


def test_bowen_equal_halves():
    # sum of N copies of (1/2)**t hits 1 at t = log2(N)
    assert abs(solve_bowen(make_branch_set([0.5, 0.5])) - 1.0) < 1e-12
    assert abs(solve_bowen(make_branch_set([0.5] * 4)) - 2.0) < 1e-12


def test_bowen_exact_power_law():
    t = solve_bowen(make_branch_set([1.0 / 9.0] * 3))
    assert abs(t - 0.5) < 1e-12


def test_bowen_requires_two_branches():
    with pytest.raises(DegenerateSystemError, match="needs at least two"):
        solve_bowen(make_branch_set([0.5]))


def test_bowen_rejects_noncontracting_constants():
    with pytest.raises(ContractionViolationError, match="outside"):
        solve_bowen(make_branch_set([0.5, 1.0]))
    with pytest.raises(ContractionViolationError, match="outside"):
        solve_bowen(make_branch_set([0.5, -0.1]))


def test_bowen_monotone_under_branch_removal():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(3, 11))
        b = rng.uniform(0.05, 0.7, size=n)
        t_full = solve_bowen(make_branch_set(b))
        t_sub = solve_bowen(make_branch_set(b[:-1]))
        assert t_sub <= t_full + 1e-10


def test_synthetic_branches_follow_power_law():
    bs = synthetic_lattice_branches(50)
    assert bs.base_index == 1
    assert len(bs.branches) == 50
    for br in bs.branches[:10]:
        expect = abs(br.pole_location) ** (-1.25) / 2.0
        assert br.contraction_lower == pytest.approx(expect, rel=1e-12)


def test_synthetic_dimension_grows_with_pole_count():
    t = [solve_bowen(synthetic_lattice_branches(n)) for n in (100, 1000, 10000)]
    assert t[0] < t[1] < t[2]
    assert t[2] >= 1.5


def test_synthetic_rejects_tiny_count():
    with pytest.raises(ValueError, match="at least 2"):
        synthetic_lattice_branches(1)


# ---------------------------------------------------------------------------
# Measured contraction branches


def test_measured_contractions_track_pole_moduli():
    fam = MapFamily(tag="H", p=1, eta=0.01)
    bs = estimate_branch_contractions(fam, None, 40, 0.24, 0.9)
    assert len(bs.branches) >= 20
    assert not bs.rejected
    b = np.array([br.contraction_lower for br in bs.branches])
    a = np.array([abs(br.pole_location) for br in bs.branches])
    assert ((0.0 < b) & (b < 1.0)).all()
    # near a multiplicity-4 pole the inverse contracts like |a|**(-5/4)
    from scipy.stats import linregress

    fit = linregress(np.log(a), np.log(b))
    assert abs(fit.slope - (-1.25)) < 0.1
    t = solve_bowen(bs)
    assert 0.2 < t < 0.5


def test_measured_contraction_argument_guards():
    fam = MapFamily(tag="H", p=1, eta=0.3)
    with pytest.raises(ValueError, match="positive"):
        estimate_branch_contractions(fam, None, 10, -0.1, 0.9)
    with pytest.raises(ValueError, match="2 - sqrt"):
        estimate_branch_contractions(fam, None, 10, 0.5, 0.9)
    with pytest.raises(ValueError, match="at least 2"):
        estimate_branch_contractions(fam, None, 1, 0.2, 0.9)
    with pytest.raises(ValueError, match="base index 0"):
        estimate_branch_contractions(fam, 0, 5, 0.2, 0.9)


def test_auto_base_index_picks_first_admissible_pole():
    poles = [PoleData(location=complex(j), multiplicity=1, coeff_magnitude=1.0)
             for j in range(1, 31)]
    # admissibility needs |a| > (|b|/r0)**q + r0 = 2.5
    assert auto_base_index(poles, 0.5) == 3
    cramped = [PoleData(location=1.0 + 0j, multiplicity=1, coeff_magnitude=1.0)] * 5
    with pytest.raises(ValueError, match="enlarge"):
        auto_base_index(cramped, 0.5)


# ---------------------------------------------------------------------------
# Pole series


def test_series_exponent_recovers_p_series_threshold():
    est = series_exponent(pseries_poles())
    assert abs(est.value - 1.0) <= 0.02
    lo, hi = est.uncertainty
    assert lo < 1.0 < hi
    assert est.metadata["poles"] == 4096


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_series_terms_scale_covariantly(lam):
    # dividing every pole location and coefficient by lam multiplies each
    # series term by lam**(t/M); this survives at machine rounding
    rng = np.random.default_rng(11)
    locs = rng.normal(size=32) + 1j * rng.normal(size=32)
    locs = locs * np.exp(rng.uniform(1.0, 20.0, size=32))
    coeffs = rng.uniform(0.5, 2.0, size=32)
    poles = [PoleData(location=complex(a), multiplicity=4, coeff_magnitude=float(c))
             for a, c in zip(locs, coeffs)]
    scaled = [PoleData(location=p.location / lam, multiplicity=4,
                       coeff_magnitude=p.coeff_magnitude / lam)
              for p in poles]
    for t in (0.4, 0.8, 1.6):
        base = series_terms(poles, t)
        moved = series_terms(scaled, t)
        np.testing.assert_allclose(moved, base * lam ** (t / 4.0), rtol=4e-15)


def test_series_guards():
    poles = pseries_poles(19)
    with pytest.raises(InsufficientPolesError, match="at least 20"):
        series_exponent(poles)
    with pytest.raises(ValueError, match="positive"):
        series_terms(pseries_poles(32), 0.0)


def test_series_exponent_small_for_sparse_pole_family():
    fam = MapFamily(tag="Hm", m=9, p=1, eta=0.3)
    poles = enumerate_poles(fam, 1e40)
    assert len(poles) >= 100
    est = series_exponent(poles)
    assert est.value < 0.15
    assert est.uncertainty[1] <= 0.5


# ---------------------------------------------------------------------------
# Box counting


def test_box_dimension_of_segment_and_square():
    seg = np.zeros((512, 512), dtype=bool)
    seg[256, :] = True
    est = box_counting(seg)
    assert abs(est.value - 1.0) < 0.05
    full = np.ones((512, 512), dtype=bool)
    est2 = box_counting(full)
    assert abs(est2.value - 2.0) < 0.05


def test_box_dimension_of_sierpinski_carpet():
    cell = np.ones((3, 3), dtype=bool)
    cell[1, 1] = False
    mask = np.ones((1, 1), dtype=bool)
    for _ in range(7):
        mask = np.kron(mask, cell)
    est = box_counting(mask, scales=[3, 9, 27, 81, 243])
    # exactly self-similar at power-of-three scales: the fit is exact
    assert abs(est.value - math.log(8.0) / math.log(3.0)) < 1e-9
    assert est.metadata["counts"][0] == 8 ** 6


def test_box_counting_translation_invariant():
    rng = np.random.default_rng(3)
    blob = rng.random((64, 64)) < 0.2
    canvas = np.zeros((256, 256), dtype=bool)
    canvas[40:104, 40:104] = blob
    shifted = np.zeros((256, 256), dtype=bool)
    shifted[53:117, 77:141] = blob
    scales = [4, 8, 16, 32]
    assert box_counting(canvas, scales).value == box_counting(shifted, scales).value


def test_box_counting_accepts_mask_providers():
    class Raster:
        def target_mask(self):
            m = np.zeros((128, 128), dtype=bool)
            m[10:90, 10:90] = True
            return m

    direct = box_counting(Raster().target_mask())
    ducked = box_counting(Raster())
    assert ducked.value == direct.value
    assert ducked.method == "box_counting"


def test_box_counting_guards():
    with pytest.raises(UndefinedDimensionError, match="empty"):
        box_counting(np.zeros((32, 32), dtype=bool))
    with pytest.raises(ValueError, match="two-dimensional"):
        box_counting(np.ones(16, dtype=bool))
    ok = np.ones((64, 64), dtype=bool)
    with pytest.raises(ValueError, match="4 distinct"):
        box_counting(ok, scales=[4, 8, 8, 16])
    with pytest.raises(ValueError, match="positive"):
        box_counting(ok, scales=[0, 2, 4, 8])


def _criterion_08_fit_inputs():
    seg = np.zeros((512, 512), dtype=bool)
    seg[256, :] = True
    cell = np.ones((3, 3), dtype=bool)
    cell[1, 1] = False
    carpet = np.ones((1, 1), dtype=bool)
    for _ in range(7):
        carpet = np.kron(carpet, cell)
    out = []
    for mask, scales in ((seg, None), (np.ones((512, 512), dtype=bool), None),
                         (carpet, [3, 9, 27, 81, 243])):
        meta = box_counting(mask, scales).metadata
        out.append((np.log(1.0 / np.asarray(meta["scales"], dtype=float)), np.log(meta["counts"])))
    return out


def _dim_upper_fit_inputs():
    """Both fits of `dim-upper` at the default config, as cmd_dim_upper builds them."""
    cfg = ExperimentConfig()
    moduli = np.sort([abs(p.location) for p in enumerate_poles(cfg.to_family(), cfg.series_radius)])
    radii = np.geomspace(moduli[0] * 2.0, moduli[-1], 8)
    density = (np.log(radii), np.log(np.searchsorted(moduli, radii, side="right")))
    radii = np.geomspace(2.0 * moduli[0], min(cfg.pole_radius, moduli[-1]), 10)
    per_log_radius = (np.log(radii), np.searchsorted(moduli, radii, side="right").astype(float))
    return [density, per_log_radius]


def _same_bits(a, b) -> bool:
    a, b = np.float64(a), np.float64(b)
    return a.tobytes() == b.tobytes() or (np.isnan(a) and np.isnan(b))


def test_linear_fit_matches_scipy_linregress_bitwise():
    cases = _criterion_08_fit_inputs() + _dim_upper_fit_inputs() + [
        (np.array([0.0, 1.0]), np.array([2.0, 5.0])),        # n = 2: stderr 0
        (np.array([1.0, 2.0, 4.0, 8.0]), np.full(4, 3.0)),   # constant y: r NaN
    ]
    for x, y in cases:
        slope, stderr, r = _linear_fit(x, y)
        want = linregress(x, y)
        assert _same_bits(slope, want.slope)
        assert _same_bits(stderr, want.stderr)
        assert _same_bits(r, want.rvalue)


def test_default_box_scales_cap():
    assert default_box_scales(512) == [4, 8, 16, 32, 64, 128]
    assert default_box_scales(64) == [4, 8, 16, 32]
    assert default_box_scales(8) == [4]


# ---------------------------------------------------------------------------
# Quasiconformal envelopes


def test_qc_dilatation_basics():
    assert qc_dilatation(0.5, 0.5) == 1.0
    assert qc_dilatation(-0.5, 0.5) == 1.0  # magnitudes only
    k = qc_dilatation(0.3, 0.6)
    assert k == qc_dilatation(0.6, 0.3)
    assert k > 1.0


def test_qc_dilatation_rejects_degenerate_multipliers():
    for bad in (0.0, 1.0, -1.0, 1.5, math.inf, math.nan):
        with pytest.raises(DegenerateMultiplierError, match="not attracting"):
            qc_dilatation(bad, 0.5)
        with pytest.raises(DegenerateMultiplierError, match="not attracting"):
            qc_dilatation(0.5, bad)


def test_multiplier_sign_mismatch_flag():
    assert multiplier_sign_mismatch(-0.3, 0.4) is True
    assert multiplier_sign_mismatch(-0.3, -0.4) is False
    assert multiplier_sign_mismatch(0.3, 0.4) is False


def test_envelope_reference_values():
    assert continuity_envelope(1.0, 2.0, "holder") == (0.5, 2.0)
    lo, hi = continuity_envelope(1.0, 2.0, "astala")
    assert abs(lo - 2.0 / 3.0) < 1e-15
    assert abs(hi - 4.0 / 3.0) < 1e-15


def test_envelope_identity_at_unit_dilatation():
    for d in (0.3, 1.0, 1.7, 2.0):
        assert continuity_envelope(d, 1.0, "holder") == (d, d)
        lo, hi = continuity_envelope(d, 1.0, "astala")
        assert abs(lo - d) < 1e-12 and abs(hi - d) < 1e-12


def test_astala_envelope_nested_in_holder():
    rng = np.random.default_rng(19)
    for _ in range(200):
        d = float(rng.uniform(0.05, 2.0))
        k = float(rng.uniform(1.0, 5.0))
        h_lo, h_hi = continuity_envelope(d, k, "holder")
        a_lo, a_hi = continuity_envelope(d, k, "astala")
        assert h_lo - 1e-12 <= a_lo <= d <= a_hi <= h_hi + 1e-12
    # strictly sharper away from the boundary
    h = continuity_envelope(1.0, 2.0, "holder")
    a = continuity_envelope(1.0, 2.0, "astala")
    assert a[0] > h[0] and a[1] < h[1]


def test_envelope_domain_errors():
    with pytest.raises(ValueError, match=r"\(0, 2\]"):
        continuity_envelope(0.0, 2.0, "holder")
    with pytest.raises(ValueError, match=r"\(0, 2\]"):
        continuity_envelope(2.5, 2.0, "astala")
    with pytest.raises(ValueError, match="at least 1"):
        continuity_envelope(1.0, 0.9, "holder")
    with pytest.raises(ValueError, match="mode"):
        continuity_envelope(1.0, 2.0, "frobnicate")


# ---------------------------------------------------------------------------
# Closed forms and the estimate container


def test_formula_lower_values():
    assert formula_lower(1) == 1.0
    assert formula_lower(4) == 1.6
    vals = [formula_lower(q) for q in range(1, 12)]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert all(v < 2.0 for v in vals)
    with pytest.raises(ValueError):
        formula_lower(0)


def test_formula_upper_values():
    assert formula_upper(4, 0.0325) == pytest.approx(0.26 / 2.13, rel=1e-15)
    assert formula_upper(1, 0.0) == 0.0
    assert formula_upper(2, 0.1) < formula_upper(2, 0.2)
    with pytest.raises(ValueError):
        formula_upper(0, 0.1)
    with pytest.raises(ValueError):
        formula_upper(2, -0.1)


def test_dimension_estimate_validation():
    est = DimensionEstimate(value=1.5, method="test", uncertainty=(1.4, 1.6))
    assert est.value == 1.5
    with pytest.raises(ValueError, match="outside"):
        DimensionEstimate(value=2.5, method="test", uncertainty=(2.4, 2.6))
    with pytest.raises(ValueError, match="contain"):
        DimensionEstimate(value=1.5, method="test", uncertainty=(1.6, 1.7))

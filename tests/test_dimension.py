"""Dimension machinery: Bowen solver, measured branches, pole series,
box counting, and quasiconformal envelopes."""
import decimal
import math
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from scipy.stats import linregress

from speiserdim import (
    BasePoleError,
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
from speiserdim import dimension
from speiserdim.cli import main
from speiserdim.config import ExperimentConfig
from speiserdim.dimension import default_box_scales
from speiserdim.families import _linear_fit, _poles_up_to_count


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
    # sum of N copies of (1/2)**t hits 1 at t = log2(N); the solver returns t from below
    assert 0.0 < 1.0 - solve_bowen(make_branch_set([0.5, 0.5])) < 1e-12
    assert 0.0 < 2.0 - solve_bowen(make_branch_set([0.5] * 4)) < 1e-12


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


@pytest.mark.parametrize("count", [40, 80, 400, 2540])
def test_bowen_rows_lie_below_the_root(tmp_path, count):
    # sum_k b_k^t decreases in t, so a reported t with the sum >= 1, recomputed
    # in 50-digit arithmetic from the same float b_k and t, is at most the root
    cfg, out = tmp_path / "run.cfg", tmp_path / "lower.csv"
    cfg.write_text(f"branch_count = {count}\n", encoding="utf-8")
    assert main(["dim-lower", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text(encoding="utf-8").splitlines() if l.startswith("bowen_lower,")]
    assert len(rows) == 3
    ctx = decimal.Context(prec=50)
    logs = [ctx.ln(Decimal(br.contraction_lower)) for br in estimate_branch_contractions(FLAMBDA, count).branches]
    for row in rows:
        n, t = int(re.search(r"branches=(\d+);", row[4])[1]), Decimal(float(row[1]))
        total = sum((ctx.exp(ctx.multiply(t, x)) for x in logs[:n]), Decimal(0))
        assert total >= 1, (n, row[1], total - 1)


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
    bs = estimate_branch_contractions(fam, 40)
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
    with pytest.raises(ValueError, match="at least 2"):
        estimate_branch_contractions(MapFamily(tag="H", p=1, eta=0.3), 1)
    # G's first pole with 4|b| < |a| - |f(0)| is number 13
    with pytest.raises(BasePoleError, match=r"among the first 12 \(branch_count\): none has 4\|b_M\| < "):
        estimate_branch_contractions(MapFamily(tag="G"), 12)
    assert estimate_branch_contractions(MapFamily(tag="G"), 14).base_index == 13


FLAMBDA = MapFamily(tag="FLambda")


def test_every_branch_7_to_80_is_accepted():
    bs = estimate_branch_contractions(FLAMBDA, 80)
    assert bs.base_index == 7
    assert [br.index for br in bs.branches] == list(range(7, 81))
    assert bs.rejected == ()


def test_bowen_lower_rises_with_branch_count():
    # each accepted set holds the last one, so the root of sum_k b_k^t = 1 can only rise
    sets = [estimate_branch_contractions(FLAMBDA, n) for n in (40, 80, 120, 400)]
    accepted = [{br.index for br in bs.branches} for bs in sets]
    assert all(small < large for small, large in zip(accepted, accepted[1:]))
    t = [solve_bowen(bs) for bs in sets]
    assert t[0] < t[1] < t[2] < t[3]
    assert [round(x, 4) for x in t] == [0.3796, 0.4591, 0.5012, 0.5964]


def _patched_rejections(monkeypatch, ks, patch):
    """Rejections at branch_count 80 with eval_deriv_array's output passed
    through patch(f, df, pole, near) inside distance 1 of the poles a_k, k in ks."""
    a = _poles_up_to_count(FLAMBDA, 80)[0]
    real = dimension.eval_deriv_array

    def patched(family, z):
        near = np.logical_or.reduce([np.abs(z - a[k - 1]) < 1.0 for k in ks])
        return patch(*real(family, z), near)

    monkeypatch.setattr(dimension, "eval_deriv_array", patched)
    bs = estimate_branch_contractions(FLAMBDA, 80)
    return dict(bs.rejected), a


def test_pole_cutoff_rejection_names_the_pole(monkeypatch):
    rejected, a = _patched_rejections(monkeypatch, [31, 52], lambda f, d, pole, near: (f, d, pole | near))
    assert sorted(rejected) == [31, 52]
    for k in (31, 52):
        assert rejected[k] == f"Newton iterate fell into the pole cutoff near {complex(a[k - 1])!r}"


def test_newton_failure_rejection_names_the_pole(monkeypatch):
    # a derivative 1e6 times too large shrinks every step: 60 passes end far
    # from the root, and the residual check reports it
    rejected, a = _patched_rejections(
        monkeypatch, [31, 52], lambda f, d, pole, near: (f, np.where(near, 1e6 * d, d), pole))
    assert sorted(rejected) == [31, 52]
    for k in (31, 52):
        assert rejected[k] == f"Newton failed to invert the branch near {complex(a[k - 1])!r}"


def test_second_leg_failures_name_the_base_pole(monkeypatch):
    a = _poles_up_to_count(FLAMBDA, 80)[0]
    with pytest.raises(DegenerateSystemError) as info:
        _patched_rejections(monkeypatch, [7], lambda f, d, pole, near: (f, d, pole | near))
    assert f"(7, 'Newton iterate fell into the pole cutoff near {complex(a[6])!r}')" in str(info.value)


def test_no_passing_first_leg_raises_with_the_reasons(monkeypatch):
    # every first leg falls into the pole cutoff, so the second leg inverts no row
    a = _poles_up_to_count(FLAMBDA, 80)[0]
    with pytest.raises(DegenerateSystemError) as info:
        _patched_rejections(monkeypatch, range(7, 81), lambda f, d, pole, near: (f, d, pole | near))
    assert str(info.value).startswith("only 0 branch(es) survived; rejections: [(7, ")
    for k in range(7, 11):
        assert f"({k}, 'Newton iterate fell into the pole cutoff near {complex(a[k - 1])!r}')" in str(info.value)


def test_repeated_first_leg_root_is_rejected_by_name(monkeypatch):
    # branch 40 gets branch 31's root and branch 52 one 1e-9 of its modulus away:
    # both are taken for branch 31 and rejected, the rest are kept
    a = _poles_up_to_count(FLAMBDA, 80)[0]
    real = dimension._invert_rows

    def twinned(family, a_rows, b_rows, q, targets):
        z, df, why = real(family, a_rows, b_rows, q, targets)
        i, j, k = (np.flatnonzero(a_rows == a[n - 1]) for n in (31, 40, 52))
        if i.size:  # the first leg; the second inverts near a_7 only
            z[j], z[k] = z[i], z[i] * (1.0 + 1e-9)
        return z, df, why

    monkeypatch.setattr(dimension, "_invert_rows", twinned)
    bs = estimate_branch_contractions(FLAMBDA, 80)
    assert dict(bs.rejected) == {k: "first-leg root repeats branch 31's (within 1e-8 relative)" for k in (40, 52)}
    assert [br.index for br in bs.branches] == [k for k in range(7, 81) if k not in (40, 52)]


def test_image_escaping_the_base_disk_is_rejected(monkeypatch):
    # branch 31's second-leg root is moved to 2 r0 from a_M, so its image
    # bound leaves D(a_M, r0); every other branch is kept
    a = _poles_up_to_count(FLAMBDA, 80)[0]
    real = dimension._invert_rows
    first_leg = {}

    def pushed(family, a_rows, b_rows, q, targets):
        z, df, why = real(family, a_rows, b_rows, q, targets)
        if not first_leg:
            first_leg["w"] = z[a_rows == a[30], 0]
        else:
            row = targets[:, 0] == first_leg["w"]
            z[row] = a_rows[row, None] + 2.0 * np.abs(b_rows[row, None])
        return z, df, why

    monkeypatch.setattr(dimension, "_invert_rows", pushed)
    bs = estimate_branch_contractions(FLAMBDA, 80)
    assert [br.index for br in bs.branches] == [k for k in range(7, 81) if k != 31]
    # the bound is 2 r0 = 2.022 plus the Koebe growth term
    assert bs.rejected == ((31, "branch image escaped D(a_7, r0): max offset 2.02"),)


def test_first_leg_image_meeting_a_singular_value_is_rejected(monkeypatch):
    # a first-leg derivative 1e-2 times too small makes |L1'(a_M)| 100 times too
    # large for branches 31 and 55: their image disks reach past 0, so L2 need
    # not be univalent there
    a = _poles_up_to_count(FLAMBDA, 80)[0]
    real = dimension._invert_rows

    def flattened(family, a_rows, b_rows, q, targets):
        z, df, why = real(family, a_rows, b_rows, q, targets)
        return z, np.where(np.isin(a_rows, a[[30, 54]])[:, None], 1e-2 * df, df), why

    monkeypatch.setattr(dimension, "_invert_rows", flattened)
    bs = estimate_branch_contractions(FLAMBDA, 80)
    rejected = dict(bs.rejected)
    assert sorted(rejected) == [31, 55]
    for k in (31, 55):
        assert re.fullmatch(r"second leg not univalent on D\(w, \d\d\.\d\): it meets 0 or f\(0\)",
                            rejected[k]), rejected[k]


@pytest.mark.parametrize("family, count", [
    (FLAMBDA, 114), (MapFamily(tag="FLambda", lam=0.5), 114), (MapFamily(tag="Hm", m=21), 114),
    (MapFamily(tag="G"), 108), (MapFamily(tag="FMax"), 108),
], ids=["default", "lam0.5", "Hm21", "G", "FMax"])
def test_branch_bounds_hold_on_a_dense_circle(family, count):
    # the bounds come from one inversion at a_M; here each accepted branch is
    # inverted at 4096 points of |u - a_M| = r0, where the extremes over the
    # disk lie (maximum modulus, applied to S_k - a_M and 1/S_k')
    a, b = _poles_up_to_count(family, 120)
    f0 = {"G": 1.0, "FMax": 1j}.get(family.tag, family.eta)
    R = np.abs(a) - abs(f0)
    M = int(np.flatnonzero(4.0 * np.abs(b) < R)[0]) + 1  # the base rule
    r0, R = abs(b[M - 1]), R[M - 1]
    bs = estimate_branch_contractions(family, 120)
    assert (bs.base_index, bs.base_radius) == (M, r0)
    assert len(bs.branches) == count
    q = family.pole_multiplicity
    u = a[M - 1] + r0 * np.exp(2j * np.pi * (np.arange(4096) + 0.5) / 4096)
    for br in bs.branches:
        k = br.index
        w, dw, why = dimension._invert_rows(family, a[[k - 1]], b[[k - 1]], q, u[None, :])
        z, dz, why2 = dimension._invert_rows(family, a[[M - 1]], b[[M - 1]], q, w)
        assert why[0] == why2[0] == ""
        assert np.min(1.0 / np.abs(dz * dw)) >= br.contraction_lower
        # the image bound, recomputed from the branch's inversion at a_M
        w0, dw0, _ = dimension._invert_rows(family, a[[k - 1]], b[[k - 1]], q, a[[M - 1], None])
        z0, dz0, _ = dimension._invert_rows(family, a[[M - 1]], b[[M - 1]], q, w0)
        image = abs(z0[0, 0] - a[M - 1]) + 1.0 / abs(dw0[0, 0] * dz0[0, 0]) * r0 / (1.0 - 2.0 * r0 / R) ** 2
        assert np.max(np.abs(z - a[M - 1])) <= image < r0


def test_branch_inversion_memory_stays_small():
    # one Newton row per branch: 4000 branches peak near the size of their pole table
    estimate_branch_contractions(FLAMBDA, 40)
    tracemalloc.start()
    try:
        bs = estimate_branch_contractions(FLAMBDA, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(bs.branches) + len(bs.rejected) == 4000 - 6
    assert peak < 8e6


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


def test_series_terms_stay_finite_where_the_power_overflows():
    # |a|^(1 + 1/M) overflows past |a| ~ 1e246 at M = 4, though the term does not
    far = [PoleData(location=1e300j, multiplicity=4, coeff_magnitude=1e299)]
    with np.errstate(over="raise", invalid="raise"):
        assert series_terms(far, 1.0)[0] == pytest.approx(0.1 * 1e-75, rel=1e-12)
        terms = series_terms(enumerate_poles(MapFamily(tag="FLambda"), 1e300), 1.0)
    assert terms.size == 35550 and np.isfinite(terms).all() and (terms > 0).all()


@pytest.mark.parametrize("family, radius", [
    (MapFamily(tag="G"), 60.0), (MapFamily(tag="FMax"), 40.0), (MapFamily(tag="H", p=2), 60.0),
    (MapFamily(tag="Hm", m=5), 1e20), (MapFamily(tag="FLambda", lam=0.3), 1e80),
], ids=lambda x: getattr(x, "tag", None))
def test_series_exponent_equal_on_records_and_pole_data_lists(family, radius):
    records = enumerate_poles(family, radius)
    listed = [PoleData(*p) for p in records]
    assert isinstance(listed[0], PoleData) and listed[0].location == records[0].location
    assert series_terms(records, 0.7).tobytes() == series_terms(listed, 0.7).tobytes()
    got, want = series_exponent(records), series_exponent(listed)
    assert _same_bits(got.value, want.value)
    assert all(_same_bits(x, y) for x, y in zip(got.uncertainty, want.uncertainty))
    assert got.metadata == want.metadata == {"poles": len(records), "multiplicity": family.pole_multiplicity,
                                             "t_hi": 4.0}


@pytest.mark.parametrize("family", [
    MapFamily(tag="G"), MapFamily(tag="FMax"), MapFamily(tag="H"), MapFamily(tag="H", p=2),
], ids=lambda f: f"{f.tag}-p{f.p}")
def test_series_exponent_meets_the_stated_order(family):
    # order 2 with M-fold poles on a lattice: the series converges exactly for
    # t > 2M/(M+1), which is formula_upper(M, 2)
    M = family.pole_multiplicity
    assert family.order == 2
    assert formula_upper(M, family.order) == pytest.approx(2 * M / (M + 1), rel=1e-15)
    assert abs(series_exponent(enumerate_poles(family, 300)).value - 2 * M / (M + 1)) <= 1e-3


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


def _counts_per_scale(mask, scales):
    """Occupied s-boxes of the cropped mask, each scale from the mask itself."""
    rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    mask = mask[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    counts = []
    for s in scales:
        h, w = -(-mask.shape[0] // s) * s, -(-mask.shape[1] // s) * s
        padded = np.zeros((h, w), dtype=bool)
        padded[:mask.shape[0], :mask.shape[1]] = mask
        counts.append(int(padded.reshape(h // s, s, w // s, s).any(axis=(1, 3)).sum()))
    return counts


@pytest.mark.parametrize("scales", [None, [3, 4, 6, 9], [2, 5, 7, 10, 14, 35], [1, 3, 6, 12, 24]])
def test_box_counts_from_coarser_scales_equal_counts_from_the_mask(scales):
    # each scale is counted from the largest earlier scale dividing it; the
    # counts must be those of the mask itself, nested scales or not
    rng = np.random.default_rng(28)
    mask = np.zeros((512, 512), dtype=bool)
    mask[37:470, 11:493] = rng.random((433, 482)) < 0.02
    expected = _counts_per_scale(mask, default_box_scales(512) if scales is None else scales)
    assert box_counting(mask, scales).metadata["counts"] == expected


def _reshape_any_counts(mask, scales):
    """box_counting's counts as they were taken before its 4-pixel shortcut: every level a reshape-any."""
    rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    boxes, counts = {1: mask[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]}, []
    for s in sorted(scales):
        t = max(d for d in boxes if s % d == 0)
        f, (h, w) = s // t, boxes[t].shape
        padded = np.zeros((-(-h // f) * f, -(-w // f) * f), dtype=bool)
        padded[:h, :w] = boxes[t]
        boxes[s] = padded.reshape(padded.shape[0] // f, f, padded.shape[1] // f, f).any(axis=(1, 3))
        counts.append(int(np.count_nonzero(boxes[s])))
    return counts


@pytest.mark.parametrize("scales", [[4, 8, 16, 32, 64, 128], [3, 6, 12, 24], [5, 10, 20, 40], [2, 8, 32, 128]])
def test_four_pixel_boxes_count_as_a_reshape_any(scales):
    # cropped sides that are not multiples of 4, a single pixel, a full mask,
    # and 4-pixel factors from the mask and from coarser levels
    rng = np.random.default_rng(32)
    single = np.zeros((301, 258), dtype=bool)
    single[150, 77] = True
    line = np.zeros((130, 130), dtype=bool)
    line[np.arange(3, 126), np.arange(3, 126) // 2 + 1] = True
    masks = [rng.random((301, 258)) < 0.01, rng.random((513, 262)) < 0.3, single, line, np.ones((203, 130), dtype=bool)]
    for mask in masks:
        assert box_counting(mask, scales).metadata["counts"] == _reshape_any_counts(mask, scales)


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
    """Log pole count, and pole count, against log radius over the default
    config's poles; the second is `dim-upper`'s pole_count_per_log_radius fit."""
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

"""Map families: forced values, symmetries, multiplicities, pole inventory."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import linregress

from speiserdim import (
    PI,
    MapFamily,
    PoleRangeError,
    enumerate_poles,
    eval_deriv,
    eval_deriv_array,
    eval_family,
    eval_family_array,
    local_exponent,
    nearest_pole,
    square_lattice,
)
from speiserdim.families import TAGS, coeff_magnitude

E1 = square_lattice().e1


def test_forced_values():
    g = MapFamily(tag="G")
    fmax = MapFamily(tag="FMax")
    hm = MapFamily(tag="Hm", m=9, p=1, eta=0.3)
    assert abs(eval_family(g, PI / 2).value) < 1e-9
    assert abs(eval_family(g, 0j).value - 1.0) < 1e-9
    assert eval_family(g, 1j * PI / 2).at_infinity
    assert abs(eval_family(fmax, 0j).value - 1j) < 1e-9
    assert abs(eval_family(fmax, 1 + 0j).value) < 1e-9
    assert eval_family(fmax, 1j).at_infinity
    for eta in (0.3, 0.01):
        assert abs(eval_family(MapFamily(tag="H", p=1, eta=eta), 0j).value - eta) < 1e-12
    assert abs(eval_family(hm, 0j).value - 0.3) < 1e-12
    assert abs(eval_family(hm, 9 + 0j).value) < 1e-9
    assert abs(eval_family(hm, -9 + 0j).value) < 1e-9
    flambda = MapFamily(tag="FLambda", lam=0.5, m=9, p=1, eta=0.3)
    assert abs(eval_family(flambda, 0j).value - 0.3) < 1e-12


def test_real_axis_stays_in_unit_interval():
    xs = np.linspace(0.0, PI, 1201)
    vals, poles = eval_family_array(MapFamily(tag="G"), xs.astype(complex))
    assert not poles.any()
    assert np.max(np.abs(vals.imag)) < 1e-9
    assert vals.real.min() > -1e-9
    assert vals.real.max() < 1.0 + 1e-9


def test_fmax_is_imaginary_on_the_real_axis():
    xs = np.linspace(-3.0, 3.0, 301)
    vals, poles = eval_family_array(MapFamily(tag="FMax"), xs.astype(complex))
    assert not poles.any()
    assert np.max(np.abs(vals.real)) < 1e-9
    assert vals.imag.min() > -1e-9 and vals.imag.max() < 1.0 + 1e-9


def test_power_family_strictly_decreasing():
    xs = np.linspace(1e-3, PI / 2 - 1e-3, 400)
    vals, poles = eval_family_array(MapFamily(tag="H", p=1, eta=0.3), xs.astype(complex))
    assert not poles.any()
    assert np.all(np.diff(vals.real) < 0.0)


def test_arcsin_branch_consistency():
    # the two preimage branches w and pi*m - w must give the same value,
    # otherwise the composition would depend on the arcsin branch cut
    m = 9
    h = MapFamily(tag="H", p=1, eta=0.3)
    rng = np.random.default_rng(1)
    for _ in range(40):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.2, 3))
        w = m * complex(np.arcsin(np.asarray(z / m))[()])
        a = eval_family(h, w)
        b = eval_family(h, PI * m - w)
        if a.at_infinity or b.at_infinity:
            continue
        assert a.value == pytest.approx(b.value, abs=1e-9)


def test_local_exponents_of_base_family():
    g = MapFamily(tag="G")
    assert local_exponent(g, PI / 2, "zero") == pytest.approx(4.0, abs=0.05)
    assert local_exponent(g, 1j * PI / 2, "pole") == pytest.approx(4.0, abs=0.05)
    assert local_exponent(g, 0j, "value", value=1.0) == pytest.approx(2.0, abs=0.05)


@pytest.mark.parametrize("p", [1, 2])
def test_local_exponents_of_strip_family(p):
    fam = MapFamily(tag="Hm", m=9, p=p, eta=0.3)
    pole = nearest_pole(fam).location
    assert local_exponent(fam, pole, "pole") == pytest.approx(4.0 * p, abs=0.05)
    assert local_exponent(fam, 9 + 0j, "zero") == pytest.approx(2.0 * p, abs=0.05)
    assert fam.pole_multiplicity == 4 * p


def test_local_exponent_kind_validation():
    with pytest.raises(ValueError, match="kind"):
        local_exponent(MapFamily(tag="G"), 0j, "saddle")


def test_nearest_pole_formula():
    for m in (3, 9, 21):
        fam = MapFamily(tag="Hm", m=m)
        want = 1j * m * math.sinh(PI / (2.0 * m))
        assert nearest_pole(fam).location == pytest.approx(want, rel=1e-12)
    assert nearest_pole(MapFamily(tag="H")).location == pytest.approx(1j * PI / 2, rel=1e-12)
    assert nearest_pole(MapFamily(tag="G")).location == pytest.approx(1j * PI / 2, rel=1e-12)
    lam = 0.5
    scaled = nearest_pole(MapFamily(tag="FLambda", lam=lam, m=9))
    assert scaled.location == pytest.approx(1j * 9 * math.sinh(PI / 18.0) / lam, rel=1e-12)


def test_power_family_pole_inventory():
    poles = enumerate_poles(MapFamily(tag="H", p=1, eta=0.3), 2.0)
    assert [p.location for p in poles] == pytest.approx([-1j * PI / 2, 1j * PI / 2])
    assert all(p.multiplicity == 4 for p in poles)
    # leading-coefficient magnitude has the closed form eta^(1/(4p)) / sqrt(e1)
    want = 0.3 ** 0.25 / math.sqrt(E1)
    for p in poles:
        assert p.coeff_magnitude == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("p", [1, 2])
def test_pole_coefficient_closed_form(p):
    fam = MapFamily(tag="H", p=p, eta=0.3)
    got = coeff_magnitude(fam, 1j * PI / 2, 4 * p)
    assert got == pytest.approx(0.3 ** (1.0 / (4.0 * p)) / math.sqrt(E1), rel=1e-6)


def test_coeff_magnitude_stable_under_probe_radius():
    fam = MapFamily(tag="Hm", m=9)
    a = nearest_pole(fam).location
    r_default = coeff_magnitude(fam, a, 4)
    r_narrow = coeff_magnitude(fam, a, 4, radius=1e-3)
    assert r_narrow == pytest.approx(r_default, rel=1e-2)


def test_scaled_family_pole_inventory_scales():
    lam = 0.8
    base = enumerate_poles(MapFamily(tag="Hm", m=9), 20.0 * lam)
    scaled = enumerate_poles(MapFamily(tag="FLambda", lam=lam, m=9), 20.0)
    assert len(base) == len(scaled)
    for b, s in zip(base, scaled):
        assert s.location == pytest.approx(b.location / lam, rel=1e-9)
        assert s.multiplicity == b.multiplicity
        assert s.coeff_magnitude == pytest.approx(b.coeff_magnitude / lam, rel=2e-2)


def test_pole_count_grows_like_log_radius():
    poles = enumerate_poles(MapFamily(tag="Hm", m=9), 1e4)
    mods = np.sort([abs(p.location) for p in poles])
    radii = np.geomspace(10.0, 1e4, 12)
    counts = np.searchsorted(mods, radii, side="right").astype(float)
    fit = linregress(np.log(radii), counts)
    assert fit.rvalue ** 2 > 0.9


def test_pole_list_sorted_and_distinct():
    poles = enumerate_poles(MapFamily(tag="Hm", m=9), 50.0)
    mods = [abs(p.location) for p in poles]
    assert mods == sorted(mods)
    locs = {p.location for p in poles}
    assert len(locs) == len(poles)
    # conjugate-symmetric inventory
    for p in poles:
        assert any(abs(q.location - p.location.conjugate()) < 1e-12 for q in poles)


def test_pole_enumeration_range_errors():
    with pytest.raises(PoleRangeError):
        enumerate_poles(MapFamily(tag="G"), 1e5)  # count blows past the cap
    with pytest.raises(PoleRangeError):
        enumerate_poles(MapFamily(tag="Hm", m=9), 1e307)  # beyond float-safe radius
    with pytest.raises(ValueError):
        enumerate_poles(MapFamily(tag="Hm", m=9), -1.0)


def test_branch_cut_evaluated_as_upper_limit():
    # numpy arcsin on the cut takes the limit from above; the family must
    # agree so raster rows touching the cut classify consistently
    fam = MapFamily(tag="Hm", m=9)
    on_cut = eval_family(fam, 10.0 + 0j)
    above = eval_family(fam, 10.0 + 1e-12j)
    assert on_cut.value == pytest.approx(above.value, rel=1e-6)


def test_family_parameter_validation():
    with pytest.raises(ValueError, match="odd"):
        MapFamily(tag="Hm", m=8)
    with pytest.raises(ValueError, match="pi/2"):
        MapFamily(tag="H", eta=1.6)
    with pytest.raises(ValueError):
        MapFamily(tag="FLambda", lam=0.0)
    with pytest.raises(ValueError):
        MapFamily(tag="FLambda", lam=1.5)
    with pytest.raises(ValueError):
        MapFamily(tag="Weier")
    with pytest.raises(ValueError):
        MapFamily(tag="H", p=0)


def test_array_evaluation_preserves_shape():
    z = np.zeros((3, 5), dtype=complex) + 0.3 + 0.2j
    vals, mask = eval_family_array(MapFamily(tag="G"), z)
    assert vals.shape == (3, 5) and mask.shape == (3, 5)
    assert mask.dtype == bool


# ---------------------------------------------------------------------------
# Properties of the one evaluation path

FAMILIES = [MapFamily(tag=tag, lam=0.85 if tag == "FLambda" else 1.0) for tag in TAGS]
points = st.lists(
    st.complex_numbers(max_magnitude=30.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=16,
)


def _same(a, b) -> bool:
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=100, deadline=None)
@given(points)
@pytest.mark.parametrize("family", FAMILIES, ids=TAGS)
def test_deriv_pass_values_equal_value_pass(family, zs):
    z = np.asarray(zs)
    values, pole = eval_family_array(family, z)
    values2, derivs, pole2 = eval_deriv_array(family, z)
    assert _same(values, values2)
    assert not (pole & ~pole2).any()  # the joint mask also covers derivative overflow
    assert values2.shape == derivs.shape == pole2.shape == z.shape


@settings(max_examples=100, deadline=None)
@given(points)
@pytest.mark.parametrize("family", FAMILIES, ids=TAGS)
def test_scalar_evaluation_equals_array_path(family, zs):
    values, derivs, pole = eval_deriv_array(family, np.asarray(zs))
    for z, v, d, p in zip(zs, values, derivs, pole):
        f, df = eval_family(family, z), eval_deriv(family, z)
        assert df.at_infinity == p
        if not p:
            assert f.value == v and df.value == d


@settings(max_examples=100, deadline=None)
@given(points)
@pytest.mark.parametrize("tag", ["G", "H", "Hm", "FLambda", "FMax"])
def test_symmetries_are_bitwise_exact(tag, zs):
    # even maps with odd derivatives; f(conj z) = conj f(z), for FMax -conj f(z)
    family = MapFamily(tag=tag, lam=0.85 if tag == "FLambda" else 1.0)
    z = np.asarray(zs)
    values, derivs, pole = eval_deriv_array(family, z)
    live = ~pole
    v, d, p = eval_deriv_array(family, -z)
    assert np.array_equal(p, pole)
    assert _same(v[live], values[live]) and _same(d[live], -derivs[live])
    v, d, p = eval_deriv_array(family, np.conj(z))
    assert np.array_equal(p, pole)
    mirror = (lambda x: -np.conj(x)) if tag == "FMax" else np.conj
    assert _same(v[live], mirror(values[live])) and _same(d[live], mirror(derivs[live]))


@pytest.mark.parametrize("family", FAMILIES, ids=TAGS)
def test_results_do_not_depend_on_array_size(family):
    # From 256 KiB (16,384 complex points) up numpy may compute `a * temporary`
    # in place, with a rounding of its own; every kernel product must be
    # written so that no point's bits depend on the size of its array.
    rng = np.random.default_rng(65536)
    z = rng.uniform(-3.0, 3.0, 65536) + 1j * rng.uniform(-3.0, 3.0, 65536)
    values, pole = eval_family_array(family, z)
    values2, derivs, pole2 = eval_deriv_array(family, z)
    slices = [z[i:i + 4096] for i in range(0, z.size, 4096)]
    parts = [eval_family_array(family, s) for s in slices]
    dparts = [eval_deriv_array(family, s) for s in slices]
    assert _same(values, np.concatenate([v for v, _ in parts]))
    assert np.array_equal(pole, np.concatenate([p for _, p in parts]))
    assert _same(values2, np.concatenate([v for v, _, _ in dparts]))
    assert _same(derivs, np.concatenate([d for _, d, _ in dparts]))
    assert np.array_equal(pole2, np.concatenate([p for _, _, p in dparts]))

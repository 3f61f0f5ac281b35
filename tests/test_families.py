"""Map families: forced values, symmetries, multiplicities, pole inventory."""

import math
import tracemalloc

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
    eval_deriv_array,
    eval_family,
    eval_family_array,
    local_exponent,
    nearest_pole,
    square_lattice,
    synthetic_lattice_branches,
)
from speiserdim import elliptic, families
from speiserdim.families import (TAGS, _asin_q1, _complex, _normalize, _pole_grid, _pole_table,
                                 _poles_up_to_count)

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
    for p in (1, 2):
        for m in range(1, 60, 2):
            want = 1j * m * math.sinh(PI / (2.0 * m))
            assert nearest_pole(MapFamily(tag="Hm", m=m, p=p)).location == want
            for lam in (0.05, 0.3, 0.5, 0.8, 0.87, 1.0):
                assert nearest_pole(MapFamily(tag="FLambda", lam=lam, m=m, p=p)).location == want / lam
        assert nearest_pole(MapFamily(tag="H", p=p)).location == 1j * PI / 2
    assert nearest_pole(MapFamily(tag="G")).location == 1j * PI / 2
    assert nearest_pole(MapFamily(tag="FMax")).location == 1j


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
    got = nearest_pole(fam).coeff_magnitude
    assert got == pytest.approx(0.3 ** (1.0 / (4.0 * p)) / math.sqrt(E1), rel=1e-6)


def test_scaled_family_pole_inventory_scales():
    lam = 0.8
    base = enumerate_poles(MapFamily(tag="Hm", m=9), 20.0 * lam)
    scaled = enumerate_poles(MapFamily(tag="FLambda", lam=lam, m=9), 20.0)
    assert len(base) == len(scaled)
    for b, s in zip(base, scaled):
        assert s.location == pytest.approx(b.location / lam, rel=1e-9)
        assert s.multiplicity == b.multiplicity
        assert s.coeff_magnitude == pytest.approx(b.coeff_magnitude / lam, rel=1e-12)


def test_pole_count_grows_like_log_radius():
    poles = enumerate_poles(MapFamily(tag="Hm", m=9), 1e4)
    mods = np.sort([abs(p.location) for p in poles])
    radii = np.geomspace(10.0, 1e4, 12)
    counts = np.searchsorted(mods, radii, side="right").astype(float)
    fit = linregress(np.log(radii), counts)
    assert fit.rvalue ** 2 > 0.9
    # 2m poles per level and a factor e^(pi/m) in modulus per level: 2m^2/pi
    # poles per unit of log radius, so the stated order is 0
    assert MapFamily(tag="Hm").order == MapFamily(tag="FLambda").order == 0
    assert fit.slope == pytest.approx(2 * 9 ** 2 / np.pi, rel=0.01)


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
    # the cap bounds the count, not the side of the grid: about 5.1M and 4.9M poles
    with pytest.raises(PoleRangeError, match="more than"):
        enumerate_poles(MapFamily(tag="G"), 4000.0)
    with pytest.raises(PoleRangeError, match="more than"):
        enumerate_poles(MapFamily(tag="FMax"), 2500.0)
    with pytest.raises(PoleRangeError, match="more than"):
        enumerate_poles(MapFamily(tag="Hm", m=2001), 1e300)
    assert len(enumerate_poles(MapFamily(tag="G"), 400.0)) == pytest.approx(400.0 ** 2 / PI, rel=0.01)
    with pytest.raises(PoleRangeError):
        enumerate_poles(MapFamily(tag="Hm", m=9), 1e307)  # beyond float-safe radius
    with pytest.raises(ValueError):
        enumerate_poles(MapFamily(tag="Hm", m=9), -1.0)



def test_pole_records_keep_32_bytes_per_pole():
    # one record of location, multiplicity and |b| per pole, with no object per pole
    enumerate_poles(MapFamily(tag="G"), 8.0)
    tracemalloc.start()
    try:
        poles = enumerate_poles(MapFamily(tag="G"), 400.0)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(poles) == 50930 and kept <= 40 * len(poles)
    first = poles[0]
    assert (first.location, first.multiplicity) == (-1j * PI / 2, 4)
    assert first.coeff_magnitude == pytest.approx(E1 ** -0.5, rel=1e-15)


# The per-pole loops the vectorized enumerator replaced, kept as its oracle.
def _oracle_lattice(radius, step):
    out = []
    lmax = int(radius / step) + 1
    for l in range(-lmax, lmax + 1):
        y = step * (l + 0.5)
        if abs(y) > radius:
            continue
        kmax = int(math.sqrt(radius * radius - y * y) / step) + 1
        for k in range(-kmax, kmax + 1):
            a = complex(step * k, y)
            if abs(a) <= radius:
                out.append(a)
    return out


def _oracle_strip(radius, m):
    out = []
    half = (m - 1) // 2
    l = 0
    while m * math.sinh(PI * (l + 0.5) / m) <= radius:
        for k in range(-half, half + 1):
            w = complex(PI * k, PI * (l + 0.5))
            a = m * complex(np.sin(np.asarray(w / m))[()])
            if abs(a) <= radius:
                out.append(a)
                out.append(a.conjugate())
        l += 1
    return out


def _oracle_locations(fam, radius):
    if fam.tag in ("G", "H", "FMax"):
        locations = _oracle_lattice(radius, 2.0 if fam.tag == "FMax" else PI)
    elif fam.tag == "Hm":
        locations = _oracle_strip(radius, fam.m)
    else:
        locations = [a / fam.lam for a in _oracle_strip(radius * fam.lam, fam.m)]
    locations.sort(key=lambda a: (abs(a), a.real, a.imag))
    return np.asarray(locations, dtype=complex)


ORACLE_CASES = (
    [(MapFamily(tag=tag), r) for tag in ("G", "H", "FMax") for r in (0.5, 1.6, 5.0, 40.0, 1000.0)]
    + [(MapFamily(tag="Hm", m=m), r) for m in (1, 3, 5, 9, 21, 41) for r in (1.0, 30.0, 1e80, 1e300)]
    + [(MapFamily(tag="FLambda", m=m, lam=lam), r)
       for m in (1, 3, 5, 9, 21, 41) for lam in (0.05, 0.3, 0.87, 1.0) for r in (1.0, 30.0, 1e80, 1e300)]
)


def _case_id(case):
    fam, radius = case
    params = {"G": "", "H": "", "FMax": "", "Hm": f"-m{fam.m}", "FLambda": f"-m{fam.m}-lam{fam.lam}"}
    return f"{fam.tag}{params[fam.tag]}-r{radius:g}"


# The circle sampler the closed-form coefficients replaced, kept as their oracle:
# f(z) * (z - a)^q -> b^q on a small circle around each pole a.
def _sample_circle(fam, locations):
    a = np.asarray(locations, dtype=complex)[:, None]
    r = np.maximum(1e-3, np.abs(a) * 1e-4)
    pts = a + r * np.exp(1j * (0.3711 + 2.0 * PI * np.arange(16) / 16))[None, :]
    values, pole = eval_family_array(fam, pts)
    assert not pole.any()
    return pts - a, values


def _sampled_coeff_magnitudes(fam, locations):
    """|b| from the log-mean of |f(z)| * |z - a|^q, which stays finite at far poles."""
    offsets, values = _sample_circle(fam, locations)
    q = fam.pole_multiplicity
    return np.exp((np.log(np.abs(values)) + q * np.log(np.abs(offsets))).mean(axis=1) / q)


def _sampled_roots(fam, locations):
    """The principal q-th root of the circle mean of f(z) * (z - a)^q."""
    offsets, values = _sample_circle(fam, locations)
    return np.mean(values * offsets ** fam.pole_multiplicity, axis=1) ** (1.0 / fam.pole_multiplicity)


@pytest.mark.parametrize("fam, radius", ORACLE_CASES, ids=[_case_id(c) for c in ORACLE_CASES])
def test_pole_enumeration_equals_the_per_pole_loop(fam, radius):
    want = _oracle_locations(fam, radius)
    got, _ = _pole_table(fam, radius)
    assert got.tobytes() == want.tobytes()  # locations, order and signs of zero
    if 0 < want.size <= 2000:
        poles = enumerate_poles(fam, radius)
        assert np.asarray([p.location for p in poles]).tobytes() == want.tobytes()
        mags = np.asarray([p.coeff_magnitude for p in poles])
        np.testing.assert_allclose(mags, _sampled_coeff_magnitudes(fam, want), rtol=1e-9, atol=0)


@pytest.mark.parametrize("fam, radius", [
    (MapFamily(tag="FMax"), 12.0),
    (MapFamily(tag="FLambda", lam=0.3), 400.0),
    (MapFamily(tag="FLambda", lam=0.3, m=5, p=2), 1e4),
], ids=["FMax", "FLambda-lam0.3", "FLambda-lam0.3-m5-p2"])
def test_pole_coefficients_are_the_sampled_principal_roots(fam, radius):
    a, b = _pole_table(fam, radius)
    assert (a.imag < 0).sum() == (a.imag > 0).sum() > 10
    assert np.abs(b.imag).max() > 0.1 * np.abs(b).max()  # b is not real
    np.testing.assert_allclose(b, _sampled_roots(fam, a), rtol=1e-9, atol=0)


@pytest.mark.parametrize("count", [2, 100, 10000])
def test_synthetic_branches_equal_the_per_pole_loop(count):
    radius = PI * math.sqrt(count / PI) * 1.2 + 2.0 * PI
    locs = _oracle_locations(MapFamily(tag="G"), radius)
    while len(locs) < count:
        radius *= 1.3
        locs = _oracle_locations(MapFamily(tag="G"), radius)
    got = synthetic_lattice_branches(count)
    assert got.base_index == 1 and got.rejected == ()
    assert [(b.index, b.contraction_lower, b.pole_location) for b in got.branches] == [
        (i + 1, abs(a) ** -1.25 / 2.0, a) for i, a in enumerate(locs[:count].tolist())
    ]


COUNT_FAMILIES = (
    MapFamily(tag="G"), MapFamily(tag="H"), MapFamily(tag="FMax"),
    MapFamily(tag="Hm"), MapFamily(tag="FLambda", lam=0.8), MapFamily(tag="Hm", m=25, p=2),
)


def _count_id(fam):
    return fam.tag if fam.tag in ("G", "H", "FMax") else f"{fam.tag}-m{fam.m}-p{fam.p}"


@pytest.mark.parametrize("fam", COUNT_FAMILIES, ids=_count_id)
def test_pole_grid_counts_the_table_it_builds(fam):
    # radii 4 * 1.7^j up to about 1000 on the lattices and 1e290 on the strips
    for j in range(11) if fam.tag in ("G", "H", "FMax") else range(0, 1250, 50):
        radius = 4.0 * 1.7 ** j
        assert _pole_grid(fam, radius)[0] == _pole_table(fam, radius)[0].size


def _first_table_holding(fam, count):
    """The search the count-first lookup replaced: build each table in turn."""
    radius = 4.0
    while (table := _pole_table(fam, radius))[0].size < count:
        radius *= 1.7
    return table


@pytest.mark.parametrize("fam", COUNT_FAMILIES, ids=_count_id)
@pytest.mark.parametrize("count", [2, 3, 57, 1000, 12345])
def test_poles_up_to_count_builds_one_table(monkeypatch, fam, count):
    want = _first_table_holding(fam, count)
    calls = []
    monkeypatch.setattr(families, "_pole_table", lambda f, r: calls.append(r) or _pole_table(f, r))
    got = _poles_up_to_count(fam, count)
    assert len(calls) == 1
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def test_poles_up_to_count_grows_past_a_short_table(monkeypatch):
    # should a count overshoot the table it describes, the next radius is built
    fam = MapFamily(tag="G")
    want = _first_table_holding(fam, 500)
    monkeypatch.setattr(families, "_pole_grid", lambda f, r: (10 * _pole_grid(f, r)[0],) + _pole_grid(f, r)[1:])
    got = _poles_up_to_count(fam, 500)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


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
        f, (_, df, dp) = eval_family(family, z), eval_deriv_array(family, [z])
        assert dp[0] == p
        if not p:
            assert f.value == v and df[0] == d


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


@pytest.mark.parametrize("family", FAMILIES[3:], ids=TAGS[3:])
def test_arcsin_families_do_not_depend_on_array_size_across_the_far_form(family):
    # arcsin takes its asymptotic form where max(|Re s|, |Im s|) > 1e8 for
    # s = lam*z/m; an array holding such points must leave the others' bits
    # as their size-1 evaluation gives them, at z = +-m/lam exactly too
    edge = family.m / family.lam
    z = np.array([edge, -edge, 1j * edge, 0.3 + 0.2j, -2.5 + 1e-9j, 10.0, 1e8 * edge,
                  -1e8 * edge * (1 + 1j), 1.01e8 * edge + 5.0j, 3e300 - 1e300j, 1e-300 + 1e-300j,
                  edge * (1 + 1e-15), 0.99999999 * edge * 1e8 * 1j])
    values, derivs, pole = eval_deriv_array(family, z)
    for k in range(z.size):
        v1, d1, p1 = eval_deriv_array(family, z[k:k + 1])
        assert p1[0] == pole[k]
        assert _same(v1, values[k:k + 1]) and _same(d1, derivs[k:k + 1]), z[k]
    assert not pole.any()


@pytest.mark.parametrize("tag, lam", [("Hm", 1.0), ("FLambda", 0.8)])
@pytest.mark.parametrize("p", [1, 2])
def test_derivative_is_zero_at_the_arcsin_branch_points(tag, lam, p):
    # z = +-m/lam gives s = 1, where sqrt(1 - s^2) = 0 and f has a zero of
    # order 2p: f' = 0 there, with no division by the zero root
    family = MapFamily(tag=tag, m=9, p=p, lam=lam)
    z = np.array([family.m / family.lam, -family.m / family.lam], dtype=complex)
    with np.errstate(all="raise"):
        _, derivs, pole = eval_deriv_array(family, z)
        _, value_pole = eval_family_array(family, z)
    assert np.array_equal(derivs, np.zeros(2)) and np.array_equal(pole, value_pole)


# ---------------------------------------------------------------------------
# arcsin of the folded quadrant from real ufuncs

ULP = 2.0 ** -52


def _assert_asin_matches_numpy(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(all="raise"):
        re, im, c, delta = _asin_q1(x, y)
    want = np.arcsin(x + 1j * y)
    tol = 8 * ULP * np.maximum(1.0, np.abs(want))
    assert np.all(np.abs(re - want.real) <= tol), (x, y)
    assert np.all(np.abs(im - want.imag) <= tol), (x, y)
    # c - i*delta is sqrt(1 - s^2), from the same branch as the value
    assert np.all(c >= 0.0) and np.all(delta >= 0.0)
    return re, im, c, delta


quadrant = st.floats(min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(quadrant, quadrant), min_size=1, max_size=8))
def test_asin_q1_matches_numpy_arcsin(points):
    x, y = np.array(points).T
    _assert_asin_matches_numpy(x, y)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-300.0, max_value=300.0), st.floats(min_value=0.0, max_value=PI / 2))
def test_asin_q1_matches_numpy_arcsin_at_every_magnitude(exponent, angle):
    r = 10.0 ** exponent
    _assert_asin_matches_numpy([r * math.cos(angle)], [r * math.sin(angle)])


def test_asin_q1_fixed_cases():
    mags = 10.0 ** np.arange(-300, 301, 25.0)
    zero = np.zeros_like(mags)
    _assert_asin_matches_numpy(mags, zero)  # the real axis, across the cut at 1
    _assert_asin_matches_numpy(zero, mags)  # the imaginary axis
    _assert_asin_matches_numpy(mags, mags)
    _assert_asin_matches_numpy([1e-300, 1e300, 0.5, 1e8, 1.0000001e8], [1e300, 1e-300, 1e300, 1e8, 0.0])
    # s = 1 exactly, and points within 1e-200 of it
    re, im, c, delta = _assert_asin_matches_numpy([1.0, 1.0, 1.0, 1.0 - ULP / 2, 1.0 + ULP],
                                                  [0.0, 1e-200, 5e-324, 1e-200, 1e-250])
    assert re[0] == PI / 2 and im[0] == 0.0 and c[0] == 0.0 and delta[0] == 0.0
    # sqrt(1 - s^2) = 1e-100 (1 - i) at s = 1 + 1e-200 i, though its square underflows
    assert c[1] == pytest.approx(1e-100, rel=1e-15) and delta[1] == pytest.approx(1e-100, rel=1e-15)
    # inside [0, 1] arcsin is real, exactly
    x = np.linspace(0.0, 1.0, 1001)
    re, im, _, _ = _assert_asin_matches_numpy(x, np.zeros_like(x))
    assert np.all(im == 0.0)


def test_asin_q1_takes_the_upper_limit_on_the_cut():
    # on x > 1, y = +0 the value and the root are the limits from the upper
    # half-plane, as the module docstring states
    x = np.array([1.0 + ULP, 1.5, 9.0, 1e7, 2e8, 1e300])
    on_cut = _asin_q1(x, np.zeros_like(x))
    above = _asin_q1(x, np.full_like(x, 1e-200))
    for a, b in zip(on_cut, above):
        assert np.allclose(a, b, rtol=1e-15, atol=1e-150)
    assert np.all(on_cut[1] > 0.0)


@pytest.mark.parametrize("family", FAMILIES[3:], ids=TAGS[3:])
def test_arcsin_families_derivative_matches_the_value_beyond_the_cut(family):
    # on the real axis beyond m/lam the derivative comes from the same branch
    # as the value: a central difference along the axis agrees with it
    x = np.array([1.2, 1.5, 3.0]) * family.m / family.lam
    _, derivs, pole = eval_deriv_array(family, x)
    h = 1e-6 * x
    forward, _ = eval_family_array(family, x + h)
    backward, _ = eval_family_array(family, x - h)
    assert not pole.any()
    assert np.allclose(derivs, (forward - backward) / (2 * h), rtol=1e-6, atol=0.0)


# ---------------------------------------------------------------------------
# The fold, the wp argument from parts, the cell reduction and p = 1 keep
# the bits of their earlier forms


def _fold_with_where_and_conj(z):
    negated = np.signbit(z.real)
    zn = np.where(negated, -z, z)
    conjugated = np.signbit(zn.imag)
    zn = np.where(conjugated, np.conj(zn), zn)
    return zn.real, zn.imag, negated, conjugated


def _wp_argument_by_complex_arithmetic(family, x, y):
    zn = _complex(x, y)
    return (PI * zn / 2.0 + 0.5j * PI) if family.tag == "FMax" else (zn + 0.5j * PI), None


def _reduce_by_gather_and_scatter(z):
    z = np.array(z, dtype=complex, copy=True)
    for _ in range(8):
        out = (np.abs(z.real) > PI / 2 + 1e-12) | (np.abs(z.imag) > PI / 2 + 1e-12)
        if not out.any():
            break
        zz = z[out]
        z[out] = zz - PI * (np.floor(zz.real / PI + 0.5) + 1j * np.floor(zz.imag / PI + 0.5))
    return z


def _value_by_complex_power(family, v):
    g = np.square(v / E1)
    if family.tag == "FMax":
        return 1j * g
    if family.tag == "G":
        return g
    return family.eta * g ** family.p


SIGNED = np.array([0.0, -0.0, math.inf, -math.inf, 1.5, -1.5])
FOLD_POINTS = np.concatenate([
    _complex(SIGNED[:, None], SIGNED[None, :]).ravel(),
    _complex(*np.random.default_rng(4).uniform(-40.0, 40.0, (2, 500))),
])


def test_fold_equals_the_where_and_conj_fold_bitwise():
    x, y, negated, conjugated = _normalize(FOLD_POINTS)
    want_x, want_y, want_negated, want_conjugated = _fold_with_where_and_conj(FOLD_POINTS)
    assert _same(x, want_x) and _same(y, want_y)
    assert np.array_equal(negated, want_negated) and np.array_equal(conjugated, want_conjugated)


@pytest.mark.parametrize("family", [MapFamily(tag="G"), MapFamily(tag="FMax"), MapFamily(tag="H"),
                                    MapFamily(tag="H", p=2)], ids=["G", "FMax", "H", "H-p2"])
def test_elliptic_families_keep_the_bits_of_the_earlier_kernel(monkeypatch, family):
    axis = np.linspace(-12.0, 12.0, 97)
    z = np.concatenate([(axis[None, :] + 1j * axis[:, None]).ravel(), FOLD_POINTS[36:],
                        np.array([0j, PI / 2, 0.5j * PI, 1e6 + 3e5j, -7e12 + 1j])])
    values, derivs, pole = eval_deriv_array(family, z)
    monkeypatch.setattr(families, "_normalize", _fold_with_where_and_conj)
    monkeypatch.setattr(families, "_wp_argument", _wp_argument_by_complex_arithmetic)
    monkeypatch.setattr(families, "_value_from_wp", _value_by_complex_power)
    monkeypatch.setattr(elliptic, "_reduce_array", _reduce_by_gather_and_scatter)
    want_values, want_derivs, want_pole = eval_deriv_array(family, z)
    assert np.array_equal(pole, want_pole)
    assert _same(values, want_values) and _same(derivs, want_derivs)

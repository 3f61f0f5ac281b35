"""Families of finite-singular-value meromorphic maps built on the square lattice.

The base map is

    G(z) = (wp(z + i*pi/2) / e1)^2,

an even, pi-periodic elliptic function with critical values {0, 1, infinity}:
its zeros and poles have multiplicity 4 and its 1-points multiplicity 2.
Derived families, selected by the `tag` of a MapFamily:

    G        the base map itself
    FMax     i * G(pi*z/2); critical values {0, i, infinity}
    H        eta * G(z)^p; critical values {0, eta, infinity}
    Hm       H(m * arcsin(z/m)) with m odd; merges the strip picture of H
             with polynomial-like pole sparsity (pole moduli grow
             exponentially), zeros at +-m of multiplicity 2p
    FLambda  Hm(lam * z) for lam in (0, 1]

arcsin uses the principal branch, cuts on (-inf, -1] and [1, inf) scaled
by m; on-cut values are the limit from the upper half-plane.  For odd m the
two branch choices w and pi*m - w give equal values (H is even and
pi-periodic), so the composition is single-valued.  _asin_q1 computes arcsin
and the chain rule's sqrt(1 - s^2) on the same branch from real ufuncs.

Every public evaluation is normalized before computing: arguments in the
lower half-plane evaluate via the conjugate symmetry f(conj z) = conj f(z)
(for FMax: f(conj z) = -conj f(z)), arguments in the left half-plane via
evenness.  This makes the symmetries bitwise-exact, which downstream
classification invariants rely on.

Poles lie at pi*(k + i*(l + 1/2)) for G and H and at 2*(k + i*(l + 1/2)) for
FMax.  Those of Hm are the images m*sin(w/m) of w = pi*k + i*pi*(l + 1/2) with
|k| <= (m-1)/2, the strip the principal arcsin reaches, and their moduli grow
like (m/2)*exp(pi*(l + 1/2)/m); FLambda's are Hm's divided by lam.

Each pole's leading coefficient b, with f(z) ~ (b/(z-a))^q, has a closed
form: wp(v) = 1/v^2 + O(v^2), so near a pole w0 of G or H, G ~ e1^-2 (w-w0)^-4
and H ~ eta e1^(-2p) (w-w0)^(-4p).  With f = F(phi(z)), b^q = K * c^q for
c = 1/phi'(a), and the enumerator carries b as its principal q-th root:

    family   K             c                  |b|
    G        e1^-2         1                  e1^(-1/2)
    FMax     i e1^-2       2/pi               (2/pi) e1^(-1/2)
    H        eta e1^(-2p)  1                  eta^(1/(4p)) e1^(-1/2)
    Hm       eta e1^(-2p)  cos(w0/m)          H's |b| * |cos(w0/m)|
    FLambda  eta e1^(-2p)  cos(w0/m) / lam    Hm's |b| / lam

cos(w0/m) comes from the strip grid the locations come from; sqrt(1 - (a/m)^2)
would overflow past |a| ~ 1e154.  The enumerated locations equal a per-pole
loop in Python complex arithmetic bitwise: moduli are np.hypot(re, im), as
Python's abs computes them (np.abs on a complex array rounds differently),
and w/m, m*sin and the division by lam act on the real and imaginary parts
separately, as Python's complex-by-real arithmetic does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .elliptic import PI, SpeiserdimError, square_lattice, _wp_array
from .sphere import INFINITY, ExtendedComplex

TAGS = ("G", "FMax", "H", "Hm", "FLambda")

# coordinates beyond this cannot be enumerated without double overflow headroom
_RADIUS_LIMIT = 1e306
# refuse pole enumerations that would materialize absurdly many entries
_COUNT_LIMIT = 3_000_000


class PoleRangeError(SpeiserdimError, ValueError):
    """Requested pole-enumeration radius exceeds representable coordinates."""


@dataclass(frozen=True)
class MapFamily:
    """Tagged, immutable description of one member of the map families above.

    Only the parameters the tag uses are validated; the others keep their
    defaults and are ignored.
    """

    tag: str
    p: int = 1
    eta: float = 0.3
    m: int = 9
    lam: float = 1.0

    def __post_init__(self) -> None:
        if self.tag not in TAGS:
            raise ValueError(f"unknown family tag {self.tag!r}; expected one of {TAGS}")
        if self.tag in ("H", "Hm", "FLambda"):
            if int(self.p) != self.p or self.p < 1:
                raise ValueError("p must be a positive integer")
            if not 0.0 < self.eta < PI / 2:
                raise ValueError("eta must lie strictly inside (0, pi/2)")
        if self.tag in ("Hm", "FLambda") and (int(self.m) != self.m or self.m < 1 or self.m % 2 == 0):
            raise ValueError("m must be an odd positive integer; the arcsin composition "
                             "is single-valued only for odd m")
        if self.tag == "FLambda" and not 0.0 < self.lam <= 1.0:
            raise ValueError("lam must lie in (0, 1]")

    @property
    def pole_multiplicity(self) -> int:
        return 4 if self.tag in ("G", "FMax") else 4 * self.p

    @property
    def order(self) -> int:
        """Order of growth: 2 for the lattice maps, whose pole count within r
        grows like r^2, and 0 for Hm and FLambda.  Those have 2m poles per
        level, and their moduli grow by e^(pi/m) per level, so their pole
        count grows like log r."""
        return 0 if self.tag in ("Hm", "FLambda") else 2


def _complex(re, im) -> np.ndarray:
    """re + i*im, assembled from its parts with no complex arithmetic."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _normalize(z: np.ndarray):
    """Fold z into the closed first quadrant: returns (|Re z|, |Im z|, negated, conjugated).

    Negation first: conjugating first could leave the negated point back in
    the lower half-plane, splitting one symmetry orbit over two
    representatives.  So the point is conjugated when exactly one of its
    parts has its sign bit set.
    """
    negated = np.signbit(z.real)
    return np.abs(z.real), np.abs(z.imag), negated, negated ^ np.signbit(z.imag)


def _arcsin_scale(family: MapFamily) -> float:
    return family.lam if family.tag == "FLambda" else 1.0


@np.errstate(under="ignore")  # terms that underflow are negligible next to the others
def _asin_q1(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """arcsin s for s = x + iy in the closed first quadrant, from real ufuncs: returns
    Re and Im arcsin s and the parts (c, delta) of sqrt(1 - s^2) = c - i*delta.

    With alpha = ((1-x)(1+x) + y^2)/2, b = xy and t = sqrt(|alpha| + |alpha - i*b|),
    1 - s^2 = 2(alpha - i*b) has the principal root (c, delta) = (t, b/t) where
    alpha >= 0, else (b/t, t); then -i*log(i*s + sqrt(1 - s^2)) is
        atan2(x + delta, c + y) + (i/2) log1p(2(delta (x + delta) + y (c + y)))
    with no cancellation.  y = +0 past 1 gives the limit from the upper half-plane.
    Past max(x, y) = 1e8, where this would overflow from 1e77, arcsin s is
    atan2(x, y) + i*log(2|s|) and the root -i*s to double precision.
    """
    top = np.maximum(x, y)
    far = top > 1e8
    any_far = np.count_nonzero(far) > 0  # see elliptic._reduce_array
    # s = 0 stands in for the far points in the general form
    xs, ys = (np.where(far, 0.0, x), np.where(far, 0.0, y)) if any_far else (x, y)
    alpha, b = 0.5 * ((1.0 - xs) * (1.0 + xs) + ys * ys), xs * ys
    abs_alpha, pos = np.abs(alpha), alpha >= 0.0
    # max(|alpha|, b) stands in for |alpha - i*b| where its square underflows, near s = 1
    t = np.sqrt(abs_alpha + np.maximum(np.sqrt(alpha * alpha + b * b), np.maximum(abs_alpha, b)))
    g = b / np.maximum(t, 1e-300)  # t = 0 only at s = 1, where b = 0
    c, delta = np.where(pos, t, g), np.where(pos, g, t)
    del alpha, b, abs_alpha, pos, t, g  # five arrays fewer at the peak of a 4,096-point eval
    ex, ey = xs + delta, c + ys
    re, im = np.arctan2(ex, ey), 0.5 * np.log1p(2.0 * (delta * ex + ys * ey))
    if any_far:
        hi, lo = np.where(far, top, 1.0), np.where(far, np.minimum(x, y), 0.0)
        re = np.where(far, np.arctan2(x, y), re)
        im = np.where(far, math.log(2.0) + np.log(hi) + 0.5 * np.log1p(np.square(lo / hi)), im)
        c, delta = np.where(far, y, c), np.where(far, x, delta)
    return re, im, c, delta


def _wp_argument(family: MapFamily, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, tuple | None]:
    """wp's argument at the folded point x + iy, built from the parts as numpy's complex
    arithmetic rounds them at finite points (lam * x * (1/m) for the division by m),
    and for Hm and FLambda the root (c, delta) of _asin_q1 at s = lam * (x + iy) / m."""
    if family.tag == "FMax":
        return _complex(PI * x / 2.0, PI * y / 2.0 + 0.5 * PI), None
    if family.tag in ("Hm", "FLambda"):
        k = 1.0 / family.m
        re, im, c, delta = _asin_q1(_arcsin_scale(family) * x * k, _arcsin_scale(family) * y * k)
        return _complex(family.m * re, family.m * im + 0.5 * PI), (c, delta)
    return _complex(x, y + 0.5 * PI), None


def _value_from_wp(family: MapFamily, v: np.ndarray) -> np.ndarray:
    # np.square, not `** 2`: see elliptic._wp_array on numpy's in-place temporaries
    g = np.square(v / square_lattice().e1)
    if family.tag == "FMax":
        return 1j * g
    if family.tag == "G":
        return g
    # skip numpy's slow g ** 1: it is g, bar the zero signs that eta * g rounds away
    return family.eta * (g if family.p == 1 else g ** family.p)


def _derivative_from_wp(family: MapFamily, root, v: np.ndarray, vp: np.ndarray) -> np.ndarray:
    """Chain rule through wp and wp' at a normalized argument and _wp_argument's root."""
    e1 = square_lattice().e1
    # np.multiply and np.square: no product is computed in place (see elliptic._wp_array)
    dg = np.multiply(2.0 * v, vp) / (e1 * e1)
    if family.tag == "FMax":
        return 1j * (PI / 2.0) * dg
    if family.tag == "G":
        out = dg
    else:
        g = np.square(v / e1)
        out = np.multiply(family.eta * family.p * g ** (family.p - 1), dg)
    if root is not None:
        # the root is 0 only at s = 1, a zero of order 2p, where f' = 0
        c, delta = root
        at_one = (c == 0.0) & (delta == 0.0)
        out = np.multiply(out, _arcsin_scale(family) / _complex(np.where(at_one, 1.0, c), -delta))
        out = np.where(at_one, 0.0, out)
    return out


def _unfold(family: MapFamily, out: np.ndarray, conjugated: np.ndarray, pole: np.ndarray):
    """Undo the conjugation fold and fold overflowing entries into the pole mask."""
    out = np.where(conjugated, -np.conj(out) if family.tag == "FMax" else np.conj(out), out)
    bad = ~np.isfinite(out)
    return np.where(bad, 0.0, out), pole | bad


def eval_family_array(family: MapFamily, z) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized evaluation.

    Returns (values, pole_mask); entries under pole_mask are meaningless
    placeholders and stand for the point at infinity.  Values that overflow
    double precision are also folded into pole_mask (they only arise inside
    pole neighbourhoods).
    """
    x, y, _, conjugated = _normalize(np.asarray(z, dtype=complex))
    v, _, pole = _wp_array(_wp_argument(family, x, y)[0])
    return _unfold(family, _value_from_wp(family, v), conjugated, pole)


def eval_family(family: MapFamily, z: complex) -> ExtendedComplex:
    """f(z) as a size-1 call into eval_family_array, so its bits equal the array path's."""
    values, pole = eval_family_array(family, [complex(z)])
    return INFINITY if pole[0] else ExtendedComplex(complex(values[0]))


def eval_deriv_array(family: MapFamily, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values and derivatives from one normalization and one cell reduction.

    Returns (values, derivatives, pole_mask).  `values` equals the values of
    eval_family_array(family, z) bitwise.  Derivatives come from the chain
    rule through wp and wp'; the families are even, so their derivatives
    are odd and the normalization negates them as well as conjugating.
    pole_mask marks poles and every entry whose value or derivative
    overflows; entries under it are meaningless placeholders.
    """
    x, y, negated, conjugated = _normalize(np.asarray(z, dtype=complex))
    w, root = _wp_argument(family, x, y)
    v, vp, pole = _wp_array(w, derivative=True)
    values, value_pole = _unfold(family, _value_from_wp(family, v), conjugated, pole)
    d = _derivative_from_wp(family, root, v, vp)
    derivs, deriv_pole = _unfold(family, np.where(negated, -d, d), conjugated, pole)
    return values, derivs, value_pole | deriv_pole


class PoleData(NamedTuple):
    """One pole: location a, multiplicity q, and |b| with f(z) ~ (b/(z-a))^q."""

    location: complex
    multiplicity: int
    coeff_magnitude: float


# one record of enumerate_poles' table: PoleData's fields, 32 bytes per pole
POLE_DTYPE = np.dtype([("location", complex), ("multiplicity", np.int64), ("coeff_magnitude", float)])


def _pole_grid(family: MapFamily, radius: float) -> tuple[float, np.ndarray, np.ndarray]:
    """The number of poles with |a| <= radius, counted per lattice row or strip
    column so that a count past _COUNT_LIMIT fails before any per-pole array is
    built, and the columns x and rows y of the grid _pole_table builds them on."""
    if family.tag in ("G", "H", "FMax"):
        step = 2.0 if family.tag == "FMax" else PI
        # a disk wider than sqrt(_COUNT_LIMIT) steps holds too many poles
        # already, so rows beyond that width need no counting
        n = int(min(radius / step, math.sqrt(_COUNT_LIMIT))) + 1
        x, y = step * np.arange(-n, n + 1), step * (np.arange(-n, n) + 0.5)
        half_row = np.floor(np.sqrt(np.maximum(radius * radius - y * y, 0.0)) / step)
        count = np.sum(2.0 * half_row + 1.0, where=np.abs(y) <= radius)
    else:
        m, scale = family.m, _arcsin_scale(family)
        if radius > _RADIUS_LIMIT * scale:
            raise PoleRangeError(f"radius {radius:g} exceeds {_RADIUS_LIMIT * scale:g}; pole "
                                 "coordinates would overflow double precision")
        r = radius * scale
        x = PI * np.arange(-(m // 2), m // 2 + 1)
        # column k holds the levels l with sinh(pi*(l + 1/2)/m) <= sqrt((r/m)^2 - sin(x/m)^2)
        t = np.minimum(np.abs(np.sin(x / m)) / (r / m), 1.0)
        levels = np.floor(m * np.arcsinh(r / m * np.sqrt((1.0 - t) * (1.0 + t))) / PI + 0.5)
        count = 2.0 * levels.sum()
        y = PI * (np.arange(levels.max() + 1) + 0.5)  # one spare level absorbs rounding
    if count > _COUNT_LIMIT:
        raise PoleRangeError(f"radius {radius:g} would enumerate more than {_COUNT_LIMIT} poles")
    return count, x, y


def _pole_table(family: MapFamily, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Poles a with |a| <= radius, sorted by (|a|, real part, imaginary part),
    and their coefficients b, the principal q-th roots of the b^q tabled in
    the module docstring, built on the grid of _pole_grid.  For G, H and FMax
    c, and so b, is one number: b comes back as a read-only broadcast of it."""
    _, x, y = _pole_grid(family, radius)
    if family.tag in ("G", "H", "FMax"):
        a = _complex(x[None, :], y[:, None]).ravel()
        a = a[np.hypot(a.real, a.imag) <= radius]
        c = np.complex128(2.0 / PI if family.tag == "FMax" else 1.0)
    else:
        m, scale = family.m, _arcsin_scale(family)
        w = _complex(x[None, :] / m, y[:, None] / m).ravel()
        s = np.sin(w)
        a = _complex(m * s.real, m * s.imag)
        keep = np.hypot(a.real, a.imag) <= radius * scale
        a, c = a[keep], np.cos(w[keep]) / scale
        a, c = np.concatenate([a, np.conj(a)]), np.concatenate([c, np.conj(c)])
        a = _complex(a.real / scale, a.imag / scale)
    order = np.lexsort((a.imag, a.real, np.hypot(a.real, a.imag)))
    a, c = a[order], c[order] if c.ndim else c
    # b is the principal q-th root of K * c^q; its argument comes from the
    # unit vector c/|c|, so that c^q never overflows
    q, mag = family.pole_multiplicity, np.hypot(c.real, c.imag)
    size = mag * (1.0 if family.tag in ("G", "FMax") else family.eta ** (1.0 / q))
    size /= math.sqrt(square_lattice().e1)
    turn = np.angle((1j if family.tag == "FMax" else 1.0) * (c / mag) ** q) / q
    return a, np.broadcast_to(_complex(size * np.cos(turn), size * np.sin(turn)), a.shape)


def enumerate_poles(family: MapFamily, radius: float) -> np.recarray:
    """All poles with |a| <= radius, sorted by modulus, with |b| in closed form: one
    record of POLE_DTYPE per pole, whose fields are PoleData's."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    a, b = _pole_table(family, radius)
    poles = np.recarray(a.shape, dtype=POLE_DTYPE)
    poles.location, poles.multiplicity, poles.coeff_magnitude = a, family.pole_multiplicity, np.hypot(b.real, b.imag)
    return poles


def _poles_up_to_count(family: MapFamily, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The pole table of the first radius 4 * 1.7^j that holds count poles, picked
    by the counts of _pole_grid: one table is built, the next if it comes out short."""
    radius = 4.0
    while _pole_grid(family, radius)[0] < count or (table := _pole_table(family, radius))[0].size < count:
        radius *= 1.7
    return table


def nearest_pole(family: MapFamily) -> PoleData:
    """The pole of smallest modulus (upper half-plane representative)."""
    a, b = _poles_up_to_count(family, 2)
    k = np.flatnonzero(a.imag > 0)[0]
    return PoleData(complex(a[k]), family.pole_multiplicity, abs(complex(b[k])))


def _linear_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line through (x, y): returns (slope, slope stderr, r).

    Computed step for step as scipy.stats.linregress computes it, so the
    results match it bitwise: moments from np.cov(bias=1), r clamped into
    [-1, 1] and NaN when a spread is zero, stderr 0 for two points.
    """
    n = len(x)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    stderr = 0.0 if n == 2 else np.sqrt((1 - r ** 2) * ssym / ssxm / (n - 2))
    return slope, stderr, r


_EXP_RADII = np.logspace(-3.4, -2.4, 9)
_EXP_ANGLES = np.exp(1j * (0.2183 + 2.0 * PI * np.arange(8) / 8))


def local_exponent(family: MapFamily, z0: complex, kind: str, value: complex = 0.0) -> float:
    """Multiplicity estimate at z0 by log-log regression over a decade of radii.

    kind selects the measured quantity: "zero" and "value" fit
    log|f - target| against log|z - z0| (target 0 or the given value),
    "pole" fits log|f| and negates the slope.  Returns NaN when the fit is
    not credible (residual slope error above 0.02), the inconclusive marker.
    """
    if kind not in ("zero", "pole", "value"):
        raise ValueError("kind must be 'zero', 'pole' or 'value'")
    target = 0.0 if kind in ("zero", "pole") else complex(value)
    pts = complex(z0) + _EXP_RADII[:, None] * _EXP_ANGLES[None, :]
    values, pole = eval_family_array(family, pts)
    mags = np.abs(values - target)
    if pole.any() or (mags == 0.0).any():
        return math.nan
    y = np.log(mags).mean(axis=1)
    slope, stderr, _ = _linear_fit(np.log(_EXP_RADII), y)
    if not math.isfinite(slope) or stderr > 0.02:
        return math.nan
    return -slope if kind == "pole" else slope

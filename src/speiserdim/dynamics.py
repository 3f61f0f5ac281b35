"""Orbit dynamics: attracting fixed points, Fatou/Julia classification, rasters.

Classification semantics.  A point is Fatou(k) when its orbit first enters
the disk of radius `attraction_tol` around the attracting fixed point at
step k.  It is Julia when the orbit lands within the pole cutoff of a pole
(the value is the point at infinity) or when it exceeds the huge-modulus
guard repeatedly: every guard exit means the orbit just visited a small
neighbourhood of some pole, and an orbit that keeps doing so without being
attracted is treated as Julia once `guard_exit_limit` exits accumulate.
Orbits that survive `max_iterations` steps without a verdict are
Undetermined; they are counted and reported, never dropped.

The raster target set for dimension estimates is Julia plus Undetermined,
i.e. everything not observed to be attracted.  The sweep, which reads only
that set, renders with `attraction_tol` raised to `basin_radius`, a disk
proven to trap its orbits; the only class it can change is Undetermined to
attracted, where the budget ran out on an orbit that provably converges.

When no attracting fixed point is supplied, rendering falls back to an
attracting-cycle sweep: a pixel counts as attracted when its orbit revisits
one of its last `cycle_periods` values within tolerance for several
consecutive steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import SpeiserdimError
from .families import MapFamily, eval_deriv_array, eval_family, eval_family_array

CODE_JULIA = -1
CODE_UNDETERMINED = -2

# The library guard exits only orbits that land next to a pole, which suits
# maps without an attracting fixed point, such as criterion 07's FMax render.
# The config's guard (30 and 2 exits, `ExperimentConfig.guard_*`) serves the
# FLambda sweep instead: its maps are hyperbolic, so under this guard every
# pixel centre is attracted and the box-counting target set is empty, while
# at 30 any pass near a pole counts as an exit.
DEFAULT_GUARD_MODULUS = 1e12
DEFAULT_GUARD_EXITS = 3

_CYCLE_STABLE_STEPS = 5


class NoAttractingFixedPointError(SpeiserdimError, RuntimeError):
    """No sign change of f(x) - x on the bracket, a pole inside it, or a repelling root."""


class LinearizationDomainError(SpeiserdimError, RuntimeError):
    """No Koenigs coordinate: the orbit hit a pole or did not settle within 400 steps."""


@dataclass(frozen=True)
class FixedPointData:
    """Attracting fixed point on the real axis with its multiplier."""

    location: float
    multiplier: float
    lam: float


@dataclass(frozen=True)
class GridSpec:
    """Square pixel grid: center, half-width, resolution and orbit budget."""

    center: complex = 0j
    half_width: float = 2.0
    resolution: int = 512
    max_iterations: int = 500
    attraction_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.attraction_tol <= 0:
            raise ValueError("attraction_tol must be positive")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Column reals and row imaginaries (top row first); a centred axis is built of exact negations.

        On such an axis x[n-1-i] == -x[i] bitwise and the middle of an odd n
        is +0.0, so mirrored pixels start at exactly mirrored points, which
        `render` relies on; other axes are plain np.linspace.
        """
        xs = _axis(self.center.real - self.half_width, self.center.real + self.half_width,
                   self.resolution, self.center.real == 0)
        ys = _axis(self.center.imag + self.half_width, self.center.imag - self.half_width,
                   self.resolution, self.center.imag == 0)
        return xs, ys


def _axis(start: float, stop: float, n: int, centred: bool) -> np.ndarray:
    a = np.linspace(start, stop, n)
    if centred:
        half = n // 2
        a[n - half:] = -a[:half][::-1]
        if n % 2:
            a[half] = 0.0
    return a


def find_attracting_fixed_point(lam: float, m: int, p: int, eta: float) -> FixedPointData:
    """Root of f(x) = x on [0, eta] by bracketed Newton, with its multiplier f'(x).

    The bracket is [0, eta], across which gap(x) = f(x) - x must change sign:
    gap(0) = f(0) = eta > 0, and gap(eta) <= 0 holds for a root however close
    to eta (about 2.8 eta^3 below it for tiny eta).  Each pass takes f and f'
    from one eval_deriv_array call, both ends from one (the kernel rounds
    alike at every size), and moves the bracket end of gap's sign there.
    From the right end, the next point is the Newton point x - gap / (f' - 1),
    or the bracket's midpoint when that point falls outside the bracket (ends
    included) or its step is over half the last step, so Newton cannot cycle
    between the ends, as it does near repelling roots.  The search stops after
    a step of at most 1e-15 + 8.9e-16 |x| (brentq's xtol and rtol); the
    multiplier is f' from the pass at that x.
    """
    family = MapFamily(tag="FLambda", lam=lam, m=m, p=p, eta=eta)

    def gaps(*xs: float) -> list[tuple[float, float]]:
        v, d, pole = eval_deriv_array(family, xs)
        if pole.any():
            raise NoAttractingFixedPointError(f"map is infinite at x={xs[pole.argmax()]!r} inside the bracket")
        return [(float(vi.real) - x, float(di.real)) for x, vi, di in zip(xs, v, d)]

    lo, hi = 0.0, eta
    (g_lo, _), (g, d) = gaps(lo, hi)
    if g_lo * g > 0:
        raise NoAttractingFixedPointError(
            f"no attracting fixed point found: f(x) - x has no sign change on ({lo:g}, {hi:g})")
    x, step = hi, hi - lo
    for _ in range(100):
        lo, hi = (x, hi) if (g < 0.0) == (g_lo < 0.0) else (lo, x)
        nxt = x - g / (d - 1.0) if d != 1.0 else math.nan
        if not (lo <= nxt <= hi and 2.0 * abs(nxt - x) <= abs(step)):
            nxt = 0.5 * (lo + hi)
        step, x = nxt - x, nxt
        g, d = gaps(x)[0]
        if g == 0.0 or abs(step) <= 1e-15 + 8.9e-16 * abs(x):
            break
    else:
        raise RuntimeError("fixed-point search did not converge in 100 passes")
    if not abs(d) < 1.0:
        raise NoAttractingFixedPointError(f"fixed point {x!r} is not attracting: multiplier {d!r}")
    return FixedPointData(location=x, multiplier=d, lam=lam)


def _iterate_block(
    points: np.ndarray,
    family: MapFamily,
    fp: FixedPointData | None,
    max_iterations: int,
    tol: float,
    guard_modulus: float,
    guard_exit_limit: int,
    cycle_periods: int,
) -> np.ndarray:
    """Classify a flat array of starting points; returns int32 codes.

    At most `_BLOCK_POINTS` orbits live at once, one per slot: after each step
    the finished orbits leave and a cursor over the unstarted points refills
    the free slots.  A slot holds an orbit's value, point index, own step and
    guard counts and, in cycle mode, its last cycle_periods values (newest
    first, inf until reached) and its count of revisiting steps in a row.
    Classification starts at step 1, so no code is 0: `render` applies the
    step-0 test |z0 - fp| < tol.
    """
    def fresh(z0, idx):  # concatenate copies, so the zeros are not shared
        zeros = np.zeros(z0.size, dtype=np.int32)
        cycle = [np.full((z0.size, cycle_periods), np.inf + 0j), zeros] if fp is None else []
        return [z0, idx, zeros, zeros, *cycle]

    points = np.asarray(points, dtype=complex).ravel()
    codes = np.full(points.size, CODE_UNDETERMINED, dtype=np.int32)
    slots, cursor = fresh(points[:0], np.arange(0)), 0
    while True:
        if cursor < points.size and slots[0].size < _BLOCK_POINTS:
            z0 = points[cursor:cursor + _BLOCK_POINTS - slots[0].size]
            idx = np.arange(cursor, cursor + z0.size)
            cursor += z0.size
            slots = [np.concatenate(pair) for pair in zip(slots, fresh(z0, idx))]
        if slots[0].size == 0:
            return codes
        z, idx, steps, guards, *cycle = slots
        v, pole = eval_family_array(family, z)
        steps += 1
        if fp is not None:
            att = np.abs(v - fp.location) < tol
        else:
            cycle[0] = np.concatenate((z[:, None], cycle[0][:, :-1]), axis=1)
            cycle[1] = np.where((np.abs(v[:, None] - cycle[0]) < tol).any(axis=1), cycle[1] + 1, 0)
            att = cycle[1] >= _CYCLE_STABLE_STEPS
        att &= ~pole
        big = np.abs(v) > guard_modulus
        guards += big
        julia = pole | big & (guards >= guard_exit_limit)
        codes[idx[julia]] = CODE_JULIA
        codes[idx[att]] = steps[att]  # att excludes poles and outranks a guard exit
        keep = ~(julia | att | (steps >= max_iterations))
        slots = [a[keep] for a in (v, idx, steps, guards, *cycle)]


@dataclass(frozen=True)
class RasterResult:
    """Per-pixel classification codes for a grid, plus export helpers."""

    grid: GridSpec
    family: MapFamily
    codes: np.ndarray

    @property
    def attracted_fraction(self) -> float:
        return float(np.mean(self.codes >= 0))

    @property
    def julia_fraction(self) -> float:
        return float(np.mean(self.codes == CODE_JULIA))

    @property
    def undetermined_fraction(self) -> float:
        return float(np.mean(self.codes == CODE_UNDETERMINED))

    def target_mask(self) -> np.ndarray:
        """Pixels kept for dimension estimates: everything not attracted."""
        return self.codes < 0

    def to_pgm(self, comments: list[str] | None = None) -> bytes:
        """Binary PGM; attracted pixels shaded by step (1..254), Julia 0, Undetermined 255."""
        n = self.grid.resolution
        span = max(self.grid.max_iterations, 1)
        shade = 1 + (self.codes.astype(np.int64) * 253) // (span + 1)
        img = np.where(self.codes == CODE_JULIA, 0, np.where(self.codes == CODE_UNDETERMINED, 255, shade))
        header = "P5\n" + "".join(f"# {line}\n" for line in comments or []) + f"{n} {n}\n255\n"
        return header.encode("ascii") + img.astype(np.uint8).tobytes()


# Orbit slots of _iterate_block, which bound the orbit state held at once.
# 8,192 and 16,384 slots raised the default sweep's peak RSS by 0.7 and 1.9 MB
# over 40.0 MB for a few percent of speed; the evaluator takes 68 ns a point at
# 4,096 points, 94 at 16,384.  The kernel rounds alike at every array size, so
# codes do not depend on the count.
_BLOCK_POINTS = 4096

def _mirrors(grid: GridSpec, family: MapFamily, fp: FixedPointData | None) -> tuple[bool, bool]:
    """Which pixel mirrors carry a pixel's code to its mirror image: (row, column).

    The row mirror is z -> conj z and needs the grid centred on the real
    axis; the column mirror is z -> -conj z and needs it centred on the
    imaginary axis.  There GridSpec.axes() makes mirrored starts exact.

    The fold in families._normalize/_unfold makes f(-z) = f(z) and
    f(conj z) = conj f(z) bitwise (-conj f(z) for FMax).  So under either
    mirror the orbit of the mirrored start is tau(orbit) bitwise from step 1
    on, with tau = conj for G, H, Hm and FLambda and tau = -conj for FMax.
    The classification reads |v - fp| (fp real), |v|, the pole mask,
    |v_k - v_j| and, in cycle mode, |v_k - z0| for the first cycle_periods
    steps.  All are invariant under tau except:

      * |-conj v - fp| != |v - fp|: FMax with a fixed point gets no mirror;
      * |v_k - z0| needs the mirror to equal tau, since |v_k + z0| !=
        |v_k - z0|: in cycle mode G, H, Hm and FLambda keep only the row
        mirror and FMax only the column mirror.

    The step-0 test |z0 - fp| < tol is not carried by the column mirror, so
    render applies it to every pixel after the codes are copied.

      family            fixed point   cycle
      G, H, Hm, FLambda row, column   row
      FMax              none          column
    """
    fmax = family.tag == "FMax"
    row = not fmax and grid.center.imag == 0
    col = (fp is not None) != fmax and grid.center.real == 0
    return row, col


def render(
    grid: GridSpec,
    family: MapFamily,
    fp: FixedPointData | None,
    threads: int = 0,
    guard_modulus: float = DEFAULT_GUARD_MODULUS,
    guard_exit_limit: int = DEFAULT_GUARD_EXITS,
    cycle_periods: int = 3,
) -> RasterResult:
    """Classify every pixel center, on the calling thread.

    Only the pixels that no mirror of `_mirrors` maps from another are
    iterated (a quarter of a centred grid in fixed-point mode), in one
    `_iterate_block` pass through its orbit slots, and their codes are
    copied to their mirror images.  Then the pixels with |z0 - fp| < tol
    get code 0; only rows with |Im z0| < tol can hold one.  `threads` is
    accepted so that existing callers keep working; it has no effect.
    """
    if fp is None and cycle_periods < 1:
        raise ValueError("cycle_periods must be at least 1")
    xs, ys = grid.axes()
    n = grid.resolution
    row, col = _mirrors(grid, family, fp)
    rows = (n + 1) // 2 if row else n
    cols = (n + 1) // 2 if col else n
    tol = grid.attraction_tol

    codes = np.empty((n, n), dtype=np.int32)
    codes[:rows, :cols] = _iterate_block(xs[None, :cols] + 1j * ys[:rows, None], family, fp, grid.max_iterations,
                                         tol, guard_modulus, guard_exit_limit, cycle_periods).reshape(rows, cols)
    codes[:rows, cols:] = codes[:rows, :n - cols][:, ::-1]
    codes[rows:] = codes[:n - rows][::-1]
    if fp is not None:
        band = np.abs(ys) < tol
        codes[band] = np.where(np.abs(xs[None, :] + 1j * ys[band, None] - fp.location) < tol, 0, codes[band])
    return RasterResult(grid=grid, family=family, codes=codes)


def koenigs_value(family: MapFamily, fp: FixedPointData, z: complex) -> complex:
    """Koenigs coordinate phi(z), the limit of (f^n(z) - fp) / multiplier^n.

    The quotient at w = f^n(z) is off the limit by O(|w - fp|) and carries
    rounding amplified by |multiplier|^-n; both are about sqrt(eps) once
    |w - fp| <= 1e-8, so the first such iterate (z itself included) gives phi.
    Raises LinearizationDomainError when the multiplier is not in (0, 1) in
    modulus, the orbit hits a pole, 400 steps pass, or the last two quotients
    still differ by 1e-6, as they do when the multiplier is not f'(fp).
    """
    zeta, mult = fp.location, fp.multiplier
    if not 0.0 < abs(mult) < 1.0:
        raise LinearizationDomainError(f"multiplier {mult!r} admits no Koenigs coordinate")
    w, power, steps = complex(z), 1.0, 0
    prev = val = w - zeta
    while abs(w - zeta) > 1e-8:
        if steps == 400:
            raise LinearizationDomainError("Koenigs iteration exhausted its 400 steps")
        v = eval_family(family, w)
        if v.at_infinity:
            raise LinearizationDomainError("orbit hit a pole before the Koenigs limit converged")
        w, power, prev, steps = v.value, power * mult, val, steps + 1
        val = (w - zeta) / power
    if abs(val - prev) >= 1e-6:
        raise LinearizationDomainError(f"Koenigs quotients still move by {abs(val - prev):g}")
    return val


def basin_radius(family: MapFamily, fp: FixedPointData, guard_modulus: float) -> float:
    """Radius r of a disk D(fp, r) whose orbits provably converge to fp, or 0.

    The Koenigs function phi (koenigs_value, phi'(fp) = 1) has an inverse psi
    that continues univalently through branches of f^-1 while psi(D(0, |mu| s))
    holds no singular value.  Here sing(f^-1) = {0, f(0), infinity} (f(0) = eta
    for H, Hm, FLambda) and phi(f(0)) = mu phi(0), so psi is univalent on
    D(0, rho), rho = |phi(0)|.  Koebe's growth theorem at t = 1/2 puts D(fp, r),
    r = t rho / (1 + t)^2, inside psi(D(0, t rho)), and each orbit from there
    obeys |f^n(z) - fp| <= |mu|^n t rho / (1 - |mu|^n t)^2: it converges, hits
    no pole and stays below the guard if |fp| + t rho / (1 - t)^2 < guard_modulus.
    Returns 0, which keeps the attraction_tol rule, when that fails or when
    koenigs_value raises (mu = 0 included).
    """
    t = 0.5
    try:
        rho = abs(koenigs_value(family, fp, 0j))
    except LinearizationDomainError:
        return 0.0
    if abs(fp.location) + t * rho / (1 - t) ** 2 >= guard_modulus:
        return 0.0
    return t * rho / (1 + t) ** 2


def koenigs_check(family: MapFamily, fp: FixedPointData, z: complex) -> float:
    """Residual |g(f(z)) - multiplier * g(z)| of the linearization equation."""
    gz = koenigs_value(family, fp, z)
    fz = eval_family(family, z)
    if fz.at_infinity:
        raise LinearizationDomainError("z maps to a pole; no linearization residual")
    gfz = koenigs_value(family, fp, fz.value)
    return abs(gfz - fp.multiplier * gz)

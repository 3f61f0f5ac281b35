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
i.e. everything not observed to be attracted.

When no attracting fixed point is supplied, rendering falls back to an
attracting-cycle sweep: a pixel counts as attracted when its orbit revisits
one of its last `cycle_periods` values within tolerance for several
consecutive steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from io import StringIO

import numpy as np

from .families import MapFamily, eval_deriv, eval_family, eval_family_array

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


class NoAttractingFixedPointError(RuntimeError):
    """No sign change of f(x) - x was found on the scanned interval."""


class LinearizationDomainError(RuntimeError):
    """Koenigs iteration failed: the orbit left the linearization domain."""


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

    def pixel_centers(self) -> np.ndarray:
        """Pixel centres, top row first; an axis centred on 0 is built of exact negations.

        On such an axis x[n-1-i] == -x[i] bitwise and the middle of an odd n
        is +0.0, so mirrored pixels start at exactly mirrored points, which
        `render` relies on; other axes are plain np.linspace.
        """
        xs = _axis(self.center.real - self.half_width, self.center.real + self.half_width,
                   self.resolution, self.center.real == 0)
        ys = _axis(self.center.imag + self.half_width, self.center.imag - self.half_width,
                   self.resolution, self.center.imag == 0)
        return xs[None, :] + 1j * ys[:, None]


def _axis(start: float, stop: float, n: int, centred: bool) -> np.ndarray:
    a = np.linspace(start, stop, n)
    if centred:
        half = n // 2
        a[n - half:] = -a[:half][::-1]
        if n % 2:
            a[half] = 0.0
    return a


def _brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Brent-Dekker root of f on the sign-changing bracket [a, b].

    Follows scipy.optimize.brentq (Brent 1973, ch. 4) step for step, so the
    roots, and every output that depends on them, match it bitwise.
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("root finder did not converge in 100 iterations")


def find_attracting_fixed_point(lam: float, m: int, p: int, eta: float) -> FixedPointData:
    """Root of f(x) = x on (0, eta) by bracketing, with its multiplier.

    f(0) = eta > 0 guarantees the left bracket; if f(x) - x never changes
    sign on the interval the search fails loudly with the scanned range.
    """
    family = MapFamily(tag="FLambda", lam=lam, m=m, p=p, eta=eta)

    def gap(x: float) -> float:
        v = eval_family(family, complex(x))
        if v.at_infinity:
            raise NoAttractingFixedPointError(f"map is infinite at x={x!r} inside the scan interval")
        return v.value.real - x

    lo, hi = 1e-12, eta * (1.0 - 1e-12)
    a, b = lo, hi
    if gap(a) * gap(b) > 0:
        # walk a grid for a bracket before giving up
        xs = np.linspace(lo, hi, 65)
        vals = [gap(float(x)) for x in xs]
        bracket = None
        for i in range(len(xs) - 1):
            if vals[i] * vals[i + 1] <= 0:
                bracket = (float(xs[i]), float(xs[i + 1]))
                break
        if bracket is None:
            raise NoAttractingFixedPointError(
                f"no attracting fixed point found: f(x) - x has no sign change on ({lo:g}, {hi:g})"
            )
        a, b = bracket
    root = _brentq(gap, a, b, xtol=1e-15, rtol=8.9e-16)
    deriv = eval_deriv(family, complex(root))
    if deriv.at_infinity:
        raise NoAttractingFixedPointError(f"derivative is infinite at the fixed point {root!r}")
    mult = deriv.value.real
    if not abs(mult) < 1.0:
        raise NoAttractingFixedPointError(
            f"fixed point {root!r} is not attracting: multiplier {mult!r}"
        )
    return FixedPointData(location=root, multiplier=mult, lam=lam)


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
    """Classify a flat array of starting points; returns int32 codes."""
    cur = np.array(points, dtype=complex).ravel()
    n = cur.size
    codes = np.full(n, CODE_UNDETERMINED, dtype=np.int32)
    alive = np.ones(n, dtype=bool)
    guards = np.zeros(n, dtype=np.int16)

    if fp is not None:
        att0 = np.abs(cur - fp.location) < tol
        codes[att0] = 0
        alive &= ~att0
        hist = stable = None
    else:
        hist = [np.full(n, np.inf + 0j) for _ in range(cycle_periods)]
        stable = np.zeros(n, dtype=np.int16)

    for step in range(1, max_iterations + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        vals, pole = eval_family_array(family, cur[idx])
        hit = idx[pole]
        codes[hit] = CODE_JULIA
        alive[hit] = False
        live = idx[~pole]
        v = vals[~pole]
        if hist is not None:
            prev = cur[live]
        cur[live] = v

        if fp is not None:
            att = np.abs(v - fp.location) < tol
            done = live[att]
            codes[done] = step
            alive[done] = False
            live = live[~att]
            v = v[~att]
        else:
            # rotate per-point history, then look for a revisit of period <= cycle_periods
            for j in range(cycle_periods - 1, 0, -1):
                hist[j][live] = hist[j - 1][live]
            hist[0][live] = prev
            near = np.zeros(live.size, dtype=bool)
            for j in range(cycle_periods):
                near |= np.abs(v - hist[j][live]) < tol
            stable[live] = np.where(near, stable[live] + 1, 0)
            att = stable[live] >= _CYCLE_STABLE_STEPS
            done = live[att]
            codes[done] = step
            alive[done] = False
            live = live[~att]
            v = v[~att]

        big = np.abs(v) > guard_modulus
        bidx = live[big]
        guards[bidx] += 1
        dead = bidx[guards[bidx] >= guard_exit_limit]
        codes[dead] = CODE_JULIA
        alive[dead] = False
    return codes


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
        header = StringIO()
        header.write("P5\n")
        for line in comments or []:
            header.write(f"# {line}\n")
        header.write(f"{n} {n}\n255\n")
        return header.getvalue().encode("ascii") + img.astype(np.uint8).tobytes()


# Representative points per _iterate_block call, small so that an orbit
# step stays in cache (about 265 ns a point at 4096 points, 424 ns at 10^6).
# The kernel rounds alike at every array size, so the codes do not depend
# on it.
_BLOCK_POINTS = 4096

def _mirrors(grid: GridSpec, family: MapFamily, fp: FixedPointData | None) -> tuple[bool, bool]:
    """Which pixel mirrors carry a pixel's code to its mirror image: (row, column).

    The row mirror is z -> conj z and needs the grid centred on the real
    axis; the column mirror is z -> -conj z and needs it centred on the
    imaginary axis.  There pixel_centers() makes mirrored starts exact.

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
        mirror and FMax only the column mirror;
      * the step-0 test |z0 - fp| < tol is not carried by the column mirror;
        render re-iterates the mirrored pixels where it disagrees.

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
    iterated (a quarter of a centred grid in fixed-point mode), in blocks
    of `_BLOCK_POINTS`, and their codes are copied to their mirror images.
    `threads` is accepted so that existing callers keep working; it has no
    effect.
    """
    pts = grid.pixel_centers()
    n = grid.resolution
    row, col = _mirrors(grid, family, fp)
    rows = (n + 1) // 2 if row else n
    cols = (n + 1) // 2 if col else n

    def classify(points):
        return _iterate_block(
            points,
            family,
            fp,
            grid.max_iterations,
            grid.attraction_tol,
            guard_modulus,
            guard_exit_limit,
            cycle_periods,
        )

    reps = pts[:rows, :cols].ravel()
    parts = [classify(reps[i:i + _BLOCK_POINTS]) for i in range(0, reps.size, _BLOCK_POINTS)]
    codes = np.empty((n, n), dtype=np.int32)
    codes[:rows, :cols] = np.concatenate(parts).reshape(rows, cols)
    codes[:rows, cols:] = codes[:rows, :n - cols][:, ::-1]
    codes[rows:] = codes[:n - rows][::-1]
    if col and fp is not None:
        # the one test the column mirror does not carry: step 0, |z0 - fp| < tol
        redo = (np.abs(pts[:, cols:] - fp.location) < grid.attraction_tol) != (codes[:, cols:] == 0)
        codes[:, cols:][redo] = classify(pts[:, cols:][redo])
    return RasterResult(grid=grid, family=family, codes=codes)


def koenigs_value(
    family: MapFamily,
    fp: FixedPointData,
    z: complex,
    tol: float = 1e-10,
    max_steps: int = 400,
) -> complex:
    """Limit of multiplier^(-n) * (f^n(z) - fixed point).

    Successive values first converge at the multiplier's rate, then float
    noise (amplified like |multiplier|^-n) takes over; the iteration stops at
    the first difference below tol or at the noise floor, whichever comes
    first, and fails loudly if neither happens.
    """
    zeta = fp.location
    mult = fp.multiplier
    if not 0.0 < abs(mult) < 1.0:
        raise LinearizationDomainError(f"multiplier {mult!r} admits no Koenigs coordinate")
    cur = complex(z)
    power = 1.0
    prev = cur - zeta
    best = math.inf
    best_val = prev
    grew = 0
    for _ in range(max_steps):
        v = eval_family(family, cur)
        if v.at_infinity:
            raise LinearizationDomainError("orbit hit a pole before the Koenigs limit converged")
        cur = v.value
        power *= mult
        val = (cur - zeta) / power
        diff = abs(val - prev)
        prev = val
        if diff < best:
            best = diff
            best_val = val
            grew = 0
        else:
            grew += 1
        if diff < tol:
            return val
        if grew >= 5:
            if best < 1e-6:
                return best_val
            raise LinearizationDomainError(
                f"Koenigs iteration diverged; best successive difference {best:g}"
            )
    if best < 1e-6:
        return best_val
    raise LinearizationDomainError("Koenigs iteration exhausted its step budget")


def koenigs_check(family: MapFamily, fp: FixedPointData, z: complex) -> float:
    """Residual |g(f(z)) - multiplier * g(z)| of the linearization equation."""
    gz = koenigs_value(family, fp, z)
    fz = eval_family(family, z)
    if fz.at_infinity:
        raise LinearizationDomainError("z maps to a pole; no linearization residual")
    gfz = koenigs_value(family, fp, fz.value)
    return abs(gfz - fp.multiplier * gz)

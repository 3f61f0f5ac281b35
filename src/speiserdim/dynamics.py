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
that set, widens `attraction_tol` to the radius of `basin_majorant`'s disk
about fp, which f provably maps into itself; the only class this can change
is Undetermined to attracted, where the budget ran out on an orbit that
provably converges.

When no attracting fixed point is supplied, rendering falls back to an
attracting-cycle sweep: a pixel counts as attracted when its orbit revisits
one of its last `cycle_periods` values within tolerance for several
consecutive steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import PI, SpeiserdimError, square_lattice
from .families import MapFamily, _arcsin_scale, eval_deriv_array, eval_family, eval_family_array

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
_EVAL_ERROR = 1e-12  # the error of eval_family_array that basin_majorant assumes


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
    xs: np.ndarray,
    ys: np.ndarray,
    family: MapFamily,
    fp: FixedPointData | None,
    max_iterations: int,
    tol: float,
    guard_modulus: float,
    guard_exit_limit: int,
    cycle_periods: int,
) -> np.ndarray:
    """Classify the starts xs[j] + 1j * ys[i]; returns int32 codes of shape
    (ys.size, xs.size).  With fp, an orbit is attracted once |v - fp| < tol.

    At most `_BLOCK_POINTS` orbits live at once, one per slot: after each step
    the finished orbits' slots take the next starts in row-major order, built
    from the axes as they are taken, and once no start waits the finished
    orbits leave.  A slot holds an orbit's value, start index, own step and
    guard counts and, in cycle mode, its last cycle_periods values (newest
    first, inf until reached) and its count of revisiting steps in a row.
    Classification starts at step 1, so no code is 0: `render` applies the
    step-0 test |z0 - fp| < tol.
    """
    def starts(lo, hi):  # row-major starts lo..hi-1, cut from the grid rows that hold them
        first, last = lo // xs.size, (hi - 1) // xs.size
        rows = xs + 1j * ys[first:last + 1, None]  # the grid expression render used, so the bits are the same
        return rows.ravel()[lo - first * xs.size:hi - first * xs.size]

    n = xs.size * ys.size
    codes = np.full(n, CODE_UNDETERMINED, dtype=np.int32)
    cursor = min(_BLOCK_POINTS, n)
    idx = np.arange(cursor)
    z, steps, guards = starts(0, cursor), np.zeros(cursor, dtype=np.int32), np.zeros(cursor, dtype=np.int32)
    cycle = [np.full((cursor, cycle_periods), np.inf + 0j), np.zeros(cursor, dtype=np.int32)] if fp is None else []
    while z.size:
        v, pole = eval_family_array(family, z)
        steps += 1
        mod = np.abs(v)
        if fp is not None:
            att = np.abs(v - fp.location) < tol
        else:
            cycle[0] = np.concatenate((z[:, None], cycle[0][:, :-1]), axis=1)
            cycle[1] = np.where((np.abs(v[:, None] - cycle[0]) < tol).any(axis=1), cycle[1] + 1, 0)
            att = cycle[1] >= _CYCLE_STABLE_STEPS
        att &= ~pole
        big = mod > guard_modulus
        guards += big
        julia = pole | big & (guards >= guard_exit_limit)
        codes[idx[julia]] = CODE_JULIA
        codes[idx[att]] = steps[att]  # att excludes poles and outranks a guard exit
        done = julia | att | (steps >= max_iterations)
        retired = np.flatnonzero(done)
        free = retired[:n - cursor]  # refilled in place with fresh orbits
        if free.size:
            idx[free], v[free] = np.arange(cursor, cursor + free.size), starts(cursor, cursor + free.size)
            steps[free], guards[free], done[free] = 0, 0, False
            cursor += free.size
            for state, fresh in zip(cycle, (np.inf, 0)):
                state[free] = fresh
        if retired.size > free.size:
            v, idx, steps, guards, *cycle = (a[~done] for a in (v, idx, steps, guards, *cycle))
        z = v
    return codes.reshape(ys.size, xs.size)


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
# 8,192 and 16,384 slots raised the default sweep's peak RSS by 1.1 and 3.4 MB
# over 32.5 MB, with no speed-up above the noise of a shared 2-vCPU host; there
# the evaluator took 113 ns a point at 4,096 points and 151 at 16,384.  The
# kernel rounds alike at every array size, so codes do not depend on the count.
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
    The classification reads |v - fp|, |v|, the pole mask,
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
    copied to their mirror images.  With fp, orbits stop in D(fp, tol), tol
    the grid's attraction_tol, and the pixels that start in it get code 0.
    `threads` is accepted so that existing callers keep working; it has no effect.
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
    codes[:rows, :cols] = _iterate_block(xs[:cols], ys[:rows], family, fp, grid.max_iterations, tol,
                                         guard_modulus, guard_exit_limit, cycle_periods)
    codes[:rows, cols:] = codes[:rows, :n - cols][:, ::-1]
    codes[rows:] = codes[:n - rows][::-1]
    if fp is not None:  # hypot(a, b) >= |a|, so only the disk's bounding box can pass
        r, c = np.flatnonzero(np.abs(ys) < tol), np.flatnonzero(np.abs(xs - fp.location) < tol)
        box = np.ix_(r, c)
        codes[box] = np.where(np.hypot(xs[c] - fp.location, ys[r, None]) < tol, 0, codes[box])
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


def basin_majorant(family: MapFamily, fp: FixedPointData, guard_modulus: float):
    """(r, S) for H, Hm and FLambda: f maps D(fp, r) into itself, S the majorant below; None if none is certified.

    Let S(rho) >= |f(z) - fp| on |z - fp| = rho < R2 have nonnegative coefficients, theta = (1 + |mu|)/2.
    If S(r) <= theta r, f maps the closed D(fp, r) into D(fp, theta r): orbits from it converge to the
    fixed point there (Schwarz lemma, Earle-Hamilton; Milnor, Dynamics in One Complex Variable, section 8),
    within S^n(r) after n steps as S increases, hit no pole and stay below |fp| + r < guard_modulus.
    S comes from N = 128 samples of f = eta (wp(W) / e1)^(2p) on |z - fp| = R1 in {0.2, 0.4, 0.6, 0.8}:
      * W = m arcsin(s z / m) + i pi/2 (s = lam for FLambda, else 1; z + i pi/2 for H) lies within A =
        m arcsin(s (|fp| + R2) / m) (|fp| + R2 for H) of i pi/2 on D(fp, R2), R2 = 4 R1 / 3, as arcsin's
        Taylor coefficients are nonnegative; R1 is kept if delta = pi/2 - A, its distance to the lattice, > 0.
      * wp(W) = wp(u), delta <= |u| <= pi/sqrt 2: elliptic._laurent_order_for's |d_j| <= 4.6 (4j + 3)
        pi^(-4j-4) gives |wp| <= 1/delta^2 + T, T = sum_j 4.6 (4j + 3) pi^(-4j-4) (pi/sqrt 2)^(4j+2) =
        4.6 * 26 / (9 pi^2), so |f - fp| <= M2 = eta ((1/delta^2 + T) / e1)^(2p) + |fp| on D(fp, R2).
      * Cauchy's |a_k| <= M2 / R2^k, f - fp = sum a_k (z - fp)^k, puts a_k, k < K = N/2, within
        M2 R2^-k q^N / (1 - q^N) of the DFT c_k = sum_(l = k mod N) a_l R1^l, q = R1 / R2; the terms
        from K on are at most M2 (rho/R2)^K / (1 - rho/R2).
      * A sample is assumed within _EVAL_ERROR = 1e-12 of f at its rounded point, relative to the largest
        sample plus |fp| (4.7e-15 measured against 30 digits); N eps covers the DFT.  The points are within
        16 eps (|fp| + R1) of the circle, where |f'| <= 3 M2 / R1: 48 eps M2 (|fp| + R1) / R1 more per
        |c_k|.  S rounds by about K eps relative, which 1 - theta covers, as |mu| is capped at 1 - 1e-12.
    r is the largest rho = R1 2^(-g/32), g < 400, with S(rho) <= theta rho and |fp| + rho < guard_modulus.
    """
    n, k, zeta, eps, r1 = 128, np.arange(64), abs(fp.location), np.finfo(float).eps, np.array([0.2, 0.4, 0.6, 0.8])
    reach = zeta + 4.0 * r1 / 3.0  # |fp| + R2
    a = reach if family.tag == "H" else family.m * np.arcsin(np.minimum(_arcsin_scale(family) * reach / family.m, 1.0))
    r1, delta = r1[a < PI / 2], PI / 2 - a[a < PI / 2]
    m2 = family.eta * ((delta ** -2.0 + 4.6 * 26.0 / (9.0 * PI ** 2)) / square_lattice().e1) ** (2 * family.p) + zeta
    w = np.exp(2j * PI / n * np.arange(n))[np.outer(np.arange(n), k) % n]  # w[j, k] = e^(2 pi i jk / N)
    v, _ = eval_family_array(family, fp.location + r1[:, None] * w[:, 1])  # the circles
    pad = (_EVAL_ERROR + n * eps) * (np.max(np.abs(v), axis=1) + zeta) + 48.0 * eps * m2 * (zeta + r1) / r1
    c = np.einsum("jk,kl->jl", v - fp.location, np.conj(w)) / n  # the DFT; einsum, as @ would touch BLAS buffers
    # S(R1 x) = sum_k b_k x^k + tail, b_k = |c_k| + pad + the aliases' M2 q^k q^N / (1 - q^N), q = 3/4
    b = np.abs(c) + pad[:, None] + m2[:, None] * 0.75 ** (k + n) / (1 - 0.75 ** n)
    series = lambda x: np.einsum("ik,gk->ig", b, x[:, None] ** k) + m2[:, None] * (0.75 * x) ** 64 / (1 - 0.75 * x)
    x, theta = 2.0 ** (-np.arange(400) / 32.0), 0.5 + 0.5 * min(abs(fp.multiplier), 1.0 - 1e-12)
    fits = np.flatnonzero((series(x) <= theta * (rho := r1[:, None] * x)) & (zeta + rho < guard_modulus))
    if fits.size:
        i, g = divmod(fits[np.argmax(rho.flat[fits])], x.size)
        return float(rho[i, g]), lambda s: float(series(np.array([s / r1[i]]))[i, 0])


def koenigs_check(family: MapFamily, fp: FixedPointData, z: complex) -> float:
    """Residual |g(f(z)) - multiplier * g(z)| of the linearization equation."""
    gz = koenigs_value(family, fp, z)
    fz = eval_family(family, z)
    if fz.at_infinity:
        raise LinearizationDomainError("z maps to a pole; no linearization residual")
    gfz = koenigs_value(family, fp, fz.value)
    return abs(gfz - fp.multiplier * gz)

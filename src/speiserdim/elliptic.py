"""Weierstrass elliptic function on the square lattice spanned by pi and i*pi.

Conventions fixed here and relied on everywhere else:

  * lattice L = { pi*(j + i*k) : j, k integers }, fundamental cell
    Re, Im in [-pi/2, pi/2);
  * wp has a double pole at each lattice point and satisfies
    wp'^2 = 4 wp^3 - g2 wp - g3 with g3 = 0 on this lattice;
  * the three half-period values are e1 = wp(pi/2) > 0, e2 = wp((pi+i*pi)/2) = 0
    and e3 = wp(i*pi/2) = -e1, which forces g2 = 4*e1^2.

e1 is not hard-coded: it comes from g2 = 60*G4 = 4*e1^2, with G4 the
weight-4 lattice sum (`eisenstein_g4`), whose rows collapse to closed forms;
sqrt(15*G4) is the correctly rounded lemniscatic constant
Gamma(1/4)^4 / (8 pi^3).  Direct lattice summation (`wp_direct_sum`, one
term per quarter-turn orbit {w, i*w, -w, -i*w}, less its Taylor terms through
degree 7, so the tail falls like R^-8) is the independent oracle of `verify`
and the tests, never on the production path.  Production evaluation
halves the argument, reduced to the cell, and sums ten Laurent terms of
P = wp(z/2), whose tail bound at |z/2| <= pi/(2 sqrt 2) is below 1e-13 (the
cell corner needs 27).  The g3 = 0 duplication formula (DLMF 23.10) doubles
back as one fraction, wp(z) = (P^2 + e1^2)^2 / (4P(P^2 - e1^2)); the textbook
-2P + (wp''/(2 wp'))^2 cancels near the pole.  No denominator vanishes: wp(u)
is +-e1 only at pi/2, i*pi/2 and 0 only at the corners, all beyond |u| = 1.11.

Within POLE_CUTOFF of a lattice point the value is dominated by the leading
Laurent term 1/z^2 beyond any useful precision and is reported as infinite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PI = math.pi

# distance to a lattice point below which wp reports a pole
POLE_CUTOFF = 1e-8

# worst-case distance from a fundamental-cell point to the nearest lattice point
_CELL_RADIUS = PI / math.sqrt(2.0)

_INF = complex(math.inf, 0.0)

# lattice rows per block of wp_direct_sum, and the largest radius it sums to (about 8e6 orbit representatives)
_DIRECT_SUM_ROWS = 64
_DIRECT_SUM_MAX_RADIUS = 1e4


class SpeiserdimError(Exception):
    """Root of the package's named errors; each also keeps its builtin base."""


@lru_cache(maxsize=1)
def eisenstein_g4() -> float:
    """Weight-4 lattice sum  G4 = sum over nonzero lattice points of w^-4.

    The double sum is collapsed row by row with the exact one-dimensional
    identity sum_j (x + j)^-4 = (pi^4/3) * (3 - 2 sin^2(pi x)) / sin^4(pi x);
    at x = i*n the sines become hyperbolic, so the rows decay like exp(-4 pi n)
    and eight rows already push the truncation error below 1e-15.
    """
    total = 2.0 * PI ** 4 / 90.0  # the real row: 2 * zeta(4)
    for n in range(1, 12):
        sh = math.sinh(PI * n)
        total += 2.0 * (PI ** 4 / 3.0) * (3.0 + 2.0 * sh * sh) / sh ** 4
    return total / PI ** 4


def direct_sum_radius(z_modulus: float, tol: float) -> float:
    """Summation radius whose certified tail bound is below tol, within 7% of the smallest.

    The direct sum subtracts the degree <= 7 Taylor terms of every summand
    (they cancel exactly over a disk-symmetric truncation, except for the
    z^2 and z^6 terms, restored via G4 and G8), so each remaining summand is
    bounded by C(y0) |z|^8 / |w|^10 with y0 = |z|/R and
    C(y0) = 9/(1-y0) + y0/(1-y0)^2.  Cell-to-integral comparison then bounds
    the lattice tail of |w|^-10 by (2/pi) * (1/(8 S^8) + (pi/sqrt 2)/(9 S^9))
    with S = R - pi/sqrt(2).  On R >= max(12, 4|z|), C(y0) is in [9, 12.45] and
    S >= 9.78, so the bound lies in [9, 14.96] * v tol / S^8, v = |z|^8 / (4 pi tol):
    R is the floor or the passing S = (14.96 v)^(1/8), whichever is larger, so within
    (14.96/9)^(1/8) = 1.066 of the smallest; past _DIRECT_SUM_MAX_RADIUS it is refused.
    """
    if not (tol > 0 and math.isfinite(z_modulus)):
        raise ValueError(f"the direct sum needs a positive tol and a finite |z|, not {tol!r} and {z_modulus!r}")
    v = min(z_modulus, _DIRECT_SUM_MAX_RADIUS) ** 8 / (4.0 * PI * tol)  # no overflow: past the cap, 4|z| refuses
    R = max(12.0, 4.0 * z_modulus, _CELL_RADIUS + (14.96 * v) ** 0.125)
    if R > _DIRECT_SUM_MAX_RADIUS:
        raise ValueError(f"the direct sum would need R = {R:.4g}, past its cap of {_DIRECT_SUM_MAX_RADIUS:g}")
    return R


def wp_direct_sum(z, tol: float = 1e-9) -> complex | list[complex]:
    """Evaluate wp by direct truncated lattice summation with tail bound < tol.

    The lattice points with 0 < |w| <= R (`direct_sum_radius`) enter
        1/z^2 + sum' [ 1/(z-w)^2 - sum_{n=0..7} (n+1) z^n / w^(n+2) ] + 3*G4*z^2 + 7*G8*z^6:
    over all of L the subtracted terms sum to the restored ones, as G_k = 0 for odd k
    and, since i*L = L, for k = 6 (DLMF 23.9, which with g3 = 0 gives G8 = 3 G4^2 / 7),
    so only the tail of the bracket is cut, and it falls like R^-8.  The four
    summands of each orbit {w, i*w, -w, -i*w} add up to
        4 z^10 (11 w^4 - 7 z^4) / (w^8 (w^4 - z^4)^2),
    so one representative w = pi*(j + i*k), j >= 1, k >= 0, stands for its
    orbit; the disk is invariant under the quarter turn, so the same points
    enter as in the plain sum.  Off the cell the restored 7*G8*z^6 cancels
    against the sum, so rounding grows like |z|^6 (1e-13 at |z| = 7.5).  The
    quadrant is summed in blocks of _DIRECT_SUM_ROWS rows, one alive at a
    time, so memory stays bounded however small tol is.  A sequence of points
    is a batch and gives a list (a scalar is a batch of one): each block is
    built once, to the largest R, and each point sums the part within its own
    R as alone, so with the same bits.  Products and quotients are ufunc calls
    into fresh arrays, operands in a fixed order, so no bit hangs on numpy's
    in-place reuse of large temporaries.  Independent of the Laurent path, whose
    oracle it is; infinite within POLE_CUTOFF of any lattice point, as in `wp`.
    """
    zs = [complex(v) for v in np.ravel(z)]
    radii = [direct_sum_radius(abs(v), 0.5 * tol) for v in zs]
    rows = [0 if abs(v - PI * complex(round(v.real / PI), round(v.imag / PI))) < POLE_CUTOFF
            else int(R / PI) + 2 for v, R in zip(zs, radii)]  # rows of its own quadrant; 0 at a pole
    z4s, sums = [(v * v) ** 2 for v in zs], [0j] * len(zs)
    k = np.arange(max(rows, default=0))
    for start in range(0, k.size, _DIRECT_SUM_ROWS):
        w = PI * (k[None, 1:] + 1j * k[start:start + _DIRECT_SUM_ROWS, None])
        for i, (R, n, z4) in enumerate(zip(radii, rows, z4s)):
            if start < n:  # the point's own block: rows start.., columns 1..n-1
                block = w[:n - start, :n - 1]
                w4 = np.square(np.square(block[np.abs(block) <= R]))
                den = np.multiply(np.square(w4), np.square(np.subtract(w4, z4)))
                sums[i] += complex(np.sum(np.divide(np.subtract(np.multiply(11.0, w4), 7.0 * z4), den)))
                del w4, den  # before the next point's arrays
    G4 = eisenstein_g4()
    G8 = 3.0 * G4 * G4 / 7.0  # this order gives G8's row-sum bits; 3 * G4 ** 2 / 7 is 1 ulp off
    out = [1.0 / (v * v) + 4.0 * z4 * z4 * v * v * s + 3.0 * G4 * v * v
           + 7.0 * G8 * z4 * v * v if n else _INF for v, n, z4, s in zip(zs, rows, z4s, sums)]
    return out if np.ndim(z) else out[0]


def _laurent_coefficients(g2: float, count: int) -> np.ndarray:
    """Coefficients d_j of wp(z) = 1/z^2 + z^2 * sum_j d_j (z^4)^j.

    On this lattice only exponents 2 mod 4 survive, so the classical
    recursion for the coefficients of z^(2k-2) (seeded by g2/20 with g3 = 0)
    fills every odd slot with exact zeros; they are asserted and dropped.
    """
    n = 2 * count + 2
    c = np.zeros(n + 1)
    c[2] = g2 / 20.0
    for k in range(4, n + 1):
        acc = 0.0
        for m in range(2, k - 1):
            acc += c[m] * c[k - m]
        c[k] = 3.0 * acc / ((2 * k + 1) * (k - 3))
    odd = c[3::2]
    if odd.size and np.max(np.abs(odd)) != 0.0:
        raise AssertionError("odd Laurent coefficients must vanish on the square lattice")
    return c[2::2][:count]


def _laurent_order_for(tol: float, r: float) -> int:
    """Number of compressed coefficients so the series tail at |u| = r < tol.

    |d_j| is bounded by (4j+3) * sum' |w|^(-4j-4) and the lattice sum is
    dominated by the four nearest points at distance pi, giving
    |d_j| <= 4.6 * (4j+3) * pi^(-4j-4); the test suite checks the bound
    against every computed coefficient.
    """
    j = 1
    while True:
        term = 4.6 * (4 * j + 3) * PI ** (-4 * j - 4) * r ** (4 * j + 2)
        if term / (1.0 - (r / PI) ** 4) < tol:
            return j + 2  # two extra orders of margin
        j += 1


@dataclass(frozen=True)
class LatticeSpec:
    """Cached data of the square lattice: e1 = wp(pi/2), g2 and the series tables."""

    e1: float
    g2: float
    laurent: np.ndarray        # d_j for wp
    laurent_deriv: np.ndarray  # (4j+2) d_j for wp'


@lru_cache(maxsize=1)
def square_lattice() -> LatticeSpec:
    e1 = math.sqrt(15.0 * eisenstein_g4())
    g2 = 4.0 * e1 * e1
    order = _laurent_order_for(1e-13, _CELL_RADIUS / 2)
    d = _laurent_coefficients(g2, order)
    dd = np.array([(4 * j + 2) * dj for j, dj in enumerate(d)])
    return LatticeSpec(e1=e1, g2=g2, laurent=d, laurent_deriv=dd)


def _reduce_array(z: np.ndarray) -> np.ndarray:
    """Translate z by lattice vectors until |Re|, |Im| <= pi/2 + 1e-12, in up to 8
    passes for arguments so large that one float subtraction cannot resolve the cell."""
    for _ in range(8):
        out = (np.abs(z.real) > PI / 2 + 1e-12) | (np.abs(z.imag) > PI / 2 + 1e-12)
        # np.count_nonzero, not out.any(): microseconds less a call, which size-1 calls feel
        if not np.count_nonzero(out):
            break
        z = np.where(out, z - PI * (np.floor(z.real / PI + 0.5) + 1j * np.floor(z.imag / PI + 0.5)), z)
    return z


def _horner(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * w + c
    return acc


def _wp_array(z, derivative: bool = False):
    """Vectorized wp, and wp' from the same cell reduction when `derivative` is set.

    Returns (values, derivatives, pole_mask); derivatives is None unless
    requested.  Entries under pole_mask are huge but finite junk.
    """
    lat = square_lattice()
    zr = _reduce_array(np.asarray(z, dtype=complex))
    pole = np.abs(zr) < POLE_CUTOFF
    if np.count_nonzero(pole):
        zr = np.where(pole, 0.5, zr)  # placeholder argument, value discarded by mask
    u = 0.5 * zr  # exact: wp(u) at u = z/2, doubled back below
    del zr  # few live temporaries, or glibc trims the heap and refaults it per call
    h = u * u
    w = h * h
    # np.multiply and np.divide, not `*` and `/`: from 256 KiB up numpy computes `temporary * b`
    # in place, rounding complex products differently, so results would depend on array size
    P = np.multiply(h, _horner(lat.laurent, w)) + 1.0 / h
    if derivative:  # wp'(u); wp'(z) = wp'(u) F'(P) / 2, F the fraction below
        dP = np.multiply(u, _horner(lat.laurent_deriv, w)) + -2.0 / (h * u)
    del h, u, w
    P2, e1sq = P * P, lat.e1 * lat.e1
    if derivative:  # one product a statement, each freeing its inputs
        dP = np.multiply(dP, P2 * P2 - 6.0 * e1sq * P2 + e1sq * e1sq)
    s, t = P2 + e1sq, P2 - e1sq
    if derivative:
        dP = np.multiply(dP, s)
        P2 = np.multiply(8.0 * P2, t * t)
        dP = np.divide(dP, P2)
    del P2
    return np.divide(s * s, np.multiply(4.0 * P, t)), dP if derivative else None, pole


def wp(z: complex) -> complex:
    """wp(z); infinite (as a complex with +inf real part) within POLE_CUTOFF of a pole."""
    values, _, pole = _wp_array([complex(z)])
    return _INF if pole[0] else complex(values[0])


def wp_prime(z: complex) -> complex:
    """wp'(z); infinite within POLE_CUTOFF of a pole."""
    _, derivs, pole = _wp_array([complex(z)], derivative=True)
    return _INF if pole[0] else complex(derivs[0])

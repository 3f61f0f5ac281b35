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
Gamma(1/4)^4 / (8 pi^3).  Direct lattice summation (`wp_direct_sum`) is kept
as an independent oracle for `verify` and the tests, never on the
production path.  Production evaluation reduces the argument to the
fundamental cell and sums the Laurent expansion about the nearest lattice
point; the expansion order is chosen so the analytic tail bound stays below
1e-10 at the corner of the cell (the worst case |z| = pi/sqrt(2)).

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

# lattice rows per block of wp_direct_sum
_DIRECT_SUM_ROWS = 64


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
    """Smallest summation radius whose certified tail bound is below tol.

    The direct sum subtracts the degree <= 3 Taylor terms of every summand
    (they cancel exactly over a disk-symmetric truncation, except for the
    z^2 term which is restored via G4), so each remaining summand is bounded
    by C(y0) |z|^4 / |w|^6 with y0 = |z|/R and
    C(y0) = 5/(1-y0) + y0/(1-y0)^2.  Cell-to-integral comparison then bounds
    the lattice tail of |w|^-6 by (2/pi) * (1/(4 S^4) + (pi/sqrt 2)/(5 S^5))
    with S = R - pi/sqrt(2).
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    R = max(12.0, 4.0 * z_modulus)
    while True:
        y0 = z_modulus / R
        C = 5.0 / (1.0 - y0) + y0 / (1.0 - y0) ** 2
        S = R - PI / math.sqrt(2.0)
        lattice_tail = (2.0 / PI) * (1.0 / (4.0 * S ** 4) + (PI / math.sqrt(2.0)) / (5.0 * S ** 5))
        if C * z_modulus ** 4 * lattice_tail < tol:
            return R
        R *= 1.25


def wp_direct_sum(z: complex, tol: float = 1e-9) -> complex:
    """Evaluate wp by direct truncated lattice summation with tail bound < tol.

    Every lattice point with |w| <= R enters the sum
        1/z^2 + sum' [ 1/(z-w)^2 - 1/w^2 - 2z/w^3 - 3z^2/w^4 - 4z^3/w^5 ]
                + 3*G4*z^2,
    where the three subtracted correction terms sum to exactly zero
    (odd powers) or to the restored 3*G4*z^2 term (even power) over the full
    lattice because the disk truncation is symmetric under w -> -w, i*w.
    The lattice is summed in blocks of _DIRECT_SUM_ROWS rows, so memory stays
    bounded however small tol is.  Independent of the Laurent-series
    production path; used as its oracle.
    """
    z = complex(z)
    if abs(z) < POLE_CUTOFF:
        return _INF
    R = direct_sum_radius(abs(z), 0.5 * tol)
    K = int(R / PI) + 1
    idx = np.arange(-K, K + 1)
    s = 0j
    for start in range(0, idx.size, _DIRECT_SUM_ROWS):
        w = (PI * (idx[None, :] + 1j * idx[start:start + _DIRECT_SUM_ROWS, None])).ravel()
        r = np.abs(w)
        w = w[(r > 0) & (r <= R)]
        iw = 1.0 / w
        iw2 = iw * iw
        s += complex(np.sum(
            1.0 / ((z - w) ** 2)
            - iw2
            - (2.0 * z) * iw2 * iw
            - (3.0 * z * z) * iw2 * iw2
            - (4.0 * z ** 3) * iw2 * iw2 * iw
        ))
    return 1.0 / (z * z) + s + 3.0 * eisenstein_g4() * z * z


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


def _laurent_order_for(tol: float) -> int:
    """Number of compressed coefficients so the series tail at the cell corner < tol.

    |d_j| is bounded by (4j+3) * sum' |w|^(-4j-4) and the lattice sum is
    dominated by the four nearest points at distance pi, giving
    |d_j| <= 4.6 * (4j+3) * pi^(-4j-4) for j >= 1; the bound is checked
    against the computed coefficients in the test suite.
    """
    r = _CELL_RADIUS
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
    order = _laurent_order_for(1e-13)
    d = _laurent_coefficients(g2, order)
    dd = np.array([(4 * j + 2) * dj for j, dj in enumerate(d)])
    return LatticeSpec(e1=e1, g2=g2, laurent=d, laurent_deriv=dd)


def _reduce_array(z: np.ndarray) -> np.ndarray:
    """Translate z by lattice vectors until |Re|, |Im| <= pi/2 + 1e-12.

    For arguments so large that one float subtraction cannot resolve the
    cell, the reduction is repeated, up to 8 passes.
    """
    z = np.array(z, dtype=complex, copy=True)
    for _ in range(8):
        re = z.real
        im = z.imag
        out = (np.abs(re) > PI / 2 + 1e-12) | (np.abs(im) > PI / 2 + 1e-12)
        if not out.any():
            break
        zz = z[out]
        z[out] = zz - PI * (np.floor(zz.real / PI + 0.5) + 1j * np.floor(zz.imag / PI + 0.5))
    return z


def _horner(coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(w)
    for c in coeffs[::-1]:
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
    if pole.any():
        zr = np.where(pole, 0.5, zr)  # placeholder argument, value discarded by mask
    u = zr * zr
    w = u * u
    # np.multiply, not `*`: from 256 KiB up numpy computes `a * temporary`
    # in place, and its in-place complex product rounds differently, which
    # would make every result depend on the size of the array it came in
    values = 1.0 / u + np.multiply(u, _horner(lat.laurent, w))
    if not derivative:
        return values, None, pole
    return values, -2.0 / (u * zr) + np.multiply(zr, _horner(lat.laurent_deriv, w)), pole


def wp(z: complex) -> complex:
    """wp(z); infinite (as a complex with +inf real part) within POLE_CUTOFF of a pole."""
    values, _, pole = _wp_array([complex(z)])
    return _INF if pole[0] else complex(values[0])


def wp_prime(z: complex) -> complex:
    """wp'(z); infinite within POLE_CUTOFF of a pole."""
    _, derivs, pole = _wp_array([complex(z)], derivative=True)
    return _INF if pole[0] else complex(derivs[0])

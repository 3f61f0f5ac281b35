"""Dimension estimators: finite-IFS lower bounds, pole-series upper bounds,
closed-form bounds, box counting, and quasiconformal continuity envelopes.

Lower bound pipeline.  Around every sufficiently distant pole a_k the map
behaves like (b_k/(z - a_k))^q, so the second iterate has a well-defined
inverse branch S_k taking the disk D(a_M, r0) around a chosen base pole back
into itself: invert f once near a_k, then once near a_M, for all branches at
once by Newton over the (branch, boundary sample) rows of one array.  The
branches form an iterated function system; the contraction of each S_k is
certified from the supremum of |(f^2)'| over the sampled circle (analytic on
the branch domain, so the maximum modulus principle makes boundary sampling
sufficient) with a 2% safety factor.  The root t of sum_k b_k^t = 1 then
lower-bounds the dimension of the IFS limit set, hence of the chaotic locus.

Upper bound pipeline.  The truncated series sum_j (|b_j| / |a_j|^(1+1/M))^t
over poles decides convergence by a dyadic Cauchy-increment ratio
r = (S(N) - S(N/2)) / (S(N/2) - S(N/4)), which tends to 2^(1-s) for terms
decaying like j^(-s); the infimum-of-convergence exponent is located by
bisecting on r = 1, and the margins r < 0.9 / r > 1/0.9 delimit the reported
uncertainty interval.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import SpeiserdimError
from .families import (
    MapFamily,
    POLE_DTYPE,
    _linear_fit,
    _poles_up_to_count,
    eval_deriv_array,
    # not called here: perfbench's tracer wraps this name to count the
    # evaluations made while inverting branches
    eval_family_array,
)

PI = math.pi
_CHUNK_POINTS = 4096  # (branch, sample) points per inversion: bounds the size of its arrays
# default of estimate_branch_contractions and of the config key branch_samples
DEFAULT_BRANCH_SAMPLES = 64


class DegenerateSystemError(SpeiserdimError, ValueError):
    """Fewer than two usable contraction branches."""


class ContractionViolationError(SpeiserdimError, ValueError):
    """A branch constant lies outside (0, 1)."""


class InsufficientPolesError(SpeiserdimError, ValueError):
    """Too few poles to estimate the tail decay of the series."""


class UndefinedDimensionError(SpeiserdimError, ValueError):
    """Box counting was asked about an empty target set."""


class DegenerateMultiplierError(SpeiserdimError, ValueError):
    """Multiplier magnitude 0, 1, or above 1: no dilatation bound applies."""


class BasePoleError(SpeiserdimError, ValueError):
    """No admissible base pole, or a base index outside 1 <= M < branch_count."""


@dataclass(frozen=True)
class IFSBranch:
    index: int
    contraction_lower: float
    pole_location: complex


@dataclass(frozen=True)
class IFSBranchSet:
    branches: tuple[IFSBranch, ...]
    base_index: int
    rejected: tuple[tuple[int, str], ...] = ()


@dataclass(frozen=True)
class DimensionEstimate:
    value: float
    method: str
    uncertainty: tuple[float, float]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        lo, hi = self.uncertainty
        if not 0.0 <= self.value <= 2.0:
            raise ValueError(f"dimension value {self.value!r} outside [0, 2]")
        if not lo <= self.value <= hi:
            raise ValueError("uncertainty interval must contain the value")


def _clamp_dim(x: float) -> float:
    return min(2.0, max(0.0, x))


def formula_upper(M: int, rho: float) -> float:
    """Closed-form upper bound 2*M*rho / (2 + M*rho) on dim I(f), the escaping
    set, for maximal pole multiplicity M and order rho (Bergweiler-Kotus, "On
    the Hausdorff dimension of the escaping set of certain meromorphic
    functions", Trans. AMS 2012).  At rho = 2 it is 2M/(M+1), the convergence
    exponent of a lattice pole series; at rho = 0 it is 0."""
    if M < 1 or int(M) != M:
        raise ValueError("M must be a positive integer")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    return 2.0 * M * rho / (2.0 + M * rho)


def formula_lower(q: int) -> float:
    """Closed-form strict lower bound 2*q/(q+1) for maximal pole multiplicity q."""
    if q < 1 or int(q) != q:
        raise ValueError("q must be a positive integer")
    return 2.0 * q / (q + 1.0)


def solve_bowen(branch_set: IFSBranchSet) -> float:
    """Unique t > 0 with sum_k b_k^t = 1, by bisection to 1e-12."""
    b = np.array([br.contraction_lower for br in branch_set.branches], dtype=float)
    if b.size < 2:
        raise DegenerateSystemError(
            f"{b.size} branch(es); the contraction equation needs at least two"
        )
    if ((b <= 0.0) | (b >= 1.0)).any():
        bad = b[(b <= 0.0) | (b >= 1.0)]
        raise ContractionViolationError(f"branch constants outside (0, 1): {bad[:4]!r}")

    def gap(t: float) -> float:
        return float(np.sum(b ** t)) - 1.0

    lo, hi = 0.0, 1.0
    while gap(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise ContractionViolationError("contraction sum does not drop below 1")
    return _bisect(lambda t: gap(t) > 0.0, lo, hi, 1e-12)


def _bisect(above, lo: float, hi: float, xtol: float) -> float:
    """Halve [lo, hi] to width xtol, moving lo to midpoints where above(t) holds and
    hi to the others, and return the last midpoint."""
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def synthetic_lattice_branches(count: int, q: int = 4, scale: float = 2.0) -> IFSBranchSet:
    """Branch set with b_k = |a_k|^(-(q+1)/q) / scale over half-integer lattice
    pole positions; exercises the solver at sizes where measured branches
    would be too slow."""
    if count < 2:
        raise ValueError("count must be at least 2")
    locs = _poles_up_to_count(MapFamily(tag="G"), count)[0]
    expo = (q + 1.0) / q
    branches = tuple(
        IFSBranch(index=i + 1, contraction_lower=abs(a) ** (-expo) / scale, pole_location=a)
        for i, a in enumerate(locs[:count].tolist())
    )
    return IFSBranchSet(branches=branches, base_index=1)


def _invert_rows(family: MapFamily, a: np.ndarray, b: np.ndarray, q: int, targets: np.ndarray):
    """Newton solves of f(z) = v near the pole a, where f(z) ~ (b/(z-a))^q, for every v in
    the (branch, sample) rows of targets; a and b hold one pole per row.  A row stops once
    its largest step is below 1e-13 * max(1, |a|), or after 60 passes; only live rows are
    evaluated.  Returns z, f'(z) from the pass that checks the residual (NaN in the rows
    that failed), and per row "" or why it failed."""
    # np.multiply: see elliptic._wp_array on numpy's in-place temporaries
    z = a[:, None] + np.multiply(b[:, None], targets ** (-1.0 / q))
    df, why, live = np.full_like(z, np.nan), np.full(a.size, "", dtype=object), np.arange(a.size)
    for _ in range(60):
        if not live.size:
            break
        f, d, pole = eval_deriv_array(family, z[live])
        hit = pole.any(axis=1)
        why[live[hit]] = [f"Newton iterate fell into the pole cutoff near {x!r}" for x in a[live[hit]].tolist()]
        live, step = live[~hit], (f[~hit] - targets[live[~hit]]) / d[~hit]
        z[live] -= step
        live = live[~(np.abs(step).max(axis=1) < 1e-13 * np.maximum(1.0, np.abs(a[live])))]
    done = np.flatnonzero(why == "")
    f, df[done], pole = eval_deriv_array(family, z[done])
    residual = np.abs(f - targets[done]).max(axis=1)
    bad = done[pole.any(axis=1) | (residual > 1e-8 * (1.0 + np.abs(targets[done]).max(axis=1)))]
    why[bad] = [f"Newton failed to invert the branch near {x!r}" for x in a[bad].tolist()]
    return z, df, why


def auto_base_index(a: np.ndarray, b: np.ndarray, q: int, r0: float) -> int:
    """First 1-based index whose pole a is far enough out that the disk
    D(a, r0) maps over every later pole: |a| > (|b|/r0)^q + r0."""
    modulus, need = np.hypot(a.real, a.imag), (b / r0) ** q + r0
    admissible = np.flatnonzero(modulus > need)
    if admissible.size == 0:
        raise BasePoleError(
            f"no admissible base pole among the {a.size} enumerated poles: one needs |a| > (|b|/r0)^q + r0, "
            f"about {need[-1]:.4g} at r0 = {r0:g}, and the outermost has |a| = {modulus[-1]:.4g}; "
            "enlarge branch_count to reach such poles, or branch_r0 (with branch_r1) to lower the bound")
    return int(admissible[0]) + 1


def check_branch_radii(r0: float, r1: float) -> None:
    """Raise ValueError unless 0 < r0 <= (2 - sqrt(3)) * r1 (up to 1e-12)."""
    if r0 <= 0 or r1 <= 0:
        raise ValueError("branch radii r0 and r1 must be positive")
    if r0 > (2.0 - math.sqrt(3.0)) * r1 + 1e-12:
        raise ValueError("branch radius r0 must not exceed (2 - sqrt(3)) * r1")


def estimate_branch_contractions(
    family: MapFamily,
    M: int | None,
    N: int,
    r0: float,
    r1: float,
    boundary_samples: int = DEFAULT_BRANCH_SAMPLES,
) -> IFSBranchSet:
    """Measured contraction constants for the inverse branches of f^2.

    For each pole index k in M..N (1-based, sorted by modulus), the branch
    S_k = (inverse of f near a_M) o (inverse of f near a_k) is evaluated on
    boundary_samples points of |u - a_M| = r0, as rows of one Newton inversion
    per leg and chunk.  It gets b_k = 1 / (1.02 * sup |(f^2)'|) over them, or is
    rejected with the first check it fails: pole cutoff, Newton residual, first
    leg in D(a_k, r1), image in D(a_M, r0), b_k in (0, 1).
    """
    check_branch_radii(r0, r1)
    if N < 2:
        raise ValueError("N must be at least 2")
    a, b = _poles_up_to_count(family, N)
    q = family.pole_multiplicity
    if M is None:
        M = auto_base_index(a, np.hypot(b.real, b.imag), q, r0)
    if not 1 <= M < N:
        raise BasePoleError(f"base index {M} must satisfy 1 <= M < N = {N}, where N is branch_count")

    a_base, b_base = complex(a[M - 1]), complex(b[M - 1])
    theta = 0.1357 + 2.0 * PI * np.arange(boundary_samples) / boundary_samples
    boundary = a_base + r0 * np.exp(1j * theta)

    branches, rejected = [], []
    chunk = max(1, _CHUNK_POINTS // boundary_samples)  # whole branches per inversion
    for ks in np.split(np.arange(M, N + 1), range(chunk, N + 1 - M, chunk)):
        a_k = a[ks - 1]
        w, dw, why = _invert_rows(family, a_k, b[ks - 1], q, np.broadcast_to(boundary, (ks.size, boundary.size)))
        off1, off0, sup = np.abs(w - a_k[:, None]).max(axis=1), np.zeros(ks.size), np.full(ks.size, np.nan)
        go = np.flatnonzero((why == "") & ~(off1 >= r1))
        if go.size:  # no second leg to invert when every branch of the chunk failed the first
            z, dz, why[go] = _invert_rows(family, np.full(go.size, a_base), np.full(go.size, b_base), q, w[go])
            off0[go], sup[go] = np.abs(z - a_base).max(axis=1), (np.abs(dz) * np.abs(dw[go])).max(axis=1)
        bk = 1.0 / (1.02 * sup)
        for k, pole, why_k, o1, o0, c in zip(ks.tolist(), a_k.tolist(), why, off1, off0, bk.tolist()):
            why_k = why_k or (f"first inverse leg left D(a_{k}, r1): max offset {o1:.3g}" if o1 >= r1 else
                              f"branch image escaped D(a_{M}, r0): max offset {o0:.3g}" if o0 >= r0 else
                              f"measured contraction {c:.3g} outside (0, 1)" if not 0.0 < c < 1.0 else "")
            if why_k:
                rejected.append((k, why_k))
            else:
                branches.append(IFSBranch(index=k, contraction_lower=c, pole_location=pole))
    if len(branches) < 2:
        raise DegenerateSystemError(
            f"only {len(branches)} branch(es) survived; rejections: {rejected[:4]!r}"
        )
    return IFSBranchSet(branches=tuple(branches), base_index=M, rejected=tuple(rejected))


def series_terms(poles, t: float) -> np.ndarray:
    """Terms (|b_j| / |a_j|^(1 + 1/M))^t in enumeration order, M the largest multiplicity,
    for enumerate_poles' records or a list of PoleData.  The base is b / |a| / |a|^(1/M),
    which stays finite where |a|^(1 + 1/M) would overflow."""
    if t <= 0:
        raise ValueError("t must be positive")
    poles = np.asarray(poles, dtype=POLE_DTYPE)
    mod = np.hypot(poles["location"].real, poles["location"].imag)
    return (poles["coeff_magnitude"] / mod / mod ** (1.0 / poles["multiplicity"].max())) ** t


def _increment_ratio(bases: np.ndarray, t: float) -> float:
    """(S(n) - S(n/2)) / (S(n/2) - S(n/4)) for the partial sums S of bases ** t, from
    the two slice sums; the first quarter of the bases is never raised to t."""
    n = bases.size
    d0 = float(np.sum(bases[n // 4:n // 2] ** t))
    d1 = float(np.sum(bases[n // 2:] ** t))
    return d1 / d0 if d0 > 0.0 else 0.0


_RATIO_MARGIN = 0.9


def series_exponent(poles, t_hi: float = 4.0) -> DimensionEstimate:
    """Infimum-of-convergence exponent of the pole series, with margins.

    Point estimate: bisection on increment ratio = 1.  Uncertainty interval:
    the last clearly divergent t (ratio 1/0.9) up to the first clearly
    convergent t (ratio 0.9), clamped into [0, 2].
    """
    poles = np.asarray(poles, dtype=POLE_DTYPE)
    if poles.size < 20:
        raise InsufficientPolesError(f"{poles.size} poles; need at least 20")
    bases = series_terms(poles, 1.0)  # x ** 1.0 == x: bases ** t is series_terms bitwise
    t_min = 1e-3
    r_min = _increment_ratio(bases, t_min)
    r_max = _increment_ratio(bases, t_hi)

    def ratio_root(level: float) -> float:  # the ratio decreases in t
        return _bisect(lambda t: _increment_ratio(bases, t) > level, t_min, t_hi, 1e-4)

    if r_min <= 1.0:
        value = 0.0 if r_min < 1.0 else t_min
    elif r_max >= 1.0:
        value = t_hi
    else:
        value = ratio_root(1.0)

    lo = 0.0 if r_min <= 1.0 / _RATIO_MARGIN else ratio_root(1.0 / _RATIO_MARGIN)
    hi = t_hi if r_max >= _RATIO_MARGIN else ratio_root(_RATIO_MARGIN)

    value = _clamp_dim(value)
    lo = min(_clamp_dim(lo), value)
    hi = max(_clamp_dim(hi), value)
    return DimensionEstimate(
        value=value,
        method="series_upper",
        uncertainty=(lo, hi),
        metadata={"poles": poles.size, "multiplicity": int(poles["multiplicity"].max()), "t_hi": t_hi},
    )


def default_box_scales(resolution: int) -> list[int]:
    """Six dyadic levels ending at 4-pixel boxes, capped by the raster size."""
    scales = [4 * 2 ** i for i in range(6)]
    return [s for s in scales if s <= max(resolution // 2, 4)]


def check_box_scales(scales: list[int]) -> list[int]:
    """Sorted distinct scales; ValueError unless there are 4 or more, all positive."""
    scales = sorted({int(s) for s in scales})
    if len(scales) < 4:
        raise ValueError("need at least 4 distinct scales")
    if scales[0] < 1:
        raise ValueError("scales must be positive pixel sizes")
    return scales


def box_counting(target, scales: list[int] | None = None) -> DimensionEstimate:
    """Box-counting slope of log N(s) against log(1/s) over pixel scales.

    `target` is a boolean pixel mask or anything with a target_mask()
    method.  The mask is cropped to its bounding box first, which makes the
    estimate exactly invariant under whole-pixel translations.
    """
    mask = target.target_mask() if hasattr(target, "target_mask") else np.asarray(target, dtype=bool)
    if mask.ndim != 2:
        raise ValueError("target mask must be two-dimensional")
    if not mask.any():
        raise UndefinedDimensionError("target set is empty; box dimension undefined")
    scales = check_box_scales(default_box_scales(min(mask.shape)) if scales is None else scales)

    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    mask = mask[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]

    counts = []
    for s in scales:
        h, w = mask.shape
        hp = -(-h // s) * s
        wp = -(-w // s) * s
        padded = np.zeros((hp, wp), dtype=bool)
        padded[:h, :w] = mask
        blocks = padded.reshape(hp // s, s, wp // s, s).any(axis=(1, 3))
        counts.append(int(blocks.sum()))

    slope, stderr, _ = _linear_fit(np.log(1.0 / np.asarray(scales, dtype=float)), np.log(counts))
    slope = float(slope)
    stderr = float(stderr) if math.isfinite(stderr) else 0.0
    value = _clamp_dim(slope)
    lo = min(_clamp_dim(slope - 2.0 * stderr), value)
    hi = max(_clamp_dim(slope + 2.0 * stderr), value)
    return DimensionEstimate(
        value=value,
        method="box_counting",
        uncertainty=(lo, hi),
        metadata={"scales": list(scales), "counts": counts, "stderr": stderr},
    )


def qc_dilatation(m_kappa: float, m_lambda: float) -> float:
    """Dilatation bound K = max of the two log-magnitude ratios.

    Multipliers can be negative here (real maps); the ratio uses log of the
    magnitudes.  A sign disagreement between the two multipliers is not an
    error; flag it separately via multiplier_sign_mismatch.
    """
    for v in (m_kappa, m_lambda):
        a = abs(v)
        if a == 0.0 or a == 1.0 or a > 1.0 or not math.isfinite(a):
            raise DegenerateMultiplierError(
                f"multiplier {v!r} is not attracting-nonzero; no dilatation bound"
            )
    la = math.log(abs(m_kappa))
    lb = math.log(abs(m_lambda))
    return max(la / lb, lb / la)


def multiplier_sign_mismatch(m_kappa: float, m_lambda: float) -> bool:
    return (m_kappa < 0.0) != (m_lambda < 0.0)


def continuity_envelope(dim_lambda: float, K: float, mode: str) -> tuple[float, float]:
    """Interval that the dimension can move to under a K-quasiconformal change.

    holder: [d/K, K*d] clamped into (0, 2].
    astala: [1 / (K*(1/d - 1/2) + 1/2), 1 / ((1/d - 1/2)/K + 1/2)], the
    sharper area-distortion envelope; always nested inside holder for K > 1.
    """
    if not 0.0 < dim_lambda <= 2.0:
        raise UndefinedDimensionError("dim_lambda must lie in (0, 2]")
    if K < 1.0:
        raise ValueError("K must be at least 1")
    if mode == "holder":
        return (dim_lambda / K, min(2.0, K * dim_lambda))
    if mode == "astala":
        x = 1.0 / dim_lambda - 0.5
        lo = 1.0 / (K * x + 0.5)
        hi = 1.0 / (x / K + 0.5)
        return (lo, min(2.0, hi))
    raise ValueError("mode must be 'holder' or 'astala'")

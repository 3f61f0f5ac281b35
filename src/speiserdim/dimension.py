"""Dimension estimators: finite-IFS lower bounds, pole-series upper bounds,
closed-form bounds, box counting, and quasiconformal continuity envelopes.

Lower bound pipeline.  Around every sufficiently distant pole a_k the map
behaves like (b_k/(z - a_k))^q, so the second iterate has a well-defined
inverse branch S_k taking the disk D(a_M, r0) around a chosen base pole back
into itself: invert f once near a_k, then once near a_M.  The branches form
an iterated function system; every S_k is sampled on the boundary circle of
D(a_M, r0) and its contraction is certified from the supremum of |(f^2)'|
over that boundary (the derivative is analytic on the branch domain, so the
maximum modulus principle makes boundary sampling sufficient) with a 2%
safety factor.  The root t of sum_k b_k^t = 1 then lower-bounds the
dimension of the IFS limit set, hence of the chaotic locus.

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

from .families import (
    MapFamily,
    PoleData,
    _lattice_pole_locations,
    _linear_fit,
    enumerate_poles,
    eval_deriv_array,
    eval_family_array,
)

PI = math.pi


class DegenerateSystemError(ValueError):
    """Fewer than two usable contraction branches."""


class ContractionViolationError(ValueError):
    """A branch constant lies outside (0, 1)."""


class InsufficientPolesError(ValueError):
    """Too few poles to estimate the tail decay of the series."""


class UndefinedDimensionError(ValueError):
    """Box counting was asked about an empty target set."""


class DegenerateMultiplierError(ValueError):
    """Multiplier magnitude 0, 1, or above 1: no dilatation bound applies."""


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
    """Closed-form upper bound 2*M*rho / (2 + M*rho) for pole multiplicity M
    and pole-series density exponent rho."""
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
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def synthetic_lattice_branches(count: int, q: int = 4, scale: float = 2.0) -> IFSBranchSet:
    """Branch set with b_k = |a_k|^(-(q+1)/q) / scale over half-integer lattice
    pole positions; exercises the solver at sizes where measured branches
    would be too slow."""
    if count < 2:
        raise ValueError("count must be at least 2")
    radius = PI * math.sqrt(count / PI) * 1.2 + 2.0 * PI
    locs = _lattice_pole_locations(radius, PI)
    while len(locs) < count:
        radius *= 1.3
        locs = _lattice_pole_locations(radius, PI)
    locs.sort(key=lambda a: (abs(a), a.real, a.imag))
    locs = locs[:count]
    expo = (q + 1.0) / q
    branches = tuple(
        IFSBranch(index=i + 1, contraction_lower=abs(a) ** (-expo) / scale, pole_location=a)
        for i, a in enumerate(locs)
    )
    return IFSBranchSet(branches=branches, base_index=1)


class _BranchEscape(RuntimeError):
    pass


def _leading_root(family: MapFamily, a: complex, q: int) -> complex:
    """Principal q-th root of the leading Laurent coefficient at pole a."""
    r = max(1e-3, abs(a) * 1e-4)
    theta = 0.377 + 2.0 * PI * np.arange(16) / 16.0
    pts = a + r * np.exp(1j * theta)
    vals, pole = eval_family_array(family, pts)
    if pole.any():
        raise _BranchEscape(f"coefficient circle at {a!r} touched a pole cutoff")
    lead = np.mean(vals * (pts - a) ** q)
    return complex(lead) ** (1.0 / q)


def _invert_batch(
    family: MapFamily, a: complex, b_root: complex, q: int, targets: np.ndarray
) -> np.ndarray:
    """Solve f(z) = v near the pole a for every v in targets (Newton)."""
    z = a + b_root * targets ** (-1.0 / q)
    for _ in range(60):
        f, df, pole = eval_deriv_array(family, z)
        if pole.any():
            raise _BranchEscape(f"Newton iterate fell into the pole cutoff near {a!r}")
        step = (f - targets) / df
        z = z - step
        if np.max(np.abs(step)) < 1e-13 * max(1.0, abs(a)):
            break
    f, pf = eval_family_array(family, z)
    if pf.any() or np.max(np.abs(f - targets)) > 1e-8 * (1.0 + np.max(np.abs(targets))):
        raise _BranchEscape(f"Newton failed to invert the branch near {a!r}")
    return z


def auto_base_index(poles: list[PoleData], r0: float) -> int:
    """First 1-based index whose pole is far enough out that the disk
    D(a, r0) maps over every later pole: |a| > (|b|/r0)^q + r0."""
    for i, pd in enumerate(poles):
        if abs(pd.location) > (pd.coeff_magnitude / r0) ** pd.multiplicity + r0:
            return i + 1
    raise ValueError("no admissible base pole in the enumerated range; enlarge it")


def _poles_up_to_count(family: MapFamily, count: int) -> list[PoleData]:
    radius = 4.0
    poles = enumerate_poles(family, radius)
    while len(poles) < count:
        radius *= 1.7
        poles = enumerate_poles(family, radius)
    return poles


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
    boundary_samples: int = 64,
) -> IFSBranchSet:
    """Measured contraction constants for the inverse branches of f^2.

    For each pole index k in M..N (1-based, sorted by modulus), the branch
    S_k = (inverse of f near a_M) o (inverse of f near a_k) is evaluated on
    boundary_samples points of the circle |u - a_M| = r0.  Branches whose
    images escape D(a_M, r0), or whose first leg escapes D(a_k, r1), are
    rejected with a diagnostic instead of poisoning the set.  Each accepted
    branch gets b_k = 1 / (1.02 * sup |(f^2)'|) over the sampled boundary.
    """
    check_branch_radii(r0, r1)
    if N < 2:
        raise ValueError("N must be at least 2")
    poles = _poles_up_to_count(family, N)
    if M is None:
        M = auto_base_index(poles, r0)
    if not 1 <= M < N:
        raise ValueError(f"base index {M} must satisfy 1 <= M < N = {N}")

    q = family.pole_multiplicity
    base = poles[M - 1]
    a_base = base.location
    b_base = _leading_root(family, a_base, q)
    theta = 0.1357 + 2.0 * PI * np.arange(boundary_samples) / boundary_samples
    boundary = a_base + r0 * np.exp(1j * theta)

    branches: list[IFSBranch] = []
    rejected: list[tuple[int, str]] = []
    for k in range(M, N + 1):
        pk = poles[k - 1]
        try:
            b_k_root = _leading_root(family, pk.location, q)
            w = _invert_batch(family, pk.location, b_k_root, q, boundary)
            if np.max(np.abs(w - pk.location)) >= r1:
                raise _BranchEscape(
                    f"first inverse leg left D(a_{k}, r1): max offset "
                    f"{np.max(np.abs(w - pk.location)):.3g}"
                )
            z = _invert_batch(family, a_base, b_base, q, w)
            if np.max(np.abs(z - a_base)) >= r0:
                raise _BranchEscape(
                    f"branch image escaped D(a_{M}, r0): max offset "
                    f"{np.max(np.abs(z - a_base)):.3g}"
                )
            _, dz, p1 = eval_deriv_array(family, z)
            _, dw, p2 = eval_deriv_array(family, w)
            if p1.any() or p2.any():
                raise _BranchEscape("derivative sampling touched a pole cutoff")
            sup = float(np.max(np.abs(dz) * np.abs(dw)))
            bk = 1.0 / (1.02 * sup)
            if not 0.0 < bk < 1.0:
                raise _BranchEscape(f"measured contraction {bk:.3g} outside (0, 1)")
            branches.append(IFSBranch(index=k, contraction_lower=bk, pole_location=pk.location))
        except _BranchEscape as exc:
            rejected.append((k, str(exc)))
    if len(branches) < 2:
        raise DegenerateSystemError(
            f"only {len(branches)} branch(es) survived; rejections: {rejected[:4]!r}"
        )
    return IFSBranchSet(branches=tuple(branches), base_index=M, rejected=tuple(rejected))


def series_terms(poles: list[PoleData], t: float, multiplicity: int | None = None) -> np.ndarray:
    """Terms (|b_j| / |a_j|^(1 + 1/M))^t in enumeration order."""
    if t <= 0:
        raise ValueError("t must be positive")
    a = np.array([abs(p.location) for p in poles], dtype=float)
    b = np.array([p.coeff_magnitude for p in poles], dtype=float)
    M = multiplicity if multiplicity is not None else max(p.multiplicity for p in poles)
    return (b / a ** (1.0 + 1.0 / M)) ** t


def _increment_ratio(terms: np.ndarray) -> float:
    n = terms.size
    s = np.cumsum(terms)
    d1 = float(s[n - 1] - s[n // 2 - 1])
    d0 = float(s[n // 2 - 1] - s[n // 4 - 1])
    if d0 <= 0.0:
        return 0.0
    return d1 / d0


_RATIO_MARGIN = 0.9


def _bisect_ratio(poles, multiplicity, level: float, t_lo: float, t_hi: float) -> float:
    """t with increment-ratio(t) = level; the ratio decreases in t."""
    lo, hi = t_lo, t_hi
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if _increment_ratio(series_terms(poles, mid, multiplicity)) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def series_exponent(poles: list[PoleData], t_hi: float = 4.0) -> DimensionEstimate:
    """Infimum-of-convergence exponent of the pole series, with margins.

    Point estimate: bisection on increment ratio = 1.  Uncertainty interval:
    the last clearly divergent t (ratio 1/0.9) up to the first clearly
    convergent t (ratio 0.9), clamped into [0, 2].
    """
    if len(poles) < 20:
        raise InsufficientPolesError(f"{len(poles)} poles; need at least 20")
    mult = max(p.multiplicity for p in poles)
    t_min = 1e-3
    r_min = _increment_ratio(series_terms(poles, t_min, mult))
    r_max = _increment_ratio(series_terms(poles, t_hi, mult))

    if r_min <= 1.0:
        value = 0.0 if r_min < 1.0 else t_min
    elif r_max >= 1.0:
        value = t_hi
    else:
        value = _bisect_ratio(poles, mult, 1.0, t_min, t_hi)

    if r_min <= 1.0 / _RATIO_MARGIN:
        lo = 0.0
    else:
        lo = _bisect_ratio(poles, mult, 1.0 / _RATIO_MARGIN, t_min, t_hi)
    if r_max >= _RATIO_MARGIN:
        hi = t_hi
    else:
        hi = _bisect_ratio(poles, mult, _RATIO_MARGIN, t_min, t_hi)

    value = _clamp_dim(value)
    lo = min(_clamp_dim(lo), value)
    hi = max(_clamp_dim(hi), value)
    return DimensionEstimate(
        value=value,
        method="series_upper",
        uncertainty=(lo, hi),
        metadata={"poles": len(poles), "multiplicity": mult, "t_hi": t_hi},
    )


def default_box_scales(resolution: int) -> list[int]:
    """Six dyadic levels ending at 4-pixel boxes, capped by the raster size."""
    scales = [4 * 2 ** i for i in range(6)]
    return [s for s in scales if s <= max(resolution // 2, 4)]


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
    if scales is None:
        scales = default_box_scales(min(mask.shape))
    scales = sorted({int(s) for s in scales})
    if len(scales) < 4:
        raise ValueError("need at least 4 distinct scales")
    if scales[0] < 1:
        raise ValueError("scales must be positive pixel sizes")

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
        raise ValueError("dim_lambda must lie in (0, 2]")
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

"""Dimension estimators: finite-IFS lower bounds, pole-series upper bounds,
closed-form bounds, box counting, and quasiconformal continuity envelopes.

Lower bound pipeline.  Near a distant pole a_k the map behaves like
(b_k/(z - a_k))^q, so f^2 has an inverse branch S_k taking a disk D(a_M, r0)
around a chosen base pole into itself: invert f near a_k, then near a_M, for
all branches by one Newton solve per leg at a_M.  Since the base disk stays
clear of the finite singular values, Koebe's theorems turn S_k and S_k' at
a_M into certified bounds over the disk, among them b_k <= |S_k'|
(estimate_branch_contractions).  Distinct first-leg roots give disjoint images,
so the root t of sum_k b_k^t = 1 lower-bounds the dimension of this IFS's limit
set (Mauldin-Urbanski, Proc. LMS 1996), and so of J, which holds it.

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
    """No pole among the first branch_count has 4|b_M| < |a_M| - |f(0)|, the base rule."""


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
    base_radius: float = math.nan  # r0 of the base disk D(a_M, r0)


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
    """Strict lower bound 2*q/(q+1) on dim J(f) for an elliptic f with poles of
    multiplicity at most q (Kotus-Urbanski, "Hausdorff dimension and Hausdorff
    measures of Julia sets of elliptic functions", Bull. LMS 2003)."""
    if q < 1 or int(q) != q:
        raise ValueError("q must be a positive integer")
    return 2.0 * q / (q + 1.0)


def solve_bowen(branch_set: IFSBranchSet) -> float:
    """A t > 0 within 1e-12 below the root of sum_k b_k^t = 1, where the sum is shown > 1.

    Bisection keeps the lower end, where the float sum s exceeds 1 + n eps (n branches,
    eps = 2^-52, so the threshold is exact).  Taking np.power within one ulp (eps
    relative) per term, and n - 1 additions of positive terms in any order within
    (n - 1) eps/2 relative, s is at most 1 + (n + 1) eps/2 + O(eps^2) times the exact
    sum, which is then above 1, so t lies below the root."""
    b = np.array([br.contraction_lower for br in branch_set.branches], dtype=float)
    if b.size < 2:
        raise DegenerateSystemError(
            f"{b.size} branch(es); the contraction equation needs at least two"
        )
    if ((b <= 0.0) | (b >= 1.0)).any():
        bad = b[(b <= 0.0) | (b >= 1.0)]
        raise ContractionViolationError(f"branch constants outside (0, 1): {bad[:4]!r}")
    threshold = 1.0 + b.size * np.finfo(float).eps

    def above(t: float) -> bool:
        return float(np.sum(b ** t)) > threshold

    hi = 1.0
    while above(hi):
        hi *= 2.0
        if hi > 1e6:
            raise ContractionViolationError("contraction sum does not drop below 1")
    return _bisect(above, 0.0, hi, 1e-12)[0]


def _bisect(above, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Halve [lo, hi] to width xtol, moving lo to midpoints where above(t) holds and
    hi to the others, and return the last (lo, hi)."""
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return lo, hi


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
    the (branch, target) rows of targets; a and b hold one pole per row.  A row stops once
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


def estimate_branch_contractions(family: MapFamily, N: int) -> IFSBranchSet:
    """Certified contraction constants for the inverse branches of f^2.

    For each pole index k in M..N (1-based, sorted by modulus), S_k = L2 o L1,
    where L1 inverts f near a_k and L2 near a_M, should map D(a_M, r0) into
    itself.  One Newton solve per leg, at the base pole only, gives w = L1(a_M),
    z = L2(w), f'(w) and f'(z), so S_k'(a_M) = 1/(f'(z) f'(w)).  Koebe's theorems
    (Duren, Univalent Functions, 1983, section 2.3) bound the rest: for g
    univalent on D(c, R) and |u - c| = r < R, |g(u) - g(c)| <= |g'(c)| r/(1 - r/R)^2
    (growth) and |g'(u)| >= |g'(c)| (1 - r/R)/(1 + r/R)^3 (distortion).

    D(a_M, R), R = |a_M| - |f(0)|, misses the finite singular values 0 and f(0)
    (f(0) = 1 for G, i for FMax, eta otherwise), so L1 is univalent on it.  At
    s = R/2 (t = 1/2) growth puts L1(D(a_M, s)) in D(w, 2R |L1'(a_M)|);
    if that disk misses 0 and f(0) too, L2 is univalent on it and S_k on D(a_M, s).
    The base is the first pole with 4|b_M| < R, and r0 = |b_M|: the leading term
    (b_M/(z - a_M))^q maps D(a_M, r0) onto {|v| > 1}, so the radius needs no
    map-specific scale, and the rule makes rho = r0/s = 2 r0/R < 1/2.  Over D(a_M, r0):
        |S_k'| >= b_k = |S_k'(a_M)| (1 - rho)/(1 + rho)^3,
        |S_k(u) - a_M| <= |z - a_M| + |S_k'(a_M)| r0/(1 - rho)^2.
    Distinct roots w give disjoint images: f o L1 = id and f covers D = D(a_M, R), so
    L1_j(D) and L1_k(D) meet only if L1_j = L1_k, and x in S_j(D) and S_k(D) would put
    f(x) in both.  A root within 1e-8 max(1, |w|) of an earlier one repeats it: Newton
    stops below 1e-13 max(1, |a_k|), and distinct roots lie 0.009 max(1, |w|) apart and
    more (Hm, m = 21, 4000 branches; 0.045 for FLambda).
    A branch is rejected with the first check it fails: pole cutoff, Newton residual,
    repeated root, L2 univalent, image in D(a_M, r0), which gives b_k < 1.
    The rounding of w, z and f', about 1e-12 relative, is not covered.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    a, b = _poles_up_to_count(family, N)
    q = family.pole_multiplicity
    f0 = {"G": 1.0, "FMax": 1j}.get(family.tag, family.eta)
    radii, R = np.abs(b[:N]), np.abs(a[:N]) - abs(f0)
    base = np.flatnonzero(4.0 * radii < R)
    if not base.size:
        raise BasePoleError(f"no base pole among the first {N} (branch_count): none has 4|b_M| < |a_M| - |f(0)|; "
                            "enlarge branch_count")
    M = int(base[0]) + 1
    a_base, b_base, r0, R = complex(a[M - 1]), complex(b[M - 1]), float(radii[M - 1]), float(R[M - 1])
    rho = 2.0 * r0 / R  # r0/s < 1/2

    a_k = a[M - 1:N]
    w, dw, why = _invert_rows(family, a_k, b[M - 1:N], q, np.full((a_k.size, 1), a_base))
    w, d1 = w[:, 0], 1.0 / np.abs(dw[:, 0])  # |L1'(a_M)|
    solved = np.flatnonzero(why == "")
    ws, eps = w[solved], 1e-8 * np.maximum(1.0, np.abs(w[solved]))
    x = np.sort(ws.real)  # a repeat has a near real part, so only rare rows are compared
    for i in np.flatnonzero(np.searchsorted(x, ws.real + eps, "right") - np.searchsorted(x, ws.real - eps) > 1):
        j = np.flatnonzero(np.abs(ws[:i] - ws[i]) <= eps[i])
        if j.size:
            why[solved[i]] = f"first-leg root repeats branch {M + solved[j[0]]}'s (within 1e-8 relative)"
    reach = 2.0 * R * d1  # L1(D(a_M, s)) lies in D(w, reach)
    univalent = reach < np.minimum(np.abs(w), np.abs(w - f0))
    off0, bk = np.zeros(a_k.size), np.full(a_k.size, np.nan)
    go = np.flatnonzero((why == "") & univalent)
    z, dz, why[go] = _invert_rows(family, np.full(go.size, a_base), np.full(go.size, b_base), q, w[go, None])
    dS = d1[go] / np.abs(dz[:, 0])  # |S_k'(a_M)|
    off0[go] = np.abs(z[:, 0] - a_base) + dS * r0 / (1.0 - rho) ** 2
    bk[go] = dS * (1.0 - rho) / (1.0 + rho) ** 3

    branches, rejected = [], []
    rows = zip(range(M, N + 1), a_k.tolist(), why, reach, univalent, off0, bk.tolist())
    for k, pole, why_k, u, ok, o0, c in rows:
        why_k = why_k or (f"second leg not univalent on D(w, {u:.3g}): it meets 0 or f(0)" if not ok else
                          f"branch image escaped D(a_{M}, r0): max offset {o0:.3g}" if o0 >= r0 else "")
        if why_k:
            rejected.append((k, why_k))
        else:
            branches.append(IFSBranch(index=k, contraction_lower=c, pole_location=pole))
    if len(branches) < 2:
        raise DegenerateSystemError(f"only {len(branches)} branch(es) survived; rejections: {rejected[:4]!r}; base "
                                    f"M = {M} (the first pole with 4|b_M| < |a_M| - |f(0)|), N = {N} (branch_count)")
    return IFSBranchSet(branches=tuple(branches), base_index=M, rejected=tuple(rejected), base_radius=r0)


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
        lo, hi = _bisect(lambda t: _increment_ratio(bases, t) > level, t_min, t_hi, 1e-4)
        return 0.5 * (lo + hi)

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
    estimate exactly invariant under whole-pixel translations.  A box of side s
    is the union of (s/t)^2 boxes of the largest earlier scale t dividing s
    (the mask is scale 1), so each count is the mask's own.
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

    boxes, counts = {1: mask}, []
    for s in scales:
        t = max(d for d in boxes if s % d == 0)
        f, (h, w) = s // t, boxes[t].shape
        padded = np.zeros((-(-h // f) * f, -(-w // f) * f), dtype=bool)
        padded[:h, :w] = boxes[t]
        boxes[s] = padded.reshape(padded.shape[0] // f, f, padded.shape[1] // f, f).any(axis=(1, 3))
        counts.append(int(np.count_nonzero(boxes[s])))

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

"""Command-line front end: verify, render, sweep, dim-lower, dim-upper.

Exit codes: 0 success, 1 failed check or computation error, 2 usage or
config error.  Every output file embeds the effective config as comment
lines, CSV floats carry 17 significant digits, and reruns with the same
config and seed are byte-identical.
"""
from __future__ import annotations

import argparse
import math
import random
import sys
from dataclasses import replace

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    config_comment_lines,
    load_config,
    validate_config,
)
from .dimension import (
    DegenerateMultiplierError,
    IFSBranchSet,
    UndefinedDimensionError,
    box_counting,
    check_box_scales,
    continuity_envelope,
    default_box_scales,
    estimate_branch_contractions,
    formula_lower,
    formula_upper,
    multiplier_sign_mismatch,
    qc_dilatation,
    series_exponent,
    solve_bowen,
)
from .dynamics import (
    NoAttractingFixedPointError,
    basin_disks,
    find_attracting_fixed_point,
    koenigs_check,
    koenigs_value,
    render,
)
from .elliptic import PI, SpeiserdimError, _wp_array, eisenstein_g4, square_lattice, wp, wp_direct_sum, wp_prime
from .families import (
    MapFamily,
    _linear_fit,
    enumerate_poles,
    eval_family,
    eval_family_array,
    local_exponent,
    nearest_pole,
)

# the domain failures of one sweep row; any other error ends the sweep
_SWEEP_ROW_ERRORS = (NoAttractingFixedPointError, UndefinedDimensionError, DegenerateMultiplierError)


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _sanitize(msg: str) -> str:
    return msg.replace(",", ";").replace("\n", " ")


class _Checks:
    def __init__(self) -> None:
        self.rows: list[tuple[str, float, float]] = []

    def add(self, name: str, residual: float, tol: float) -> None:
        self.rows.append((name, float(residual), float(tol)))

    def add_flag(self, name: str, ok: bool) -> None:
        self.rows.append((name, 0.0 if ok else 1.0, 0.5))

    def report(self) -> tuple[str, bool]:
        lines = []
        passed = 0
        for name, residual, tol in self.rows:
            ok = residual <= tol
            passed += ok
            lines.append(f"{'PASS' if ok else 'FAIL'}  {name:<42} residual={residual:.3e}  tol={tol:.3e}")
        lines.append(f"verify: {passed}/{len(self.rows)} checks passed")
        return "\n".join(lines) + "\n", passed == len(self.rows)


def _wp_batch(points: list[complex]) -> tuple[list[complex], list[complex]]:
    """wp and wp' at every point from one array call, equal to wp and wp_prime point by point."""
    values, derivs, pole = _wp_array(points, derivative=True)
    return np.where(pole, math.inf, values).tolist(), np.where(pole, math.inf, derivs).tolist()


def _run_verify(cfg: ExperimentConfig) -> tuple[str, bool]:
    rng = random.Random(cfg.seed)
    lat = square_lattice()
    c = _Checks()

    c.add("wp-e2-at-corner-half-period", abs(wp(complex(PI / 2, PI / 2))), 1e-9)
    c.add("wp-half-period-values-sum", abs(wp(PI / 2) + wp(1j * PI / 2)), 1e-9)
    c.add("g2-vs-weight4-lattice-sum", abs(lat.g2 - 60.0 * eisenstein_g4()) / lat.g2, 1e-9)
    c.add("e1-vs-direct-lattice-sum", abs(wp_direct_sum(PI / 2, 1e-12).real - lat.e1) / lat.e1, 1e-9)

    pts = []
    while len(pts) < 100:
        z = complex(rng.uniform(-PI / 2, PI / 2), rng.uniform(-PI / 2, PI / 2))
        if abs(z) > 0.05:
            pts.append(z)
    values, derivs = _wp_batch(pts)
    c.add("wp-against-direct-sum-oracle", max(abs(v - d) for v, d in zip(values, wp_direct_sum(pts, 1e-12))), 1e-8)

    rel = 0.0
    for z, v, d in zip(pts, values, derivs):
        if abs(z) < 0.1:
            continue
        rhs = 4.0 * v ** 3 - lat.g2 * v
        rel = max(rel, abs(d * d - rhs) / max(1.0, abs(rhs)))
    c.add("wp-differential-equation", rel, 1e-7)

    z0 = 0.3 + 0.2j
    h = 1e-6
    cd = (wp(z0 + h) - wp(z0 - h)) / (2.0 * h)
    c.add("wp-prime-central-difference", abs(wp_prime(z0) - cd) / abs(cd), 1e-5)

    near = pts[:40]
    shifted, _ = _wp_batch([-z for z in near] + [z + PI for z in near] + [z + 1j * PI for z in near])
    even = per1 = per2 = 0.0
    for v, neg, right, up in zip(values, shifted[:40], shifted[40:80], shifted[80:]):
        even = max(even, abs(v - neg))
        per1 = max(per1, abs(right - v))
        per2 = max(per2, abs(up - v))
    c.add("wp-evenness", even, 1e-9)
    c.add("wp-periodicity", max(per1, per2), 1e-9)

    fam_g = MapFamily(tag="G")
    fam_h = MapFamily(tag="H", p=cfg.p, eta=cfg.eta)
    fam_hm = MapFamily(tag="Hm", m=cfg.m, p=cfg.p, eta=cfg.eta)
    fam_fl = MapFamily(tag="FLambda", lam=cfg.lam, m=cfg.m, p=cfg.p, eta=cfg.eta)

    c.add("G-zero-at-half-pi", abs(eval_family(fam_g, PI / 2).value), 1e-9)
    c.add("G-one-at-origin", abs(eval_family(fam_g, 0.0).value - 1.0), 1e-9)
    c.add_flag("G-pole-at-i-half-pi", eval_family(fam_g, 0.5j * PI).at_infinity)
    fam_f = MapFamily(tag="FMax")
    c.add("fmax-value-i-at-origin", abs(eval_family(fam_f, 0.0).value - 1j), 1e-9)
    c.add("fmax-zero-at-one", abs(eval_family(fam_f, 1.0).value), 1e-9)
    c.add_flag("fmax-pole-at-i", eval_family(fam_f, 1j).at_infinity)
    c.add("H-value-eta-at-origin", abs(eval_family(fam_h, 0.0).value - cfg.eta), 1e-9)
    c.add("hm-value-eta-at-origin", abs(eval_family(fam_hm, 0.0).value - cfg.eta), 1e-9)
    c.add("hm-zero-at-m", abs(eval_family(fam_hm, float(cfg.m)).value), 1e-9)

    pole = nearest_pole(fam_hm)
    probe = eval_family(fam_hm, pole.location + 1e-9)
    c.add_flag("hm-nearest-pole-blows-up", probe.at_infinity or abs(probe.value) > 1e10)

    xs = np.linspace(-4.0, 4.0, 201)
    gv, gp = eval_family_array(fam_g, xs.astype(complex))
    range_dev = max(
        float(np.max(np.abs(gv.imag))),
        float(np.max(np.maximum(gv.real - 1.0, 0.0))),
        float(np.max(np.maximum(-gv.real, 0.0))),
    )
    c.add_flag("G-real-axis-no-poles", not gp.any())
    c.add("G-real-axis-range", range_dev, 1e-9)

    hx = np.linspace(1e-3, PI / 2 - 1e-3, 60).astype(complex)
    hv, _ = eval_family_array(fam_h, hx)
    c.add("H-strictly-decreasing-on-interval", float(np.max(np.diff(hv.real))), 0.0)

    c.add("G-zero-multiplicity-4", abs(local_exponent(fam_g, PI / 2, "zero") - 4.0), 0.05)
    c.add("G-pole-multiplicity-4", abs(local_exponent(fam_g, 0.5j * PI, "pole") - 4.0), 0.05)
    c.add("G-one-point-multiplicity-2", abs(local_exponent(fam_g, 0.0, "value", 1.0) - 2.0), 0.05)
    c.add(
        "hm-pole-multiplicity-4p",
        abs(local_exponent(fam_hm, pole.location, "pole") - 4.0 * cfg.p),
        0.05,
    )
    c.add(
        "hm-zero-multiplicity-2p",
        abs(local_exponent(fam_hm, float(cfg.m), "zero") - 2.0 * cfg.p),
        0.05,
    )

    zs = [complex(rng.uniform(-3, 3), rng.uniform(0.2, 3)) for _ in range(30)]
    # arcsin point by point: numpy's 0-d and array loops round it differently
    ws = [cfg.m * complex(np.arcsin(np.asarray(z / cfg.m))[()]) for z in zs]
    hv, hp = eval_family_array(fam_h, ws + [PI * cfg.m - w for w in ws])
    # relative, like wp-differential-equation: near a 4-fold pole |H|
    # reaches ~4e8, and the rounding of pi*m - w alone moves H by more
    # than an absolute 1e-9
    dev = np.abs(hv[:30] - hv[30:]) / np.maximum(1.0, np.abs(hv[:30]))
    c.add("arcsin-branch-consistency", np.max(dev[~(hp[:30] | hp[30:])], initial=0.0), 1e-9)

    zs = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(40)]
    fv, fpole = eval_family_array(fam_fl, zs + [z.conjugate() for z in zs] + [-z for z in zs])
    a, b, e = np.split(fv, 3)
    pa, pb, pe = np.split(fpole, 3)
    mismatch = (pa != pb) | (pa != pe)
    dev = np.maximum(np.abs(b - np.conj(a)), np.abs(e - a))[~(pa | mismatch)]
    sym = max(float(mismatch.any()), np.max(dev, initial=0.0))
    c.add("flambda-conjugation-and-evenness", sym, 0.0)

    fp = find_attracting_fixed_point(cfg.lam, cfg.m, cfg.p, cfg.eta)
    gap = eval_family(fam_fl, complex(fp.location)).value - fp.location
    c.add("fixed-point-residual", abs(gap), 1e-12)
    c.add_flag("fixed-point-inside-(0,eta)", 0.0 < fp.location < cfg.eta)
    c.add_flag("multiplier-attracting", abs(fp.multiplier) < 1.0)
    fp1 = fp if cfg.lam == 1.0 else find_attracting_fixed_point(1.0, cfg.m, cfg.p, cfg.eta)
    c.add_flag("multiplier-negative-at-lambda-1", fp1.multiplier < 0.0)

    mults = [find_attracting_fixed_point(float(l), cfg.m, cfg.p, cfg.eta).multiplier
             for l in np.linspace(0.1, 1.0, 10)[:-1]] + [fp1.multiplier]  # linspace ends at 1.0 exactly
    c.add("multiplier-strictly-decreasing", float(np.max(np.diff(mults))), 0.0)

    c.add("koenigs-residual-near-fixed-point", koenigs_check(fam_fl, fp, fp.location + 1e-4), 1e-8)
    g1 = koenigs_value(fam_fl, fp, fp.location + 1e-5)
    g0 = koenigs_value(fam_fl, fp, complex(fp.location))
    c.add("koenigs-derivative-one", abs((g1 - g0) / 1e-5 - 1.0), 1e-4)

    # the circles of basin_disks, one array: after a first step (the 0 circle lands in the eta disk) n more leave
    # them within 4 r q / (1 - q)^2 of fp, q = |mu|^n, as t rho = (1 + t)^2 r <= 4 r for the fp disk's radius r
    disks = basin_disks(fam_fl, fp, cfg.guard_modulus)
    z = np.array([c + rc * np.exp(2j * np.pi * np.arange(64) / 64) for c, rc in disks], dtype=complex)
    r, mu, n, hit = (disks[0][1] if disks else 0.0), abs(fp.multiplier), -1, False
    while disks and (n < 1 or 4.0 * r * mu ** n / (1 - mu ** n) ** 2 >= cfg.attraction_tol):
        z, pole = eval_family_array(fam_fl, z)
        n, hit = n + 1, hit or bool(pole.any())
    trap = math.inf if hit else float(np.max(np.abs(z - fp.location), initial=0.0))
    c.add("basin-disk-traps-orbits", trap, cfg.attraction_tol)

    return c.report()


def cmd_verify(cfg: ExperimentConfig, out: str) -> int:
    report, ok = _run_verify(cfg)
    sys.stdout.write(report)
    if out:
        header = "".join(f"# {line}\n" for line in config_comment_lines(cfg))
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(header + report)
    return 0 if ok else 1


def _fixed_point_for(family: MapFamily):
    if family.tag == "FLambda":
        return find_attracting_fixed_point(family.lam, family.m, family.p, family.eta)
    if family.tag == "Hm":
        return find_attracting_fixed_point(1.0, family.m, family.p, family.eta)
    return None


def cmd_render(cfg: ExperimentConfig, out: str) -> int:
    family = cfg.to_family()
    fp = _fixed_point_for(family)
    raster = render(
        cfg.to_grid(),
        family,
        fp,
        guard_modulus=cfg.guard_modulus,
        guard_exit_limit=cfg.guard_exits,
    )
    path = out or cfg.out or "render.pgm"
    with open(path, "wb") as fh:
        fh.write(raster.to_pgm(config_comment_lines(cfg)))
    sys.stdout.write(
        f"render: wrote {path} attracted={raster.attracted_fraction:.6f} "
        f"julia={raster.julia_fraction:.6f} undetermined={raster.undetermined_fraction:.6f}\n"
    )
    return 0


_SWEEP_COLUMNS = (
    "lam,fixed_point,multiplier,box_dim,box_lo,box_hi,K,holder_lo,holder_hi,"
    "astala_lo,astala_hi,sign_mismatch,status"
)


def cmd_sweep(cfg: ExperimentConfig, out: str) -> int:
    # checked here, not in validate_config: render takes any grid_resolution
    scales = cfg.box_scale_list() or default_box_scales(cfg.grid_resolution)
    try:
        check_box_scales(scales)
    except ValueError as exc:
        key = "box_scales" if cfg.box_scales.strip() else "grid_resolution"
        raise ConfigError(f"box scales {scales} from {key}: {exc}") from None
    lams = np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.lambda_count)
    lines = [f"# {line}" for line in config_comment_lines(cfg)]
    lines.append(_SWEEP_COLUMNS)
    grid = cfg.to_grid()
    prev: tuple[float, float] | None = None  # (multiplier, box dim) of last good row
    for lam in lams:
        lam = float(lam)
        try:
            fp = find_attracting_fixed_point(lam, cfg.m, cfg.p, cfg.eta)
            family = MapFamily(tag="FLambda", lam=lam, m=cfg.m, p=cfg.p, eta=cfg.eta)
            # box counting reads attracted or not, so orbits stop at the certified disks
            raster = render(
                grid,
                family,
                fp,
                guard_modulus=cfg.guard_modulus,
                guard_exit_limit=cfg.guard_exits,
                disks=basin_disks(family, fp, cfg.guard_modulus),
            )
            est = box_counting(raster, scales)
            if prev is None:
                K = math.nan
                hol = (math.nan, math.nan)
                ast = (math.nan, math.nan)
                mismatch = 0
            else:
                K = qc_dilatation(fp.multiplier, prev[0])
                hol = continuity_envelope(prev[1], K, "holder")
                ast = continuity_envelope(prev[1], K, "astala")
                mismatch = int(multiplier_sign_mismatch(fp.multiplier, prev[0]))
            fields = [
                _fmt(lam),
                _fmt(fp.location),
                _fmt(fp.multiplier),
                _fmt(est.value),
                _fmt(est.uncertainty[0]),
                _fmt(est.uncertainty[1]),
                _fmt(K),
                _fmt(hol[0]),
                _fmt(hol[1]),
                _fmt(ast[0]),
                _fmt(ast[1]),
                str(mismatch),
                "ok",
            ]
            prev = (fp.multiplier, est.value)
        except _SWEEP_ROW_ERRORS as exc:
            fields = [_fmt(lam)] + ["nan"] * 10 + ["0", f"failed: {_sanitize(str(exc))}"]
        lines.append(",".join(fields))
    path = out or cfg.out or "sweep.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    sys.stdout.write(f"sweep: wrote {path} rows={len(lams)}\n")
    return 0


def _estimate_rows_csv(cfg: ExperimentConfig, rows: list[tuple[str, float, float, float, str]]) -> str:
    lines = [f"# {line}" for line in config_comment_lines(cfg)]
    lines.append("method,value,lo,hi,detail")
    for method, value, lo, hi, detail in rows:
        lines.append(f"{method},{_fmt(value)},{_fmt(lo)},{_fmt(hi)},{_sanitize(detail)}")
    return "\n".join(lines) + "\n"


def cmd_dim_lower(cfg: ExperimentConfig, out: str) -> int:
    family = cfg.to_family()
    branch_set = estimate_branch_contractions(family, cfg.branch_count)
    rows: list[tuple[str, float, float, float, str]] = []
    n = len(branch_set.branches)
    for count in sorted({max(2, n // 4), max(2, n // 2), n}):
        t = solve_bowen(IFSBranchSet(branch_set.branches[:count], branch_set.base_index))
        rows.append(("bowen_lower", t, t, 2.0,
                     f"set=J;branches={count};base={branch_set.base_index};r0={branch_set.base_radius:.6g};"
                     f"rejected={len(branch_set.rejected)}"))
    if family.order == 2:  # formula_lower's theorem is for elliptic functions
        q = family.pole_multiplicity
        fl = formula_lower(q)
        rows.append(("formula_lower", fl, fl, 2.0, f"set=J;q={q}"))
    path = out or cfg.out or "dim_lower.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_estimate_rows_csv(cfg, rows))
    sys.stdout.write(f"dim-lower: wrote {path} rows={len(rows)}\n")
    return 0


def cmd_dim_upper(cfg: ExperimentConfig, out: str) -> int:
    family = cfg.to_family()
    poles = enumerate_poles(family, cfg.series_radius)
    est = series_exponent(poles)
    rows = [("series_upper", est.value, *est.uncertainty, f"set=I;poles={len(poles)};"
             f"multiplicity={est.metadata['multiplicity']};radius={cfg.series_radius:g}")]
    q, rho = family.pole_multiplicity, family.order
    fu = formula_upper(q, rho)
    rows.append(("formula_upper", fu, 0.0, fu, f"set=I;M={q};rho={rho}"))
    moduli = np.hypot(poles.location.real, poles.location.imag)  # ascending, as enumerated
    fit_hi = min(cfg.pole_radius, float(moduli[-1]))
    fit_lo = 2.0 * float(moduli[0])
    if fit_hi > fit_lo * 1.5:
        radii = np.geomspace(fit_lo, fit_hi, 10)
        counts = np.searchsorted(moduli, radii, side="right").astype(float)
        slope, stderr, r = _linear_fit(np.log(radii), counts)
        slope, se = float(slope), 2.0 * float(stderr)
        rows.append(("pole_count_per_log_radius", slope, slope - se, slope + se,
                     f"r_max={fit_hi:g};r_squared={r ** 2:.6g}"))
    path = out or cfg.out or "dim_upper.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_estimate_rows_csv(cfg, rows))
    sys.stdout.write(f"dim-upper: wrote {path} rows={len(rows)}\n")
    return 0


_COMMANDS = {"verify": cmd_verify, "render": cmd_render, "sweep": cmd_sweep,
             "dim-lower": cmd_dim_lower, "dim-upper": cmd_dim_upper}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="speiserdim", description="Julia set dimension toolkit for a "
                                     "lattice-built family of finite-singular-value meromorphic maps")
    parser.add_argument("command", choices=_COMMANDS, help="verify: invariant checks; render: PGM raster; "
                        "sweep: per-lambda CSV; dim-lower, dim-upper: dimension bounds (CSV)")
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--out", metavar="PATH", help="output file path")
    parser.add_argument("--threads", type=int, help="has no effect; renders run on one thread")
    parser.add_argument("--seed", type=int, help="nonnegative seed for randomized checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = load_config(args.config) if args.config else validate_config(ExperimentConfig())
        if args.seed is not None:
            cfg = validate_config(replace(cfg, seed=args.seed))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = args.out or ""
    try:
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SpeiserdimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

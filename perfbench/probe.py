"""Layer probes of the traced run: direct calls into each module's public
functions, with inputs made from the workload's config and seed.

- `elliptic.wp_scalar_us`: public `wp`, per call, on seeded points of the
  fundamental cell.
- `families.eval_ns_per_point.*` and `families.deriv_ns_per_point.FLambda`:
  `eval_family_array` / `eval_deriv_array` on 1e6 seeded points of the default
  viewport, median of three passes.  `G` is the thinnest public wrapper around
  the wp array kernel: it squares and rescales one wp value per point.
- `dynamics.render_s.threads1` / `.threads2`: one `render` of the config's map
  on its grid at each thread count, then `box_counting` of that raster.
- `dynamics.render_s.threads1.FMax` / `.threads2.FMax`: criterion 07's FMax
  render at each thread count; the one-thread render's spans also give the
  FMax orbit counts.
- With `call_bounds`, the three CLI calls of the `bounds` workload run here
  first, at the default config, so the cli, dimension and pole layers are
  measured on every workload.
"""
from __future__ import annotations

import os
import statistics
import time

import numpy as np
from speiserdim import cli
from speiserdim.config import ExperimentConfig, load_config
from speiserdim.elliptic import PI, wp
from speiserdim.families import MapFamily, eval_deriv_array, eval_family_array

# Criterion 07's render: FMax has no attracting fixed point, so it runs in
# cycle mode, at the default 512^2 grid and 500 iterations and with the
# library's guard (1e12, 3 exits) in place of the config's 30 and 2.
FMAX = ExperimentConfig(family="FMax", guard_modulus=1e12, guard_exits=3)

WP_POINTS = 20_000
EVAL_POINTS = 1_000_000
EVAL_PASSES = 3


def _ns_per_point(fn, family: MapFamily, z: np.ndarray) -> float:
    times = []
    for _ in range(EVAL_PASSES):
        start = time.perf_counter()
        fn(family, z)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e9 / z.size


def _render(tracer, cfg: ExperimentConfig, threads: int, name: str):
    family = cfg.to_family()
    fp = None
    if family.tag == "FLambda":
        fp = cli.find_attracting_fixed_point(family.lam, family.m, family.p, family.eta)
    return tracer.span(
        name,
        cli.render,
        cfg.to_grid(),
        family,
        fp,
        threads=threads,
        guard_modulus=cfg.guard_modulus,
        guard_exit_limit=cfg.guard_exits,
    )


def run(tracer, config: str, seed: int, workdir: str, call_bounds: bool) -> dict[str, float]:
    cfg = load_config(config)
    rng = np.random.default_rng(seed)
    metrics: dict[str, float] = {}

    # First, so that verify pays the lazy scipy.stats import as it does in
    # its own process.
    if call_bounds:
        for command in ("verify", "dim-lower", "dim-upper"):
            out = os.path.join(workdir, f"probe-{command}.out")
            tracer.span(f"cli.{command}", cli.main,
                        [command, "--threads", "1", "--seed", str(seed), "--out", out])

    cell = rng.uniform(-PI / 2, PI / 2, (2, WP_POINTS))
    cell_points = [complex(x, y) for x, y in cell.T]
    start = time.perf_counter()
    for z in cell_points:
        wp(z)
    metrics["elliptic.wp_scalar_us"] = (time.perf_counter() - start) * 1e6 / WP_POINTS

    view = rng.uniform(-2.0, 2.0, (2, EVAL_POINTS))
    z = view[0] + 1j * view[1]
    flambda = ExperimentConfig().to_family()
    for tag, family in (("G", MapFamily(tag="G")), ("FMax", MapFamily(tag="FMax")), ("FLambda", flambda)):
        metrics[f"families.eval_ns_per_point.{tag}"] = _ns_per_point(eval_family_array, family, z)
    metrics["families.deriv_ns_per_point.FLambda"] = _ns_per_point(eval_deriv_array, flambda, z)
    del view, z

    raster = _render(tracer, cfg, 1, "probe.render.threads1")
    _render(tracer, cfg, 2, "probe.render.threads2")
    cli.box_counting(raster, cfg.box_scale_list())
    del raster
    for threads in (1, 2):
        _render(tracer, FMAX, threads, f"probe.render.threads{threads}.FMax")
    return metrics

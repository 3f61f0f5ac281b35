"""Benchmark of the speiserdim CLI, driven from outside with one fresh process
per call, because a user pays start-up on every call.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is that checkout's `src/`.
Metric names and units come from `BENCHMARK.json` beside `perfbench/`.

`--trace 0` runs one untimed warm-up call, then repeats the workload's op (its
CLI calls plus their output checks), each after one run of the fixed reference
work (`reference.py`), until `--seconds` are spent.  It reports each
end-to-end time as the median over ops of the op's time scaled by
REFERENCE_S / (the reference's time just before it): seconds on a host that
runs the reference in REFERENCE_S.  The unscaled medians go in the run record.
`--trace 1` runs the op untraced and traced in turn, OVERHEAD_PAIRS times
each, then the layer probes (`probe.py`), and reports every per-layer metric:
a metric that the workload's own calls do not reach is taken from the probe.

The last line of standard output is the JSON result; the line before it, the
run record (machine, versions, source size, host steal, output hashes).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.py")
WORK = os.path.join(ROOT, ".perfbench")

DEFAULT_CONFIG = "# default config\n"
# Warm-up renders use a small grid: they only have to load the same code.
WARMUP_GRID = "grid_resolution = 64\n"
# Untraced and traced ops of a traced run, each.
OVERHEAD_PAIRS = 3
# The reference's usual wall time, by thread count, on the 2-vCPU host the
# bounds were set on; end-to-end times are scaled to it.  That host's speed
# drifts by a third over minutes, often with little steal to show for it, so
# unscaled medians of two runs minutes apart can differ by more than the bounds.
REFERENCE_S = {1: 1.4, 2: 2.3}

# sha256 of each workload's outputs as the seed commit's code writes them
# (src/ as of 111f2ec).  A mismatch is recorded, not gated, since explained
# output diffs are allowed.  verify's report depends on --seed: no fixed hash.
SEED_SHA256 = {
    "sweep": "64d348e7609338425c19c0bf3ff23f91dfcb311ce167a0bda47271d2b05ff3ac",
    "dim-lower": "a41d15a6fc6d9582c43ff2279d9c7d6dff4e4ae768f8f2b8e96ea6d4c7e49392",
    "dim-upper": "7cb2be3cb949692e83cca929dafb2e292d71003075712f0d9619b4b2337ea6d1",
}


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line and not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def check_sweep(out: dict[str, str]) -> str:
    rows = _csv_rows(out["sweep"])
    if len(rows) != 8:
        return f"{len(rows)} rows, not 8"
    if any(row[12] != "ok" for row in rows):
        return "a row is not ok"
    steps = inside = 0
    for row in rows[1:]:
        box, lo, hi = float(row[3]), float(row[9]), float(row[10])
        steps += 1
        inside += lo - 0.15 <= box <= hi + 0.15
    if inside < 0.9 * steps:
        return f"only {inside} of {steps} steps inside the Astala envelope +-0.15"
    return ""


def check_bounds(out: dict[str, str]) -> str:
    with open(out["verify"], encoding="utf-8") as fh:
        last = fh.read().splitlines()[-1]
    match = re.fullmatch(r"verify: (\d+)/(\d+) checks passed", last)
    if not match or match.group(1) != match.group(2):
        return f"verify reported {last!r}"
    for command in ("dim-lower", "dim-upper"):
        rows = _csv_rows(out[command])
        if not rows:
            return f"{command} wrote no rows"
        for row in rows:
            if not all(math.isfinite(float(x)) for x in row[1:4]):
                return f"{command} row {row[0]} is not finite"
    return ""


# Each call is (subcommand, --threads, writes an output file).  verify's
# report goes to standard output, which is captured and checked instead.
WORKLOADS = {
    "flambda_sweep": {
        "config": DEFAULT_CONFIG,
        "calls": [("sweep", 2, True)],
        "check": check_sweep,
    },
    "bounds": {
        "config": DEFAULT_CONFIG,
        "calls": [("verify", 1, False), ("dim-lower", 1, True), ("dim-upper", 1, True)],
        "check": check_bounds,
    },
}


def _spawn(args: list[str], stdout: str, stderr: str, script: str = CHILD) -> dict:
    """Run the child to its end; returns its exit code and resource usage.

    `os.wait4` gives the rusage of this one child.  `RUSAGE_CHILDREN` would
    instead keep the running maximum RSS over every child reaped so far.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    pid = os.posix_spawn(sys.executable, [sys.executable, script, *args], os.environ,
                         file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return {"exit": os.waitstatus_to_exitcode(status),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "involuntary_switches": usage.ru_nivcsw}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_op(workload: dict, config: str, seed: int, tag: str, mode: str = "--cli") -> dict:
    """One op: the workload's CLI calls, one process each, then the output check."""
    calls, outputs = [], {}
    stat_before = _cpu_times()
    start = time.perf_counter()
    for command, threads, writes_file in workload["calls"]:
        base = os.path.join(WORK, f"{tag}-{command}")
        stdout = base + ".stdout"
        outputs[command] = base + ".out" if writes_file else stdout
        argv = [command, "--config", config, "--threads", str(threads), "--seed", str(seed)]
        if writes_file:
            argv += ["--out", outputs[command]]
        if os.path.exists(outputs[command]):
            os.remove(outputs[command])
        call = {"argv": argv, **_spawn([base + ".json", mode, "--", *argv], stdout, base + ".stderr")}
        if os.path.exists(base + ".json"):
            with open(base + ".json", encoding="utf-8") as fh:
                call.update(json.load(fh))
            os.remove(base + ".json")
        calls.append(call)
    wall = time.perf_counter() - start
    steal = _steal_share(stat_before, _cpu_times())
    try:
        problem = "" if all(c["exit"] == 0 for c in calls) else "a call exited non-zero"
        problem = problem or workload["check"](outputs)
    except (OSError, ValueError, IndexError) as exc:
        problem = f"output unreadable: {exc}"
    hashes = {}
    for command, path in outputs.items():
        if os.path.exists(path):
            digest = _sha256(path)
            expected = SEED_SHA256.get(command)
            hashes[command] = {"sha256": digest,
                               "matches_seed_commit": digest == expected if expected else None}
    return {"wall_s": wall, "host_steal_share": steal, "calls": calls, "failure": problem,
            "outputs": hashes}


def _cpu_times() -> list[int] | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def _steal_share(before, after) -> float | None:
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else None


def _git_sha() -> str:
    try:
        # --git-dir, so that a checkout without .git gives no outer repository's SHA.
        out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_lines() -> int:
    total = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def reference_s(threads: int) -> float:
    """Wall time of one run of the reference work, start-up included."""
    start = time.perf_counter()
    code = _spawn([str(threads)], os.devnull, os.path.join(WORK, "reference.stderr"),
                  REFERENCE)["exit"]
    if code != 0:
        raise RuntimeError(f"reference work exited {code}; see {WORK}/reference.stderr")
    return time.perf_counter() - start


def end_to_end(ops: list[dict], threads: int, scaled: bool = True) -> dict[str, float]:
    """Medians over ops; with `scaled`, each op's times are first scaled by
    REFERENCE_S[threads] over the reference time taken just before the op."""
    def median(time_of):
        return statistics.median(
            time_of(op) * (REFERENCE_S[threads] / op["reference_s"] if scaled else 1.0)
            for op in ops)

    return {
        "wall_s": median(lambda op: op["wall_s"]),
        "setup_s": median(lambda op: sum(c.get("setup_s", 0.0) for c in op["calls"])),
        "solve_s": median(lambda op: sum(c.get("solve_s", 0.0) for c in op["calls"])),
        "cpu_s": median(lambda op: sum(c["cpu_s"] for c in op["calls"])),
        "peak_rss_mb": max(c["peak_rss_mb"] for op in ops for c in op["calls"]),
    }


def _spans(results: list[dict]) -> list[dict]:
    """Spans of several processes, with ids made unique across them."""
    out = []
    for k, result in enumerate(results):
        for sid, name, start, end, parent, n, info in result.get("spans", []):
            out.append({"id": (k, sid), "name": name, "start": start, "end": end,
                        "parent": (k, parent), "n": n, "info": info or {}})
    return out


def _split(spans: list[dict], roots: set[str]) -> tuple[list[dict], list[dict]]:
    """The spans named in `roots` with all their descendants, and the rest."""
    by_id = {s["id"]: s for s in spans}

    def inside(s):
        while s is not None:
            if s["name"] in roots:
                return True
            s = by_id.get(s["parent"])
        return False

    flags = [inside(s) for s in spans]
    return ([s for s, f in zip(spans, flags) if f], [s for s, f in zip(spans, flags) if not f])


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one set of spans; absent layers give no entry."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def seconds(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    metrics = {}
    for metric, name in (
        ("cli.verify_s", "cli.verify"),
        ("families.enumerate_poles_s", "families.enumerate_poles"),
        ("dynamics.fixed_point_s", "dynamics.find_attracting_fixed_point"),
        ("dimension.box_counting_s", "dimension.box_counting"),
        ("dimension.branch_contractions_s", "dimension.estimate_branch_contractions"),
        ("dimension.solve_bowen_s", "dimension.solve_bowen"),
        ("dimension.series_exponent_s", "dimension.series_exponent"),
    ):
        if by_name[name]:
            metrics[metric] = seconds(name)

    branches = by_name["dimension.estimate_branch_contractions"]
    if branches:
        metrics["dimension.newton_evals"] = sum(
            s["n"] for s in by_name["dimension.eval_family_array"] + by_name["dimension.eval_deriv_array"])
        metrics["dimension.branches_accepted"] = sum(s["info"]["accepted"] for s in branches)
        metrics["dimension.branches_rejected"] = sum(s["info"]["rejected"] for s in branches)

    renders = by_name["dynamics.render"]
    if renders:
        evals = defaultdict(list)
        for s in by_name["dynamics.eval_family_array"]:
            evals[s["parent"]].append(s)
        render_s = seconds("dynamics.render")
        steps = sum(s["n"] for group in evals.values() for s in group)
        pixels = sum(s["info"]["pixels"] for s in renders)
        self_s = 0.0
        for r in renders:
            children = [(max(c["start"], r["start"]), min(c["end"], r["end"])) for c in evals[r["id"]]]
            self_s += (r["end"] - r["start"]) - _covered(children)
        metrics.update({
            "dynamics.render_s": render_s,
            "dynamics.eval_calls": sum(len(group) for group in evals.values()),
            "dynamics.point_steps": steps,
            "dynamics.evals_per_pixel": steps / pixels,
            "dynamics.ns_per_point_step": render_s * 1e9 / steps,
            "dynamics.self_s": self_s,
        })
        for kind in ("attracted", "julia", "undetermined"):
            metrics[f"dynamics.pixels.{kind}"] = sum(s["info"][kind] for s in renders)
    return metrics


def traced(workload: dict, config: str, seed: int) -> tuple[dict[str, float], list[dict]]:
    """Per-layer metrics: untraced and traced ops in turn, then the layer probe.

    The layer metrics come from the last traced op.  The tracing overhead is
    the difference of the two sides' median wall times, so that host speed,
    which drifts over minutes, weighs on both sides alike.
    """
    plain, traced_ops = [], []
    for k in range(OVERHEAD_PAIRS):
        plain.append(run_op(workload, config, seed, f"untraced{k}"))
        traced_ops.append(run_op(workload, config, seed, f"traced{k}", "--trace"))
    traced_op = traced_ops[-1]
    measured = layer_metrics(_spans(traced_op["calls"]))
    measured["cli.import_s"] = statistics.median(c["import_s"] for c in traced_op["calls"])
    measured["elliptic.lattice_init_s"] = statistics.median(
        c["lattice_init_s"] for c in traced_op["calls"])
    plain_s = statistics.median(op["wall_s"] for op in plain)
    measured["trace.overhead_frac"] = (
        statistics.median(op["wall_s"] for op in traced_ops) - plain_s) / plain_s

    result = os.path.join(WORK, "probe.json")
    call_bounds = "0" if "dimension.solve_bowen_s" in measured else "1"
    code = _spawn([result, "--probe", config, str(seed), WORK, call_bounds],
                  os.path.join(WORK, "probe.stdout"), os.path.join(WORK, "probe.stderr"))["exit"]
    if code != 0:
        raise RuntimeError(f"layer probe exited {code}; see {WORK}/probe.stderr")
    with open(result, encoding="utf-8") as fh:
        probe = json.load(fh)
    spans = _spans([probe])
    # The workload's map rendered at one thread stands in for the workload's
    # own renders; the other renders give only their times and FMax counts.
    _, rest = _split(spans, {"probe.render.threads2", "probe.render.threads1.FMax",
                             "probe.render.threads2.FMax"})
    fallback = layer_metrics(rest)
    fmax = layer_metrics(_split(spans, {"probe.render.threads1.FMax"})[0])
    for counter in ("eval_calls", "point_steps"):
        fallback[f"dynamics.{counter}.FMax"] = fmax[f"dynamics.{counter}"]
    for s in spans:
        if s["name"].startswith("probe.render."):
            fallback["dynamics.render_s." + s["name"][len("probe.render."):]] = s["end"] - s["start"]
    fallback.update(probe["metrics"])
    for name, value in fallback.items():
        measured.setdefault(name, value)
    return measured, plain + traced_ops


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """Run one workload, print its metric lines and run record, return its result."""
    workload = WORKLOADS[name]
    config = os.path.join(WORK, f"{name}.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(workload["config"])
    warmup_config = os.path.join(WORK, f"{name}-warmup.cfg")
    with open(warmup_config, "w", encoding="utf-8") as fh:
        fh.write(workload["config"] + WARMUP_GRID)

    # One untimed call, and one run of the reference, so the .pyc files and
    # scipy's files are in the page cache as they are for a user calling the
    # CLI repeatedly.
    run_op({**workload, "calls": workload["calls"][:1], "check": lambda out: ""},
           warmup_config, seed, "warmup")
    # The reference runs on as many threads as the op's busiest call.
    threads = max(t for _, t, _ in workload["calls"])
    reference_s(threads)

    stat_before = _cpu_times()
    if trace:
        values, ops = traced(workload, config, seed)
        wanted = spec["per_layer"]
    else:
        ops = []
        start = time.perf_counter()
        while True:
            before = reference_s(threads)
            ops.append({"reference_s": before, **run_op(workload, config, seed, "op")})
            if time.perf_counter() - start + (before + ops[-1]["wall_s"]) / 2 >= seconds:
                break
        values = end_to_end(ops, threads)
        wanted = spec["end_to_end"]
    steal = _steal_share(stat_before, _cpu_times())

    failed = sum(1 for op in ops if op["failure"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for metric, m in metrics.items():
        print(f"{name:14} {metric:40} {m['value']:>16.6g} {m['unit']}")
    for op in ops:
        if op["failure"]:
            print(f"{name}: op failed: {op['failure']}")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "src_lines": _src_lines(),
        "host_steal_share": steal,
        "scaled_to_reference_s": REFERENCE_S[threads],
        "unscaled": {} if trace else end_to_end(ops, threads, scaled=False),
        "ops": [{k: v for k, v in op.items() if k != "calls"}
                | {"calls": [{k: v for k, v in c.items() if k != "spans"} for c in op["calls"]]}
                for op in ops],
    }
    with open(os.path.join(WORK, f"record-{name}-{seed}-{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("record " + json.dumps(record))
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    for needed in (os.path.join(ROOT, "src", "speiserdim", "cli.py"), os.path.join(ROOT, "BENCHMARK.json")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} is missing; run from the root of a speiserdim checkout",
                  file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(WORK, exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace, spec) for name in names}
    # With `all`, metric names are prefixed by their workload.
    metrics = {(f"{name}.{m}" if len(names) > 1 else m): v
               for name, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

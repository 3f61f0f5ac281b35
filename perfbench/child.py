"""One benchmark process: set up speiserdim from this checkout, run one CLI
call (or the layer probes) and write its timings to a JSON file.

    python3 perfbench/child.py RESULT.json [--trace] -- CLI_ARGS...
    python3 perfbench/child.py RESULT.json --probe CONFIG SEED WORKDIR CALL_BOUNDS

Set-up runs from the first line of this file through `import speiserdim.cli`
and `square_lattice()`, which is what every CLI call pays before its work.
Solve time is the time spent in `cli.main`.  With `--trace` (and always with
`--probe`) spans are recorded around the public names listed in
`tracer.install` and written to the result file.
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import speiserdim.cli as cli  # noqa: E402

T1 = time.perf_counter()
from speiserdim.elliptic import square_lattice  # noqa: E402

square_lattice()
T2 = time.perf_counter()


def main(argv: list[str]) -> int:
    if not cli.__file__.startswith(SRC + os.sep):
        print(f"speiserdim was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    result_path, mode = argv[0], argv[1]
    result = {"import_s": T1 - T0, "lattice_init_s": T2 - T1, "setup_s": T2 - T0}
    tracer = None
    if mode in ("--trace", "--probe"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    if mode == "--probe":
        import probe

        config, seed, workdir, call_bounds = argv[2:6]
        result["metrics"] = probe.run(tracer, config, int(seed), workdir, call_bounds == "1")
        code = 0
    else:
        cli_args = argv[argv.index("--") + 1:]
        if tracer is None:
            code = cli.main(cli_args)
        else:
            code = tracer.span(f"cli.{cli_args[0]}", cli.main, cli_args)
    result["solve_s"] = time.perf_counter() - start
    result["exit"] = code
    if tracer is not None:
        result["spans"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

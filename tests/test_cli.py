"""Config parsing and the command-line front end."""
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import speiserdim
from speiserdim import (
    ConfigError,
    ExperimentConfig,
    GridSpec,
    MapFamily,
    SpeiserdimError,
    load_config,
    parse_config,
    serialize_config,
)
from speiserdim import cli
from speiserdim.cli import main
from speiserdim.config import validate_config
from speiserdim.dimension import box_counting
from speiserdim.dynamics import LinearizationDomainError


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Config files


def test_config_round_trip_is_exact():
    cfg = validate_config(ExperimentConfig(
        eta=0.2137915731, lam=0.8542391, lambda_min=0.77, grid_half_width=1.875,
        attraction_tol=3.5e-7, guard_modulus=1e12, guard_exits=3, m=21,
        box_scales="4,8,16,32", out="x.csv",
    ))
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    # defaults survive an empty file
    assert parse_config("") == validate_config(ExperimentConfig())


def test_config_comments_and_whitespace():
    cfg = parse_config("# full line comment\n\n  seed = 3   # trailing\n\tm=11\n")
    assert cfg.seed == 3
    assert cfg.m == 11


def test_config_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2: unknown config key 'bogus'"):
        parse_config("seed = 1\nbogus = 2\n")
    # keys that earlier versions wrote into output headers
    for key in ("bowen_mode", "bowen_table", "series_t_hi", "threads", "branch_samples", "branch_r1"):
        with pytest.raises(ConfigError, match=f"line 1: unknown config key '{key}'"):
            parse_config(f"{key} = 1\n")
    with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
        parse_config("seed 1\n")


def test_config_type_errors():
    with pytest.raises(ConfigError, match="not a valid int"):
        parse_config("p = soup\n")
    with pytest.raises(ConfigError, match="not a valid float"):
        parse_config("eta = fast\n")
    with pytest.raises(ConfigError, match="integer list"):
        parse_config("box_scales = a,b\n")


@pytest.mark.parametrize("line,needle", [
    ("family = Weier", "family must be one of"),
    ("p = 0", "positive"),
    ("eta = 1.6", "pi/2"),
    ("m = 8", "odd"),
    ("lam = 1.5", r"\(0, 1\]"),
    ("lambda_min = 0.9\nlambda_max = 0.8", "lambda grid"),
    ("lambda_count = 1", "at least 2"),
    ("grid_resolution = 1", "at least 2"),
    ("max_iterations = 0", "positive"),
    ("grid_half_width = 0", "positive"),
    ("attraction_tol = 0", "positive"),
    ("family = G\neta = 1.6", "pi/2"),
    ("family = G\nm = 8", "odd"),
    ("guard_modulus = 1.0", "exceed 1"),
    ("guard_exits = 0", "at least 1"),
    ("branch_r0 = 0", "positive"),
    ("series_radius = 0", "positive"),
    ("box_scales = 0,2,4,8", "positive"),
    ("seed = -1", "nonnegative"),
])
def test_config_validation_messages(line, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(line + "\n")


def test_config_helpers():
    cfg = parse_config("family = Hm\nm = 11\np = 2\neta = 0.2\n")
    fam = cfg.to_family()
    assert (fam.tag, fam.m, fam.p, fam.eta) == ("Hm", 11, 2, 0.2)
    grid = parse_config("grid_resolution = 64\ngrid_half_width = 1.5\n").to_grid()
    assert grid.resolution == 64 and grid.half_width == 1.5
    assert parse_config("").box_scale_list() is None
    assert parse_config("box_scales = 4, 8,16\n").box_scale_list() == [4, 8, 16]


def test_config_defaults_come_from_the_objects():
    cfg = ExperimentConfig()
    assert cfg.to_family() == MapFamily(tag="FLambda")
    assert cfg.to_grid() == GridSpec()
    text = serialize_config(cfg)
    for line in ("p = 1", "eta = 0.3", "m = 9", "lam = 1.0", "grid_center_re = 0.0",
                 "grid_center_im = 0.0", "grid_half_width = 2.0", "grid_resolution = 512",
                 "max_iterations = 500", "attraction_tol = 1e-06"):
        assert line in text.splitlines()


def test_load_config_from_disk(tmp_path):
    path = write_config(tmp_path, "seed = 9\nm = 11\n")
    cfg = load_config(path)
    assert cfg.seed == 9 and cfg.m == 11


# ---------------------------------------------------------------------------
# CLI plumbing and exit codes


def test_cli_usage_errors_return_2(tmp_path, capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["verify", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "config error" in capsys.readouterr().err
    bad = write_config(tmp_path, "family = Weier\n")
    assert main(["render", "--config", bad]) == 2


def test_cli_compute_errors_return_1(tmp_path, capsys):
    # a dense-lattice family cannot enumerate poles out to a huge radius
    cfg = write_config(tmp_path, "family = G\nseries_radius = 1e5\n")
    assert main(["dim-upper", "--config", cfg, "--out", str(tmp_path / "u.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_verify_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "verify.txt"
    assert main(["verify", "--out", str(out), "--seed", "5"]) == 0
    stdout = capsys.readouterr().out
    match = re.search(r"verify: (\d+)/(\d+) checks passed", stdout)
    assert match is not None
    assert match.group(1) == match.group(2)
    assert int(match.group(2)) >= 30
    text = out.read_text(encoding="utf-8")
    assert text.startswith("# family = FLambda\n")
    assert "PASS" in text and "FAIL  " not in text


def test_cli_verify_report_reruns_from_its_header(tmp_path, capsys):
    # the header names the seed that drew the points, so a config made of it
    # draws them again
    first = tmp_path / "first.txt"
    assert main(["verify", "--seed", "5", "--out", str(first)]) == 0
    text = first.read_text(encoding="utf-8")
    assert "# seed = 5\n" in text
    header = "".join(line[2:] + "\n" for line in text.splitlines() if line.startswith("# "))
    again = tmp_path / "again.txt"
    assert main(["verify", "--config", write_config(tmp_path, header), "--out", str(again)]) == 0
    capsys.readouterr()
    assert again.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("seed", [264, 383, 653, 911])
def test_cli_verify_passes_on_seeds_that_probe_near_poles(seed, monkeypatch, capsys):
    # these seeds draw arcsin-branch points next to a 4-fold pole of H, where
    # the two branches' values differ by more than an absolute 1e-9 and only
    # the relative residual stays at rounding level
    deviations, evaluate = [], cli.eval_family_array

    def recorded(family, z):
        values, pole = evaluate(family, z)
        z = np.asarray(z, dtype=complex)
        if family.tag == "H" and np.any(z.imag != 0.0):  # the arcsin-branch pairs
            keep = ~(pole[:30] | pole[30:])
            deviations.append(float(np.max(np.abs(values[:30] - values[30:])[keep])))
        return values, pole

    monkeypatch.setattr(cli, "eval_family_array", recorded)
    assert main(["verify", "--seed", str(seed)]) == 0
    assert "FAIL  " not in capsys.readouterr().out
    assert len(deviations) == 1 and deviations[0] > 1e-9


def test_cli_seed_must_be_nonnegative(tmp_path, capsys):
    # the option and the config key reject a negative seed alike
    for argv in (["verify", "--seed", "-1"], ["--seed", "-1", "sweep"]):
        assert main(argv) == 2, argv
        assert "seed must be nonnegative" in capsys.readouterr().err
    assert main(["verify", "--seed", "x"]) == 2
    assert "invalid int value" in capsys.readouterr().err
    cfg = write_config(tmp_path, "seed = -1\n")
    assert main(["verify", "--config", cfg]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_cli_parser_help_and_option_order(monkeypatch, capsys):
    assert main(["--help"]) == 0
    help_text = capsys.readouterr().out
    for command in ("verify", "render", "sweep", "dim-lower", "dim-upper"):
        assert command in help_text
    assert main(["frobnicate", "--seed", "1"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    calls = []
    monkeypatch.setitem(cli._COMMANDS, "verify", lambda cfg, out: calls.append((out, cfg.seed)) or 0)
    assert main(["--seed", "7", "--out", "a.txt", "verify"]) == 0
    assert main(["verify", "--seed", "7", "--out", "a.txt"]) == 0
    assert main(["--seed", "7", "verify", "--out", "a.txt", "--threads", "3"]) == 0
    assert calls == [("a.txt", 7)] * 3


def test_cli_verify_leaves_numpy_random_unimported():
    # verify draws from the standard library's random: numpy.random costs
    # about 15 ms and 5 MB at start-up
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = ("import io, sys, contextlib, speiserdim.cli as c\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = c.main(['verify'])\n"
             "print(code, 'numpy.random' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.stdout.split() == ["0", "False"], run.stderr


def test_cli_import_stays_free_of_scipy():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # no scipy (a test-only oracle) and no concurrent.futures (renders run on one thread)
    probe = ("import sys, speiserdim.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True, timeout=60).stdout
    assert loaded.strip() == "[]"
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert [re.split(r"[<>=!~ ]", dep)[0] for dep in project["dependencies"]] == ["numpy"]


def test_cli_import_runs_on_one_thread():
    # a subprocess, since pytest has already imported numpy and started its BLAS pool
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    probe = ("import os, speiserdim.cli; "
             "print(os.environ['OPENBLAS_NUM_THREADS'], "
             "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1)")

    def run(env):
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout.split()
        return out[0], int(out[1])

    blas, threads = run(env)
    assert blas == "1"
    if threads >= 0:
        assert threads == 1
    assert run(dict(env, OPENBLAS_NUM_THREADS="3"))[0] == "3"



_TRACED_RUN = """
import sys, tracer
spans = tracer.Tracer()
tracer.install(spans)
from speiserdim import cli
for command in ("verify", "dim-lower", "dim-upper"):
    assert cli.main([command, "--out", sys.argv[1]]) == 0, command
print(" ".join(sorted({span[1] for span in spans.spans})))
"""


def test_perfbench_tracer_finds_every_name_it_wraps(tmp_path):
    # the traced bench wraps names in cli, dynamics and dimension; a refactor
    # that drops one, or stops calling it where it is wrapped, breaks only that
    # bench, so check here that the bounds workload's commands reach each span
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(tmp_path / "out.txt")],
                          env=env, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    spans = set(done.stdout.splitlines()[-1].split())
    assert {"families.enumerate_poles", "dimension.series_exponent", "dimension.estimate_branch_contractions",
            "dimension.solve_bowen", "dimension.eval_deriv_array"} <= spans

def test_cli_render_deterministic_pgm(tmp_path, capsys):
    cfg = write_config(tmp_path, (
        "grid_resolution = 48\nmax_iterations = 60\nlam = 1.0\n"
    ))
    out1, out2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    assert main(["render", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["render", "--config", cfg, "--out", str(out2), "--threads", "4"]) == 0
    blob = out1.read_bytes()
    assert blob == out2.read_bytes()
    assert blob.startswith(b"P5\n# family = FLambda\n")
    assert b"\n48 48\n255\n" in blob
    stdout = capsys.readouterr().out
    assert "render: wrote" in stdout and "attracted=" in stdout


SWEEP_HEADER = ("lam,fixed_point,multiplier,box_dim,box_lo,box_hi,K,holder_lo,"
                "holder_hi,astala_lo,astala_hi,sign_mismatch,status")


def test_cli_sweep_csv_structure(tmp_path):
    cfg = write_config(tmp_path, (
        "lambda_min = 0.85\nlambda_max = 1.0\nlambda_count = 3\n"
        "grid_resolution = 128\nmax_iterations = 80\n"
    ))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    comments = [l for l in lines if l.startswith("# ")]
    assert any(l == "# lambda_count = 3" for l in comments)
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == SWEEP_HEADER
    rows = [l.split(",") for l in body[1:]]
    assert len(rows) == 3
    assert all(len(r) == 13 for r in rows)
    assert rows[0][0] == "%.17g" % 0.85
    assert rows[0][6] == "nan"  # no previous row to compare against
    for row in rows:
        assert row[12] == "ok"
        assert float(row[2]) < 0.0  # attracting multipliers are negative here
        assert 0.0 <= float(row[3]) <= 2.0
    # later rows carry finite envelopes, sharper one nested in the wider one
    for row in rows[1:]:
        k = float(row[6])
        assert k >= 1.0
        assert float(row[7]) - 1e-12 <= float(row[9]) <= float(row[10]) <= float(row[8]) + 1e-12
    # reruns are byte-identical
    again = tmp_path / "sweep2.csv"
    assert main(["sweep", "--config", cfg, "--out", str(again)]) == 0
    assert again.read_text(encoding="utf-8").replace("sweep2", "sweep") == "\n".join(lines) + "\n"


def test_cli_sweep_reports_failed_rows_and_continues(tmp_path):
    # a huge guard plus a long budget classifies every pixel as attracted,
    # so box counting has no target; each row must fail in place
    cfg = write_config(tmp_path, (
        "lambda_min = 0.9\nlambda_max = 1.0\nlambda_count = 2\n"
        "grid_resolution = 64\nmax_iterations = 300\n"
        "guard_modulus = 1e12\nguard_exits = 3\n"
    ))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    body = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    rows = [l.split(",") for l in body[1:]]
    assert len(rows) == 2
    for row in rows:
        assert len(row) == 13
        assert row[12].startswith("failed: ")
        assert "," not in row[12]
        assert row[3] == "nan"


def test_cli_sweep_raises_program_errors(tmp_path, monkeypatch):
    # a bug is not a domain failure: it must not become a failed row
    def broken(*args, **kwargs):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr("speiserdim.cli.box_counting", broken)
    cfg = write_config(tmp_path, (
        "lambda_min = 0.9\nlambda_max = 1.0\nlambda_count = 2\n"
        "grid_resolution = 64\nmax_iterations = 30\n"
    ))
    out = tmp_path / "sweep.csv"
    with pytest.raises(ZeroDivisionError, match="float division by zero"):
        main(["sweep", "--config", cfg, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("error", [ZeroDivisionError("float division by zero"), ValueError("math domain error")])
def test_cli_program_errors_propagate_from_main(monkeypatch, error):
    # exit 1 is for the named domain errors; a bug, even a plain ValueError, keeps its traceback
    def broken(*args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "verify", broken)
    with pytest.raises(type(error)):
        main(["verify"])


def _package_errors():
    """Every exception class defined in a speiserdim module."""
    for info in pkgutil.iter_modules(speiserdim.__path__):
        module = importlib.import_module(f"speiserdim.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                yield obj


def test_cli_exit_1_errors_are_named_speiserdim_errors(monkeypatch, capsys):
    errors = list(_package_errors())
    # the root, ConfigError, PoleRangeError, six in dimension and two in dynamics
    assert len(errors) == 11
    for error in errors:
        assert issubclass(error, SpeiserdimError), error
        assert error is SpeiserdimError or issubclass(error, (ValueError, RuntimeError)), error

        def broken(*args, error=error):
            raise error("named failure")

        monkeypatch.setitem(cli._COMMANDS, "verify", broken)
        assert main(["verify"]) == (2 if error is ConfigError else 1), error
        assert "named failure" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    ("grid_resolution = 32\n", "grid_resolution"),
    ("grid_resolution = 64\nbox_scales = 4, 8, 16\n", "box_scales"),
])
def test_cli_sweep_rejects_too_few_box_scales_before_rendering(tmp_path, monkeypatch, capsys, text, key):
    renders = []
    monkeypatch.setattr("speiserdim.cli.render", lambda *args, **kwargs: renders.append(args))
    cfg = write_config(tmp_path, "lambda_min = 0.9\nlambda_max = 1.0\nlambda_count = 2\n" + text)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert key in err and "4 distinct scales" in err
    assert renders == []
    assert not out.exists()



def test_cli_dim_lower_rejects_a_base_index_past_branch_count(tmp_path, capsys):
    cfg = write_config(tmp_path, "branch_base_index = 50\n")
    out = tmp_path / "dim_lower.csv"
    assert main(["dim-lower", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "branch_base_index" in err and "branch_count" in err
    assert not out.exists()


def test_cli_dim_lower_names_branch_count_when_the_base_pole_lies_past_it(tmp_path, capsys):
    # the default FLambda's first admissible base pole is number 27
    cfg = write_config(tmp_path, "branch_count = 20\n")
    out = tmp_path / "dim_lower.csv"
    assert main(["dim-lower", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: base index 27 must satisfy 1 <= M < N = 20")
    assert "branch_count" in err
    assert not out.exists()


def test_cli_dim_lower_names_the_modulus_a_base_pole_needs(tmp_path, capsys):
    # G's |b| = e1^(-1/2) ~ 1.198 needs |a| > (1.198 / 0.24)^4 + 0.24 ~ 621,
    # about 120,000 poles deep, where branch_count enumerates 44
    cfg = write_config(tmp_path, "family = G\n")
    out = tmp_path / "dim_lower.csv"
    assert main(["dim-lower", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no admissible base pole among the 44 enumerated poles")
    assert "|a| > (|b|/r0)^q + r0, about 621.4 at r0 = 0.24" in err
    assert "branch_count" in err and "branch_r0" in err
    assert not out.exists()


def test_cli_dim_lower_runs_with_a_wider_base_disk(tmp_path):
    # r0 = 0.3 moves the first admissible base pole in to number 21
    out = tmp_path / "lower.csv"
    assert main(["dim-lower", "--config", write_config(tmp_path, "branch_r0 = 0.3\n"), "--out", str(out)]) == 0
    last = [l.split(",") for l in out.read_text(encoding="utf-8").splitlines() if l.startswith("bowen_lower,")][-1]
    assert round(float(last[1]), 4) == 0.3115
    assert last[4] == "set=J;branches=20;base=21;rejected=0"


def test_cli_sweep_row_after_a_zero_dimension_fails_in_place(tmp_path, monkeypatch):
    # a target inside one box at every scale has box dimension 0, where the
    # next row's continuity envelope is undefined
    point = np.zeros((64, 64), dtype=bool)
    point[3, 5] = True
    monkeypatch.setattr("speiserdim.cli.box_counting", lambda raster, scales: box_counting(point, scales))
    cfg = write_config(tmp_path, (
        "lambda_min = 0.9\nlambda_max = 1.0\nlambda_count = 2\n"
        "grid_resolution = 64\nmax_iterations = 30\n"
    ))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    body = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    first, second = (l.split(",") for l in body[1:])
    assert (first[3], first[12]) == ("0", "ok")
    assert second[12] == "failed: dim_lambda must lie in (0; 2]"


def test_cli_sweep_without_basin_disk_writes_the_same_csv(tmp_path, monkeypatch):
    # without a Koenigs limit the sweep keeps the attraction_tol rule
    cfg = write_config(tmp_path, (
        "lambda_min = 0.75\nlambda_max = 1.0\nlambda_count = 3\n"
        "grid_resolution = 128\nmax_iterations = 80\n"
    ))
    trapped = tmp_path / "trapped.csv"
    assert main(["sweep", "--config", cfg, "--out", str(trapped)]) == 0
    calls = []

    def fail(*args, **kwargs):
        calls.append(args)
        raise LinearizationDomainError("no Koenigs limit")

    monkeypatch.setattr("speiserdim.dynamics.koenigs_value", fail)
    plain = tmp_path / "plain.csv"
    assert main(["sweep", "--config", cfg, "--out", str(plain)]) == 0
    assert len(calls) == 3
    text = plain.read_text(encoding="utf-8")
    assert "failed" not in text
    assert text == trapped.read_text(encoding="utf-8")


def test_cli_verify_checks_the_basin_disk(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    assert re.search(r"^PASS  basin-disk-traps-orbits ", capsys.readouterr().out, re.M)


@pytest.mark.parametrize("text, formula", [
    ("", []),  # FLambda is not elliptic: 2q/(q+1) bounds no map of its class
    ("family = H\neta = 0.01\n", [["formula_lower", "1.6000000000000001", "1.6000000000000001", "2", "set=J;q=4"]]),
])
def test_cli_dim_lower_rows_name_their_set(tmp_path, text, formula):
    out = tmp_path / "lower.csv"
    assert main(["dim-lower", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    lines = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    assert lines[0] == "method,value,lo,hi,detail"
    rows = [l.split(",") for l in lines[1:]]
    assert [row[0] for row in rows[:3]] == ["bowen_lower"] * 3
    assert all(row[4].startswith("set=J;branches=") for row in rows[:3])
    assert rows[3:] == formula


def test_cli_dim_upper_rows(tmp_path):
    cfg = write_config(tmp_path, "family = Hm\nm = 9\nseries_radius = 1e60\n")
    out = tmp_path / "upper.csv"
    assert main(["dim-upper", "--config", cfg, "--out", str(out)]) == 0
    lines = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    assert lines[0] == "method,value,lo,hi,detail"
    rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
    assert set(rows) == {"series_upper", "formula_upper", "pole_count_per_log_radius"}
    series = rows["series_upper"]
    assert 0.0 <= float(series[1]) < 0.15
    assert float(series[2]) <= float(series[1]) <= float(series[3])
    assert series[4].startswith("set=I;poles=")
    # Hm has order 0, so 2M rho/(2 + M rho) is 0
    assert rows["formula_upper"][1:] == ["0", "0", "0", "set=I;M=4;rho=0"]
    density = rows["pole_count_per_log_radius"]
    assert float(density[1]) > 0.0
    assert "r_squared=" in density[4]


@pytest.mark.parametrize("text, value", [
    ("", "0"),  # the default FLambda has order 0
    ("family = G\nseries_radius = 300\n", "1.6000000000000001"),  # order 2: 2M/(M+1)
])
def test_cli_formula_upper_reads_the_stated_order(tmp_path, text, value):
    out = tmp_path / "upper.csv"
    assert main(["dim-upper", "--config", write_config(tmp_path, text), "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text(encoding="utf-8").splitlines() if l.startswith("formula_upper,")]
    assert [row[1] for row in rows] == [value]


def test_cli_seventeen_digit_floats(tmp_path):
    out = tmp_path / "lower.csv"
    assert main(["dim-lower", "--out", str(out)]) == 0
    lines = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    value = lines[1].split(",")[1]
    assert value == "%.17g" % float(value)
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 15

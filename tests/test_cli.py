"""Config parsing and the command-line front end."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from speiserdim import (
    ConfigError,
    ExperimentConfig,
    GridSpec,
    MapFamily,
    load_config,
    parse_config,
    serialize_config,
)
from speiserdim.cli import main
from speiserdim.config import validate_config


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
        bowen_mode="synthetic", box_scales="4,8,16,32", out="x.csv",
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
    ("bowen_mode = guess", "measured"),
    ("bowen_table = 1,100", "at least 2"),
    ("branch_r0 = 0.5\nbranch_r1 = 0.9", "2 - sqrt"),
    ("branch_samples = 4", "at least 8"),
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
    path = write_config(tmp_path, "seed = 9\nthreads = 2\n")
    cfg = load_config(path)
    assert cfg.seed == 9 and cfg.threads == 2


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


@pytest.mark.parametrize("seed", [130, 140, 282, 407])
def test_cli_verify_passes_on_seeds_that_probe_near_poles(seed, capsys):
    # these seeds draw arcsin-branch points next to a 4-fold pole of H,
    # where only a relative residual stays at rounding level
    assert main(["verify", "--seed", str(seed)]) == 0
    assert "FAIL  " not in capsys.readouterr().out


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


def test_cli_dim_lower_synthetic_table(tmp_path):
    cfg = write_config(tmp_path, (
        "bowen_mode = synthetic\nbowen_table = 50,200,800\n"
    ))
    out = tmp_path / "lower.csv"
    assert main(["dim-lower", "--config", cfg, "--out", str(out)]) == 0
    lines = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    assert lines[0] == "method,value,lo,hi,detail"
    rows = [l.split(",") for l in lines[1:]]
    synth = [r for r in rows if r[0] == "bowen_lower_synthetic"]
    assert len(synth) == 3
    values = [float(r[1]) for r in synth]
    assert values[0] < values[1] < values[2] < 2.0
    assert [r[4] for r in synth] == ["N=50;q=4", "N=200;q=4", "N=800;q=4"]
    formula = [r for r in rows if r[0] == "formula_lower"]
    assert len(formula) == 1
    assert float(formula[0][1]) == 1.6  # 2q/(q+1) at q = 4


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
    assert "poles=" in series[4]
    upper = rows["formula_upper"]
    assert 0.0 <= float(upper[1]) < 2.0
    assert "M=4" in upper[4]
    density = rows["pole_count_per_log_radius"]
    assert float(density[1]) > 0.0
    assert "r_squared=" in density[4]


def test_cli_seventeen_digit_floats(tmp_path):
    cfg = write_config(tmp_path, (
        "bowen_mode = synthetic\nbowen_table = 100,1000\n"
    ))
    out = tmp_path / "lower.csv"
    assert main(["dim-lower", "--config", cfg, "--out", str(out)]) == 0
    lines = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    value = lines[1].split(",")[1]
    assert value == "%.17g" % float(value)
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 15

import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dunklkit.cli import main, parse_preset
from dunklkit.errors import InvalidArgumentError
from dunklkit.report import VerificationReport, report_body_bytes

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

_NO_SCIPY = """
import sys
import dunklkit.cli
from dunklkit.errors import UnsupportedCaseError
from dunklkit.suites import SuiteConfig, run_suite, suite_names

for preset in ("z2:1", "z2:7/3", "z2xz2:1,2"):
    rs = dunklkit.cli.parse_preset(preset)
    for suite in suite_names():
        try:
            assert run_suite(SuiteConfig(suite=suite, rs=rs, label=preset, seed=0)).all_passed
        except UnsupportedCaseError:
            pass
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_scipy_module_loads():
    # a fresh interpreter: the test process itself may hold SciPy through other tests
    src = Path(importlib.util.find_spec("dunklkit").origin).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ----------------------------------------------------------------- presets


def test_parse_preset_line():
    rs = parse_preset("z2:7/3")
    assert rs.dimension == 1
    assert str(rs.gamma) == "7/3"


def test_parse_preset_product():
    rs = parse_preset("z2xz2:1,2")
    assert rs.dimension == 2


@pytest.mark.parametrize("bad", ["z2:nope", "z2:", "z2xz2:1", "z2xz2:1,2,3", "b2:1", "z2:1/0"])
def test_parse_preset_rejects(bad):
    with pytest.raises(InvalidArgumentError):
        parse_preset(bad)


# ----------------------------------------------------------------- run


def test_run_writes_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", "--suite", "normalization", "--preset", "z2:1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["suite"] == "normalization"
    assert doc["status"] == "pass"
    assert {"id", "anchor", "residual", "tol", "pass"} <= set(doc["checks"][0])
    assert "elapsed_ms" in doc and "env" in doc
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("[PASS]") for line in lines)


def test_run_writes_csv_report(tmp_path):
    out = tmp_path / "report.csv"
    code = main([
        "run", "--suite", "normalization", "--preset", "z2:2",
        "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    rows = _read_rows(out)
    assert rows[0] == ["id", "anchor", "residual", "tol", "pass"]
    assert len(rows) > 1


def test_run_without_out_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--suite", "normalization", "--preset", "z2:1"])
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def test_run_tol_override_controlled_failure(capsys):
    code = main(["run", "--suite", "normalization", "--preset", "z2:1", "--tol", "1e-300"])
    assert code == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_run_unsupported_configuration(capsys):
    # the distribution pairings need an integer multiplicity
    code = main(["run", "--suite", "distributions", "--preset", "z2:7/3"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_run_dimension_gate(capsys):
    code = main(["run", "--suite", "inversion", "--preset", "z2xz2:1,2"])
    assert code == 2
    assert "rank-one" in capsys.readouterr().err


def test_run_bad_preset(capsys):
    assert main(["run", "--suite", "kernel", "--preset", "z2:oops"]) == 2


def test_run_unknown_suite_rejected(capsys):
    assert main(["run", "--suite", "bogus", "--preset", "z2:1"]) == 2


def test_missing_subcommand(capsys):
    assert main([]) == 2


def test_run_requires_root_system(capsys):
    assert main(["run", "--suite", "kernel"]) == 2
    assert "root system" in capsys.readouterr().err


# ----------------------------------------------------------------- config files


def test_config_file_supplies_settings(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "r.json"
    cfg.write_text(json.dumps({
        "suite": "normalization", "preset": "z2:1", "out": str(out),
    }))
    assert main(["run", "--config", str(cfg)]) == 0
    assert json.loads(out.read_text())["suite"] == "normalization"


def test_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "normalization", "preset": "z2:1", "tol": 1e-300}))
    # config tolerance alone would fail; the flag must win
    assert main(["run", "--config", str(cfg), "--tol", "1.0"]) == 0
    assert main(["run", "--config", str(cfg)]) == 1


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "kernel", "preset": "z2:1", "gridn": 64}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("grid_n", "64"), ("grid_n", 64.5), ("grid_n", True), ("tol", "1e-3"), ("tol", False),
    ("seed", "x"), ("seed", 1.0), ("seed", None),
])
def test_config_value_of_the_wrong_type_is_refused_by_name(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "kernel", "preset": "z2:1", key: value}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must be ")


def test_config_inline_root_system(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "suite": "normalization",
        "root_system": {
            "dimension": 1,
            "positive_roots": [["1"]],
            "multiplicities": ["3/2"],
        },
    }))
    assert main(["run", "--config", str(cfg)]) == 0


def test_config_with_a_scaled_root_is_refused_by_name(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "suite": "transform",
        "root_system": {"dimension": 1, "positive_roots": [["2"]], "multiplicities": ["1"]},
    }))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "rescale each root to length 1" in capsys.readouterr().err


def test_config_missing_file(capsys):
    assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2


def test_config_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["run", "--config", str(cfg)]) == 2


# ----------------------------------------------------------------- plot


def test_plot_kernel_curve(tmp_path):
    report = tmp_path / "kernel.json"
    curve = tmp_path / "curve.csv"
    assert main(["run", "--suite", "kernel", "--preset", "z2:1", "--out", str(report)]) == 0
    assert main([
        "plot", "--report", str(report), "--quantity", "kernel-curve", "--out", str(curve),
    ]) == 0
    rows = _read_rows(curve)
    assert rows[0] == ["x", "re", "im"]
    assert len(rows) == 1 + 201
    xs = [float(r[0]) for r in rows[1:]]
    assert xs[0] == -5.0 and xs[-1] == 5.0


def test_plot_residual_curve(tmp_path):
    report = tmp_path / "ai.json"
    curve = tmp_path / "residuals.csv"
    assert main(["run", "--suite", "approx-identity", "--preset", "z2:1", "--out", str(report)]) == 0
    assert main([
        "plot", "--report", str(report), "--quantity", "residual-vs-eps", "--out", str(curve),
    ]) == 0
    rows = _read_rows(curve)
    assert len(rows) == 1 + 4
    eps = [float(r[0]) for r in rows[1:]]
    assert eps == sorted(eps, reverse=True)


def test_plot_unknown_quantity_creates_no_file(tmp_path, capsys):
    report = tmp_path / "kernel.json"
    missing = tmp_path / "nope.csv"
    assert main(["run", "--suite", "kernel", "--preset", "z2:1", "--out", str(report)]) == 0
    code = main(["plot", "--report", str(report), "--quantity", "bogus", "--out", str(missing)])
    assert code == 2
    assert not missing.exists()
    assert "available:" in capsys.readouterr().err


def test_plot_report_without_curves(tmp_path, capsys):
    report = tmp_path / "norm.json"
    assert main(["run", "--suite", "normalization", "--preset", "z2:1", "--out", str(report)]) == 0
    assert main(["plot", "--report", str(report), "--quantity", "kernel-curve"]) == 2


def test_plot_to_stdout(tmp_path, capsys):
    report = tmp_path / "kernel.json"
    assert main(["run", "--suite", "kernel", "--preset", "z2:1", "--out", str(report)]) == 0
    capsys.readouterr()
    assert main(["plot", "--report", str(report), "--quantity", "kernel-curve"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "x,re,im"


# ----------------------------------------------------------------- determinism


def test_same_seed_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "--suite", "kernel", "--preset", "z2:1", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    body_a = report_body_bytes(json.loads(a.read_text()))
    body_b = report_body_bytes(json.loads(b.read_text()))
    assert body_a == body_b


def test_different_seed_changes_sampled_residuals(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--suite", "kernel", "--preset", "z2:1", "--seed", "1", "--out", str(a)]) == 0
    assert main(["run", "--suite", "kernel", "--preset", "z2:1", "--seed", "2", "--out", str(b)]) == 0
    assert report_body_bytes(json.loads(a.read_text())) != report_body_bytes(json.loads(b.read_text()))


# ----------------------------------------------------------------- suite sweep script


def test_run_all_suites_prints_a_nan_residual(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_all_suites", SCRIPTS / "run_all_suites.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    report = VerificationReport("support")
    report.add("finite", "a finite residual", 0.5, 1.0)
    report.add("not-a-number", "a NaN residual after a finite one", float("nan"), 1.0)
    monkeypatch.setattr(script, "run_suite", lambda config: report)
    assert script.main(["--presets", "z2:1", "--suites", "support"]) == 1
    assert "max residual nan" in capsys.readouterr().out


@pytest.mark.parametrize("residual, code", [(0.5, 0), (2.0, 1)])
def test_run_all_suites_ends_with_the_peak_rss(residual, code, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_all_suites", SCRIPTS / "run_all_suites.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    report = VerificationReport("support")
    report.add("one", "a residual against tolerance 1", residual, 1.0)
    monkeypatch.setattr(script, "run_suite", lambda config: report)
    assert script.main(["--presets", "z2:1", "--suites", "support"]) == code
    words = capsys.readouterr().out.splitlines()[-1].split()
    assert words[:2] == ["peak", "RSS"] and words[3] == "MiB" and float(words[2]) > 0


def test_convergence_study_prints_a_nan_residual(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("convergence_study", SCRIPTS / "convergence_study.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    report = VerificationReport("support")
    report.add("finite", "a finite residual", 0.5, 1.0)
    report.add("not-a-number", "a NaN residual after a finite one", float("nan"), 1.0)
    monkeypatch.setattr(script, "run_suite", lambda config: report)
    assert script.main(["--suite", "support", "--grids", "48"]) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["48", "nan", "fail"] == rows[-1][:3]


def test_convergence_study_runs_a_small_grid(capsys):
    spec = importlib.util.spec_from_file_location("convergence_study", SCRIPTS / "convergence_study.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--suite", "support", "--grids", "48"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["48", "pass"] == [rows[-1][0], rows[-1][2]]

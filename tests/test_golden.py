"""Every technique reproduces its committed golden report byte for byte.

The goldens in tests/golden/ fix one small config and seed per technique
(`tests/golden/generate.py` writes them). A refactor that keeps "same
behaviour" must draw the same uniforms in the same order and compute the same
floats, so every report byte except the wall clock must match. Each golden is
reproduced twice: from its config file, and from the technique's CLI flags.
Every help text at COLUMNS=80 reproduces its copy in tests/golden/help/,
written by `COLUMNS=80 dynexec [<command>] --help > help/<command or dynexec>.txt`.
"""

import json
import os
import shutil

import pytest

from dynexec import core
from dynexec.cli import load_config, main, run, write_report

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
NAMES = sorted(f[:-len(".config.json")] for f in os.listdir(GOLDEN) if f.endswith(".config.json"))


def _without_wall_clock(text):
    return [line for line in text.splitlines(keepends=True)
            if not line.startswith(' "wall_clock_ms": ')]


def test_every_technique_has_a_golden():
    techniques = {load_config(os.path.join(GOLDEN, f"{name}.config.json"))["technique"] for name in NAMES}
    assert techniques == {"specdec", "eagle", "lookahead", "early-exit", "stepsaver", "route"}


def _assert_reproduces_golden(config, out):
    with open(os.path.join(GOLDEN, config["report"])) as fh:
        expected = fh.read()
    with open(out) as fh:
        actual = fh.read()
    assert _without_wall_clock(actual) == _without_wall_clock(expected)
    if config["report"].endswith(".json"):
        assert len(_without_wall_clock(expected)) == len(expected.splitlines()) - 1


def _flags(params):
    """The CLI flags for a config's params: --key with '-' for '_', lists comma-joined."""
    flags = []
    for key, value in params.items():
        text = ",".join(map(repr, value)) if isinstance(value, list) else str(value)
        flags.append(f"--{key.replace('_', '-')}={text}")
    return flags


@pytest.mark.parametrize("name", NAMES)
def test_golden_report_reproduced(tmp_path, name):
    config = load_config(os.path.join(GOLDEN, f"{name}.config.json"))
    out = str(tmp_path / config["report"])
    write_report(run(config, base_dir=GOLDEN), out)
    _assert_reproduces_golden(config, out)


@pytest.mark.parametrize("name", NAMES)
def test_golden_report_reproduced_from_flags(tmp_path, monkeypatch, name):
    # every schema key has a flag: the validated config lists each one, defaults included
    config = load_config(os.path.join(GOLDEN, f"{name}.config.json"))
    shutil.copytree(os.path.join(GOLDEN, "inputs"), tmp_path / "inputs")
    monkeypatch.chdir(tmp_path)
    argv = [config["technique"], *_flags(config["params"]),
            "--seed", str(config["master_seed"]), "--report", config["report"]]
    assert main(argv) == 0
    _assert_reproduces_golden(config, str(tmp_path / config["report"]))


def test_golden_reports_reproduced_cold_and_warm(tmp_path):
    # the second run of each config finds every input it reads already loaded
    core._loaded.clear()
    for _ in range(2):
        for name in NAMES:
            config = load_config(os.path.join(GOLDEN, f"{name}.config.json"))
            out = str(tmp_path / config["report"])
            write_report(run(config, base_dir=GOLDEN), out)
            _assert_reproduces_golden(config, out)
    assert len(core._loaded) == len(os.listdir(os.path.join(GOLDEN, "inputs")))


@pytest.mark.parametrize("name", ["early-exit", "route", "stepsaver"])
def test_sweep_metrics_are_the_report_rows(name):
    # a sweep's report is its CSV rows, so the run computes nothing else
    config = load_config(os.path.join(GOLDEN, f"{name}.config.json"))
    assert config["technique"] == name
    assert run(config, base_dir=GOLDEN).metrics.keys() == {"rows"}


@pytest.mark.parametrize("report, kind, xcol, ycol", [
    ("early-exit.csv", "tau-vs-accuracy", "tau", "accuracy"),
    ("stepsaver.csv", "difficulty-vs-steps", "difficulty", "steps_used"),
    ("specdec.json", "k-vs-speedup", "k", "simulated_speedup"),
    ("specdec-feature.json", "k-vs-speedup", "k", "simulated_speedup"),
    ("eagle.json", "k-vs-speedup", "k", "simulated_speedup"),
])
def test_plot_of_every_golden_report(tmp_path, report, kind, xcol, ycol):
    path = os.path.join(GOLDEN, report)
    with open(path) as fh:
        text = fh.read()
    if report.endswith(".csv"):  # no golden cell holds a comma or a quote
        header, *lines = text.split("\n")[:-1]
        columns = header.split(",")
        cells = [line.split(",") for line in lines]
        series = [(float(c[columns.index(xcol)]), float(c[columns.index(ycol)])) for c in cells]
    else:
        metrics = json.loads(text)["metrics"]
        series = [(metrics[xcol], metrics[ycol])]
    expected = "".join(f"{x!r} {y!r}\n" for x, y in sorted(series, key=lambda p: p[0]))
    out = tmp_path / "xy.txt"
    assert main(["plot", "--report", path, "--kind", kind, "--out", str(out)]) == 0
    assert out.read_text() == expected


@pytest.mark.parametrize("name", sorted(f[:-len(".txt")] for f in os.listdir(os.path.join(GOLDEN, "help"))))
def test_help_text_reproduced(monkeypatch, capsys, name):
    # `dynexec --help` is help/dynexec.txt; `dynexec <command> --help` is help/<command>.txt
    monkeypatch.setenv("COLUMNS", "80")
    assert main(([] if name == "dynexec" else [name]) + ["--help"]) == 0
    with open(os.path.join(GOLDEN, "help", f"{name}.txt")) as fh:
        assert capsys.readouterr().out == fh.read()

"""Every technique reproduces its committed golden report byte for byte.

The goldens in tests/golden/ fix one small config and seed per technique
(`tests/golden/generate.py` writes them). A refactor that keeps "same
behaviour" must draw the same uniforms in the same order and compute the same
floats, so every report byte except the wall clock must match.
"""

import os

import pytest

from dynexec.cli import load_config, run, write_report

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
NAMES = sorted(f[:-len(".config.json")] for f in os.listdir(GOLDEN) if f.endswith(".config.json"))


def _without_wall_clock(text):
    return [line for line in text.splitlines(keepends=True)
            if not line.startswith(' "wall_clock_ms": ')]


def test_every_technique_has_a_golden():
    techniques = {load_config(os.path.join(GOLDEN, f"{name}.config.json"))["technique"] for name in NAMES}
    assert techniques == {"specdec", "eagle", "lookahead", "early-exit", "stepsaver", "route"}


@pytest.mark.parametrize("name", NAMES)
def test_golden_report_reproduced(tmp_path, name):
    config = load_config(os.path.join(GOLDEN, f"{name}.config.json"))
    out = str(tmp_path / config["report"])
    write_report(run(config, base_dir=GOLDEN), out)
    with open(os.path.join(GOLDEN, config["report"])) as fh:
        expected = fh.read()
    with open(out) as fh:
        actual = fh.read()
    assert _without_wall_clock(actual) == _without_wall_clock(expected)
    if config["report"].endswith(".json"):
        assert len(_without_wall_clock(expected)) == len(expected.splitlines()) - 1

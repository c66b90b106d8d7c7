import json
import math
import os
import re
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from dynexec import Rng, cli
from dynexec.cli import (
    _SCHEMAS,
    DEFAULT_TAUS,
    RunReport,
    emit_plot_data,
    load_config,
    main,
    resolve_seed,
    run,
    validate_config,
    write_report,
)
from dynexec.core import ELEMENT_BUDGET, load_model, save_model
from dynexec.earlyexit import MAX_POINTS
from dynexec.lookahead import MAX_NGRAM
from dynexec.errors import MissingSeries, ParseError, SchemaError
from dynexec.specdec import MAX_DRAFT, MAX_TOKENS
from dynexec.stepsaver import MAX_COMPONENTS, MAX_SAMPLES, MAX_SPEC_LOAD

from helpers import random_table_model, random_feature_model, skewed_workload, route_workload


@pytest.fixture
def model_files(tmp_path):
    rng = Rng(88)
    small = random_table_model(4, 1, rng.child(0), cost_units=1.0)
    large = random_table_model(4, 2, rng.child(1), cost_units=8.0)
    feature = random_feature_model(3, 4, rng.child(2))
    paths = {}
    for name, model in (("small", small), ("large", large), ("feature", feature)):
        path = str(tmp_path / f"{name}.json")
        save_model(model, path)
        paths[name] = path
    items = route_workload(12, small, large, rng.child(3))
    route_path = str(tmp_path / "route_workload.json")
    with open(route_path, "w") as fh:
        json.dump({"items": [{"prompt": list(i.prompt), "continuation": list(i.reference_continuation)}
                             for i in items]}, fh)
    paths["route_workload"] = route_path
    mix_path = str(tmp_path / "mix_workload.json")
    specs = skewed_workload()[:6]
    with open(mix_path, "w") as fh:
        json.dump({"specs": [{"id": sid, "components": [list(c) for c in spec.components]}
                             for sid, spec in specs]}, fh)
    paths["mix_workload"] = mix_path
    return paths


def _write_config(tmp_path, doc, name="config.json"):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def test_load_config_fills_defaults(tmp_path, model_files):
    path = _write_config(tmp_path, {
        "technique": "specdec",
        "params": {"target": model_files["large"], "draft": model_files["small"]},
    })
    config = load_config(path)
    assert config["params"]["k"] == 4
    assert config["params"]["n"] == 64
    assert config["params"]["prompt"] == [0]
    assert config["master_seed"] is None


def test_load_config_rejects_unknown_key(tmp_path, model_files):
    path = _write_config(tmp_path, {
        "technique": "specdec",
        "params": {"target": model_files["large"], "draft": model_files["small"], "speed": 9},
    })
    with pytest.raises(SchemaError) as err:
        load_config(path)
    assert "speed" in str(err.value)
    assert err.value.key == "speed"


def test_load_config_rejects_unknown_top_level_key(tmp_path):
    path = _write_config(tmp_path, {"technique": "specdec", "params": {}, "velocity": 1})
    with pytest.raises(SchemaError) as err:
        load_config(path)
    assert err.value.key == "velocity"


def test_load_config_missing_required(tmp_path):
    path = _write_config(tmp_path, {"technique": "specdec", "params": {"target": "t.json"}})
    with pytest.raises(SchemaError) as err:
        load_config(path)
    assert err.value.key == "draft"


def test_load_config_parse_error_has_position(tmp_path):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as fh:
        fh.write('{"technique": "specdec",\n  "params": {,}}\n')
    with pytest.raises(ParseError) as err:
        load_config(path)
    assert err.value.line == 2
    assert err.value.column is not None


def test_config_roundtrip_canonical(tmp_path, model_files):
    path = _write_config(tmp_path, {
        "technique": "lookahead",
        "master_seed": 7,
        "report": "out.json",
        "params": {"model": model_files["small"], "n": 8},
    })
    config = load_config(path)
    replay = _write_config(tmp_path, config, name="replay.json")
    assert json.dumps(load_config(replay), sort_keys=True) == json.dumps(config, sort_keys=True)


def test_type_checks(tmp_path, model_files):
    path = _write_config(tmp_path, {
        "technique": "specdec",
        "params": {"target": model_files["large"], "draft": model_files["small"], "k": "four"},
    })
    with pytest.raises(SchemaError):
        load_config(path)
    for taus in ([], [0.1, 10**400]):
        path = _write_config(tmp_path, {
            "technique": "early-exit",
            "params": {"taus": taus},
        })
        with pytest.raises(SchemaError):
            load_config(path)


def test_seed_precedence(monkeypatch):
    config = {"technique": "specdec", "master_seed": 5, "params": {}}
    assert resolve_seed(config, seed_override=9) == 9
    assert resolve_seed(config) == 5
    monkeypatch.setenv("DYNEXEC_SEED", "33")
    assert resolve_seed({"technique": "specdec", "master_seed": None, "params": {}}) == 33
    monkeypatch.delenv("DYNEXEC_SEED")
    assert resolve_seed({"technique": "specdec", "master_seed": None, "params": {}}) == 0


def test_run_deterministic_metrics(model_files):
    config = validate_config({
        "technique": "specdec",
        "master_seed": 11,
        "params": {"target": model_files["large"], "draft": model_files["small"],
                   "k": 2, "n": 24},
    })
    r1 = run(config)
    r2 = run(config)
    assert json.dumps(r1.metrics, sort_keys=True) == json.dumps(r2.metrics, sort_keys=True)
    assert r1.config["master_seed"] == 11


def test_run_draft_equals_target_full_acceptance(model_files):
    config = validate_config({
        "technique": "specdec",
        "master_seed": 3,
        "params": {"target": model_files["large"], "draft": model_files["large"],
                   "k": 3, "n": 12},
    })
    report = run(config)
    assert report.metrics["acceptance_rate"] == 1.0


def test_concurrent_runs_match_sequential(model_files):
    configs = [validate_config({
        "technique": "specdec",
        "master_seed": seed,
        "params": {"target": model_files["large"], "draft": model_files["small"],
                   "k": 2, "n": 16},
    }) for seed in (1, 2, 3, 4)]
    sequential = [json.dumps(run(c).metrics, sort_keys=True) for c in configs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = [json.dumps(r.metrics, sort_keys=True)
                      for r in pool.map(run, configs)]
    assert sequential == concurrent


def test_cli_specdec_end_to_end(tmp_path, model_files):
    out = str(tmp_path / "sd.json")
    rc = main(["specdec", "--target", model_files["large"], "--draft", model_files["small"],
               "--k", "2", "--n", "16", "--seed", "5", "--report", out])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["version"] == "dynexec 0.1.0"
    for field in ("tokens_generated", "target_calls", "draft_calls", "cycles",
                  "acceptance_rate", "tokens_per_target_call", "simulated_speedup"):
        assert field in doc["metrics"]
    assert doc["config"]["master_seed"] == 5


def test_cli_eagle_end_to_end(tmp_path, model_files):
    out = str(tmp_path / "eagle.json")
    rc = main(["eagle", "--model", model_files["feature"], "--fit-seqs", "24",
               "--fit-len", "8", "--k", "2", "--n", "12", "--seed", "4", "--report", out])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["metrics"]["tokens_generated"] == 12


def test_cli_lookahead_end_to_end(tmp_path, model_files):
    out = str(tmp_path / "la.json")
    rc = main(["lookahead", "--model", model_files["small"], "--n", "16",
               "--ngram", "2", "--window", "3", "--seed", "1", "--report", out])
    assert rc == 0
    doc = json.load(open(out))
    assert doc["metrics"]["target_calls"] <= doc["metrics"]["tokens_generated"]


def test_cli_early_exit_csv(tmp_path):
    out = str(tmp_path / "ee.csv")
    rc = main(["early-exit", "--count", "600", "--hard-fraction", "0.2",
               "--taus", "0,0.2,0.4,0.6,0.75", "--seed", "2", "--report", out])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "tau,accuracy,mean_cost,early_exit_fraction,speedup"
    assert len(lines) == 6


def test_cli_route_csv(tmp_path, model_files):
    out = str(tmp_path / "route.csv")
    rc = main(["route", "--small", model_files["small"], "--large", model_files["large"],
               "--workload", model_files["route_workload"],
               "--thetas=-1,0.5,1.0,inf", "--report", out])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "theta,fraction_large,total_cost,mean_quality"
    assert len(lines) == 5


def test_cli_stepsaver_csv(tmp_path, model_files):
    out = str(tmp_path / "ss.csv")
    rc = main(["stepsaver", "--workload", model_files["mix_workload"], "--epsilon", "0.2",
               "--count", "600", "--seed", "6", "--report", out])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "spec_id,difficulty,steps_used,w1,baseline_w1,throughput_ratio"
    assert len(lines) == 7


def test_cli_run_config_with_relative_paths(tmp_path, model_files):
    config_path = _write_config(tmp_path, {
        "technique": "specdec",
        "master_seed": 21,
        "report": "from_config.json",
        "params": {"target": os.path.basename(model_files["large"]),
                   "draft": os.path.basename(model_files["small"]), "n": 8, "k": 2},
    })
    rc = main(["run", "--config", config_path])
    assert rc == 0
    assert os.path.exists(str(tmp_path / "from_config.json"))


def test_cli_run_config_csv_technique_relative_paths(tmp_path, model_files):
    config_path = _write_config(tmp_path, {
        "technique": "route",
        "master_seed": 3,
        "report": "route_rel.csv",
        "params": {"small": os.path.basename(model_files["small"]),
                   "large": os.path.basename(model_files["large"]),
                   "workload": os.path.basename(model_files["route_workload"]),
                   "thetas": [-1.0, 0.5, 1e18]},
    }, name="route_cfg.json")
    assert main(["run", "--config", config_path]) == 0
    lines = open(str(tmp_path / "route_rel.csv")).read().splitlines()
    assert lines[0] == "theta,fraction_large,total_cost,mean_quality"
    assert len(lines) == 4


def test_cli_seed_override(tmp_path, model_files):
    config_path = _write_config(tmp_path, {
        "technique": "specdec",
        "master_seed": 21,
        "report": "a.json",
        "params": {"target": model_files["large"], "draft": model_files["small"], "n": 8},
    })
    main(["run", "--config", config_path, "--seed", "99"])
    doc = json.load(open(str(tmp_path / "a.json")))
    assert doc["config"]["master_seed"] == 99


def test_cli_exit_codes(tmp_path, model_files):
    # validation error: unknown key
    bad = _write_config(tmp_path, {"technique": "specdec", "report": "x.json",
                                   "params": {"speed": 1}})
    assert main(["run", "--config", bad]) == 1
    # validation error: missing file
    assert main(["specdec", "--target", "/nonexistent.json", "--draft", "/nonexistent.json",
                 "--report", str(tmp_path / "x.json")]) == 1
    # validation error: k must be >= 1
    cfg = _write_config(tmp_path, {
        "technique": "specdec", "report": "y.json",
        "params": {"target": model_files["large"], "draft": model_files["small"], "k": 0},
    }, name="k0.json")
    assert main(["run", "--config", cfg]) == 1
    # validation error: target and draft vocabularies differ
    cfg = _write_config(tmp_path, {
        "technique": "specdec", "report": "y.json",
        "params": {"target": model_files["large"], "draft": model_files["feature"]},
    }, name="vocab.json")
    assert main(["run", "--config", cfg]) == 1
    # argparse usage error maps to validation
    assert main(["specdec", "--bogus"]) == 1


@pytest.mark.parametrize("technique, flags, key", [
    ("specdec", ["--k", "0"], "k"),
    ("specdec", ["--n", "0"], "n"),
    ("specdec", ["--prompt", "0,4"], "prompt"),
    ("specdec", ["--target", "FEATURE", "--draft", "FEATURE", "--prompt", ""], "prompt"),
    ("eagle", ["--k", "-1"], "k"),
    ("eagle", ["--prompt", "3"], "prompt"),
    ("eagle", ["--prompt", ""], "prompt"),
    ("eagle", ["--fit-seqs", "0"], "fit_seqs"),
    ("eagle", ["--fit-len", "1"], "fit_len"),
    ("lookahead", ["--n", "0"], "n"),
    ("lookahead", ["--prompt", "-1"], "prompt"),
    ("lookahead", ["--ngram", "1"], "ngram"),
    ("lookahead", ["--window", "0"], "window"),
    ("eagle", ["--fit-seqs", "2", "--fit-len", "2"], "fit_seqs"),
    ("eagle", ["--ridge", "-1"], "ridge"),
    ("eagle", ["--ridge", "nan"], "ridge"),
    ("eagle", ["--draft-cost-factor", "-1"], "draft_cost_factor"),
    ("eagle", ["--draft-cost-factor", "inf"], "draft_cost_factor"),
    ("specdec", ["--draft", "FEATURE"], "draft"),  # a vocabulary of 3 against the target's 4
])
def test_cli_rejects_bad_decoder_input_by_name(tmp_path, model_files, capsys, technique, flags, key):
    models = {"specdec": ["--target", model_files["large"], "--draft", model_files["small"]],
              "eagle": ["--model", model_files["feature"]],
              "lookahead": ["--model", model_files["large"]]}[technique]
    flags = [model_files["feature"] if f == "FEATURE" else f for f in flags]
    out = tmp_path / "out.json"
    assert main([technique, *models, *flags, "--report", str(out)]) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("technique, flags, key", [
    ("early-exit", ["--hard-fraction", "2"], "hard_fraction"),
    ("early-exit", ["--hard-fraction", "-0.1"], "hard_fraction"),
    ("early-exit", ["--count", "99"], "count"),
    ("early-exit", ["--taus", "0,nan,0.1"], "taus"),
    ("stepsaver", ["--epsilon", "0"], "epsilon"),
    ("stepsaver", ["--epsilon", "-1"], "epsilon"),
    ("stepsaver", ["--epsilon", "inf"], "epsilon"),
    ("stepsaver", ["--train-frac", "1.5"], "train_frac"),
    ("stepsaver", ["--count", "0"], "count"),
    ("stepsaver", ["--steps", "0"], "steps"),
    ("route", ["--thetas", "nan"], "thetas"),
    ("route", ["--thetas=-inf,nan,inf"], "thetas"),
    ("stepsaver", ["--steps", "100000"], "steps"),  # the schedule's cumulative product underflows
    ("early-exit", ["--taus", ",".join(["0"] * (ELEMENT_BUDGET // 128 + 1))], "taus"),  # one past the ceiling
])
def test_cli_rejects_bad_sweep_input_by_name(tmp_path, model_files, capsys, technique, flags, key):
    inputs = {"early-exit": [],
              "stepsaver": ["--workload", model_files["mix_workload"]],
              "route": ["--small", model_files["small"], "--large", model_files["large"],
                        "--workload", model_files["route_workload"]]}[technique]
    out = tmp_path / "out.csv"
    assert main([technique, *inputs, *flags, "--report", str(out)]) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_huge_steps_by_name_before_allocating(tmp_path, model_files, capsys):
    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        rc = main(["stepsaver", "--workload", model_files["mix_workload"], "--steps", "10000000000000",
                   "--report", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert "'steps'" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 2**20  # no T-length array, not even one refused by the allocator


def test_cli_rejects_count_past_max_points_before_allocating(tmp_path, capsys):
    assert validate_config({"technique": "early-exit", "params": {"count": MAX_POINTS}})["params"]["count"] == MAX_POINTS
    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        rc = main(["early-exit", "--count", str(MAX_POINTS + 1), "--report", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert f"'count' must be >= 100 and <= {MAX_POINTS}" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 2**20  # no point array, not even one refused by the allocator


@pytest.mark.parametrize("technique, key, ceiling", [
    ("specdec", "n", MAX_TOKENS),
    ("specdec", "k", MAX_DRAFT),
    ("eagle", "n", MAX_TOKENS),
    ("eagle", "k", MAX_DRAFT),
    ("lookahead", "n", MAX_TOKENS),
])
def test_cli_rejects_decoder_sizes_past_their_ceiling_before_allocating(tmp_path, model_files, capsys,
                                                                        technique, key, ceiling):
    models = {"specdec": {"target": model_files["large"], "draft": model_files["small"]},
              "eagle": {"model": model_files["feature"]},
              "lookahead": {"model": model_files["large"]}}[technique]
    assert validate_config({"technique": technique, "params": {**models, key: ceiling}})["params"][key] == ceiling
    flags = [arg for name, path in models.items() for arg in ("--" + name, path)]
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        rc = main([technique, *flags, "--" + key, str(ceiling + 1), "--report", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert f"'{key}' must be >= 1 and <= {ceiling}, got {ceiling + 1}" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 2**20  # no model loaded and no token decoded


@pytest.mark.parametrize("technique, key, rule, ceiling", [
    pytest.param("stepsaver", "count", ">= 1", MAX_SAMPLES, id="stepsaver-count"),
    pytest.param("lookahead", "ngram", ">= 2", MAX_NGRAM, id="lookahead-ngram"),
    pytest.param("lookahead", "window", ">= 1", MAX_DRAFT, id="lookahead-window"),
])
def test_cli_rejects_sizes_past_their_ceiling_before_allocating(tmp_path, model_files, capsys,
                                                                technique, key, rule, ceiling):
    inputs = {"stepsaver": {"workload": model_files["mix_workload"]},
              "lookahead": {"model": model_files["large"]}}[technique]
    assert validate_config({"technique": technique, "params": {**inputs, key: ceiling}})["params"][key] == ceiling
    flags = [arg for name, path in inputs.items() for arg in ("--" + name, path)]
    out = tmp_path / "out.report"
    for value in (ceiling + 1, 10**17):
        tracemalloc.start()
        try:
            rc = main([technique, *flags, "--" + key, str(value), "--report", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert f"'{key}' must be {rule} and <= {ceiling}, got {value}" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 2**20  # no input loaded and no sample drawn or token decoded


@pytest.mark.parametrize("technique", ["specdec", "lookahead"])
@pytest.mark.parametrize("edit, row", [
    pytest.param({"table": {"0": [0.2] * 5}}, "table row (0,) has 5 entries", id="row-too-long"),
    pytest.param({"table": {"0": [0.5, 0.5, 0.0]}}, "table row (0,) has 3 entries", id="row-too-short"),
    pytest.param({"fallback": [0.2] * 5}, "fallback has 5 entries", id="fallback-too-long"),
])
def test_cli_rejects_table_rows_not_of_vocab_size(tmp_path, model_files, capsys, technique, edit, row):
    doc = json.load(open(model_files["small"]))  # vocabulary of 4, order 1
    for key, value in edit.items():
        doc[key] = {**doc[key], **value} if key == "table" else value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    models = ["--target", str(path), "--draft", str(path)] if technique == "specdec" else ["--model", str(path)]
    assert main([technique, *models, "--n", "8", "--report", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"malformed model file {path}: {row}, not the vocabulary size 4" in err
    assert not out.exists()


class _Reached(Exception):
    """Raised by a stub of the step after a check: the run got past the check."""


def _reach(*args):
    raise _Reached


def test_cli_rejects_an_eagle_fit_past_the_budget_before_allocating(tmp_path, model_files, capsys, monkeypatch):
    model = load_model(model_files["feature"])
    ceiling = ELEMENT_BUDGET // (8 * (16 * model.dim + model.vocab_size))  # at the default fit_len of 16
    out = tmp_path / "out.json"
    monkeypatch.setattr(cli, "sample_corpus", _reach)
    with pytest.raises(_Reached):  # the ceiling passes the check, and the corpus would be sampled
        main(["eagle", "--model", model_files["feature"], "--fit-seqs", str(ceiling), "--report", str(out)])
    for value in (ceiling + 1, 10**16):
        tracemalloc.start()
        try:
            rc = main(["eagle", "--model", model_files["feature"], "--fit-seqs", str(value), "--report", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert "key 'fit_seqs' gives a fit of" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 2**20  # no corpus drawn, not even one refused by the allocator


def test_cli_rejects_a_stepsaver_workload_past_the_budget_before_any_chain(tmp_path, capsys, monkeypatch):
    count = MAX_SPEC_LOAD // 64 - 4  # with --steps 1, 64 specs reach the ceiling exactly
    out = tmp_path / "out.csv"

    def run_on(n_specs):
        path = tmp_path / f"specs{n_specs}.json"
        path.write_text(json.dumps({"specs": [{"id": f"s{i}", "components": [[1.0, 0.0, 1.0]]}
                                              for i in range(n_specs)]}))
        return main(["stepsaver", "--workload", str(path), "--count", str(count), "--steps", "1",
                     "--report", str(out)])

    monkeypatch.setattr(cli, "train_and_evaluate", _reach)
    with pytest.raises(_Reached):  # the ceiling passes the check, and the chains would run
        run_on(64)
    tracemalloc.start()
    try:
        rc = run_on(65)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert "key 'workload' names 65 specs" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 2**20  # no chain run and no sample drawn


def test_cli_rejects_a_wide_stepsaver_spec_past_the_budget_before_any_draw(tmp_path, capsys, monkeypatch):
    count = ELEMENT_BUDGET // 8 // 64  # a spec of 64 components reaches the budget exactly
    out = tmp_path / "out.csv"

    def run_on(components):
        wide = {"id": "wide", "components": [[1 / components, float(j), 1.0] for j in range(components)]}
        path = tmp_path / f"specs{components}.json"
        path.write_text(json.dumps({"specs": [{"id": f"s{i}", "components": [[1.0, 0.0, 1.0]]} for i in range(4)]
                                    + [wide]}))
        return main(["stepsaver", "--workload", str(path), "--count", str(count), "--steps", "1",
                     "--report", str(out)])

    monkeypatch.setattr(cli, "train_and_evaluate", _reach)
    with pytest.raises(_Reached):  # the budget passes the check, and the chains would run
        run_on(64)
    tracemalloc.start()
    try:
        rc = run_on(65)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert "key 'workload' has a spec of 65 components; at count 262144 at most 64" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 2**20  # no chain run and no sample drawn


def test_cli_rejects_a_route_sweep_past_the_budget_before_scoring(tmp_path, model_files, capsys, monkeypatch):
    items = 2**14
    path = tmp_path / "items.json"
    path.write_text(json.dumps({"items": [{"prompt": [0], "continuation": [1]}] * items}))
    out = tmp_path / "out.csv"

    def run_on(n_thetas):
        return main(["route", "--small", model_files["small"], "--large", model_files["large"],
                     "--workload", str(path), "--thetas=" + ",".join(["0.5"] * n_thetas), "--report", str(out)])

    monkeypatch.setattr(cli, "frontier", _reach)
    with pytest.raises(_Reached):  # the ceiling passes the check, and the items would be scored
        run_on(ELEMENT_BUDGET // items)
    assert run_on(ELEMENT_BUDGET // items + 1) == 1
    assert f"key 'thetas' has {ELEMENT_BUDGET // items + 1} thresholds; on {items} items" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("technique, flags", [
    pytest.param("eagle", ["--model", "FEATURE", "--fit-seqs", str(10**16)], id="eagle-fit-seqs"),
])
def test_cli_run_too_large_to_allocate_exits_2_in_one_line(tmp_path, model_files, capsys, monkeypatch,
                                                           technique, flags):
    # with the element budget lifted past the fit's ceiling, the run asks numpy
    # for an array of over 700 PiB, more than any machine's virtual address
    # space, so it is refused at once and nothing is allocated
    monkeypatch.setattr(cli, "ELEMENT_BUDGET", 2**80)
    flags = [{"FEATURE": model_files["feature"]}.get(f, f) for f in flags]
    out = tmp_path / "out.report"
    assert main([technique, *flags, "--report", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


_BROKEN = '{"kind": "table", "vocab_size": 2,\n "order": 0 "table": {}}\n'


def _specs(*components, spec_id="bad"):
    """A mixture workload: five valid specs, then one with this id and these components."""
    specs = [{"id": f"ok-{i}", "components": [[1.0, float(i), 1.0]]} for i in range(5)]
    return json.dumps({"specs": specs + [{"id": spec_id, "components": list(components)}]})


def _items(prompt, continuation):
    """A route workload: one valid item, then this one (the test models have 4 tokens)."""
    return json.dumps({"items": [{"prompt": [0, 1], "continuation": [2]},
                                 {"prompt": prompt, "continuation": continuation}]})


@pytest.mark.parametrize("role, content, position", [
    pytest.param("model", _BROKEN, ":2:13:", id="model-syntax"),
    pytest.param("small", _BROKEN, ":2:13:", id="route-model-syntax"),
    pytest.param("specs", _BROKEN, ":2:13:", id="mixture-workload-syntax"),
    pytest.param("items", _BROKEN, ":2:13:", id="route-workload-syntax"),
    pytest.param("report", _BROKEN, ":2:13:", id="plot-report-syntax"),
    pytest.param("report", "[1, 2]", "", id="plot-report-list"),
    pytest.param("report", '{"metrics": {"rows": [3, "k"]}}', "", id="plot-report-non-object-rows"),
    pytest.param("report", "[" * 100000, "", id="plot-report-nested-too-deep"),
    pytest.param("report", '{"metrics": {"k": "3", "simulated_speedup": 1.0}}', "", id="plot-report-text-k"),
    pytest.param("csv report", "", "", id="plot-csv-empty"),
    pytest.param("csv report", "k,simulated_speedup\n3\n", "", id="plot-csv-short-row"),
    pytest.param("csv report", b"k,simulated_speedup\n3,\xe9\n", "", id="plot-csv-not-utf8"),
    pytest.param("model", "[1, 2]", "", id="model-not-an-object"),
    pytest.param("model", b'{"kind": "\xe9"}', "", id="model-not-utf8"),
    # edits to a valid table model; None drops the key
    pytest.param("model", {"fallback": None}, "", id="model-no-fallback"),
    pytest.param("model", {"table": None}, "", id="model-no-table"),
    pytest.param("model", {"table": []}, "", id="model-list-table"),
    pytest.param("model", {"vocab_size": "four"}, "", id="model-text-vocab"),
    pytest.param("model", {"fallback": [0.5, 0.5, 0.5, 0.5]}, "", id="model-fallback-sum"),
    pytest.param("model", {"cost_units": float("nan")}, "", id="model-nan-cost"),
    # ill-typed entries that int() or float() would coerce into a valid model
    pytest.param("model", {"vocab_size": 4.9}, "", id="model-float-vocab"),
    pytest.param("model", {"vocab_size": "4"}, "", id="model-numeric-text-vocab"),
    pytest.param("model", {"order": 1.5}, "", id="model-float-order"),
    pytest.param("model", {"cost_units": True}, "", id="model-bool-cost"),
    # array entries and table keys that np.asarray or int() would coerce
    pytest.param("model", {"fallback": ["0.25"] * 4}, "", id="model-text-fallback"),
    pytest.param("model", {"fallback": [True, False, False, False]}, "", id="model-bool-fallback"),
    pytest.param("model", {"table": {"0": ["0.25"] * 4}}, "", id="model-text-table-row"),
    pytest.param("model", {"table": {"0": [False, True, False, False]}}, "", id="model-bool-table-row"),
    pytest.param("model", {"table": {"+0": [0.25] * 4, "+1": [0.25] * 4}}, "", id="model-signed-table-key"),
    pytest.param("model", {"table": {"00": [0.25] * 4}}, "", id="model-padded-table-key"),
    pytest.param("model", {"table": {" 1": [0.25] * 4}}, "", id="model-spaced-table-key"),
    pytest.param("feature", {"embed": [[True, False, False, False]] * 3}, "", id="feature-bool-embed"),
    pytest.param("feature", {"recur_w": [[0.0] * 8] * 3 + [[0.0] * 7 + ["0"]]}, "", id="feature-text-recur-w"),
    pytest.param("feature", {"recur_b": ["0.5", "0", "0", "0"]}, "", id="feature-text-recur-b"),
    pytest.param("feature", {"head_w": [["1", "0", "0", "0"]] * 3}, "", id="feature-text-head-w"),
    pytest.param("feature", {"head_b": [True, False, True]}, "", id="feature-bool-head-b"),
    # finite weights whose products overflow: a score, and a pre-activation through a large embedding
    pytest.param("feature", {"head_w": [[1e308] * 4] * 2 + [[0.0] * 4]}, "", id="feature-head-overflow"),
    pytest.param("feature", {"embed": [[4.0, 4.0, 0.0, 0.0]] * 3,
                             "recur_w": [[0.0] * 4 + [5e307, -5e307, 0.0, 0.0]] + [[0.0] * 8] * 3},
                 "", id="feature-recurrence-overflow"),
    # an integer longer than Python reads from text (4300 digits)
    pytest.param("model", '{"kind": "table", "vocab_size": ' + "1" * 5000 + "}", "", id="model-int-beyond-str-limit"),
    pytest.param("config", '{"technique": "early-exit", "report": "out.csv", "params": {"count": ' + "1" * 5000 + "}}",
                 "", id="config-int-beyond-str-limit"),
    pytest.param("specs", _specs([1.0, float("nan"), 1.0]), "", id="mixture-nan-mean"),
    pytest.param("specs", _specs([float("nan"), 0.0, 1.0]), "", id="mixture-nan-weight"),
    pytest.param("specs", _specs([1.0, 0.0, float("inf")]), "", id="mixture-inf-stddev"),
    pytest.param("specs", _specs([1.0, 0.0]), "", id="mixture-two-numbers"),
    pytest.param("specs", _specs([1.0, 0.0, 1.0, 1.0]), "", id="mixture-four-numbers"),
    pytest.param("specs", '{"specs": []}', "", id="mixture-no-specs"),
    pytest.param("specs", _specs(["1.0", "0", True]), "", id="mixture-text-and-bool"),
    pytest.param("specs", _specs([10**400, 0.0, 1.0]), "", id="mixture-int-beyond-float"),
    pytest.param("specs", _specs([1.0, 2e6, 1.0]), "", id="mixture-mean-beyond-scale"),
    pytest.param("specs", _specs([1.0, 0.0, 1.4e154]), "", id="mixture-stddev-beyond-scale"),
    pytest.param("specs", _specs(*[[1 / (MAX_COMPONENTS + 1), 0.0, 1.0]] * (MAX_COMPONENTS + 1)), "",
                 id="mixture-components-past-ceiling"),
    pytest.param("specs", _specs([1.0, 0.0, 1.0], spec_id=3), "", id="mixture-int-id"),
    pytest.param("specs", _specs([1.0, 0.0, 1.0], spec_id=None), "", id="mixture-null-id"),
    pytest.param("specs", _specs([1.0, 0.0, 1.0], spec_id="1,2"), "", id="mixture-comma-id"),
    pytest.param("specs", _specs([1.0, 0.0, 1.0], spec_id="h\n1"), "", id="mixture-newline-id"),
    pytest.param("items", '{"items": []}', "", id="route-no-items"),
    pytest.param("items", _items([], [1]), "", id="route-empty-prompt"),
    pytest.param("items", _items([0, 9], [1]), "", id="route-prompt-out-of-vocab"),
    pytest.param("items", _items([0], [1, 9]), "", id="route-continuation-out-of-vocab"),
    pytest.param("items", _items([0], [-1]), "", id="route-continuation-negative"),
    pytest.param("items", _items([0.9, True], [1]), "", id="route-float-and-bool-prompt"),
    pytest.param("items", _items([0], [1.0]), "", id="route-float-continuation"),
])
def test_cli_rejects_malformed_input_files_by_path(tmp_path, model_files, capsys, role, content, position):
    path = tmp_path / ("input.csv" if role == "csv report" else "input.json")
    if isinstance(content, dict):
        doc = json.load(open(model_files["feature" if role == "feature" else "small"]))
        for key, value in content.items():
            if value is None:
                del doc[key]
            else:
                doc[key] = value
        content = json.dumps(doc)
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    small, large = model_files["small"], model_files["large"]
    out = tmp_path / "out.csv"
    route = ["route", "--large", large, "--thetas", "0.5", "--report", str(out)]
    lookahead = ["lookahead", "--model", str(path), "--n", "4", "--report", str(out)]
    plot = ["plot", "--report", str(path), "--kind", "k-vs-speedup", "--out", str(out)]
    argv = {"model": lookahead, "feature": lookahead,
            "small": route + ["--small", str(path), "--workload", model_files["route_workload"]],
            "specs": ["stepsaver", "--workload", str(path), "--count", "50", "--report", str(out)],
            "items": route + ["--small", small, "--workload", str(path)],
            "report": plot, "csv report": plot, "config": ["run", "--config", str(path)]}[role]
    assert main(argv) == 1
    assert f"{path}{position}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row, problem", [
    pytest.param([1.7e308] * 8, "sums to inf, not 1", id="huge-finite-row"),
    pytest.param([math.inf, -math.inf] + [0.0] * 6, "has negative or non-finite entries", id="both-infinities-row"),
])
def test_table_row_whose_sum_overflows_is_one_line_error(tmp_path, capsys, row, problem):
    # the golden target model with one row whose sum overflows to inf, or is inf - inf:
    # the load is rejected with one line, printing a Python float, and numpy does not warn
    doc = json.load(open(os.path.join(os.path.dirname(__file__), "golden", "inputs", "target.json")))
    doc["table"][next(iter(doc["table"]))] = row
    path = tmp_path / "target.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lookahead", "--model", str(path), "--n", "4", "--report", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{path}: table row (0, 0) {problem}" in err
    assert not out.exists()


def test_cli_rejects_non_integer_seed_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DYNEXEC_SEED", "abc")
    out = tmp_path / "ee.csv"
    assert main(["early-exit", "--count", "200", "--report", str(out)]) == 1
    assert "DYNEXEC_SEED" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_reports_honour_the_umask(tmp_path, umask, mode):
    out = tmp_path / "ee.csv"
    old = os.umask(umask)
    try:
        assert main(["early-exit", "--count", "200", "--seed", "1", "--report", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == mode


def test_report_written_atomically_no_partial_on_failure(tmp_path, model_files):
    config = validate_config({
        "technique": "specdec", "master_seed": 1, "report": "out.json",
        "params": {"target": model_files["large"], "draft": model_files["small"], "n": 4},
    })
    report = run(config)
    target = str(tmp_path / "out.json")
    poisoned = RunReport(report.version, report.config,
                         {"oops": float("nan"), "obj": object()}, report.wall_clock_ms)
    with pytest.raises(TypeError):
        write_report(poisoned, target)
    assert not os.path.exists(target)
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    write_report(report, target)
    assert os.path.exists(target)


def test_emit_plot_data_from_report_and_csv(tmp_path, model_files):
    out_csv = str(tmp_path / "ee.csv")
    main(["early-exit", "--count", "600", "--taus", "0,0.3,0.15,0.6,0.75",
          "--seed", "2", "--report", out_csv])
    xy = str(tmp_path / "xy.txt")
    emit_plot_data(out_csv, "tau-vs-accuracy", xy)
    lines = open(xy).read().splitlines()
    assert len(lines) == 5
    xs = [float(line.split()[0]) for line in lines]
    assert xs == sorted(xs)
    # values match the source CSV exactly
    csv_rows = {float(l.split(",")[0]): float(l.split(",")[1])
                for l in open(out_csv).read().splitlines()[1:]}
    for line in lines:
        x, y = (float(tok) for tok in line.split())
        assert csv_rows[x] == y


def test_emit_plot_data_single_row_from_json(tmp_path, model_files):
    out = str(tmp_path / "sd.json")
    main(["specdec", "--target", model_files["large"], "--draft", model_files["small"],
          "--k", "3", "--n", "12", "--seed", "8", "--report", out])
    xy = str(tmp_path / "k.txt")
    emit_plot_data(out, "k-vs-speedup", xy)
    lines = open(xy).read().splitlines()
    assert len(lines) == 1
    assert lines[0].split()[0] == "3"


def test_emit_plot_data_difficulty_vs_steps(tmp_path, model_files):
    out = str(tmp_path / "ss.csv")
    main(["stepsaver", "--workload", model_files["mix_workload"], "--epsilon", "0.2",
          "--count", "400", "--seed", "6", "--report", out])
    xy = str(tmp_path / "ds.txt")
    emit_plot_data(out, "difficulty-vs-steps", xy)
    lines = open(xy).read().splitlines()
    assert len(lines) == 6
    xs = [float(line.split()[0]) for line in lines]
    assert xs == sorted(xs)


def test_emit_plot_data_reads_ids_holding_unicode_line_breaks(tmp_path):
    specs = [{"id": f"s\u2028{i}\x85", "components": [list(c) for c in spec.components]}
             for i, (_, spec) in enumerate(skewed_workload()[:6])]
    workload = _write_config(tmp_path, {"specs": specs}, "specs.json")
    out = str(tmp_path / "ss.csv")
    assert main(["stepsaver", "--workload", workload, "--count", "50", "--report", out]) == 0
    xy = str(tmp_path / "ds.txt")
    assert main(["plot", "--report", out, "--kind", "difficulty-vs-steps", "--out", xy]) == 0
    assert len(open(xy).read().splitlines()) == 6


def test_emit_plot_data_sorts_on_x_only_so_ties_keep_report_order(tmp_path):
    rows = [{"tau": 1, "accuracy": 0.5}, {"tau": 0, "accuracy": 0.9}, {"tau": 1, "accuracy": 0.2}]
    report = _write_config(tmp_path, {"metrics": {"rows": rows}}, "report.json")
    xy = tmp_path / "xy.txt"
    emit_plot_data(report, "tau-vs-accuracy", str(xy))
    assert xy.read_text() == "0 0.9\n1 0.5\n1 0.2\n"


def test_emit_plot_data_missing_series(tmp_path, model_files):
    out = str(tmp_path / "sd.json")
    main(["specdec", "--target", model_files["large"], "--draft", model_files["small"],
          "--n", "8", "--seed", "8", "--report", out])
    with pytest.raises(MissingSeries):
        emit_plot_data(out, "tau-vs-accuracy", str(tmp_path / "nope.txt"))
    with pytest.raises(SchemaError):
        emit_plot_data(out, "loss-vs-time", str(tmp_path / "nope.txt"))


def test_emit_plot_data_rejects_nan_by_path_and_column(tmp_path, capsys):
    # a NaN x or y would break the sort on x; an inf threshold is a value the sweeps write
    csv_report, json_report, xy = tmp_path / "ee.csv", tmp_path / "sd.json", str(tmp_path / "xy.txt")
    for rows, col in (("nan,0.5\n0.3,0.9\n", "tau"), ("0,0.5\n0.3,nan\n", "accuracy")):
        csv_report.write_text("tau,accuracy\n" + rows)
        assert main(["plot", "--report", str(csv_report), "--kind", "tau-vs-accuracy", "--out", xy]) == 1
        assert f"report {csv_report} has NaN in column '{col}'" in capsys.readouterr().err
    json_report.write_text('{"metrics": {"k": 3, "simulated_speedup": NaN}}')
    with pytest.raises(MissingSeries, match=f"{json_report} has NaN in column 'simulated_speedup'"):
        emit_plot_data(str(json_report), "k-vs-speedup", xy)
    assert not os.path.exists(xy)
    csv_report.write_text("tau,accuracy\ninf,0.5\n0,0.9\n")
    emit_plot_data(str(csv_report), "tau-vs-accuracy", xy)
    assert open(xy).read().splitlines() == ["0.0 0.9", "inf 0.5"]


def test_cached_parser_keeps_no_state_between_calls(tmp_path, model_files, capsys, monkeypatch):
    # every help text, then malformed input of each kind the benchmark sends and
    # argparse's own usage errors, a successful run, and the malformed input again
    no_fallback = tmp_path / "no-fallback.json"
    no_fallback.write_text(json.dumps({"kind": "table", "vocab_size": 2, "order": 0, "cost_units": 1.0,
                                       "table": {"": [0.5, 0.5]}}))
    broken = tmp_path / "broken.json"
    broken.write_text(_BROKEN)
    out = str(tmp_path / "out.report")
    specdec = ["specdec", "--target", model_files["large"], "--draft", model_files["small"]]
    route = ["route", "--small", model_files["small"], "--large", model_files["large"],
             "--workload", model_files["route_workload"]]
    malformed = [
        specdec + ["--k", "0"],
        specdec + ["--prompt", "7"],
        ["early-exit", "--count", "500", "--hard-fraction", "2"],
        ["stepsaver", "--workload", model_files["mix_workload"], "--epsilon", "-1"],
        ["early-exit", "--count", "500", "--taus", "0,nan,0.1"],
        route + ["--thetas", "nan"],
        ["lookahead", "--model", str(no_fallback), "--n", "8"],
        ["lookahead", "--model", str(broken), "--n", "8"],
    ]
    malformed = [argv + ["--report", out] for argv in malformed] + [
        specdec + ["--bogus", "--report", out], ["specdec"], ["early-exit", "--count", "x", "--report", out],
        ["plot", "--report", out, "--kind", "none", "--out", out], [],
    ]
    sequence = ([[], ["--help"]] + [[command, "--help"] for command in [*_SCHEMAS, "run", "plot"]]
                + malformed + [specdec + ["--n", "8", "--seed", "3", "--report", out]] + malformed)

    def outcomes():
        results = []
        for argv in sequence:
            code = main(argv)
            results.append((code, *capsys.readouterr()))
        return results

    assert cli.build_parser() is cli.build_parser()
    cached = outcomes()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = outcomes()
    assert cached == fresh
    helps = 1 + len(_SCHEMAS) + 2
    assert [code for code, _, _ in cached] == [1] + [0] * helps + [1] * len(malformed) + [0] + [1] * len(malformed)


def test_cli_help_exits_zero():
    assert main(["--help"]) == 0


@pytest.mark.parametrize("technique", sorted(_SCHEMAS))
def test_technique_help_lists_exactly_the_schema_flags(capsys, technique):
    assert main([technique, "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    schema_flags = {"--" + key.replace("_", "-") for key in _SCHEMAS[technique]}
    assert listed == schema_flags | {"--seed", "--report", "--help"}


def test_range_flag_help_shows_its_checkers_rule(capsys):
    assert main(["stepsaver", "--help"]) == 0
    assert "--steps STEPS >= 1 and <= 73252" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("steps", [73_253, pytest.param(10**400, id="10**400")])
def test_validate_config_rejects_steps_past_the_schedule_by_name(steps):
    # a config check only: the workload file is never read
    doc = {"technique": "stepsaver", "params": {"workload": "absent.json", "steps": 73_252}}
    assert validate_config(doc)["params"]["steps"] == 73_252
    doc["params"]["steps"] = steps
    with pytest.raises(SchemaError, match="'steps' must be >= 1 and <= 73252") as exc:
        validate_config(doc)
    assert exc.value.key == "steps"


def test_env_var_seed_through_cli(tmp_path, model_files, monkeypatch):
    out_env = str(tmp_path / "env.json")
    out_flag = str(tmp_path / "flag.json")
    monkeypatch.setenv("DYNEXEC_SEED", "77")
    assert main(["specdec", "--target", model_files["large"], "--draft", model_files["small"],
                 "--n", "8", "--report", out_env]) == 0
    monkeypatch.delenv("DYNEXEC_SEED")
    assert main(["specdec", "--target", model_files["large"], "--draft", model_files["small"],
                 "--n", "8", "--seed", "77", "--report", out_flag]) == 0
    env_doc = json.load(open(out_env))
    flag_doc = json.load(open(out_flag))
    assert env_doc["config"]["master_seed"] == 77
    assert json.dumps(env_doc["metrics"], sort_keys=True) == \
        json.dumps(flag_doc["metrics"], sort_keys=True)


def test_one_shot_runs_do_not_import_numpy_ma(tmp_path):
    # numpy.ma costs about 10 ms to import, most of a one-shot early-exit run
    import subprocess
    import sys
    specs = os.path.join(os.path.dirname(__file__), "golden", "inputs", "specs.json")
    runs = [["early-exit", "--count", "200", "--report", str(tmp_path / "exit.csv")],
            ["stepsaver", "--workload", specs, "--count", "20", "--steps", "10", "--report", str(tmp_path / "steps.csv")]]
    script = (f"import sys\nfrom dynexec.cli import main\nfor argv in {runs!r}:\n    assert main(argv) == 0\n"
              "assert 'numpy.ma' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_console_script_subprocess(tmp_path, model_files):
    import subprocess
    import sys
    out = str(tmp_path / "sub.json")
    proc = subprocess.run(
        [sys.executable, "-m", "dynexec.cli", "specdec",
         "--target", model_files["large"], "--draft", model_files["small"],
         "--k", "2", "--n", "8", "--seed", "1", "--report", out],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.load(open(out))["metrics"]["tokens_generated"] == 8

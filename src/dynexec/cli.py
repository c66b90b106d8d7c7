"""Experiment orchestration: config loading, dispatch, reports, plot data.

Every run is a pure function of (config, master seed): techniques get child
streams of the master seed, reports are written atomically, and wall-clock
time is reported but never part of the deterministic surface. Decode
techniques write a JSON run report; sweep techniques write the CSV their
module specifies.
"""

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

from .core import Rng, _load_json, atomic_write_text, is_int, is_number, load_model, FeatureModel
from .eagle import DEFAULT_RIDGE, eagle_decode, fit_extrapolator, sample_corpus
from .earlyexit import gen_dataset, sweep, train_stages
from .errors import DynexecError, MissingSeries, ParseError, SchemaError
from .lookahead import lookahead_decode
from .router import WorkloadItem, frontier
from .specdec import simulated_speedup, speculative_decode
from .stepsaver import DEFAULT_STEPS, MIN_LABELED_SPECS, MixtureSpec, NoiseSchedule, train_and_evaluate

VERSION = "dynexec 0.1.0"
SEED_ENV_VAR = "DYNEXEC_SEED"

DEFAULT_TAUS = [round(0.05 * i, 2) for i in range(16)]  # 0.0 .. 0.75

_REQUIRED = object()


def _comma_list(convert):
    def parse(text):
        return [convert(tok) for tok in text.split(",") if tok.strip() != ""]
    parse.__name__ = f"{convert.__name__} list"
    return parse


def _as_int(value, key):
    if not is_int(value):
        raise SchemaError(f"key '{key}' must be an integer", key=key)
    return value


def _int_at_least(lo):
    def check(value, key):
        value = _as_int(value, key)
        if value < lo:
            raise SchemaError(f"key '{key}' must be >= {lo}, got {value}", key=key)
        return value
    check.flag_type = int
    return check


def _as_float(value, key):
    if not is_number(value):
        raise SchemaError(f"key '{key}' must be a number", key=key)
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"key '{key}' has an integer too large for a float", key=key) from None


def _float_in(lo, hi=math.inf, above=False):
    """A finite number in [lo, hi], or in (lo, hi] when `above`."""
    rule = (">" if above else ">=") + f" {lo}" + (f" and <= {hi}" if hi < math.inf else "")

    def check(value, key):
        value = _as_float(value, key)
        if not (math.isfinite(value) and (lo < value if above else lo <= value) and value <= hi):
            raise SchemaError(f"key '{key}' must be a finite number {rule}, got {value!r}", key=key)
        return value
    check.flag_type = float
    return check


def _as_str(value, key):
    if not isinstance(value, str):
        raise SchemaError(f"key '{key}' must be a string", key=key)
    return value


def _as_int_list(value, key):
    # type(True) is bool, so bools are rejected too, in one pass over the entries
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise SchemaError(f"key '{key}' must be a list of integers", key=key)
    return list(value)


def _as_float_list(value, key):
    if not isinstance(value, list) or not value or not all(map(is_number, value)):
        raise SchemaError(f"key '{key}' must be a non-empty list of numbers", key=key)
    floats = [_as_float(v, key) for v in value]
    if any(math.isnan(v) for v in floats):
        raise SchemaError(f"key '{key}' must not contain NaN", key=key)
    return floats


# The argparse type that reads each checker's value from a CLI flag.
_as_str.flag_type = str
_as_int_list.flag_type = _comma_list(int)
_as_float_list.flag_type = _comma_list(float)

# Each technique's keys: key -> (checker, default). The config's
# "params" keys and the technique's CLI flags (--key with '-' for '_') both
# come from this table; a checker's flag_type parses the flag's text.
_SCHEMAS = {
    "specdec": {
        "target": (_as_str, _REQUIRED),
        "draft": (_as_str, _REQUIRED),
        "k": (_int_at_least(1), 4),
        "n": (_int_at_least(1), 64),
        "prompt": (_as_int_list, [0]),
    },
    "eagle": {
        "model": (_as_str, _REQUIRED),
        "k": (_int_at_least(1), 4),
        "n": (_int_at_least(1), 64),
        "fit_seqs": (_int_at_least(1), 256),
        "fit_len": (_int_at_least(2), 16),
        "ridge": (_float_in(0.0), DEFAULT_RIDGE),
        "draft_cost_factor": (_float_in(0.0), 0.1),
        "prompt": (_as_int_list, [0]),
    },
    "lookahead": {
        "model": (_as_str, _REQUIRED),
        "n": (_int_at_least(1), 64),
        "ngram": (_int_at_least(2), 3),
        "window": (_int_at_least(1), 4),
        "prompt": (_as_int_list, [0]),
    },
    "early-exit": {
        "count": (_int_at_least(100), 5000),
        "hard_fraction": (_float_in(0.0, 1.0), 0.2),
        "taus": (_as_float_list, DEFAULT_TAUS),
    },
    "stepsaver": {
        "workload": (_as_str, _REQUIRED),
        "epsilon": (_float_in(0.0, above=True), 0.1),
        "train_frac": (_float_in(0.0, 1.0), 0.5),
        "count": (_int_at_least(1), 4000),
        "steps": (_int_at_least(1), DEFAULT_STEPS),
    },
    "route": {
        "small": (_as_str, _REQUIRED),
        "large": (_as_str, _REQUIRED),
        "workload": (_as_str, _REQUIRED),
        "thetas": (_as_float_list, _REQUIRED),
    },
}

CSV_COLUMNS = {
    "early-exit": ("tau", "accuracy", "mean_cost", "early_exit_fraction", "speedup"),
    "stepsaver": ("spec_id", "difficulty", "steps_used", "w1", "baseline_w1", "throughput_ratio"),
    "route": ("theta", "fraction_large", "total_cost", "mean_quality"),
}

PLOT_KINDS = {
    "tau-vs-accuracy": ("tau", "accuracy"),
    "k-vs-speedup": ("k", "simulated_speedup"),
    "difficulty-vs-steps": ("difficulty", "steps_used"),
}


@dataclass(frozen=True)
class RunReport:
    version: str
    config: dict
    metrics: dict
    wall_clock_ms: float


def validate_config(doc: dict) -> dict:
    """Schema-validate a raw config document, rejecting unknown keys and
    filling technique defaults. Returns the canonical config dict."""
    if not isinstance(doc, dict):
        raise SchemaError("config must be a JSON object")
    allowed_top = {"technique", "master_seed", "report", "params"}
    for key in doc:
        if key not in allowed_top:
            raise SchemaError(f"unknown key '{key}'", key=key)
    technique = doc.get("technique")
    if not isinstance(technique, str) or technique not in _SCHEMAS:
        raise SchemaError(f"unknown or missing technique {technique!r}", key="technique")
    seed = doc.get("master_seed")
    if seed is not None:
        seed = _as_int(seed, "master_seed")
    report = doc.get("report")
    if report is not None:
        report = _as_str(report, "report")
    raw_params = doc.get("params", {})
    if not isinstance(raw_params, dict):
        raise SchemaError("key 'params' must be an object", key="params")
    schema = _SCHEMAS[technique]
    for key in raw_params:
        if key not in schema:
            raise SchemaError(f"unknown key '{key}'", key=key)
    params = {}
    for key, (check, default) in schema.items():
        if key in raw_params:
            params[key] = check(raw_params[key], key)
        elif default is _REQUIRED:
            raise SchemaError(f"missing required key '{key}'", key=key)
        else:
            params[key] = default
    config = {"technique": technique, "master_seed": seed, "params": params}
    if report is not None:
        config["report"] = report
    return config


def load_config(path: str) -> dict:
    """Parse and schema-validate a config file."""
    return validate_config(_load_json(path))


def resolve_seed(config: dict, seed_override=None) -> int:
    """Seed precedence: explicit override, then config, then the DYNEXEC_SEED
    environment variable, then 0."""
    if seed_override is not None:
        return int(seed_override)
    if config.get("master_seed") is not None:
        return int(config["master_seed"])
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SchemaError(f"environment variable {SEED_ENV_VAR} must be an integer, got {env!r}",
                              key=SEED_ENV_VAR) from None
    return 0


def _resolve(base_dir: str, path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def _load_feature_model(path: str) -> FeatureModel:
    model = load_model(path)
    if not isinstance(model, FeatureModel):
        raise SchemaError(f"{path} is not a feature model", key="model")
    return model


def _check_prompt(prompt, *models):
    """Reject a prompt the loaded models cannot read, naming the key."""
    for model in models:
        if any(not 0 <= t < model.vocab_size for t in prompt):
            raise SchemaError(f"key 'prompt' has a token outside the model's vocabulary of size "
                              f"{model.vocab_size}: {prompt}", key="prompt")
        if not prompt and isinstance(model, FeatureModel):
            raise SchemaError("key 'prompt' must be non-empty for a feature model", key="prompt")
    return prompt


def load_mixture_workload(path: str) -> list[tuple[str, MixtureSpec]]:
    """Workload file: {"specs": [{"id": "...", "components": [[w, mean, stddev], ...]}, ...]}."""
    doc = _load_json(path)
    try:
        specs = [(_as_str(entry["id"], "id"), MixtureSpec(tuple(tuple(_as_float_list(comp, "components"))
                                                      for comp in entry["components"])))
                 for entry in doc["specs"]]
    except (KeyError, TypeError, ValueError, SchemaError) as exc:
        raise SchemaError(f"malformed mixture workload {path}: {exc}") from exc
    for spec_id, _ in specs:
        if any(c in spec_id for c in ',"\r\n'):
            raise SchemaError(f"mixture workload {path}: spec id {spec_id!r} has a comma, quote or "
                              "line break, which the CSV report cannot hold")
    if len(specs) < MIN_LABELED_SPECS:
        raise SchemaError(f"mixture workload {path} has {len(specs)} specs; "
                          f"the step recommender needs at least {MIN_LABELED_SPECS}")
    return specs


def load_route_workload(path: str, small, large) -> list[WorkloadItem]:
    """Workload file: {"items": [{"prompt": [...], "continuation": [...]}, ...]}.

    Every prompt must be non-empty and every token inside both models' vocabularies.
    """
    doc = _load_json(path)
    try:
        items = [WorkloadItem(tuple(_as_int_list(entry["prompt"], "prompt")),
                              tuple(_as_int_list(entry["continuation"], "continuation")))
                 for entry in doc["items"]]
    except (KeyError, TypeError, ValueError, SchemaError) as exc:
        raise SchemaError(f"malformed route workload {path}: {exc}") from exc
    if not items:
        raise SchemaError(f"route workload {path} has no items")
    vocab = min(small.vocab_size, large.vocab_size)
    for i, item in enumerate(items):
        if not item.prompt:
            raise SchemaError(f"route workload {path}: item {i} has an empty prompt")
        tokens = item.prompt + item.reference_continuation
        if min(tokens) < 0 or max(tokens) >= vocab:
            raise SchemaError(f"route workload {path}: item {i} has a token outside the models' "
                              f"vocabulary of size {vocab}")
    return items


def _decode_metrics(tokens, stats, k, target_cost, draft_cost):
    return {"tokens": tokens, **asdict(stats), "k": k,
            "simulated_speedup": simulated_speedup(stats, target_cost, draft_cost)}


def _run_specdec(params, seed, base_dir):
    """token-level speculative sampling"""
    target = load_model(_resolve(base_dir, params["target"]))
    draft_model = load_model(_resolve(base_dir, params["draft"]))
    if draft_model.vocab_size != target.vocab_size:
        raise SchemaError(f"key 'draft' names a model of vocabulary size {draft_model.vocab_size}; "
                          f"the target's is {target.vocab_size}", key="draft")
    prompt = _check_prompt(params["prompt"], target, draft_model)
    tokens, stats = speculative_decode(target, draft_model, prompt, params["n"], params["k"],
                                       Rng(seed).child(0))
    return _decode_metrics(tokens, stats, params["k"], target.cost_units, draft_model.cost_units)


def _run_eagle(params, seed, base_dir):
    """feature-level speculative drafting"""
    model = _load_feature_model(_resolve(base_dir, params["model"]))
    prompt = _check_prompt(params["prompt"], model)
    needed = 2 * model.dim + 1
    if params["fit_seqs"] * (params["fit_len"] - 1) < needed:
        raise SchemaError(f"key 'fit_seqs' gives fit_seqs * (fit_len - 1) = "
                          f"{params['fit_seqs'] * (params['fit_len'] - 1)} transitions; a model of "
                          f"dim {model.dim} needs at least {needed}", key="fit_seqs")
    rng = Rng(seed)
    corpus = sample_corpus(model, params["fit_seqs"], params["fit_len"], rng.child(1))
    ex = fit_extrapolator(model, corpus, params["ridge"])
    tokens, stats = eagle_decode(model, ex, prompt, params["n"], params["k"], rng.child(0))
    return _decode_metrics(tokens, stats, params["k"], model.cost_units,
                           params["draft_cost_factor"] * model.cost_units)


def _run_lookahead(params, seed, base_dir):
    """n-gram cache greedy decoding"""
    model = load_model(_resolve(base_dir, params["model"]))
    prompt = _check_prompt(params["prompt"], model)
    tokens, stats = lookahead_decode(model, prompt, params["n"], n=params["ngram"], L=params["window"])
    return {"tokens": tokens, **asdict(stats),
            "speedup_vs_greedy": stats.tokens_generated / stats.target_calls}


def _run_early_exit(params, seed, base_dir):
    """entropy-gated two-stage classifier sweep"""
    data = gen_dataset(params["count"], params["hard_fraction"], seed)
    return {"rows": [asdict(row) for row in sweep(train_stages(data), data, sorted(params["taus"]))]}


def _run_stepsaver(params, seed, base_dir):
    """adaptive diffusion step recommendation"""
    specs = load_mixture_workload(_resolve(base_dir, params["workload"]))
    try:
        schedule = NoiseSchedule(params["steps"])
    except ValueError as exc:
        raise SchemaError(f"key 'steps' is too large for the noise schedule: {exc}", key="steps") from exc
    # the recommender needs MIN_LABELED_SPECS labels, so small workloads train on more than train_frac
    n_train = min(len(specs), max(MIN_LABELED_SPECS, round(params["train_frac"] * len(specs))))
    reports = train_and_evaluate([spec for _, spec in specs], schedule, params["epsilon"], n_train,
                                 params["count"], Rng(seed))
    return {"rows": [{
        "spec_id": spec_id,
        "difficulty": spec.difficulty,
        "steps_used": report.steps_used,
        "w1": report.w1,
        "baseline_w1": report.baseline_w1,
        "throughput_ratio": schedule.T / report.steps_used,
    } for (spec_id, spec), report in zip(specs, reports)]}


def _run_route(params, seed, base_dir):
    """difficulty-threshold model routing"""
    small = load_model(_resolve(base_dir, params["small"]))
    large = load_model(_resolve(base_dir, params["large"]))
    workload = load_route_workload(_resolve(base_dir, params["workload"]), small, large)
    reports = frontier(small, params["thetas"], workload, small, large)
    return {"rows": [{"theta": theta, **asdict(report)} for theta, report in zip(params["thetas"], reports)]}


_RUNNERS = {
    "specdec": _run_specdec,
    "eagle": _run_eagle,
    "lookahead": _run_lookahead,
    "early-exit": _run_early_exit,
    "stepsaver": _run_stepsaver,
    "route": _run_route,
}


def run(config: dict, seed_override=None, base_dir: str = ".") -> RunReport:
    """Dispatch a validated config to its technique and return the run report.

    Identical config + seed always yields an identical metrics block; only
    wall_clock_ms varies between repeats.
    """
    seed = resolve_seed(config, seed_override)
    start = time.perf_counter()
    metrics = _RUNNERS[config["technique"]](config["params"], seed, base_dir)
    wall_ms = (time.perf_counter() - start) * 1000.0
    echo = {"technique": config["technique"], "master_seed": seed, "params": config["params"]}
    if "report" in config:
        echo["report"] = config["report"]
    return RunReport(version=VERSION, config=echo, metrics=metrics, wall_clock_ms=wall_ms)


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    return repr(value)


def csv_text(technique: str, rows) -> str:
    columns = CSV_COLUMNS[technique]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def report_json(report: RunReport) -> str:
    doc = {"version": report.version, "config": report.config,
           "metrics": report.metrics, "wall_clock_ms": report.wall_clock_ms}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def write_report(report: RunReport, path: str):
    """Write the technique's native report format (CSV for sweeps, JSON otherwise)."""
    technique = report.config["technique"]
    if technique in CSV_COLUMNS:
        atomic_write_text(path, csv_text(technique, report.metrics["rows"]))
    else:
        atomic_write_text(path, report_json(report))


def _report_rows(path: str):
    """A report's rows: a CSV report's records, or a JSON report's metrics rows
    (its metrics as the one row when it has no `rows`)."""
    if path.endswith(".csv"):
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                return list(csv.DictReader(fh))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from exc
        except csv.Error as exc:
            raise ParseError(f"{path}: {exc}") from exc
    doc = _load_json(path)
    metrics = doc.get("metrics", doc) if isinstance(doc, dict) else doc
    return metrics["rows"] if isinstance(metrics, dict) and "rows" in metrics else [metrics]


def _json_number(value):
    if not is_number(value):
        raise TypeError(f"{value!r} is not a number")
    return value


def emit_plot_data(path: str, kind: str, out_path: str):
    """Write a two-column 'x y' text file from a report path (a sweep CSV or a
    JSON run report), stably sorted by x, at full decimal precision."""
    if kind not in PLOT_KINDS:
        raise SchemaError(f"unknown plot kind '{kind}'", key="kind")
    xcol, ycol = PLOT_KINDS[kind]
    rows = _report_rows(path)
    # a CSV cell is text; a JSON value must already be a number, and stays as written (k prints 3)
    number = float if path.endswith(".csv") else _json_number
    try:
        series = [(number(row[xcol]), number(row[ycol])) for row in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise MissingSeries(f"report {path} has no numeric series {xcol!r} vs {ycol!r}: {exc}") from exc
    if not series:
        raise MissingSeries(f"report {path} has no rows")
    series.sort(key=lambda pair: pair[0])
    lines = [f"{_format_cell(x)} {_format_cell(y)}" for x, y in series]
    atomic_write_text(out_path, "\n".join(lines) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynexec",
                                     description="dynamic-execution experiments on toy models")
    sub = parser.add_subparsers(dest="command", required=True)
    # one subcommand per technique, its flags from the schema and its help from the runner's docstring
    for technique, schema in _SCHEMAS.items():
        p = sub.add_parser(technique, help=_RUNNERS[technique].__doc__)
        for key, (check, default) in schema.items():
            p.add_argument("--" + key.replace("_", "-"), type=check.flag_type, required=default is _REQUIRED)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--report", required=True)

    p = sub.add_parser("run", help="run a JSON experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("plot", help="emit two-column plot data from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--kind", required=True, choices=sorted(PLOT_KINDS))
    p.add_argument("--out", required=True)

    return parser


def _config_from_args(args) -> dict:
    params = {key: getattr(args, key) for key in _SCHEMAS[args.command] if getattr(args, key) is not None}
    doc = {"technique": args.command, "params": params, "report": args.report}
    if args.seed is not None:
        doc["master_seed"] = args.seed
    return validate_config(doc)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "plot":
            emit_plot_data(args.report, args.kind, args.out)
            return 0
        if args.command == "run":
            config = load_config(args.config)
            if "report" not in config:
                raise SchemaError("config must name a 'report' path", key="report")
            base_dir = os.path.dirname(os.path.abspath(args.config))
            report = run(config, seed_override=args.seed, base_dir=base_dir)
            path = _resolve(base_dir, config["report"])
        else:
            config = _config_from_args(args)
            report = run(config, base_dir=os.getcwd())
            path = config["report"]
        write_report(report, path)
        print(f"wrote {path}")
        return 0
    except (ParseError, SchemaError, MissingSeries, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DynexecError, ValueError, OSError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

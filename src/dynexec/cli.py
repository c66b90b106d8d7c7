"""Experiment orchestration: config loading, dispatch, reports, plot data.

Every run is a pure function of (config, master seed): techniques get child
streams of the master seed, reports are written atomically, and wall-clock
time is reported but never part of the deterministic surface. Decode
techniques write a JSON run report; sweep techniques write the CSV their
module specifies.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

from .core import Rng, atomic_write_text, load_model, FeatureModel
from .eagle import eagle_decode, fit_extrapolator, sample_corpus
from .earlyexit import gen_dataset, stage_accuracy, sweep, train_stages
from .errors import DynexecError, MissingSeries, ParseError, SchemaError
from .lookahead import lookahead_decode
from .router import RoutePolicy, WorkloadItem, evaluate
from .specdec import simulated_speedup, speculative_decode
from .stepsaver import MixtureSpec, NoiseSchedule, adaptive_generate, fit_recommender, min_steps_oracle

VERSION = "dynexec 0.1.0"
SEED_ENV_VAR = "DYNEXEC_SEED"

DEFAULT_TAUS = [round(0.05 * i, 2) for i in range(16)]  # 0.0 .. 0.75

_REQUIRED = object()


def _as_int(value, key):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"key '{key}' must be an integer", key=key)
    return value


def _int_at_least(lo):
    def check(value, key):
        value = _as_int(value, key)
        if value < lo:
            raise SchemaError(f"key '{key}' must be >= {lo}, got {value}", key=key)
        return value
    return check


def _as_float(value, key):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"key '{key}' must be a number", key=key)
    return float(value)


def _as_str(value, key):
    if not isinstance(value, str):
        raise SchemaError(f"key '{key}' must be a string", key=key)
    return value


def _as_int_list(value, key):
    if not isinstance(value, list) or any(isinstance(v, bool) or not isinstance(v, int) for v in value):
        raise SchemaError(f"key '{key}' must be a list of integers", key=key)
    return list(value)


def _as_float_list(value, key):
    if (not isinstance(value, list) or not value
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)):
        raise SchemaError(f"key '{key}' must be a non-empty list of numbers", key=key)
    return [float(v) for v in value]


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
        "ridge": (_as_float, 1e-6),
        "draft_cost_factor": (_as_float, 0.1),
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
        "count": (_as_int, 5000),
        "hard_fraction": (_as_float, 0.2),
        "taus": (_as_float_list, DEFAULT_TAUS),
    },
    "stepsaver": {
        "workload": (_as_str, _REQUIRED),
        "epsilon": (_as_float, 0.1),
        "train_frac": (_as_float, 0.5),
        "count": (_as_int, 4000),
        "steps": (_as_int, 100),
    },
    "route": {
        "small": (_as_str, _REQUIRED),
        "large": (_as_str, _REQUIRED),
        "workload": (_as_str, _REQUIRED),
        "thetas": (_as_float_list, _REQUIRED),
    },
}

CSV_TECHNIQUES = {"early-exit", "stepsaver", "route"}

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
    if technique not in _SCHEMAS:
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
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    return validate_config(doc)


def canonical_config_json(config: dict) -> str:
    return json.dumps(config, sort_keys=True)


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
    """Workload file: {"specs": [{"id": ..., "components": [[w, mean, stddev], ...]}, ...]}."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}",
                             line=exc.lineno, column=exc.colno) from exc
    try:
        return [(str(entry["id"]),
                 MixtureSpec(tuple(tuple(float(x) for x in comp) for comp in entry["components"])))
                for entry in doc["specs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed mixture workload {path}: {exc}") from exc


def load_route_workload(path: str) -> list[WorkloadItem]:
    """Workload file: {"items": [{"prompt": [...], "continuation": [...]}, ...]}."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}",
                             line=exc.lineno, column=exc.colno) from exc
    try:
        return [WorkloadItem(tuple(int(t) for t in entry["prompt"]),
                             tuple(int(t) for t in entry["continuation"]))
                for entry in doc["items"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed route workload {path}: {exc}") from exc


def _run_specdec(params, seed, base_dir):
    target = load_model(_resolve(base_dir, params["target"]))
    draft_model = load_model(_resolve(base_dir, params["draft"]))
    prompt = _check_prompt(params["prompt"], target, draft_model)
    tokens, stats = speculative_decode(target, draft_model, prompt, params["n"], params["k"],
                                       Rng(seed).child(0))
    return {
        "tokens": tokens,
        "tokens_generated": stats.tokens_generated,
        "target_calls": stats.target_calls,
        "draft_calls": stats.draft_calls,
        "cycles": stats.cycles,
        "acceptance_rate": stats.acceptance_rate,
        "tokens_per_target_call": stats.tokens_per_target_call,
        "simulated_speedup": simulated_speedup(stats, target.cost_units, draft_model.cost_units),
        "k": params["k"],
    }


def _run_eagle(params, seed, base_dir):
    model = _load_feature_model(_resolve(base_dir, params["model"]))
    prompt = _check_prompt(params["prompt"], model)
    rng = Rng(seed)
    corpus = sample_corpus(model, params["fit_seqs"], params["fit_len"], rng.child(1))
    ex = fit_extrapolator(model, corpus, params["ridge"])
    tokens, stats = eagle_decode(model, ex, prompt, params["n"], params["k"],
                                 rng.child(0), draft_cost_factor=params["draft_cost_factor"])
    return {
        "tokens": tokens,
        "tokens_generated": stats.tokens_generated,
        "target_calls": stats.target_calls,
        "draft_calls": stats.draft_calls,
        "cycles": stats.cycles,
        "acceptance_rate": stats.acceptance_rate,
        "tokens_per_target_call": stats.tokens_per_target_call,
        "simulated_speedup": simulated_speedup(
            stats, model.cost_units, params["draft_cost_factor"] * model.cost_units),
        "k": params["k"],
    }


def _run_lookahead(params, seed, base_dir):
    model = load_model(_resolve(base_dir, params["model"]))
    prompt = _check_prompt(params["prompt"], model)
    tokens, stats = lookahead_decode(model, prompt, params["n"], n=params["ngram"], L=params["window"])
    return {
        "tokens": tokens,
        "tokens_generated": stats.tokens_generated,
        "target_calls": stats.target_calls,
        "proposed": stats.proposed,
        "verified_hits": stats.verified_hits,
        "speedup_vs_greedy": stats.tokens_generated / stats.target_calls,
    }


def _run_early_exit(params, seed, base_dir):
    data = gen_dataset(params["count"], params["hard_fraction"], seed)
    net = train_stages(data)
    rows = sweep(net, data, sorted(params["taus"]))
    return {
        "rows": [{"tau": r.tau, "accuracy": r.accuracy, "mean_cost": r.mean_cost,
                  "early_exit_fraction": r.early_exit_fraction, "speedup": r.speedup}
                 for r in rows],
        "stage0_accuracy": stage_accuracy(net.stages[0], data),
        "full_accuracy": stage_accuracy(net.stages[-1], data),
    }


def _run_stepsaver(params, seed, base_dir):
    specs = load_mixture_workload(_resolve(base_dir, params["workload"]))
    schedule = NoiseSchedule(params["steps"])
    count = params["count"]
    rng = Rng(seed)
    # the recommender needs >= 5 labels, so small workloads train on more than train_frac
    n_train = min(len(specs), max(5, round(params["train_frac"] * len(specs))))
    labeled = []
    for i, (_, spec) in enumerate(specs[:n_train]):
        labeled.append((spec, min_steps_oracle(spec, schedule, params["epsilon"], count, rng.child(i))))
    recommender = fit_recommender(labeled, schedule.T)
    rows = []
    total_steps = 0
    for j, (spec_id, spec) in enumerate(specs):
        _, report = adaptive_generate(spec, recommender, schedule, count, rng.child(100000 + j))
        total_steps += report.steps_used
        rows.append({
            "spec_id": spec_id,
            "difficulty": spec.difficulty,
            "steps_used": report.steps_used,
            "w1": report.w1,
            "baseline_w1": report.baseline_w1,
            "throughput_ratio": schedule.T / report.steps_used,
        })
    return {
        "rows": rows,
        "workload_throughput_ratio": schedule.T * len(specs) / total_steps,
        "mean_w1": sum(r["w1"] for r in rows) / len(rows),
        "mean_baseline_w1": sum(r["baseline_w1"] for r in rows) / len(rows),
        "trained_on": n_train,
    }


def _run_route(params, seed, base_dir):
    small = load_model(_resolve(base_dir, params["small"]))
    large = load_model(_resolve(base_dir, params["large"]))
    workload = load_route_workload(_resolve(base_dir, params["workload"]))
    rows = []
    for theta in params["thetas"]:
        report = evaluate(RoutePolicy(theta, small), workload, small, large)
        rows.append({
            "theta": theta,
            "fraction_large": report.fraction_large,
            "total_cost": report.total_cost,
            "mean_quality": report.mean_quality,
        })
    return {"rows": rows}


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
    if technique in CSV_TECHNIQUES:
        atomic_write_text(path, csv_text(technique, report.metrics["rows"]))
    else:
        atomic_write_text(path, report_json(report))


def _series_from_metrics(metrics: dict, xcol: str, ycol: str):
    rows = metrics.get("rows")
    if rows is not None:
        if not all(xcol in r and ycol in r for r in rows):
            raise MissingSeries(f"report rows lack columns {xcol!r}/{ycol!r}")
        return [(r[xcol], r[ycol]) for r in rows]
    if xcol in metrics and ycol in metrics:
        return [(metrics[xcol], metrics[ycol])]
    raise MissingSeries(f"report has no series {xcol!r} vs {ycol!r}")


def _series_from_csv(text: str, xcol: str, ycol: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    if xcol not in header or ycol not in header:
        raise MissingSeries(f"CSV lacks columns {xcol!r}/{ycol!r}")
    xi, yi = header.index(xcol), header.index(ycol)
    out = []
    for line in lines[1:]:
        cells = line.split(",")
        try:
            out.append((float(cells[xi]), float(cells[yi])))
        except ValueError as exc:
            raise MissingSeries(f"non-numeric value in column {xcol!r}/{ycol!r}") from exc
    return out


def emit_plot_data(source, kind: str, out_path: str):
    """Write a two-column 'x y' text file, sorted by x, full decimal precision.

    `source` may be a RunReport, a metrics-bearing report JSON path, or a
    sweep CSV path.
    """
    if kind not in PLOT_KINDS:
        raise SchemaError(f"unknown plot kind '{kind}'", key="kind")
    xcol, ycol = PLOT_KINDS[kind]
    if isinstance(source, RunReport):
        series = _series_from_metrics(source.metrics, xcol, ycol)
    elif isinstance(source, str) and source.endswith(".csv"):
        with open(source) as fh:
            series = _series_from_csv(fh.read(), xcol, ycol)
    elif isinstance(source, str):
        with open(source) as fh:
            doc = json.load(fh)
        series = _series_from_metrics(doc.get("metrics", doc), xcol, ycol)
    else:
        raise TypeError("source must be a RunReport or a report file path")
    series.sort(key=lambda pair: pair[0])
    lines = [f"{_format_cell(x)} {_format_cell(y)}" for x, y in series]
    atomic_write_text(out_path, "\n".join(lines) + "\n")


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynexec",
                                     description="dynamic-execution experiments on toy models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed_report(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--report", required=True)

    p = sub.add_parser("specdec", help="token-level speculative sampling")
    p.add_argument("--target", required=True)
    p.add_argument("--draft", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--prompt", type=_int_list, default=None)
    add_seed_report(p)

    p = sub.add_parser("eagle", help="feature-level speculative drafting")
    p.add_argument("--model", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--fit-seqs", type=int, default=None)
    p.add_argument("--fit-len", type=int, default=None)
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--draft-cost-factor", type=float, default=None)
    p.add_argument("--prompt", type=_int_list, default=None)
    add_seed_report(p)

    p = sub.add_parser("lookahead", help="n-gram cache greedy decoding")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--ngram", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--prompt", type=_int_list, default=None)
    add_seed_report(p)

    p = sub.add_parser("early-exit", help="entropy-gated two-stage classifier sweep")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--hard-fraction", type=float, default=None)
    p.add_argument("--taus", type=_float_list, default=None)
    add_seed_report(p)

    p = sub.add_parser("stepsaver", help="adaptive diffusion step recommendation")
    p.add_argument("--workload", required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--train-frac", type=float, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    add_seed_report(p)

    p = sub.add_parser("route", help="difficulty-threshold model routing")
    p.add_argument("--small", required=True)
    p.add_argument("--large", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--thetas", type=_float_list, required=True)
    add_seed_report(p)

    p = sub.add_parser("run", help="run a JSON experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("plot", help="emit two-column plot data from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--kind", required=True, choices=sorted(PLOT_KINDS))
    p.add_argument("--out", required=True)

    return parser


_FLAG_PARAMS = {
    "specdec": ("target", "draft", "k", "n", "prompt"),
    "eagle": ("model", "k", "n", "fit_seqs", "fit_len", "ridge", "draft_cost_factor", "prompt"),
    "lookahead": ("model", "n", "ngram", "window", "prompt"),
    "early-exit": ("count", "hard_fraction", "taus"),
    "stepsaver": ("workload", "epsilon", "train_frac", "count", "steps"),
    "route": ("small", "large", "workload", "thetas"),
}


def _config_from_args(args) -> dict:
    params = {}
    for key in _FLAG_PARAMS[args.command]:
        value = getattr(args, key)
        if value is not None:
            params[key] = value
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
    except (ParseError, SchemaError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DynexecError, ValueError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

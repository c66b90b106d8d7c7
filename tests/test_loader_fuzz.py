"""Fuzzing the input loaders end to end.

Every generated config document either validates to a canonical config, with
every schema key and no NaN, or is rejected with a SchemaError, which `main`
maps to exit code 1. Every generated model file either loads to a model whose
distributions are valid, or is rejected with a ParseError or SchemaError, and
a run on it exits 0 with a report or 1 without one.
Every generated mixture workload file either runs to a report whose W1
values are all finite and whose spec ids are the file's, also when its CSV is
read back, or is rejected with a ParseError or SchemaError, the errors `main`
maps to exit code 1. Every generated route workload file either runs to a
report (exit 0) whose rows are finite and equal the from-scratch reference
frontier, or is rejected with exit 1 and no report. Every generated report
file given to `plot` either gives a series (exit 0) or is rejected with exit 1
and no output file. Nothing else may escape.
"""

import csv
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dynexec import RouteWorkload, Rng
from dynexec.cli import _REQUIRED, _SCHEMAS, PLOT_KINDS, csv_text, load_route_workload, main, run, validate_config
from dynexec.core import check_dist, load_model, model_to_dict, save_model
from dynexec.errors import ParseError, SchemaError

from helpers import WorkloadItem, random_feature_model, random_table_model, route_arrays, varied_entropy_table_model
from oracles import load_route_workload_reference, route_evaluate_reference

# JSON values that are not a well-formed component entry
JUNK = st.one_of(
    st.just(float("nan")), st.just(float("inf")), st.just(-float("inf")), st.booleans(), st.none(),
    st.text(max_size=4), st.integers(-10, 10), st.just(10**400), st.floats(), st.lists(st.integers(), max_size=2),
)
# JSON values that are not a spec id
NON_TEXT = st.one_of(st.integers(), st.booleans(), st.none(), st.floats(), st.lists(st.text(max_size=2), max_size=2))


@st.composite
def components(draw):
    """1-5 well-formed components whose weights sum to 1."""
    k = draw(st.integers(1, 5))
    raw = draw(st.lists(st.floats(1e-6, 1.0), min_size=k, max_size=k))
    total = sum(raw)
    return [[w / total, draw(st.floats(-5.0, 5.0)), draw(st.floats(0.01, 5.0))] for w in raw]


@st.composite
def workload_docs(draw):
    """A well-formed workload of 5-7 specs, then at most one corruption."""
    specs = [{"id": draw(st.text(max_size=3)), "components": draw(components())}
             for _ in range(draw(st.integers(5, 7)))]
    comp = draw(st.sampled_from([c for spec in specs for c in spec["components"]]))
    corruption = draw(st.sampled_from(["none", "value", "scale", "arity", "weights", "no components",
                                       "few specs", "id", "csv id", "entry", "document"]))
    if corruption == "value":
        comp[draw(st.integers(0, 2))] = draw(JUNK)
    elif corruption == "scale":  # any finite magnitude, up to the largest float
        comp[draw(st.integers(1, 2))] = draw(st.one_of(st.floats(-1e300, 1e300), st.sampled_from([1e6, -1e6, 5e-324])))
    elif corruption == "arity":
        if draw(st.booleans()):
            comp.pop()
        else:
            comp.append(draw(JUNK))
    elif corruption == "weights":
        comp[0] *= draw(st.floats(0.0, 3.0))
    elif corruption == "no components":
        specs[0]["components"] = []
    elif corruption == "few specs":
        del specs[draw(st.integers(0, 4)):]
    elif corruption == "id":
        specs[draw(st.integers(0, len(specs) - 1))]["id"] = draw(NON_TEXT)
    elif corruption == "csv id":  # text a raw CSV cell cannot hold
        specs[draw(st.integers(0, len(specs) - 1))]["id"] = draw(st.text(max_size=2)) + draw(
            st.sampled_from([",", '"', "\n", "\r"])) + draw(st.text(max_size=2))
    elif corruption == "entry":
        specs[draw(st.integers(0, len(specs) - 1))] = draw(st.one_of(JUNK, st.just({"id": "x"}),
                                                                    st.just({"components": []})))
    elif corruption == "document":
        return draw(st.one_of(JUNK, st.just({}), st.just({"specs": {}}), st.just({"specs": "abcde"})))
    return {"specs": specs}


def _unit_specs(last_component, last_id="4"):
    return {"specs": [{"id": str(i), "components": [[1.0, 0.0, 1.0]]} for i in range(4)]
            + [{"id": last_id, "components": [last_component]}]}


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workload_docs(), st.integers(1, 50), st.integers(1, 10), st.integers(0, 2**32))
@example(_unit_specs([1.0, 0.0, 1.3408478370622565e154]), 1, 1, 0)  # squared distances overflow to NaN
@example(_unit_specs([1.0, 0.0, 10**400]), 1, 1, 0)  # an int no float can hold
@example(_unit_specs([1.0, -1e6, 1e6]), 50, 10, 0)  # the largest scale allowed
@example(_unit_specs([1.0, 0.0, 1.0], last_id="1,2"), 1, 1, 0)  # a comma would split the id's cell
def test_mixture_workload_runs_or_exits_1(doc, count, steps, seed):
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "specs.json"), "w") as fh:
            json.dump(doc, fh)
        config = validate_config({"technique": "stepsaver", "master_seed": seed,
                                  "params": {"workload": "specs.json", "count": count, "steps": steps}})
        try:
            report = run(config, base_dir=tmp)
        except (ParseError, SchemaError):
            return
    rows = report.metrics["rows"]
    assert len(rows) >= 5
    assert [r["spec_id"] for r in rows] == [spec["id"] for spec in doc["specs"]]
    cells = list(csv.reader(io.StringIO(csv_text(rows), newline="")))
    assert [row[0] for row in cells[1:]] == [spec["id"] for spec in doc["specs"]]
    assert {len(row) for row in cells} == {len(cells[0])}
    values = [r[key] for r in rows for key in ("w1", "baseline_w1", "difficulty")]
    assert all(math.isfinite(v) for v in values)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=2), children, max_size=3),
    max_leaves=12)
# the probe is the small model; the workload's tokens must lie inside both vocabularies (3 and 4)
ROUTE_SMALL = varied_entropy_table_model(3, 1, Rng(5))
ROUTE_LARGE = random_table_model(4, 2, Rng(6), cost_units=4.0)
ROUTE_THETAS = (-math.inf, 0.0, 0.5, 1.0, math.inf)
TOKENS = st.integers(0, 2)
# JSON values that are not a token both models can read
BAD_TOKENS = st.one_of(st.booleans(), st.floats(), st.integers(3, 9), st.integers(-9, -1), st.just(10**400),
                       st.none(), st.text(max_size=2), st.lists(TOKENS, max_size=2))


@st.composite
def route_docs(draw, corruptions=1):
    """A well-formed route workload of 1-6 items, then at most `corruptions` corruptions."""
    items = [{"prompt": draw(st.lists(TOKENS, min_size=1, max_size=5)),
              "continuation": draw(st.lists(TOKENS, min_size=1, max_size=5))}
             for _ in range(draw(st.integers(1, 6)))]
    for _ in range(corruptions):
        if not items:
            break
        index = draw(st.integers(0, len(items) - 1))
        field = draw(st.sampled_from(["prompt", "continuation"]))
        corruption = draw(st.sampled_from(["none", "token", "empty", "value", "missing", "entry", "no items",
                                           "document"]))
        entry = items[index]
        if corruption == "token" and isinstance(entry, dict) and isinstance(entry.get(field), list):
            entry[field].insert(draw(st.integers(0, len(entry[field]))), draw(BAD_TOKENS))
        elif corruption == "empty" and isinstance(entry, dict):
            entry[field] = []
        elif corruption == "value" and isinstance(entry, dict):
            entry[field] = draw(JSON_VALUES)
        elif corruption == "missing" and isinstance(entry, dict):
            entry.pop(field, None)
        elif corruption == "entry":
            items[index] = draw(JSON_VALUES)
        elif corruption == "no items":
            items.clear()
        elif corruption == "document":
            return draw(JSON_VALUES | st.sampled_from([{}, {"items": {}}, {"items": "ab"}, {"items": None}]))
    return {"items": items}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(route_docs())
@example({"items": [{"prompt": [], "continuation": [0]}]})  # an empty prompt
@example({"items": [{"prompt": [0], "continuation": []}]})  # an empty continuation
@example({"items": [{"prompt": [0, True], "continuation": [1]}]})  # a bool token
@example({"items": [{"prompt": [0], "continuation": [1.0]}]})  # a float token
@example({"items": [{"prompt": [3], "continuation": [1]}]})  # inside the large model's vocabulary only
@example({"items": [{"prompt": [2, 0, 1, 1, 2], "continuation": [0, 2, 2, 1]}]})  # a report
def test_route_workload_runs_or_exits_1(doc):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, f"{name}.json") for name in ("small", "large", "items")}
        save_model(ROUTE_SMALL, paths["small"])
        save_model(ROUTE_LARGE, paths["large"])
        with open(paths["items"], "w") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "route.csv")
        rc = main(["route", "--small", paths["small"], "--large", paths["large"], "--workload", paths["items"],
                   "--thetas=" + ",".join(map(repr, ROUTE_THETAS)), "--report", out])
        assert rc in (0, 1)
        assert os.path.exists(out) == (rc == 0)
        if rc == 1:
            return
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
    got = [tuple(float(row[key]) for key in ("total_cost", "mean_quality", "fraction_large")) for row in rows]
    assert all(math.isfinite(v) for values in got for v in values)
    items = [WorkloadItem(tuple(entry["prompt"]), tuple(entry["continuation"])) for entry in doc["items"]]
    ref = [route_evaluate_reference(theta, items, ROUTE_SMALL, ROUTE_LARGE)
           for theta in ROUTE_THETAS]
    assert got == [(r.total_cost, r.mean_quality, r.fraction_large) for r in ref]


def _loaded(load, path):
    try:
        return load(path, ROUTE_SMALL, ROUTE_LARGE)
    except SchemaError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(route_docs(corruptions=3))
@example({"items": [{"prompt": [], "continuation": [0]}]})  # an empty prompt
@example({"items": [{"prompt": [0], "continuation": []}]})  # an empty continuation
@example({"items": [{"prompt": [0, True], "continuation": [1]}]})  # a bool token
@example({"items": [{"prompt": [0], "continuation": [1.0]}]})  # a float token
@example({"items": [{"prompt": [3], "continuation": [1]}]})  # inside the large model's vocabulary only
@example({"items": [{"prompt": [0], "continuation": [-1]}]})  # a negative token
@example({"items": [{"prompt": [0], "continuation": [10**400]}]})  # past int64
@example({"items": [{"prompt": [0], "continuation": [1]}, {"prompt": [0, 9], "continuation": [1]},
                    {"prompt": [], "continuation": [1]}]})  # the out-of-vocabulary item comes first
@example({"items": [{"prompt": [1], "continuation": [2]}, {"prompt": [], "continuation": [7]},
                    {"prompt": [7], "continuation": [1]}]})  # an empty prompt is named before its token
@example({"items": [{"prompt": [0], "continuation": []}, {"prompt": [True], "continuation": [0]}]})
@example({"items": [{"prompt": [0.5]}, {"continuation": [1]}]})  # a prompt's type before a missing key
@example({"items": [{"prompt": [0], "continuation": [1]}, 3, {"prompt": [], "continuation": [1]}]})
def test_route_loader_matches_the_per_entry_reference(doc):
    """The array loader gives the per-entry loader's tokens and lengths, or
    raises the SchemaError message it raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "items.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        got, ref = _loaded(load_route_workload, path), _loaded(load_route_workload_reference, path)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert isinstance(got, RouteWorkload)
        expected = route_arrays(ref)
        assert [a.dtype for a in got] == [np.dtype(np.int64)] * 3
        assert [a.tolist() for a in got] == [a.tolist() for a in expected]


CELLS = st.one_of(st.floats().map(repr), st.integers().map(str), st.text(max_size=3))


@st.composite
def reports(draw):
    """(content, suffix, kind): arbitrary bytes, JSON rows, or a CSV with ragged rows; the
    rows' column names are the kind's two and "x"."""
    kind = draw(st.sampled_from(sorted(PLOT_KINDS)))
    names = st.sampled_from(PLOT_KINDS[kind] + ("x",))
    form = draw(st.sampled_from([".bin", ".json", ".csv"]))
    if form == ".bin":
        return draw(st.binary(max_size=40)), draw(st.sampled_from([".csv", ".json"])), kind
    if form == ".json":  # rows of mostly numbers, under "metrics" or not; a single row; or any value
        rows = draw(st.lists(st.dictionaries(names, st.integers() | st.floats() | JSON_VALUES, max_size=3),
                             max_size=4))
        doc = draw(st.sampled_from([{"metrics": {"rows": rows}}, {"rows": rows}, *rows[:1]]) | JSON_VALUES)
        return json.dumps(doc).encode(), form, kind
    lines = [draw(st.lists(names, max_size=3))] + draw(st.lists(st.lists(CELLS, max_size=4), max_size=4))
    end = draw(st.sampled_from(["", "\n", "\r\n"]))
    return ("\n".join(",".join(line) for line in lines) + end).encode(), form, kind


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(reports())
@example((b"", ".csv", "k-vs-speedup"))  # no header line
@example((b"k,simulated_speedup\n3\n", ".csv", "k-vs-speedup"))  # a row short of cells
@example((b"k,simulated_speedup\n3,\xe9\n", ".csv", "k-vs-speedup"))  # not UTF-8
@example((b"k,simulated_speedup\n" + b"1" * 131073 + b",1\n", ".csv", "k-vs-speedup"))  # beyond csv's field limit
@example((b"[1, 2]", ".json", "k-vs-speedup"))  # a list, not an object
@example((b'{"metrics": {"rows": [3, "k"]}}', ".json", "k-vs-speedup"))  # rows that are not objects
@example((b'{"metrics": {"k": true, "simulated_speedup": 1.0}}', ".json", "k-vs-speedup"))  # a bool, not a number
@example((b'{"rows": [{"k": 2, "simulated_speedup": 1.5}]}', ".json", "k-vs-speedup"))  # a series
def test_plot_reads_any_report_or_exits_1(report):
    content, suffix, kind = report
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "report" + suffix), os.path.join(tmp, "xy.txt")
        with open(path, "wb") as fh:
            fh.write(content)
        rc = main(["plot", "--report", path, "--kind", kind, "--out", out])
        assert rc in (0, 1)
        assert os.path.exists(out) == (rc == 0)


# numbers no config key or model entry should take as they are
ODD_NUMBERS = st.one_of(st.integers(), st.floats(), st.sampled_from([10**400, -10**400, 2**64, 5e-324, 1e308]))
ODD_VALUES = JSON_VALUES | ODD_NUMBERS | st.lists(ODD_NUMBERS, max_size=3)


@st.composite
def config_docs(draw):
    """A valid config of any technique, some keys left to their defaults, then at most one corruption."""
    technique = draw(st.sampled_from(sorted(_SCHEMAS)))
    params = {}
    for key, (_, default) in _SCHEMAS[technique].items():
        if default is _REQUIRED:
            params[key] = [0.5] if key == "thetas" else "in.json"
        elif draw(st.booleans()):
            params[key] = default
    doc = {"technique": technique, "params": params, "report": "out.report"}
    if draw(st.booleans()):
        doc["master_seed"] = draw(st.integers())
    corruption = draw(st.sampled_from(["none", "value", "unknown key", "missing", "top", "document"]))
    if corruption == "value":
        params[draw(st.sampled_from(sorted(_SCHEMAS[technique])))] = draw(ODD_VALUES)
    elif corruption == "unknown key":
        params[draw(st.text(max_size=3))] = draw(ODD_VALUES)
    elif corruption == "missing" and params:
        del params[draw(st.sampled_from(sorted(params)))]
    elif corruption == "top":
        doc[draw(st.sampled_from(["technique", "params", "report", "master_seed", "seed"]))] = draw(ODD_VALUES)
    elif corruption == "document":
        return draw(ODD_VALUES)
    return doc


@settings(max_examples=300, deadline=None)
@given(config_docs())
@example({"technique": [], "params": {}})  # an unhashable technique
@example({"technique": "eagle", "params": {"model": "in.json", "ridge": 10**400}})  # no float holds it
def test_config_validates_or_raises_schema_error(doc):
    try:
        config = validate_config(doc)
    except SchemaError:
        return
    params = config["params"]
    assert set(params) == set(_SCHEMAS[config["technique"]])
    values = [v for value in params.values() for v in (value if isinstance(value, list) else [value])]
    assert not any(isinstance(v, float) and math.isnan(v) for v in values)
    assert validate_config(config) == config


FUZZ_TABLE = random_table_model(3, 1, Rng(31), cost_units=2.0)
FUZZ_FEATURE = random_feature_model(3, 4, Rng(32))


def _entries(doc, path=()):
    """The path of every value inside doc, the document itself first."""
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _entries(value, path + (key,))


@st.composite
def model_docs(draw):
    """A saved table or feature model, then at most one corruption: any value
    replaced, a key dropped or added, or a table key rewritten."""
    doc = model_to_dict(draw(st.sampled_from([FUZZ_TABLE, FUZZ_FEATURE])))
    corruption = draw(st.sampled_from(["none", "value", "drop", "add", "table key"]))
    path = draw(st.sampled_from(list(_entries(doc))[1:]))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    if corruption == "value":
        holder[path[-1]] = draw(ODD_VALUES)
    elif corruption == "drop":
        del holder[path[-1]]
    elif corruption == "add":
        doc[draw(st.text(max_size=3))] = draw(ODD_VALUES)
    elif corruption == "table key" and "table" in doc:
        table = doc["table"]
        table[draw(st.text(alphabet="0123456789,- ", max_size=4))] = table.pop(sorted(table)[0])
    return doc


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model_docs())
@example({**model_to_dict(FUZZ_TABLE), "cost_units": 10**400})  # no float holds it
@example({**model_to_dict(FUZZ_FEATURE), "head_b": [10**400, 0.0, 0.0]})
@example({**model_to_dict(FUZZ_FEATURE), "embed": [[1.0] * 4] * 3, "recur_w": [[1.0] * 8] * 4,
          "head_w": [[1e308] * 4] * 2 + [[0.0] * 4]})  # finite weights whose scores overflow to NaN
def test_model_file_loads_or_exits_1(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "model.json"), os.path.join(tmp, "out.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        try:
            model = load_model(path)
        except (ParseError, SchemaError):
            model = None
        rc = main(["lookahead", "--model", path, "--n", "4", "--report", out])
        assert rc == (1 if model is None else 0)
        assert os.path.exists(out) == (rc == 0)
    if model is not None:
        for ctx in ((0,), (2, 1), (1, 0, 2)):
            check_dist(model.next_dist(ctx))

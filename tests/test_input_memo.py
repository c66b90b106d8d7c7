"""The input loaders parse and check each file's contents once per process.

`core.load_checked` keys what it builds by the file's exact bytes: every call
reads the file, equal bytes at any path give the one object built from them,
failures are never kept, and only the `_LOADED_CAP` objects used last are.
What a caller checks against other inputs (a route workload's vocabulary
against its models) runs at every call, and what the memo shares is
read-only, so no caller can change a later load.
"""

import dataclasses
import json
import os
import re
import shutil

import numpy as np
import pytest

from dynexec import core
from dynexec.cli import load_mixture_workload, load_route_workload, main
from dynexec.core import FeatureModel, Rng, TableModel, load_model, save_model
from dynexec.errors import ParseError, SchemaError

from helpers import random_table_model

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")


@pytest.fixture(autouse=True)
def cold_memo():
    core._loaded.clear()
    yield
    core._loaded.clear()


def _route(path):
    return load_route_workload(path, load_model(os.path.join(INPUTS, "small.json")),
                               load_model(os.path.join(INPUTS, "large.json")))


# each loader of a memoized file, and a golden input it reads
LOADERS = {
    "table-model": (load_model, "target.json"),
    "feature-model": (load_model, "feature.json"),
    "mixture-workload": (load_mixture_workload, "specs.json"),
    "route-workload": (_route, "items.json"),
}


def _copy(name, tmp_path, as_name):
    path = str(tmp_path / as_name)
    shutil.copyfile(os.path.join(INPUTS, name), path)
    return path


@pytest.mark.parametrize("kind", LOADERS)
def test_identical_bytes_at_any_path_give_the_same_object(tmp_path, kind):
    load, name = LOADERS[kind]
    first = load(_copy(name, tmp_path, "a.json"))
    assert load(_copy(name, tmp_path, "b.json")) is first
    assert load(os.path.join(INPUTS, name)) is first


def test_a_hit_does_not_parse_again(tmp_path, monkeypatch):
    parsed = []
    monkeypatch.setattr(core, "_parse_json", lambda data, path: parsed.append(path) or json.loads(data))
    path = _copy("text.json", tmp_path, "text.json")
    for _ in range(3):
        load_model(path)
    assert parsed == [path]


def _same_size_rewrite(path, old, new):
    """Replace old by new in the file, keeping its size and restoring its times."""
    assert len(old) == len(new)
    stat = os.stat(path)
    with open(path) as fh:
        text = fh.read()
    assert text.count(old) == 1
    with open(path, "w") as fh:
        fh.write(text.replace(old, new))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size and os.stat(path).st_mtime_ns == stat.st_mtime_ns


def test_a_rewrite_of_the_same_size_and_mtime_loads_the_new_contents(tmp_path):
    path = _copy("small.json", tmp_path, "small.json")
    assert load_model(path).cost_units == 1.0
    _same_size_rewrite(path, '"cost_units": 1.0', '"cost_units": 2.0')
    assert load_model(path).cost_units == 2.0

    specs = _copy("specs.json", tmp_path, "specs.json")
    spec_id = load_mixture_workload(specs)[0][0]
    _same_size_rewrite(specs, f'"{spec_id}"', f'"{spec_id[:-1]}#"')
    assert load_mixture_workload(specs)[0][0] == spec_id[:-1] + "#"

    items = str(tmp_path / "items.json")
    with open(items, "w") as fh:
        json.dump({"items": [{"prompt": [1], "continuation": [2]}]}, fh)
    assert _route(items).tokens.tolist() == [1, 2]
    _same_size_rewrite(items, "[2]", "[3]")
    assert _route(items).tokens.tolist() == [1, 3]


# per loader: a file whose JSON does not parse, and one that parses but fails its checks
MALFORMED = {
    "table-model": '{"kind": "table", "vocab_size": 2, "order": 0, "cost_units": 1.0, "table": {}}',
    "feature-model": '{"kind": "feature", "vocab_size": 2}',
    "mixture-workload": '{"specs": [{"id": "a", "components": [[1.0, 0.0, -1.0]]}]}',
    "route-workload": '{"items": [{"prompt": [0], "continuation": []}]}',
}


@pytest.mark.parametrize("kind", LOADERS)
def test_malformed_bytes_after_a_good_load_fail_at_every_call(tmp_path, kind):
    load, name = LOADERS[kind]
    path = _copy(name, tmp_path, "input.json")
    good = load(path)
    for content, error in (('{"kind": "table",\n "order" 0}', ParseError), (MALFORMED[kind], SchemaError)):
        with open(path, "w") as fh:
            fh.write(content)
        for _ in range(2):
            with pytest.raises(error, match=re.escape(path)):
                load(path)
    shutil.copyfile(os.path.join(INPUTS, name), path)
    assert load(path) is good


def test_a_missing_file_fails_as_before(tmp_path, capsys):
    path = _copy("text.json", tmp_path, "text.json")
    load_model(path)
    os.unlink(path)
    for _ in range(2):
        with pytest.raises(FileNotFoundError) as info:
            load_model(path)
        assert info.value.filename == path
    assert main(["lookahead", "--model", path, "--report", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{path}'\n"
    assert not (tmp_path / "out.json").exists()


def test_a_route_workload_is_checked_against_each_call_s_models(tmp_path):
    path = _copy("items.json", tmp_path, "items.json")
    workload = _route(path)
    assert workload.tokens.max() >= 4
    narrow = random_table_model(4, 1, Rng(5))
    for _ in range(2):
        with pytest.raises(SchemaError, match=r"item \d+ has a token outside the models' vocabulary of size 4"):
            load_route_workload(path, narrow, load_model(os.path.join(INPUTS, "large.json")))
    assert _route(path) is workload


@pytest.mark.parametrize("token", [-1, 6, 2**63, -2**63 - 1, 10**400])
def test_a_route_token_outside_every_vocabulary_fails_at_every_call(tmp_path, token):
    path = str(tmp_path / "items.json")
    with open(path, "w") as fh:
        json.dump({"items": [{"prompt": [1], "continuation": [2]}, {"prompt": [0], "continuation": [1, token]},
                             {"prompt": [], "continuation": [1]}]}, fh)
    for _ in range(2):
        with pytest.raises(SchemaError, match=r"item 1 has a token outside the models' vocabulary of size 6"):
            _route(path)


def test_the_memo_keeps_only_the_objects_used_last(tmp_path):
    paths = []
    for i in range(core._LOADED_CAP + 1):
        paths.append(str(tmp_path / f"m{i}.json"))
        save_model(random_table_model(3, 1, Rng(i)), paths[-1])
    first = [load_model(p) for p in paths[:core._LOADED_CAP]]
    assert load_model(paths[0]) is first[0]  # now the one used last
    load_model(paths[-1])  # past the cap: the one used longest ago goes
    assert len(core._loaded) == core._LOADED_CAP
    assert load_model(paths[0]) is first[0]
    again = load_model(paths[1])
    assert again is not first[1] and core.model_to_dict(again) == core.model_to_dict(first[1])


def _arrays(value):
    """Every numpy array reachable through the attributes, dicts and tuples of value."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, (TableModel, FeatureModel)):
        yield from _arrays(vars(value))


@pytest.mark.parametrize("kind", ["table-model", "feature-model", "route-workload"])
def test_every_array_a_memoized_load_returns_is_read_only(kind):
    load, name = LOADERS[kind]
    loaded = load(os.path.join(INPUTS, name))
    arrays = list(_arrays(loaded))
    assert len(arrays) >= 3
    for array in arrays:
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            array += 1
        np.testing.assert_array_equal(array, before)
    assert load(os.path.join(INPUTS, name)) is loaded


def test_a_memoized_mixture_workload_cannot_change():
    specs = load_mixture_workload(os.path.join(INPUTS, "specs.json"))
    assert isinstance(specs, tuple) and all(isinstance(pair, tuple) for pair in specs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        specs[0][1].components = ()
    assert all(isinstance(c, tuple) for _, spec in specs for c in spec.components)


def _report(tmp_path, target, draft):
    out = tmp_path / "out.json"
    assert main(["specdec", "--target", target, "--draft", draft, "--k", "3", "--n", "40", "--seed", "7",
                 "--report", str(out)]) == 0
    # every line but the wall clock and the draft's path
    return [line for line in out.read_text().splitlines(keepends=True)
            if not line.startswith((' "wall_clock_ms": ', '   "draft": '))]


@pytest.mark.parametrize("name", ["target.json", "feature.json"])
def test_a_self_draft_on_one_shared_model_reports_what_two_models_do(tmp_path, name):
    target = _copy(name, tmp_path, "target.json")
    copy = _copy(name, tmp_path, "copy.json")
    reformatted = str(tmp_path / "reformatted.json")
    with open(target) as fh:
        doc = json.load(fh)
    with open(reformatted, "w") as fh:
        json.dump(doc, fh)  # the same model in other bytes, so a separate object
    assert load_model(copy) is load_model(target)
    assert load_model(reformatted) is not load_model(target)
    shared = _report(tmp_path, target, target)
    assert _report(tmp_path, target, copy) == shared
    assert _report(tmp_path, target, reformatted) == shared
    assert '"acceptance_rate": 1.0' in "".join(shared)

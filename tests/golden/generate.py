"""Regenerate the golden reports in this directory.

    PYTHONPATH=src python tests/golden/generate.py

Writes the input files under `inputs/`, one `<name>.config.json` per golden
and, through `dynexec run --config`, the report each config names. The
reports are the reference `tests/test_golden.py` compares against, so rerun
this only for a deliberate change of report bytes, and record why in
CHANGES.md.
"""

import itertools
import json
import os
import sys

import numpy as np

from dynexec import FeatureModel, Rng, TableModel, save_model
from dynexec.cli import main
from dynexec.core import normalize, sample

HERE = os.path.dirname(os.path.abspath(__file__))

SEED = 20241101

CONFIGS = {
    "specdec": {"technique": "specdec", "report": "specdec.json", "params": {
        "target": "inputs/target.json", "draft": "inputs/draft.json",
        "k": 4, "n": 300, "prompt": [1, 2, 3]}},
    "specdec-feature": {"technique": "specdec", "report": "specdec-feature.json", "params": {
        "target": "inputs/feature.json", "draft": "inputs/feature-draft.json",
        "k": 3, "n": 60, "prompt": [4]}},
    "eagle": {"technique": "eagle", "report": "eagle.json", "params": {
        "model": "inputs/feature.json", "k": 3, "n": 80, "fit_seqs": 64, "fit_len": 12,
        "prompt": [2, 0, 4]}},
    "lookahead": {"technique": "lookahead", "report": "lookahead.json", "params": {
        "model": "inputs/text.json", "n": 300, "ngram": 2, "window": 4, "prompt": [1, 5]}},
    "lookahead-feature": {"technique": "lookahead", "report": "lookahead-feature.json", "params": {
        "model": "inputs/feature.json", "n": 60, "ngram": 2, "window": 3, "prompt": [0, 1]}},
    "early-exit": {"technique": "early-exit", "report": "early-exit.csv", "params": {
        "count": 800, "hard_fraction": 0.3, "taus": [0.0, 0.1, 0.3, 0.5, 0.7]}},
    "stepsaver": {"technique": "stepsaver", "report": "stepsaver.csv", "params": {
        "workload": "inputs/specs.json", "epsilon": 0.15, "count": 300}},
    "route": {"technique": "route", "report": "route.csv", "params": {
        "small": "inputs/small.json", "large": "inputs/large.json", "workload": "inputs/items.json",
        "thetas": [-1.0, 0.5, 1.0, 1.5, 100.0]}},
}


def _table(vocab, order, rng, sharpness, cost_units):
    """Rows from near uniform to peaked; every third window left to the fallback."""
    table = {}
    for i, window in enumerate(itertools.product(range(vocab), repeat=order)):
        if order and i % 3 == 2:
            continue
        table[window] = normalize(rng.uniforms(vocab) ** (sharpness * (0.5 + rng.uniform())))
    return TableModel(vocab, order, table, cost_units=cost_units)


def _text(vocab, rng):
    """Order-2 table whose argmax follows x' = (a + 3b + 1) mod V, so greedy text
    repeats with a long period that a one-token n-gram window mispredicts."""
    table = {}
    for a, b in itertools.product(range(vocab), repeat=2):
        row = rng.uniforms(vocab)
        row[(a + 3 * b + 1) % vocab] = row.max() + 0.5
        table[(a, b)] = normalize(row)
    return TableModel(vocab, 2, table)


def _feature(vocab, dim, rng, recur_scale, head_scale, cost_units):
    def take(scale, *shape):
        return ((rng.uniforms(int(np.prod(shape))) * 2.0 - 1.0) * scale).reshape(shape)

    return FeatureModel(vocab, take(1.0, vocab, dim), take(recur_scale, dim, 2 * dim),
                        take(recur_scale, dim), take(head_scale, vocab, dim), take(head_scale, vocab),
                        cost_units=cost_units)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def write_inputs(directory):
    rng = Rng(SEED)
    os.makedirs(directory, exist_ok=True)
    save_model(_table(8, 2, rng.child(0), 3.0, 8.0), os.path.join(directory, "target.json"))
    save_model(_table(8, 1, rng.child(1), 2.0, 1.0), os.path.join(directory, "draft.json"))
    save_model(_text(8, rng.child(2)), os.path.join(directory, "text.json"))
    save_model(_feature(6, 6, rng.child(4), 2.0, 1.0, 4.0), os.path.join(directory, "feature.json"))
    save_model(_feature(6, 6, rng.child(3), 0.8, 0.8, 1.0), os.path.join(directory, "feature-draft.json"))
    small = _table(6, 1, rng.child(5), 4.0, 1.0)
    large = _table(6, 2, rng.child(6), 2.0, 8.0)
    save_model(small, os.path.join(directory, "small.json"))
    save_model(large, os.path.join(directory, "large.json"))
    item_rng = rng.child(7)
    items = []
    for _ in range(40):
        prompt = [sample(np.full(6, 1 / 6), item_rng) for _ in range(2 + int(item_rng.uniform() * 3))]
        cont = []
        for _ in range(4 + int(item_rng.uniform() * 3)):
            cont.append(sample(large.next_dist(tuple(prompt + cont)), item_rng))
        items.append({"prompt": prompt, "continuation": cont})
    _write_json(os.path.join(directory, "items.json"), {"items": items})
    specs = [{"id": f"easy-{i}", "components": [[1.0, mean, 1.0]]}
             for i, mean in enumerate((-1.0, -0.4, 0.3, 0.9))]
    specs.insert(1, {"id": "hard-0", "components": [[0.5, -2.0, 0.2], [0.5, 2.0, 0.2]]})
    specs.append({"id": "hard-1", "components": [[0.3, -2.5, 0.2], [0.4, 0.0, 0.2], [0.3, 2.5, 0.2]]})
    _write_json(os.path.join(directory, "specs.json"), {"specs": specs})


def main_generate():
    write_inputs(os.path.join(HERE, "inputs"))
    for name, config in CONFIGS.items():
        path = os.path.join(HERE, f"{name}.config.json")
        _write_json(path, dict(config, master_seed=SEED))
        if main(["run", "--config", path]) != 0:
            sys.exit(f"golden {name} failed")


if __name__ == "__main__":
    main_generate()

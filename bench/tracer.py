"""In-memory span tracer installed from outside the program.

`Tracer.install` replaces each traced function by a wrapper: the attribute on
its class, or every module attribute of the package that holds the function,
so names other modules imported with `from .core import ...` are wrapped too.
`Tracer.enable(False)` puts the original functions back, so a run can
alternate traced and untraced rounds and measure the tracer's own cost.
A wrapper records a span (name, start, end, parent) while capturing is on,
counts calls, accumulates self time (its duration minus its children's) and,
for a few functions, a work count taken from the call's arguments.
"""

import functools
import json
import sys
import time
from array import array
from collections import Counter

TRACED = (
    "cli.main", "cli.validate_config", "cli.write_report",
    "core.load_model", "core.check_context", "core.sample", "core.entropy", "core.feature_forward",
    "core.Rng.uniforms", "core.Rng.normals", "core.TableModel.next_dist", "core.FeatureModel.next_dist",
    "specdec.draft", "specdec.verify", "specdec.residual",
    "eagle.sample_corpus", "eagle.fit_extrapolator", "eagle.eagle_draft",
    "lookahead.cache_update", "lookahead.propose",
    "earlyexit.gen_dataset", "earlyexit.train_stages", "earlyexit.sweep",
    "stepsaver.min_steps_oracle", "stepsaver.generate", "stepsaver.wasserstein1", "stepsaver.adaptive_generate",
    "router.evaluate", "router.difficulty",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# work counts measured from call arguments: metric name -> (traced function, count)
WORK = {
    "core.feature_forward.steps": ("core.feature_forward", lambda a, k: len(_arg(a, k, 1, "ctx"))),
    "lookahead.cache_update.windows": (
        "lookahead.cache_update",
        lambda a, k: max(0, len(_arg(a, k, 1, "history")) - (_arg(a, k, 0, "cache").n - 1))),
    "stepsaver.generate.sample_steps": (
        "stepsaver.generate", lambda a, k: _arg(a, k, 2, "steps") * _arg(a, k, 3, "count")),
}

# calls of a traced function made directly from another: metric name -> (parent, child)
EDGES = {"earlyexit.sweep.entropy_calls": ("earlyexit.sweep", "core.entropy")}


class Tracer:
    def __init__(self, span_cap):
        self.names = list(TRACED)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.work = Counter()
        self.edges = Counter()
        self.capturing = False
        self.span_cap = span_cap
        self.spans_seen = 0
        # stored spans, column-wise: id, name index, parent id (-1 at the root), start, end
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []    # frames: [span id, name index, start, child seconds]
        self._patches = []  # (holder, attribute, original, wrapper)

    def install(self, package="dynexec"):
        """Wrap every traced function of the already imported `package`."""
        counters = {fn: name for name, (fn, _) in WORK.items()}
        for idx, dotted in enumerate(self.names):
            module_name, *owner, attr = dotted.split(".")
            module = sys.modules[f"{package}.{module_name}"]
            holder = getattr(module, owner[0]) if owner else module
            original = holder.__dict__[attr]
            count = WORK[counters[dotted]][1] if dotted in counters else None
            wrapper = self._wrap(idx, original, counters.get(dotted), count)
            if owner:
                self._patches.append((holder, attr, original, wrapper))
                continue
            for name, mod in list(sys.modules.items()):
                if name == package or name.startswith(package + "."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original, wrapper))
        self.enable(True)

    def enable(self, on):
        """Put the wrappers in place, or the original functions back."""
        for holder, attr, original, wrapper in self._patches:
            setattr(holder, attr, wrapper if on else original)

    def _wrap(self, idx, fn, work_name, work_count):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.capturing:
                return fn(*args, **kwargs)
            if work_count is not None:
                self.work[work_name] += work_count(args, kwargs)
            span = self.spans_seen
            self.spans_seen += 1
            if stack:
                self.edges[(stack[-1][1], idx)] += 1
            frame = [span, idx, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.calls[idx] += 1
                self.self_s[idx] += duration - frame[3]
                parent = -1
                if stack:
                    stack[-1][3] += duration
                    parent = stack[-1][0]
                if span < self.span_cap:
                    self.span_id.append(span)
                    self.span_name.append(idx)
                    self.span_parent.append(parent)
                    self.span_start.append(frame[2])
                    self.span_end.append(end)

        return traced

    def metrics(self):
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[idx], "count")
            out[f"{name}.self_ms"] = (self.self_s[idx] * 1000.0, "ms")
        for name in WORK:
            out[name] = (self.work[name], "count")
        for name, (parent, child) in EDGES.items():
            out[name] = (self.edges[(self.names.index(parent), self.names.index(child))], "count")
        return out

    def dump(self, path):
        """Write the stored spans as JSON lines, one header line first."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans_seen": self.spans_seen, "spans_stored": len(self.span_id),
                                 "fields": ["id", "name", "parent", "start_s", "end_s"]}) + "\n")
            for i in range(len(self.span_id)):
                fh.write(json.dumps([self.span_id[i], self.names[self.span_name[i]], self.span_parent[i],
                                     self.span_start[i], self.span_end[i]]) + "\n")

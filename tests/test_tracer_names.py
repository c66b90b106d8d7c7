"""The benchmark's tracer still finds what it wraps.

`bench/tracer.py` wraps functions by dotted name and raises on a name it
cannot find, and its work counts read arguments by position. A refactor that
renames a traced function or moves one of those arguments would only show in
a traced benchmark run; these tests read the tracer, unchanged, and fail first.
"""

import importlib.util
import inspect
import os

import dynexec
import dynexec.cli  # noqa: F401  the tracer looks its names up among the imported modules

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py")

# each work count's traced function, and the argument names at the positions it reads
WORK_ARGUMENTS = {
    "core.feature_forward": {1: "ctx"},
    "lookahead.cache_update": {0: "cache", 1: "history"},
    "stepsaver.generate": {2: "steps", 3: "count"},
}


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_as_install_looks_it_up():
    tracer = _tracer().Tracer(span_cap=0)
    try:
        tracer.install("dynexec")  # raises KeyError on a name it cannot find
    finally:
        tracer.enable(False)


def test_work_counts_read_the_arguments_they_name():
    work = _tracer().WORK
    assert {function for function, _ in work.values()} == set(WORK_ARGUMENTS)
    for dotted, positions in WORK_ARGUMENTS.items():
        module_name, attr = dotted.split(".")
        parameters = list(inspect.signature(getattr(getattr(dynexec, module_name), attr)).parameters)
        assert {i: parameters[i] for i in positions} == positions, dotted

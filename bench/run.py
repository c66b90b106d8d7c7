"""Benchmark of the dynexec experiment lab, driven through `dynexec.cli.main`.

    python3 bench/run.py --workload long-context --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ./src. One
process is one closed-loop caller. It writes the first round's inputs from the
seed and runs one untimed warm-up (a set-up pass), then repeats whole rounds
of experiments (techniques interleaved; before each later round, a set-up pass
writes that round's own inputs) until about `--seconds` of wall time are done,
and checks every report. Experiments are timed in reference seconds
(refclock.py), which leave out the shared machine's changes of speed. The last
line of standard output is one JSON object: end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`. `--write-inputs DIR` only
writes one round's inputs to DIR.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

RATES = {  # technique -> (metric, unit)
    "specdec": ("specdec_tokens_per_s", "tokens/s"),
    "eagle": ("eagle_tokens_per_s", "tokens/s"),
    "lookahead": ("lookahead_tokens_per_s", "tokens/s"),
    "early-exit": ("early_exit_points_per_s", "points/s"),
    "stepsaver": ("stepsaver_specs_per_s", "specs/s"),
    "route": ("route_items_per_s", "items/s"),
}
DECODERS = ("specdec", "eagle", "lookahead")
SPAN_CAP = 100_000


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-inputs", metavar="DIR")
    p.add_argument("--round", type=int, default=0, help="with --write-inputs: the round whose inputs to write")
    return p.parse_args(argv)


def import_program(root):
    """Import dynexec from <root>/src, refusing any other copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dynexec", "cli.py")):
        sys.exit(f"error: no program at {src}/dynexec; run from the root of a checkout")
    sys.path.insert(0, src)
    import dynexec.cli

    if not os.path.abspath(dynexec.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"error: dynexec imported from {dynexec.cli.__file__}, not {src}")
    return dynexec.cli


class Bench:
    """One workload's closed loop: set-up passes, timed rounds, checks and tallies."""

    def __init__(self, cli, workload, seed, directory):
        import checks
        import refclock
        import workloads

        self.cli = cli
        self.checks = checks
        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.dir = directory
        self.checker = None
        self.tracer = None
        self.clock = refclock.ReferenceClock()
        self.setup_s = []                                 # set-up passes, reference seconds
        self.rounds = 0
        self.attempted = 0
        self.failures = []                                # (experiment, reason)
        self.traced = False                               # wrappers in place for this experiment
        self.time_s = {(t, on): 0.0 for t in RATES for on in (False, True)}  # reference seconds
        self.wall_s = {(t, on): 0.0 for t in RATES for on in (False, True)}
        self.work = {(t, on): 0 for t in RATES for on in (False, True)}
        self.latencies = {t: [] for t in RATES}           # traced (decoder size, reference seconds)
        self.reports = {t: [] for t in RATES}             # traced runs only

    def invoke(self, exp, timed=True):
        """Run one experiment through cli.main; returns (code, error, stderr,
        (wall seconds, reference seconds), report path). Spans are captured
        only for timed experiments."""
        suffix = "csv" if exp.technique in self.checks.CSV_TECHNIQUES else "json"
        report = os.path.join(self.dir, f"report.{suffix}")
        if os.path.exists(report):
            os.unlink(report)
        argv = [exp.technique] + [os.path.join(self.dir, a) if a.endswith(".json") else a for a in exp.flags]
        argv += ["--report", report]
        err = io.StringIO()
        code = error = None
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            if self.tracer and timed:
                self.tracer.capturing = True
            start = self.clock.now()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crashing experiment is a failed operation, not a crashed benchmark
                error = exc
            seconds = tuple(b - a for a, b in zip(start, self.clock.now()))
            if self.tracer:
                self.tracer.capturing = False
        return code, error, err.getvalue(), seconds, report

    def draw(self):
        """The round's input set and experiment seeds. Traced runs repeat each
        round's draw in the next round, so every experiment is timed both
        traced and untraced on the same work."""
        return self.rounds // 2 if self.tracer else self.rounds

    def setup_pass(self):
        """Write the inputs and run one small untimed experiment per technique."""
        _, start = self.clock.now()
        prompt = self.workloads.write_inputs(self.workload, self.seed, self.dir, self.draw())
        self.checker = self.checks.Checker(self.dir)
        for exp in self.workloads.warm_up(prompt):
            code, error, stderr, _, _ = self.invoke(exp, timed=False)
            if code != 0 or error is not None:
                raise SystemExit(f"warm-up {exp.technique} failed: {error or stderr.strip()}")
        self.setup_s.append(self.clock.now()[1] - start)
        return prompt

    def run_round(self, experiments):
        position = Counter()  # experiments of each technique so far in this round
        for i, exp in enumerate(experiments):
            if self.tracer:
                # alternate traced and untraced experiments of each technique, flipping every round
                self.traced = (position[exp.technique] + self.rounds) % 2 == 0
                self.tracer.enable(self.traced)
                position[exp.technique] += 1
            experiment_seed = (self.seed * 1_000_000 + self.draw()) * 10_000 + i
            exp = dataclasses.replace(exp, flags=exp.flags + ("--seed", str(experiment_seed)))
            self.attempted += 1
            code, error, stderr, seconds, report = self.invoke(exp)
            if exp.expect_error:
                reason = self.checks.check_malformed(exp, code, error, stderr, os.path.exists(report))
            elif error is not None or code != 0:
                reason = f"exit {code}: {error or stderr.strip()[:200]}"
            else:
                try:
                    reason, parsed = self.checker.check(exp, report)
                except (KeyError, ValueError, TypeError, IndexError) as exc:
                    reason, parsed = f"unreadable report: {exc!r}", None
                self.wall_s[exp.technique, self.traced] += seconds[0]
                self.time_s[exp.technique, self.traced] += seconds[1]
                self.work[exp.technique, self.traced] += exp.work
                if self.traced:
                    self.latencies[exp.technique].append((exp.size, seconds[1]))
                if parsed is not None and self.tracer:
                    self.reports[exp.technique].append(parsed)
            if reason:
                self.failures.append((exp, reason))
        self.rounds += 1

    def run(self, seconds, import_s):
        """Set up, then run whole rounds, each after one more set-up pass, until
        stopping now lands closer to `seconds` of timed phase than one more round
        would. With a tracer, every technique's experiments alternate between
        traced and original functions, so the tracer's cost is measured in the
        same machine phases; at least two rounds run so each experiment is seen both ways."""
        self.import_s = self.clock.to_reference(import_s)  # the import ran before the clock could
        self.clock.start()
        try:
            prompt = self.setup_pass()
            timed_start = time.perf_counter()
            while True:
                if self.rounds:
                    prompt = self.setup_pass()
                self.run_round(self.workloads.experiments(self.workload, prompt))
                elapsed = time.perf_counter() - timed_start
                if elapsed + 0.5 * elapsed / self.rounds >= seconds and (self.rounds > 1 or not self.tracer):
                    break
        finally:
            self.clock.stop()

    def rate(self, technique, traced=False, wall=False):
        seconds = (self.wall_s if wall else self.time_s)[technique, traced]
        return _share(self.work[technique, traced], seconds)

    def end_to_end(self):
        metrics = {"setup_s": (self.import_s + statistics.median(self.setup_s), "s")}
        for technique, (name, unit) in RATES.items():
            metrics[name] = (self.rate(technique), unit)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        return metrics

    def per_layer(self):
        import numpy as np

        metrics = self.tracer.metrics()
        for technique in RATES:
            ms = [s * 1000.0 for _, s in self.latencies[technique]]
            metrics[f"cli.main.{technique}.ms_p50"] = (float(np.percentile(ms, 50)), "ms")
            metrics[f"cli.main.{technique}.ms_p90"] = (float(np.percentile(ms, 90)), "ms")
        for technique in DECODERS:
            by_size = {}
            for size, s in self.latencies[technique]:
                if size:
                    by_size.setdefault(size, []).append(s)
            sizes = sorted(by_size)
            slope = np.polyfit(np.log(sizes), np.log([statistics.median(by_size[n]) for n in sizes]), 1)[0]
            metrics[f"{technique}.n_exponent"] = (float(slope), "exponent")
        metrics.update(ratios(self.reports, self.workloads.STEPS))
        metrics["machine.kernel_ms"] = (statistics.median(self.clock.samples) * 1000.0, "ms")
        for technique in RATES:
            # untraced rate over traced rate, minus one: the share tracing slows the technique down
            overhead = _share(self.rate(technique), self.rate(technique, traced=True)) - 1.0
            metrics[f"trace.overhead.{technique}"] = (overhead, "ratio")
        return metrics


def _share(num, den):
    return num / den if den else 0.0


def ratios(reports, steps):
    """Useful-to-attempted ratios over every report of the run, each weighted by its base."""
    out = {}
    for technique in ("specdec", "eagle"):
        ms = reports[technique]
        out[f"{technique}.acceptance"] = _share(sum(m["acceptance_rate"] * m["draft_calls"] for m in ms),
                                                sum(m["draft_calls"] for m in ms))
    ms = reports["specdec"]
    out["specdec.tokens_per_target_call"] = _share(sum(m["tokens_generated"] for m in ms),
                                                   sum(m["target_calls"] for m in ms))
    ms = reports["lookahead"]
    out["lookahead.hit_ratio"] = _share(sum(m["verified_hits"] for m in ms), sum(m["proposed"] for m in ms))
    rows = [r for rs in reports["early-exit"] for r in rs]
    out["earlyexit.exit_fraction"] = _share(sum(r["early_exit_fraction"] for r in rows), len(rows))
    rows = [r for rs in reports["route"] for r in rs]
    out["router.fraction_large"] = _share(sum(r["fraction_large"] for r in rows), len(rows))
    rows = [r for rs in reports["stepsaver"] for r in rs]
    out["stepsaver.steps_ratio"] = _share(sum(r["steps_used"] for r in rows), steps * len(rows))
    # the quality the saved steps cost: mean W1 against the mean T-step baseline W1
    out["stepsaver.w1_ratio"] = _share(sum(r["w1"] for r in rows), sum(r["baseline_w1"] for r in rows))
    return {name: (value, "ratio") for name, value in out.items()}


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    cli = import_program(root)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("error: --seed must be >= 0 and --seconds > 0")
    workload = workloads.WORKLOADS[args.workload]
    if args.write_inputs:
        workloads.write_inputs(workload, args.seed, args.write_inputs, args.round)
        return 0
    import_s = time.perf_counter() - PROCESS_START

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    work = os.path.join(bench_dir, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        bench = Bench(cli, workload, args.seed, work)
        if args.trace:
            import tracer

            bench.tracer = tracer.Tracer(SPAN_CAP)
            bench.tracer.install()
        bench.run(args.seconds, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    failed_kinds = Counter((exp.technique, " ".join(exp.flags[:-2]), reason) for exp, reason in bench.failures)
    for (technique, flags, reason), count in failed_kinds.items():
        print(f"FAILED {count}x {technique} {flags}: {reason}", file=sys.stderr)
    unexpected = [exp for exp, _ in bench.failures if not exp.expect_error]
    metrics = bench.per_layer() if args.trace else bench.end_to_end()
    if args.trace:
        out_dir = os.path.join(bench_dir, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}.jsonl")
        bench.tracer.dump(path)
        print(f"spans: {os.path.relpath(path, root)}", file=sys.stderr)
    shares = ", ".join(f"{t} {bench.wall_s[t, False] + bench.wall_s[t, True]:.2f}" for t in RATES)
    wall_rates = ", ".join(f"{name} {bench.rate(t, wall=True):.6g}" for t, (name, _) in RATES.items())
    print(f"{args.workload} seed {args.seed}: {bench.rounds} rounds, {bench.attempted} experiments; "
          f"wall seconds per technique: {shares}; median kernel {statistics.median(bench.clock.samples) * 1000:.3f} ms; "
          f"wall-clock rates: {wall_rates}", file=sys.stderr)
    result = {
        "correct": not unexpected,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the eqdeform command line, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory, so nothing is installed.  A workload is a fixed list
of CLI operations (``bench/workloads.py``).  One pass runs each operation
once as an in-process ``eqdeform.cli.main(argv)`` call with stdout
captured, in an order shuffled by the seed.  Passes run back to back,
closed loop with one client and no threads, until the next pass would
end after ``--seconds``.  Every operation's exit code and stdout bytes are
compared with its expected output; a mismatch counts as failed.

``--trace 0`` reports the end-to-end metrics (means over passes).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``bench/tracer.py`` plus the tracing overhead; its
spans go to ``.bench_out/trace-<workload>-<seed>.jsonl``.  Human-readable
lines come first; the last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, problem_files  # noqa: E402

SETUP_REPEATS = 12
# A fixed pure-Python loop timed before each pass: a host-speed probe for
# recognizing a noisy run.  Nothing is divided by it.
SPIN_ITERATIONS = 1_000_000


def spin() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(SPIN_ITERATIONS):
        total += i
    return time.perf_counter() - start


def missing_inputs(workload: str) -> list:
    needed = [ROOT / "src" / "eqdeform" / "cli.py"]
    for op in WORKLOADS[workload]:
        needed.append(ROOT / op.expected)
        needed.extend(ROOT / path for path in op.problem_files)
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import eqdeform.cli

    source = Path(eqdeform.cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"eqdeform imported from {source}, not this checkout")
    return eqdeform.cli.main


def measure_setup(workload: str, repeats: int) -> list:
    """Wall seconds of fresh interpreters that import eqdeform and parse
    the workload's problem files; one untimed run first fills the
    bytecode cache."""
    argv = [sys.executable, str(ROOT / "bench" / "setup_probe.py"),
            *problem_files(workload)]
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times[1:]


class Runner:
    """Runs passes of one workload and keeps every sample."""

    def __init__(self, workload: str, seed: int, main):
        self.ops = WORKLOADS[workload]
        self.expected = [(ROOT / op.expected).read_bytes() for op in self.ops]
        self.rng = random.Random(seed)
        self.main = main
        self.op_samples = [[] for _ in self.ops]
        self.attempted = 0
        self.failures: list = []
        self.next_op_id = 0

    def run_op(self, index: int, tracer=None) -> float:
        op = self.ops[index]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = self.next_op_id
        self.next_op_id += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.main(list(op.argv))
                except SystemExit as exc:
                    code = exc.code
        except Exception:  # a crash is a failed operation, not a failed run
            code = "exception: " + traceback.format_exc()
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if code != op.code or out.getvalue().encode("utf-8") != self.expected[index]:
            self.failures.append((op.name, code, err.getvalue()))
        return elapsed

    def run_pass(self, tracer=None) -> dict:
        order = list(range(len(self.ops)))
        self.rng.shuffle(order)
        spin_s = spin()
        op_s = [0.0] * len(self.ops)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.install()
        try:
            for index in order:
                op_s[index] = self.run_op(index, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if tracer is None:
            for index, seconds in enumerate(op_s):
                self.op_samples[index].append(seconds)
        return {"wall": wall, "cpu": cpu, "spin": spin_s}


def run_until(deadline: float, round_fn) -> list:
    """Repeat round_fn until the next round, at the median round length
    so far, would end after the deadline; at least one round."""
    rounds, lengths = [], []
    while True:
        start = time.perf_counter()
        rounds.append(round_fn())
        lengths.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(lengths) > deadline:
            return rounds


def end_to_end(workload: str, runner: Runner, passes: list, setup: list) -> dict:
    """Time metrics are means over the timed passes, so that each one
    averages over the whole run: on a shared host the speed drifts in
    phases of tens of seconds, and a mean over the run is steadier from
    run to run than a median or a minimum.  The first pass fills caches
    and finishes lazy set-up; its outputs are checked but not timed."""
    timed = passes[1:] or passes
    op_samples = [s[1:] or s for s in runner.op_samples]
    op_means = [statistics.fmean(s) for s in op_samples]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.fmean(p["wall"] for p in timed), "s"),
        "pass_cpu_s": (statistics.fmean(p["cpu"] for p in timed), "s"),
        "op_geomean_ms": (1000 * math.exp(statistics.fmean(
            math.log(m) for m in op_means)), "ms"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }

    n = len(timed)
    print(f"# workload {workload}: {n} timed passes of {len(runner.ops)} "
          f"operations, {len(passes) - n} warm-up pass before them")
    for name, (value, unit) in metrics.items():
        if name == "setup_s":
            count = f"median of {len(setup)} fresh interpreters"
        elif name == "peak_rss_mib":
            count = "this process"
        else:
            count = f"mean of {n} passes"
        print(f"#   {name:14s} {value:12.6f} {unit:5s} ({count})")
    walls = [p["wall"] for p in timed]
    all_samples = [x for s in op_samples for x in s]
    print(f"#   pass wall      median {statistics.median(walls):.6f} s, "
          f"range {min(walls):.6f}-{max(walls):.6f} s")
    # Printed, not gated: the tail of one run follows the host's slow
    # phases more than the program.
    if len(all_samples) >= 2:
        p90 = statistics.quantiles(all_samples, n=10, method="inclusive")[8]
        print(f"#   op_p90_s       {p90:12.6f} s     "
              f"(over {len(all_samples)} operation samples)")
    print(f"#   failed_frac    {len(runner.failures) / runner.attempted:12.6f}"
          f"       ({len(runner.failures)} of {runner.attempted} operations)")
    # The wait for one verdict: per pass, the summed time of a command's
    # operations.  Reported here only, since on a workload where a command
    # is incidental this is a few milliseconds and too noisy to gate on.
    for command in ("tangent", "obstruction", "lift"):
        rows = [s for op, s in zip(runner.ops, op_samples)
                if op.command == command]
        if rows:
            per_pass = [sum(col) for col in zip(*rows)]
            print(f"#   {command + '_s':14s} {statistics.fmean(per_pass):12.6f} s"
                  f"     (mean of {n} passes, {len(rows)} operations)")
    spins = [p["spin"] for p in passes]
    print(f"#   host spin_s    median {statistics.median(spins):.4f}, "
          f"range {min(spins):.4f}-{max(spins):.4f}")
    for op, m in zip(runner.ops, op_means):
        print(f"#   op {m:10.4f} s  {op.name}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def per_layer(workload: str, seed: int, runner: Runner, deadline: float) -> dict:
    """Alternate untraced and traced passes.  Spans of each traced pass are
    summed and dropped, except the first pass's, which go to a file."""
    tracer = tracing.Tracer()
    summary = tracing.SpanSummary()
    plain, traced, kept = [], [], []

    def one_round():
        plain.append(runner.run_pass())
        traced.append(runner.run_pass(tracer))
        summary.add(tracer.spans)
        if not kept:
            kept.extend(tracer.spans)
        tracer.spans.clear()

    run_until(deadline, one_round)
    overhead = (statistics.median(p["wall"] for p in traced)
                / statistics.median(p["wall"] for p in plain) - 1)
    spins = [p["spin"] for p in plain + traced]
    metrics = tracing.layer_metrics(summary, tracer.counts, len(traced))
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    metrics["host.spin_s"] = {"value": statistics.median(spins), "unit": "s"}

    traced_s = sum(p["wall"] for p in traced)
    print(f"# workload {workload}: {len(traced)} traced and {len(plain)} "
          f"untraced passes, {len(kept)} spans in the first traced pass")
    print(f"#   trace overhead {overhead:+.3f}")
    print("#   self time share of traced pass time, by layer:")
    for layer, seconds in sorted(summary.by_layer.items(), key=lambda kv: -kv[1]):
        print(f"#     {layer:12s} {seconds / traced_s:7.3f}")
    print(f"#   linalg self time under {tracing.UNDER_SPAN}: "
          f"{summary.under.get('linalg', 0.0) / traced_s:.3f}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-{seed}.jsonl"
    tracing.write_spans(kept, str(path))
    print(f"#   spans of the first traced pass written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = missing_inputs(args.workload)
    if missing:
        print("error: not a complete eqdeform checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    os.chdir(ROOT)
    cli_main = import_cli()
    runner = Runner(args.workload, args.seed, cli_main)
    if args.trace:
        deadline = time.perf_counter() + args.seconds
        metrics = per_layer(args.workload, args.seed, runner, deadline)
    else:
        # Half the set-up samples before the passes and half after, so
        # that their median spans the run rather than one moment of it.
        setup = measure_setup(args.workload, SETUP_REPEATS // 2)
        deadline = time.perf_counter() + args.seconds
        passes = run_until(deadline, runner.run_pass)
        setup += measure_setup(args.workload, SETUP_REPEATS - len(setup))
        metrics = end_to_end(args.workload, runner, passes, setup)

    for name, code, err in runner.failures:
        print(f"# FAILED {name}: exit {code} {err.strip()[:500]}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

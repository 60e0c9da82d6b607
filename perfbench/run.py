"""Benchmark of ``bdar``: runs one workload and prints its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload compare-quarterly --seed 1 --seconds 20 --trace 0

Workloads: ``compare-quarterly``, ``replicate-gumbel``, ``evaluate-d30`` (see
``workloads.py`` and ``README.md``). With ``--trace 0`` the last line of the
standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run instead.

Each workload runs in its own single-threaded process (BLAS pinned to one
thread by environment variable), one process at a time. ``setup_s`` is the
median over several fresh interpreters of the time from process start until
``bdar`` is imported and the inputs are built. ``pass_s`` is the fastest
measured pass: a shared machine can slow by up to 2x for seconds to minutes
at a time, and the fastest pass is what such slowdowns disturb least.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench"

SETUP_SAMPLES = 3  # fresh interpreters timed per run; the workload process is one of them
SETUP_TIMEOUT_S = 30.0
RUN_GRACE_S = 100.0  # time a run may take beyond --seconds before it is stopped

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))

# Timings of single operations, printed for the workloads that run them.
OPERATIONS = (
    ("compare_s", "s"),
    ("mc_forecast_s", "s"),
    ("fits_per_s", "1/s"),
    ("simulate_s", "s"),
    ("loglik_s", "s"),
    ("exact_forecast_s", "s"),
)

EXTRA_PER_LAYER = (
    ("trace.overhead_s", "s"),
    ("workload.d1d2", "count"),
    ("workload.T", "count"),
    ("env.blas_threads", "count"),
    ("env.nproc", "count"),
)


def per_layer_specs():
    from tracing import PER_LAYER_SPECS

    return [(name, unit) for name, unit, _ in PER_LAYER_SPECS] + list(EXTRA_PER_LAYER)


class Child:
    """A worker process whose standard output is read line by line; killed on timeout."""

    def __init__(self, argv, log, timeout: float):
        self.start = time.perf_counter()
        env = dict(os.environ, **THREAD_ENV)
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *argv],
            stdout=subprocess.PIPE,
            stderr=log,
            env=env,
            cwd=ROOT,
            text=True,
        )
        self.timer = threading.Timer(timeout, self.proc.kill)
        self.timer.start()

    def readline(self) -> str:
        return self.proc.stdout.readline().strip()

    def close(self) -> int:
        try:
            self.proc.stdout.close()
            return self.proc.wait()
        finally:
            self.timer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def wait_ready(child: Child) -> float:
    if child.readline() != "ready":
        raise RuntimeError("workload process ended before its inputs were built")
    return time.perf_counter() - child.start


def run_workload(args, log):
    """Time set-up in fresh interpreters, then run the workload; returns (setup times, result)."""
    argv = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale,
    ]
    setup_times = []
    probes = SETUP_SAMPLES - 1 if args.trace == 0 else 0
    for _ in range(probes):
        child = Child(argv + ["--setup-only"], log, SETUP_TIMEOUT_S)
        try:
            setup_times.append(wait_ready(child))
        finally:
            code = child.close()
        if code != 0:
            raise RuntimeError(f"set-up process exited with code {code}")
    child = Child(argv, log, args.seconds + RUN_GRACE_S)
    try:
        setup_times.append(wait_ready(child))
        line = child.readline()
    finally:
        code = child.close()
    if code != 0 or not line:
        raise RuntimeError(f"workload process exited with code {code}")
    return setup_times, json.loads(line)


def best_ops(passes) -> dict:
    """Each operation's best value over the passes: the least time, the highest rate."""
    names = {name for p in passes for name in p["ops"]}
    best = {}
    for name in names:
        values = [p["ops"][name] for p in passes if name in p["ops"]]
        best[name] = max(values) if name.endswith("_per_s") else min(values)
    return best


COUNT_UNITS = ("count", "bytes", "ratio")


def repeated_counts(traced, units) -> list:
    """Reasons for every count that differs between traced passes of the same input."""
    reasons = []
    for index in sorted({p["index"] for p in traced}):
        group = [p["layers"] for p in traced if p["index"] == index]
        for name, unit in units.items():
            values = {layers.get(name) for layers in group}
            if unit in COUNT_UNITS and len(values) > 1:
                reasons.append(f"count {name} differs between runs of input {index}: {sorted(values)}")
    return reasons


def fmt(value) -> str:
    return "n/a" if value is None else repr(value)


def report(args, setup_times, result):
    """Print the human-readable report; return (metrics, extra failure reasons)."""
    passes = result["passes"]
    measured = [p for p in passes if not p["repeat"]]
    untraced = [p for p in measured if not p["traced"]]
    traced = [p for p in measured if p["traced"]]
    env, sizes = result["env"], result["sizes"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"bdar benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(measured)} measured passes ({len(traced)} traced) and 1 repeat")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}")
    print(f"size: d1*d2 {sizes['d1d2']}, T {sizes['T']}")
    ops = best_ops(untraced)
    pass_s = min(p["pass_s"] for p in untraced)
    print(f"end to end (best of {len(untraced)} untraced passes):")
    rows = [
        ("setup_s", statistics.median(setup_times), "s", f"median of {len(setup_times)} fresh interpreters"),
        ("pass_s", pass_s, "s", "fastest pass of the workload"),
    ]
    rows += [(name, ops.get(name), unit, "") for name, unit in OPERATIONS]
    rows += [
        ("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} operations failed"),
        ("peak_rss_mb", result["peak_rss_mb"], "MB", "peak memory of the workload process"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<18} {fmt(value):<24} {unit:<6} {note}")
    reasons = []
    if args.trace == 0:
        values = {name: value for name, value, _, _ in rows}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        return metrics, reasons

    specs = per_layer_specs()
    units = dict(specs)
    reasons += repeated_counts([p for p in passes if p["traced"]], units)
    untraced_s = {p["index"]: p["pass_s"] for p in untraced}
    overhead = statistics.median(p["pass_s"] - untraced_s[p["index"]] for p in traced)
    # Counts are those of input 0, which every run of a seed traces, so they
    # repeat exactly across runs; times are medians over the traced passes.
    first = traced[0]["layers"]
    layers = {
        name: first[name] if units.get(name) in COUNT_UNITS
        else statistics.median(p["layers"][name] for p in traced)
        for name in first
    }
    layers["trace.overhead_s"] = overhead
    layers["workload.d1d2"] = sizes["d1d2"]
    layers["workload.T"] = sizes["T"]
    layers["env.nproc"] = env["nproc"]
    if env["blas_threads"] is not None:
        layers["env.blas_threads"] = env["blas_threads"]
    print(f"tracing overhead: traced minus untraced pass_s on the same input, median over "
          f"{len(traced)} pairs: {overhead!r} s "
          f"({100 * overhead / statistics.median(untraced_s.values()):.1f}% of the median untraced pass)")
    print(f"spans of the first traced pass: {result['spans_file']}")
    print("per layer (counts of input 0; times are medians over traced passes and per pass "
          "unless the name says otherwise):")
    for name, unit in specs:
        print(f"  {name:<38} {fmt(layers[name]) if name in layers else 'absent':<24} {unit}")
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in specs if name in layers}
    return metrics, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bdar" / "__init__.py").is_file():
        print(f"error: no bdar sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    log_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.log"
    with open(log_path, "w") as log:
        try:
            setup_times, result = run_workload(args, log)
        except (RuntimeError, json.JSONDecodeError) as exc:
            log.flush()
            tail = log_path.read_text().splitlines()[-20:]
            print("\n".join(tail + [f"error: {exc}; full log in {log_path}"]), file=sys.stderr)
            return 1
    metrics, reasons = report(args, setup_times, result)
    for reason in result["failures"] + reasons:
        print(f"FAILED: {reason}")
    if result["absent"]:
        print(f"absent (hooked name no longer exists): {', '.join(result['absent'])}")
    outcome = {
        "correct": result["failed"] == 0 and not reasons,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())

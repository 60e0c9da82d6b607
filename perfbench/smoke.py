"""Self-test of the benchmark; not part of the repository's test suite.

Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` once at tiny size, untraced and
traced, and checks that no operation failed, that the result line holds
exactly the metrics ``BENCHMARK.json`` names with their units, and that each
of them, and each single-operation timing the workload runs, is printed with
its unit. It also checks that a hook whose target has disappeared makes the
dependent per-layer metrics absent instead of failing. Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Single-operation timings each workload prints (besides the gated metrics).
OPERATIONS = {
    "compare-quarterly": ("compare_s", "mc_forecast_s"),
    "replicate-gumbel": ("fits_per_s",),
    "evaluate-d30": ("simulate_s", "loglik_s", "mc_forecast_s", "exact_forecast_s"),
}
ALWAYS_PRINTED = (("failed_frac", "ratio"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
OPERATION_UNITS = {"fits_per_s": "1/s"}


def run(workload: str, trace: int):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} exited with {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def printed(lines, name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and unit in line.split()[2:] for line in lines)


def check_workload(bench: dict, workload: str) -> list:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, result = run(workload, trace)
        where = f"{workload} trace {trace}"
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{where}: result {result['correct']}, {result['failed']} of {result['attempted']} failed")
        expected = {m["name"]: m["unit"] for m in bench[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
        wanted = list(expected.items()) + list(ALWAYS_PRINTED)
        wanted += [(name, OPERATION_UNITS.get(name, "s")) for name in OPERATIONS[workload]]
        problems += [f"{where}: {name} [{unit}] not printed" for name, unit in wanted if not printed(lines, name, unit)]
    return problems


def check_absent_hooks() -> list:
    """A hooked name that no longer exists makes its metrics absent, not an error."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bdar.inference
    from tracing import Tracer

    removed = bdar.inference._innovation_cells
    del bdar.inference._innovation_cells
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
        bdar.inference._innovation_cells = removed
    absent = tracer.absent()
    want = {"joint.innovation_cells_calls", "joint.innovation_cells_self_s", "inference.objective_self_us"}
    if tracer.missing != {"bdar.inference:_innovation_cells"} or not want <= absent:
        return [f"removing _innovation_cells gave missing {tracer.missing}, absent {sorted(absent)}"]
    if "copulas.cdf_calls" in absent:
        return ["an unrelated metric was reported absent"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_absent_hooks()
    for workload in bench["workloads"]:
        problems += check_workload(bench, workload["name"])
        print(f"{workload['name']}: checked", flush=True)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

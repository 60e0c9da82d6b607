"""Paired benchmark runs of two checkouts, written as a BENCH_*.json file.

For each workload and seed, runs ``python3 perfbench/run.py ... --trace 0``
once in the parent checkout and once in the change checkout, alternating which
side goes first, and reads the JSON object on the last line of each run's
output. Per end-to-end metric it records each side's median and quartiles and
in how many pairs the change was better, in all and split by the side that
ran first in the pair, so that a run-order effect can be told from a
difference between the sides. An odd number of seeds lets the parent run
first once more than the change, and draws a warning. It also records every
run's outcome and the ``attempted``/``failed`` counts. One ``--trace 1`` run
per side (first seed) adds the per-layer metrics in ``TRACED``, and
``count_mismatches``: the traced metrics of unit ``count`` whose two sides
differ, which a change that keeps every value bit for bit leaves empty.
Uses the standard library only.

Build both sides the same way, as fresh clones: commit the change, then
clone it twice and check the parent out in one clone. Run from anywhere, for
example:

    git clone --quiet . ../change
    git clone --quiet . ../parent && git -C ../parent checkout --quiet HEAD~1
    python3 tools/bench_pairs.py --parent ../parent --change ../change \\
        --workload evaluate-d30 --seeds 1-10 --seconds 30 --output BENCH_6.json

An existing output file is updated: workloads not run this time are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

TRACED = (
    "copulas.cdf_calls",
    "joint.innovation_cells_calls",
    "inference.objective_self_us",
    "model.stationary_s",
    "joint.sample_joint_s",
    "model.simulate_s",
    "forecast.mc_self_s",
    "inference.fits",
    "inference.objective_evals",
    "inference.objective_evals_per_fit",
    "inference.objective_evals.m1",
    "inference.objective_evals.m2",
    "inference.objective_evals.m3",
    "inference.objective_evals.m4",
    "inference.objective_evals.m5",
    "inference.lbfgsb_iters_per_fit",
    "inference.lbfgsb_runs",
    "inference.phase.restarts.lbfgsb_runs",
    "inference.phase.restarts.evals",
    "inference.fit_s.T1e4",
    "inference.fit_s.T1e6",
    "inference.transition_counts_s",
    "workload.d1d2",
    "workload.T",
)


def parse_seeds(text: str) -> list:
    """'1-10' or '1,4,7' (or a mix: '1-3,8') to a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def revision(checkout: Path):
    """The commit a checkout is at, with '-dirty' if its tracked files differ."""
    def git(*argv):
        out = subprocess.run(["git", "-C", str(checkout), *argv], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    head = git("rev-parse", "--short=12", "HEAD")
    if head is None:
        return None
    return head + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: the JSON object on the last line of its output, or an error."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        return {"error": f"exit code {proc.returncode}: {' | '.join(tail)}"}


def summary(values: list) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(pairs: list, read, better: str) -> dict:
    """Both sides' summaries of one metric and the change's wins over the
    pairs, in all and by the side that ran first."""
    both = [(p["first"], read(p["parent"]), read(p["change"])) for p in pairs]
    both = [(first, a, b) for first, a, b in both if a is not None and b is not None]
    won = [(first, (b < a) if better == "lower" else (b > a)) for first, a, b in both]
    return {
        "better": better,
        "parent": summary([a for _, a, _ in both]),
        "change": summary([b for _, _, b in both]),
        "change_better_pairs": sum(w for _, w in won),
        "pairs": len(both),
        "by_first": {side: {"change_better_pairs": sum(w for first, w in won if first == side),
                            "pairs": sum(first == side for first, _ in won)}
                     for side in ("parent", "change")},
    }


def metric(name):
    def read(outcome):
        return outcome.get("metrics", {}).get(name, {}).get("value")
    return read


def count_mismatches(parent: dict, change: dict):
    """Sorted names of the traced metrics of unit ``count`` whose parent and
    change values differ, a metric that one side lacks included; None if
    either traced run failed."""
    if "error" in parent or "error" in change:
        return None
    sides = (parent["metrics"], change["metrics"])
    names = {name for layers in sides for name, m in layers.items() if m.get("unit") == "count"}
    return sorted(name for name in names if sides[0].get(name) != sides[1].get(name))


def bench_workload(parent: Path, change: Path, workload: str, seeds: list, seconds: float,
                   end_to_end: list) -> dict:
    sides = {"parent": parent, "change": change}
    pairs = []
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], workload, seed, seconds, trace=0)
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{side} pass_s {metric('pass_s')(pair[side])}" for side in ("parent", "change")),
            file=sys.stderr)
        pairs.append(pair)
    traced, outcomes = {}, {}
    for side in ("parent", "change"):
        outcome = outcomes[side] = run_once(sides[side], workload, seeds[0], seconds, trace=1)
        if "error" in outcome:
            traced[side] = {"error": outcome["error"]}
        else:
            layers = outcome["metrics"]
            traced[side] = {name: layers[name]["value"] if name in layers else "absent" for name in TRACED}
    mismatches = count_mismatches(outcomes["parent"], outcomes["change"])
    print(f"{workload} traced counts that differ: {mismatches}", file=sys.stderr)
    return {
        "revisions": {side: revision(path) for side, path in sides.items()},
        "seeds": seeds,
        "seconds": seconds,
        "end_to_end": {name: compare(pairs, metric(name), better) for name, better in end_to_end},
        "attempted": {side: sum(p[side].get("attempted", 0) for p in pairs) for side in sides},
        "failed": {side: sum(p[side].get("failed", 0) for p in pairs) for side in sides},
        "runs_not_correct": {side: sum(not p[side].get("correct") for p in pairs) for side in sides},
        "traced": {"seed": seeds[0], **traced},
        "count_mismatches": mismatches,
        "pairs": pairs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="for example 1-10 or 1,3,5")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) % 2:
        print(f"warning: {len(args.seeds)} seeds: the parent runs first in one pair more than "
              "the change; an even number balances the run order", file=sys.stderr)
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            print(f"error: {checkout} has no perfbench/run.py", file=sys.stderr)
            return 2
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["better"]) for m in spec["end_to_end"]]

    out = json.loads(args.output.read_text()) if args.output.exists() else {"workloads": {}}
    out["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "system": f"{platform.system()} {platform.machine()}",
    }
    for workload in args.workload:
        out["workloads"][workload] = bench_workload(
            args.parent, args.change, workload, args.seeds, args.seconds, end_to_end
        )
        args.output.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload process: import bdar, build the inputs, then run timed passes.

Started by ``run.py``; not meant to be run by hand. Protocol on the standard
output: the line ``ready`` once set-up is done, then (unless ``--setup-only``)
one JSON line with the per-pass results. Everything ``bdar`` itself prints is
sent to the standard error stream instead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Pass i runs the workload on input i (workloads whose inputs vary per pass
# derive them from the seed and i). A traced run runs each input twice, traced
# and untraced, alternating which goes first, so the tracing overhead is a
# paired difference. After the measured passes, one more pass repeats input 0
# to check that outputs and counts repeat exactly; it is left out of every
# timing.


def schedule(trace: int):
    index = 0
    while True:
        order = (index % 2 == 1, index % 2 == 0) if trace else (False,)
        for traced in order:
            yield index, traced
        index += 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def blas_threads():
    """Threads the OpenBLAS libraries loaded by numpy and scipy would use."""
    import numpy
    import scipy

    counts = []
    for package, symbol in ((numpy, "scipy_openblas_get_num_threads64_"), (scipy, "scipy_openblas_get_num_threads")):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in glob.glob(str(libs / "libscipy_openblas*.so")):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
    return max(counts) if counts else None


def environment() -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": blas_threads(),
    }


def run_passes(workload, seconds: float, trace: int, spans_path: Path) -> dict:
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    deadline = time.perf_counter() + seconds
    passes, failures = [], []
    attempted = failed = 0

    def run_pass(index, traced, repeat=False):
        nonlocal attempted, failed
        workload.prepare(index)
        if traced:
            tracer.install()
            tracer.begin_pass()
        t0 = time.perf_counter()
        try:
            times, outputs = workload.run()
            error = None
        except Exception:  # a failing operation is counted and reported, not fatal
            error = traceback.format_exc()
        pass_s = time.perf_counter() - t0
        layers = None
        if traced:
            layers = tracer.end_pass()
            tracer.uninstall()
        attempted += workload.ops_per_pass
        if error is None:
            try:
                reasons = workload.check(outputs)
            except Exception:  # outputs the gates cannot read are failures too
                error = traceback.format_exc()
        if error is None:
            failed += min(len(reasons), workload.ops_per_pass)
        else:
            print(error, file=sys.stderr)
            reasons = [f"pass {len(passes) + 1} raised: {error.strip().splitlines()[-1]}"]
            failed += workload.ops_per_pass
        failures.extend(reasons)
        passes.append({
            "index": index,
            "traced": traced,
            "repeat": repeat,
            "pass_s": pass_s,
            "ops": times if error is None else {},
            "layers": layers,
        })

    for index, traced in schedule(trace):
        first_of_input = not passes or passes[-1]["index"] != index
        if first_of_input and index > 0 and time.perf_counter() >= deadline:
            break
        run_pass(index, traced)
    run_pass(0, bool(trace), repeat=True)
    if tracer is not None:
        spans_path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent"], "spans": tracer.spans_relative()}))
    return {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sizes": workload.sizes,
        "absent": sorted(tracer.absent()) if tracer else [],
        "spans_file": str(spans_path.relative_to(ROOT)) if tracer else None,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    with os.fdopen(os.dup(1), "w") as protocol:
        os.dup2(2, 1)  # whatever bdar prints goes to the log, not the protocol stream
        return run(args, protocol)


def run(args, protocol) -> int:
    if not (SRC / "bdar" / "__init__.py").is_file():
        print(f"no bdar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bdar

    if Path(bdar.__file__).resolve().parent != (SRC / "bdar").resolve():
        print(f"bdar imported from {bdar.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale, work_dir)
        protocol.write("ready\n")
        protocol.flush()
        if args.setup_only:
            return 0
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        result = run_passes(workload, args.seconds, args.trace, spans_path)
        result["env"] = environment()
        protocol.write(json.dumps(result) + "\n")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

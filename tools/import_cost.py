"""Start-up cost of ``bdar`` by stage: wall time, peak memory and scipy modules.

Runs three stages, each in ``--repeats`` fresh interpreters, and prints per
stage the median wall time from process start to exit, the median peak
resident set size (``ru_maxrss`` of that process) and the number of scipy
modules loaded at its end:

1. ``import``: ``import bdar, bdar.cli``;
2. ``evaluate``: stage 1 plus one ``simulate`` (1,000 steps),
   ``conditional_loglik`` and ``exact_forecast_pmf`` (horizon 12) on the
   bundled parameters, and ``bdar diagnose``'s report on the bundled series;
3. ``fit``: stage 2 plus one M1 fit of the simulated path.

Only fits need scipy, so the script exits 1 if stage 1 or 2 loads any scipy
module. Uses the standard library only; the interpreters import ``bdar``
from the ``src`` directory next to ``tools``. Unix only (``os.wait4``).

Run from anywhere:

    python3 tools/import_cost.py --repeats 5
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (name, code it adds to the stage before)
STAGES = (
    ("import", "import bdar, bdar.cli"),
    ("evaluate", "\n".join([
        "import json",
        "from bdar import Bdar1Params, conditional_loglik, exact_forecast_pmf, simulate, substream",
        "params = Bdar1Params.from_json_dict(json.loads(bdar.cli.BUNDLED_PARAMS.read_text()))",
        "series = simulate(params, 1000, substream(0, 'import-cost'))",
        "conditional_loglik(params, series)",
        "exact_forecast_pmf(params, (1, 1), 12)",
        "config = bdar.cli.RunConfig(input=str(bdar.cli.BUNDLED_SERIES),",
        "                            breakpoints=list(bdar.cli.DEFAULT_RATE_BREAKPOINTS))",
        "bdar.cli.run_diagnostics(bdar.cli.load_ordinal(config)[1])",
    ])),
    ("fit", "bdar.fit(series, 'm1', 'frank', 'frank')"),
)

# the last line each interpreter prints
_COUNT_SCIPY = "import sys\nprint(sum(m.split('.')[0] == 'scipy' for m in sys.modules))"

# ru_maxrss is in KiB on Linux and in bytes on macOS
_RSS_PER_MB = 1024.0 ** 2 if sys.platform == "darwin" else 1024.0


def run_stage(code: str) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, scipy modules loaded) of one fresh
    interpreter running ``code``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code + "\n" + _COUNT_SCIPY],
                            env=env, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"stage exited with {proc.returncode}:\n{code}")
    return wall, usage.ru_maxrss / _RSS_PER_MB, int(out.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="fresh interpreters per stage")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(f"repeats {args.repeats}")
    print(f"{'stage':<10}{'wall_s':>8}{'maxrss_mb':>11}{'scipy_modules':>15}")
    code, leaks = "", []
    for name, step in STAGES:
        code += step + "\n"
        runs = [run_stage(code) for _ in range(args.repeats)]
        wall = statistics.median(r[0] for r in runs)
        rss = statistics.median(r[1] for r in runs)
        scipy_modules = max(r[2] for r in runs)
        print(f"{name:<10}{wall:>8.3f}{rss:>11.1f}{scipy_modules:>15}")
        if name != "fit" and scipy_modules:
            leaks.append(name)
    if leaks:
        print(f"error: stages that run no fit loaded scipy: {', '.join(leaks)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

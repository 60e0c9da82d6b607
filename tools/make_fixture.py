"""Regenerate the bundled synthetic quarterly series and its golden fit report.

The series is simulated from fixed reference parameters (a fitted M5 model on
quarterly unemployment-style rates) and written as raw continuous values: each
state maps to the midpoint of its breakpoint band, so discretizing with the
default rule recovers the simulated states exactly. The golden file freezes
the M5 fit on that series for regression testing.

Run from the repo root: python3 tools/make_fixture.py
"""

from pathlib import Path

import numpy as np

from bdar import Bdar1Params, CategoricalMarginal, CopulaSpec, fit, simulate
from bdar.cli import DEFAULT_RATE_BREAKPOINTS, DiscretizationRule, _write_csv, _write_json
from bdar.model import BivariateOrdinalSeries
from bdar.rng import substream

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "bdar" / "data"

REFERENCE_PARAMS = Bdar1Params(
    variant="m5",
    phi1=0.823,
    phi2=0.752,
    m1=CategoricalMarginal((0.123, 0.145, 0.303, 0.429)),
    m2=CategoricalMarginal((0.410, 0.433, 0.157)),
    copula_alpha=CopulaSpec("frank", 24.719),
    copula_eps=CopulaSpec("frank", 28.4),
)

T = 104
SCAN_START = 20240301


def quarter_labels(start_year: int, n: int) -> list:
    return [f"{start_year + k // 4}Q{k % 4 + 1}" for k in range(n)]


def pick_seed() -> int:
    """First seed whose draw shows every state of both margins and whose
    default M5 fit converges off the delta bounds with usable standard
    errors."""
    for seed in range(SCAN_START, SCAN_START + 500):
        series = simulate(REFERENCE_PARAMS, T, substream(seed, "fixture"))
        if len(np.unique(series.z1)) != 4 or len(np.unique(series.z2)) != 3:
            continue
        report = fit(series, "m5", "frank", "frank")
        deltas = (report.estimates()["delta_alpha"], report.estimates()["delta_eps"])
        if report.converged and report.std_errors is not None and max(map(abs, deltas)) < 1e4:
            return seed
    raise RuntimeError("no suitable fixture seed found")


def main():
    seed = pick_seed()
    series = simulate(REFERENCE_PARAMS, T, substream(seed, "fixture"))
    rule = DiscretizationRule(DEFAULT_RATE_BREAKPOINTS)
    bps = np.asarray(rule.breakpoints)
    midpoints = (bps[:-1] + bps[1:]) / 2.0
    y1 = midpoints[series.z1 - 1]
    y2 = midpoints[series.z2 - 1]

    labels = quarter_labels(1998, T)
    _write_csv(
        DATA_DIR / "synthetic_quarterly.csv",
        ["quarter", "y1", "y2"],
        [[lab, float(a), float(b)] for lab, a, b in zip(labels, y1, y2)],
    )
    _write_json(DATA_DIR / "synthetic_quarterly_params.json", REFERENCE_PARAMS.to_json_dict())

    check = BivariateOrdinalSeries(rule.apply(y1), rule.apply(y2), 4, 3)
    assert np.array_equal(check.z1, series.z1) and np.array_equal(check.z2, series.z2)

    report = fit(check, "m5", "frank", "frank")
    _write_json(DATA_DIR / "golden_fit_m5.json", report.to_json_dict())
    print(f"fixture seed {seed}")
    print(f"loglik {report.loglik:.6f}, aic {report.aic:.3f}, bic {report.bic:.3f}")
    print({k: round(v, 4) for k, v in report.estimates().items()})


if __name__ == "__main__":
    main()

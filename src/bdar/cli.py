"""Command-line workflow for BDAR(1) analysis.

Subcommands: ingest, discretize, diagnose, fit, compare, simulate, forecast,
replicate-study. Each subcommand takes as flags only the options it reads
(``_COMMANDS``), plus ``--config``, ``--output`` and, for ``fit``,
``--variant``. A config file (JSON or key=value lines) may set any
``RunConfig`` key, so one file can drive a whole workflow; flags override
it. All randomness flows from the single config seed through named
substreams. Outputs are CSV tables and JSON documents written under the
configured output directory, which is checked before any work.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .copulas import PRODUCT, CopulaFamily
from .forecast import ForecastResult, forecast
from .inference import (
    FitReport,
    LikelihoodError,
    _Counts,
    conditional_loglik,
    fit,
    likelihood_ratio_test,
)
from .model import Bdar1Params, BivariateOrdinalSeries, Variant, simulate
from .rng import substream

# Default state banding for quarterly-rate style data; also the rule under
# which the bundled synthetic series was generated.
DEFAULT_RATE_BREAKPOINTS = (1.9, 5.9, 7.7, 12.75, 19.9)

# (nested, full) variant pairs that admit a likelihood ratio test.
NESTED_PAIRS = {
    (Variant.M1, Variant.M3),
    (Variant.M1, Variant.M4),
    (Variant.M1, Variant.M5),
    (Variant.M3, Variant.M5),
    (Variant.M4, Variant.M5),
    (Variant.M2, Variant.M5),
}

_DATA_DIR = Path(__file__).parent / "data"
BUNDLED_SERIES = _DATA_DIR / "synthetic_quarterly.csv"
BUNDLED_PARAMS = _DATA_DIR / "synthetic_quarterly_params.json"


@dataclass(frozen=True)
class DiscretizationRule:
    """Maps raw values to states by breakpoint intervals.

    State k covers the right-closed band (b_k, b_{k+1}], except the first
    band, which is closed on both ends so the lowest breakpoint itself is
    state 1. Values outside [b_1, b_last] are errors.
    """

    breakpoints: tuple

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        if len(bps) < 3:
            raise ValueError("need at least 3 breakpoints for 2 states")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError(f"breakpoints must be strictly ascending: {bps}")
        object.__setattr__(self, "breakpoints", bps)

    @property
    def n_states(self) -> int:
        return len(self.breakpoints) - 1

    def apply(self, values) -> np.ndarray:
        """Discretize an array of raw values; reports the index of any value out of range."""
        y = np.asarray(values, dtype=float)
        bps = np.asarray(self.breakpoints)
        out_of_range = (y < bps[0]) | (y > bps[-1])
        if np.any(out_of_range):
            i = int(np.argmax(out_of_range))
            raise ValueError(
                f"value {y[i]} at position {i} outside the breakpoint range "
                f"[{bps[0]}, {bps[-1]}]"
            )
        states = np.searchsorted(bps[1:-1], y, side="left") + 1
        return states.astype(np.int64)


def quantile_breakpoints(values, n_states: int) -> DiscretizationRule:
    """Breakpoints at pooled empirical quantiles, giving ``n_states`` bands."""
    if n_states < 2:
        raise ValueError("need at least 2 states")
    y = np.asarray(values, dtype=float).ravel()
    bps = np.quantile(y, np.linspace(0.0, 1.0, n_states + 1))
    if len(np.unique(bps)) != len(bps):
        raise ValueError("too few distinct values for that many quantile states")
    return DiscretizationRule(tuple(bps))


def ingest(path, col1: str, col2: str):
    """Read two aligned numeric columns from a CSV file.

    Returns (row labels, values1, values2). Missing, non-numeric or
    non-finite (nan, inf) cells are rejected with their 1-based data row
    numbers.
    """
    if path is None:
        raise ValueError("no input file configured")
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    labels, y1, y2 = [], [], []
    bad_rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or col1 not in reader.fieldnames or col2 not in reader.fieldnames:
            raise ValueError(f"columns {col1!r}, {col2!r} not both present in {path.name}")
        label_col = reader.fieldnames[0] if reader.fieldnames[0] not in (col1, col2) else None
        for row_no, row in enumerate(reader, start=1):
            try:
                v1, v2 = float(row[col1]), float(row[col2])
            except (TypeError, ValueError):  # a short row gives None, a blank cell ""
                v1 = v2 = math.nan
            if not (math.isfinite(v1) and math.isfinite(v2)):
                bad_rows.append(row_no)
                continue
            y1.append(v1)
            y2.append(v2)
            labels.append(row[label_col] if label_col else str(row_no))
    if bad_rows:
        raise ValueError(f"missing, non-numeric or non-finite values in rows: {bad_rows}")
    if not y1:
        raise ValueError(f"no data rows in {path.name}")
    return labels, np.asarray(y1), np.asarray(y2)


# --------------------------------------------------------------------------
# Config
# --------------------------------------------------------------------------

# What the entries of a list field must be; JSON true and false are not ints.
_LIST_ENTRIES = {
    "breakpoints": ((int, float), "a list of numbers"),
    "sample_sizes": (int, "a list of ints"),
    "last_state": (int, "a list of two ints"),
}


@dataclass
class RunConfig:
    input: str | None = None
    col1: str = "y1"
    col2: str = "y2"
    breakpoints: list | None = None
    quantiles: int | None = None
    variants: list = dataclasses.field(default_factory=lambda: ["m1", "m2", "m3", "m4", "m5"])
    copula_alpha: str = "frank"
    copula_eps: str = "frank"
    seed: int = 0
    n_sims: int = 10_000
    horizon: int = 12
    output: str = "out"
    params: str | None = None
    last_state: list | None = None
    length: int = 104
    replicates: int = 100
    sample_sizes: list = dataclasses.field(default_factory=lambda: [100, 500, 1000])

    def __post_init__(self):
        # checked here, before any fit: a variant whose copula delta is fixed
        # never reads that copula's family
        for family in (self.copula_alpha, self.copula_eps):
            CopulaFamily(family)
        # an empty list or no replicates would run nothing and write empty tables
        for key in ("variants", "sample_sizes"):
            if not getattr(self, key):
                raise ValueError(f"config key {key!r} must not be empty")
        if self.replicates < 1:
            raise ValueError(f"config key 'replicates' must be at least 1, got {self.replicates}")

    @classmethod
    def field_names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """Read a JSON object or key=value lines. A key=value value is decoded
        as JSON where it parses; a field that takes text keeps the raw text
        of a value whose JSON type it does not take (``col1 = 2020``)."""
        text = Path(path).read_text()
        hints = typing.get_type_hints(cls)
        allowed = {key: typing.get_args(hint) or (hint,) for key, hint in hints.items()}
        if text.lstrip().startswith("{"):
            raw = json.loads(text)
        else:
            raw = {}
            for line_no, line in enumerate(text.splitlines(), start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"config line {line_no} is not key=value: {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                try:
                    raw[key] = json.loads(value)
                except json.JSONDecodeError:
                    raw[key] = value
                if str in allowed.get(key, ()) and not isinstance(raw[key], allowed[key]):
                    raw[key] = value
        unknown = set(raw) - cls.field_names()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            types = allowed[key]
            if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
                names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
                raise ValueError(f"config key {key!r} must be {names}, got {value!r}")
            if isinstance(value, list) and key in _LIST_ENTRIES:
                entry_types, shape = _LIST_ENTRIES[key]
                if any(isinstance(v, bool) or not isinstance(v, entry_types) for v in value) or (
                    key == "last_state" and len(value) != 2
                ):
                    raise ValueError(f"config key {key!r} must be {shape}, got {value!r}")
        return cls(**raw)

    def discretization_rule(self, pooled) -> DiscretizationRule | None:
        """The configured rule; quantile breakpoints are taken from ``pooled``."""
        if self.breakpoints is not None:
            return DiscretizationRule(tuple(self.breakpoints))
        if self.quantiles is not None:
            return quantile_breakpoints(pooled, int(self.quantiles))
        return None


def load_ordinal(config: RunConfig) -> tuple[list, BivariateOrdinalSeries]:
    """Ingest the configured input and return it as an ordinal series.

    Raw values are discretized when a rule (breakpoints or quantiles) is
    configured; otherwise the columns must already hold integer states.
    """
    labels, y1, y2 = ingest(config.input, config.col1, config.col2)
    rule = config.discretization_rule(pooled=np.concatenate([y1, y2]))
    if rule is not None:
        z1, z2 = rule.apply(y1), rule.apply(y2)
    else:
        z1, z2 = y1.astype(np.int64), y2.astype(np.int64)
        if np.any(z1 != y1) or np.any(z2 != y2):
            raise ValueError("input is not integer-coded; configure breakpoints or quantiles")
        if z1.min() < 1 or z2.min() < 1:
            raise ValueError("ordinal states must start at 1")
    # a shared rule can leave top bands a series never visits; its state
    # space is the bands it actually reaches
    return labels, BivariateOrdinalSeries(z1, z2, int(z1.max()), int(z2.max()))


# --------------------------------------------------------------------------
# Reports and file emission
# --------------------------------------------------------------------------

def _write_csv(path: Path, header: list, rows: list):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(c) if isinstance(c, float) else c for c in row])


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_fit(out_dir: Path, variant: Variant, report: FitReport):
    """Write the report and its estimates (``_read_params`` reads them back)."""
    _write_json(out_dir / f"fit_{variant.value}.json", report.to_json_dict())
    _write_json(out_dir / f"params_{variant.value}.json", report.params_hat.to_json_dict())


def _read_params(config: RunConfig, missing: str) -> Bdar1Params:
    """The configured params file's parameter set; ``missing`` is the error if none is."""
    if config.params is None:
        raise ValueError(missing)
    return Bdar1Params.from_json_dict(json.loads(Path(config.params).read_text()))


def _tau_b(table: np.ndarray) -> float:
    """Kendall's tau-b of a pair (x, y) from its contingency table, x by rows.

    The concordant minus discordant pairs come from 2-D cumulative sums and
    the ties from the margins, all in exact integers, and the value is
    SciPy's own final expression in ``kendalltau(x, y)``, so the two agree
    bit for bit. Costs O(r c): d1 d2 cells for the cross pair, d1^2 and
    d2^2 for the serial pairs.
    """
    n = int(table.sum())
    pairs = n * (n - 1) // 2
    ties_x, ties_y = (int((m * (m - 1) // 2).sum()) for m in (table.sum(1), table.sum(0)))
    if pairs in (ties_x, ties_y):
        raise ValueError("Kendall's tau needs at least two pairs and a series that varies")
    # below[i, j]: observations with row < i and column < j
    below = np.zeros((table.shape[0] + 1, table.shape[1] + 1), dtype=np.int64)
    below[1:, 1:] = table.cumsum(0).cumsum(1)
    # a partner in an earlier row is concordant in an earlier column, discordant in a later one
    net = int((table * (below[:-1, :-1] + below[:-1, 1:] - below[:-1, -1:])).sum())
    tau = net / np.sqrt(pairs - ties_x) / np.sqrt(pairs - ties_y)
    return float(min(1.0, max(-1.0, tau)))


def _pair_table(x: np.ndarray, y: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Counts of the 1-based state pairs (x_t, y_t), shape (dx, dy)."""
    codes = np.multiply(x - 1, dy, dtype=np.int64) + (y - 1)
    return np.bincount(codes, minlength=dx * dy).reshape(dx, dy)


def run_diagnostics(series: BivariateOrdinalSeries) -> dict:
    """Association report: cross-series tau, lag-1 serial tau per series,
    and state frequency tables."""
    z1, z2, d1, d2 = series.z1, series.z2, series.d1, series.d2
    cross = _pair_table(z1, z2, d1, d2)
    return {
        "n_obs": series.n,
        "tau_cross": _tau_b(cross),
        "tau_serial_1": _tau_b(_pair_table(z1[1:], z1[:-1], d1, d1)),
        "tau_serial_2": _tau_b(_pair_table(z2[1:], z2[:-1], d2, d2)),
        "state_frequencies_1": (cross.sum(1) / series.n).tolist(),
        "state_frequencies_2": (cross.sum(0) / series.n).tolist(),
    }


def run_compare(config: RunConfig) -> dict:
    """Fit every requested variant, emit comparison tables, select by BIC and
    AIC, and run LRTs for nested pairs among the selected models.

    A variant whose fit fails is recorded with its error and skipped; the
    remaining fits still go through. Returns the selection summary (also
    written to compare_selection.json).
    """
    _, series = load_ordinal(config)
    # counted once for every fit, which also share M2's optimum with M5
    data = _Counts(series)
    out_dir = Path(config.output)
    reports: dict[Variant, FitReport] = {}
    failures: dict[str, str] = {}
    for name in config.variants:
        variant = Variant.parse(name)
        try:
            reports[variant] = fit(
                data,
                variant,
                copula_alpha_family=config.copula_alpha,
                copula_eps_family=config.copula_eps,
            )
        except Exception as exc:  # per-model failures must not abort the rest
            failures[variant.value] = str(exc)

    est_rows, stat_rows = [], []
    for variant, report in reports.items():
        se = report.std_errors or {}
        for pname, value in report.estimates().items():
            est_rows.append([variant.value, pname, float(value), se.get(pname, "")])
        stat_rows.append(
            [variant.value, report.loglik, report.n_params, report.aic, report.bic]
        )
    _write_csv(out_dir / "compare_estimates.csv", ["model", "param", "estimate", "std_error"], est_rows)
    _write_csv(out_dir / "compare_stats.csv", ["model", "loglik", "n_params", "aic", "bic"], stat_rows)
    for variant, report in reports.items():
        _write_fit(out_dir, variant, report)

    trail = []
    selection: dict = {"failures": failures}
    if reports:
        best_bic = min(reports, key=lambda v: reports[v].bic)
        best_aic = min(reports, key=lambda v: reports[v].aic)
        selection["best_bic"] = best_bic.value
        selection["best_aic"] = best_aic.value
        trail.append(f"best by BIC: {best_bic.value} ({reports[best_bic].bic:.2f})")
        trail.append(f"best by AIC: {best_aic.value} ({reports[best_aic].aic:.2f})")
        chosen = best_bic
        if best_bic is not best_aic:
            pair = None
            if (best_bic, best_aic) in NESTED_PAIRS:
                pair = (best_bic, best_aic)
            elif (best_aic, best_bic) in NESTED_PAIRS:
                pair = (best_aic, best_bic)
            if pair is not None:
                nested_v, full_v = pair
                lrt = likelihood_ratio_test(reports[full_v], reports[nested_v])
                selection["lrt"] = {
                    "nested": nested_v.value,
                    "full": full_v.value,
                    "statistic": lrt.statistic,
                    "df": lrt.df,
                    "p_value": lrt.p_value,
                }
                chosen = full_v if lrt.p_value < 0.05 else nested_v
                trail.append(
                    f"LRT {full_v.value} vs {nested_v.value}: statistic {lrt.statistic:.3f}, "
                    f"df {lrt.df}, p-value {lrt.p_value:.4f} -> keep {chosen.value}"
                )
            else:
                trail.append(
                    f"{best_bic.value} and {best_aic.value} are not nested; keeping the BIC choice"
                )
        selection["chosen"] = chosen.value
        trail.append(f"chosen model: {chosen.value}")
    selection["decision_trail"] = trail
    _write_json(out_dir / "compare_selection.json", selection)
    for line in trail:
        print(line)
    for variant_name, message in failures.items():
        print(f"fit failed for {variant_name}: {message}")
    return selection


def write_forecast_outputs(result: ForecastResult, out_dir: Path, seed: int):
    """Write the marginal-frequency table, the modal-forecast table, and the
    per-step joint pmfs with the ``seed`` the run's generator came from."""
    d1 = result.marginal1.shape[1]
    d2 = result.marginal2.shape[1]
    rows = [
        [h + 1]
        + [float(x) for x in result.marginal1[h]]
        + [float(x) for x in result.marginal2[h]]
        for h in range(result.horizon)
    ]
    header = ["h"] + [f"z1_state_{i}" for i in range(1, d1 + 1)] + [
        f"z2_state_{j}" for j in range(1, d2 + 1)
    ]
    _write_csv(out_dir / "forecast_marginals.csv", header, rows)
    mode_rows = [
        [
            h + 1,
            int(result.modal1[h]),
            int(result.modal2[h]),
            int(result.modal_joint[h, 0]),
            int(result.modal_joint[h, 1]),
        ]
        for h in range(result.horizon)
    ]
    _write_csv(
        out_dir / "forecast_modes.csv",
        ["h", "z1_mode", "z2_mode", "joint_mode_z1", "joint_mode_z2"],
        mode_rows,
    )
    _write_json(out_dir / "forecast_joint.json", {**result.to_json_dict(), "seed": seed})


def run_forecast(config: RunConfig) -> ForecastResult:
    """Forecast from fitted parameters (params JSON) and write the tables.

    The anchor pair comes from ``last_state`` or, failing that, the final row
    of the configured input series.
    """
    if config.n_sims < 1:
        raise ValueError("n_sims must be >= 1")
    params = _read_params(config, "no params file configured; fit or compare first")
    if config.last_state is not None:
        last_state = (int(config.last_state[0]), int(config.last_state[1]))
    elif config.input is not None:
        _, series = load_ordinal(config)
        last_state = (int(series.z1[-1]), int(series.z2[-1]))
    else:
        raise ValueError("configure last_state or an input series to anchor the forecast")
    rng = substream(config.seed, "forecast")
    result = forecast(params, last_state, config.horizon, config.n_sims, rng)
    write_forecast_outputs(result, Path(config.output), config.seed)
    return result


def run_replicate_study(config: RunConfig) -> Path:
    """Simulate-and-refit study around fixed generating parameters.

    For each configured sample size, simulates ``replicates`` independent
    paths from the params JSON and refits the same variant with the same
    copula families, emitting one long-format CSV row per (sample size,
    replicate, parameter) with the estimate and its absolute error. That
    file is enough to rebuild boxplot-style summaries in any plotting tool.
    """
    true_params = _read_params(config, "no params file configured (the generating parameters)")
    alpha_family = (true_params.copula_alpha or PRODUCT).family  # M2 has no mechanism copula
    eps_family = true_params.copula_eps.family
    truth = true_params.named_values()
    rows = []
    for t_len in config.sample_sizes:
        for rep in range(config.replicates):
            rng = substream(config.seed, "replicate", int(t_len), rep)
            series = simulate(true_params, int(t_len), rng)
            try:
                report = fit(
                    series,
                    true_params.variant,
                    copula_alpha_family=alpha_family,
                    copula_eps_family=eps_family,
                )
            except Exception as exc:
                rows.append([int(t_len), rep, "ERROR", "", "", str(exc)])
                continue
            for pname, value in report.estimates().items():
                err = abs(value - truth[pname]) if pname in truth else ""
                rows.append([int(t_len), rep, pname, float(value), err, ""])
    out_path = Path(config.output) / "replicate_estimates.csv"
    _write_csv(
        out_path,
        ["sample_size", "replicate", "param", "estimate", "abs_error", "error"],
        rows,
    )
    return out_path


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _check_output(path: Path):
    """Fail before any work where the output directory cannot be made:
    where ``path``, or its nearest existing parent, is not a directory.
    Creates nothing."""
    existing = next((p for p in (path, *path.parents) if p.exists()), path)
    if not existing.is_dir():
        raise ValueError(f"output directory {path}: {existing} is not a directory")


def _cmd_ingest(config):
    labels, y1, y2 = ingest(config.input, config.col1, config.col2)
    out = Path(config.output) / "ingested.csv"
    _write_csv(out, ["t", config.col1, config.col2],
               [[lab, float(a), float(b)] for lab, a, b in zip(labels, y1, y2)])
    print(f"ingested {len(y1)} rows -> {out}")


def _cmd_discretize(config):
    labels, y1, y2 = ingest(config.input, config.col1, config.col2)
    rule = config.discretization_rule(pooled=np.concatenate([y1, y2]))
    if rule is None:
        raise ValueError("configure breakpoints or quantiles")
    z1, z2 = rule.apply(y1), rule.apply(y2)
    out = Path(config.output) / "ordinal.csv"
    _write_csv(out, ["t", config.col1, config.col2],
               [[lab, int(a), int(b)] for lab, a, b in zip(labels, z1, z2)])
    print(f"discretized into {rule.n_states} states -> {out}")
    print(f"breakpoints: {list(rule.breakpoints)}")


def _cmd_diagnose(config):
    _, series = load_ordinal(config)
    report = run_diagnostics(series)
    _write_json(Path(config.output) / "diagnostics.json", report)
    print(f"cross-series tau:   {report['tau_cross']:.3f}")
    print(f"lag-1 tau series 1: {report['tau_serial_1']:.3f}")
    print(f"lag-1 tau series 2: {report['tau_serial_2']:.3f}")


def _cmd_fit(config, variant):
    _, series = load_ordinal(config)
    variant = Variant.parse(variant)
    report = fit(
        series,
        variant,
        copula_alpha_family=config.copula_alpha,
        copula_eps_family=config.copula_eps,
    )
    _write_fit(Path(config.output), variant, report)
    print(f"{variant.value}: loglik {report.loglik:.4f}, aic {report.aic:.2f}, "
          f"bic {report.bic:.2f}, converged {report.converged}")
    check = conditional_loglik(report.params_hat, series)
    if not abs(check - report.loglik) < 1e-9:
        raise LikelihoodError(
            f"fitted loglik {report.loglik!r} differs from conditional_loglik {check!r} "
            "at the estimates"
        )


def _cmd_simulate(config):
    params = _read_params(config, "no params file configured")
    rng = substream(config.seed, "simulate")
    series = simulate(params, config.length, rng)
    out = Path(config.output) / "simulated.csv"
    _write_csv(out, ["t", "z1", "z2"],
               [[t + 1, int(a), int(b)] for t, (a, b) in enumerate(zip(series.z1, series.z2))])
    print(f"simulated {series.n} steps -> {out}")


def _cmd_forecast(config):
    result = run_forecast(config)
    print(f"forecast horizon {result.horizon}, {result.n_sims} simulations "
          f"-> {Path(config.output) / 'forecast_marginals.csv'}")


def _cmd_replicate_study(config):
    out = run_replicate_study(config)
    print(f"replicate study -> {out}")


# The flag of each RunConfig field a subcommand takes: ``--`` and the name
# with ``-`` for ``_``.
_FLAGS = {
    "input": dict(help="input CSV"),
    "col1": dict(help="first series column"),
    "col2": dict(help="second series column"),
    "breakpoints": dict(type=float, nargs="+", help="discretization breakpoints"),
    "quantiles": dict(type=int, help="discretize by pooled quantiles into k states"),
    "variants": dict(nargs="+", help="model variants (m1..m5)"),
    "copula_alpha": dict(help="mechanism copula family"),
    "copula_eps": dict(help="innovation copula family"),
    "params": dict(help="params JSON file"),
    "last_state": dict(type=int, nargs=2, help="forecast anchor pair"),
    "seed": dict(type=int, help="master seed"),
    "length": dict(type=int, help="simulated path length"),
    "horizon": dict(type=int, help="forecast horizon"),
    "n_sims": dict(type=int, help="simulated trajectories"),
    "sample_sizes": dict(type=int, nargs="+", help="sample sizes for the replicate study"),
    "replicates": dict(type=int, help="replicates per sample size"),
    "output": dict(help="output directory"),
}

# what load_ordinal reads
_SERIES = ("input", "col1", "col2", "breakpoints", "quantiles")

# subcommand -> (handler, the RunConfig fields it reads besides output)
_COMMANDS = {
    "ingest": (_cmd_ingest, ("input", "col1", "col2")),
    "discretize": (_cmd_discretize, _SERIES),
    "diagnose": (_cmd_diagnose, _SERIES),
    "fit": (_cmd_fit, (*_SERIES, "copula_alpha", "copula_eps")),
    "compare": (run_compare, (*_SERIES, "variants", "copula_alpha", "copula_eps")),
    "simulate": (_cmd_simulate, ("params", "seed", "length")),
    "forecast": (_cmd_forecast, (*_SERIES, "params", "last_state", "seed", "horizon", "n_sims")),
    "replicate-study": (_cmd_replicate_study, ("params", "seed", "sample_sizes", "replicates")),
}


def build_parser() -> argparse.ArgumentParser:
    """Flags left out of the command line are absent from the parsed
    namespace, so only given flags override the config."""
    parser = argparse.ArgumentParser(
        prog="bdar",
        description="Bivariate discrete autoregressive modeling of ordinal time series.",
    )
    sub = parser.add_subparsers(required=True)
    for name, (handler, fields) in _COMMANDS.items():
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="config file (JSON or key=value lines); may set any option")
        for field in (*fields, "output"):
            p.add_argument("--" + field.replace("_", "-"), **_FLAGS[field])
        p.set_defaults(handler=handler, parser=p)
    sub.choices["fit"].add_argument("--variant", default="m5", help="model variant (m1..m5)")
    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    args = vars(args)
    parser = args.pop("parser")
    if unknown:
        # the subcommand's usage lists the flags it does take
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    handler, config_file = args.pop("handler"), args.pop("config", None)
    overrides = {name: args.pop(name) for name in RunConfig.field_names() & args.keys()}
    try:
        config = RunConfig.from_file(config_file) if config_file else RunConfig()
        config = dataclasses.replace(config, **overrides)
        _check_output(Path(config.output))
        handler(config, **args)  # args: fit's --variant
    except (ValueError, OSError) as exc:  # OSError: a path that is missing or the wrong kind
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

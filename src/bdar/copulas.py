"""Bivariate copula CDFs and their partials.

Three families are supported: the independence (product) copula, the Gumbel
copula (delta >= 1, delta = 1 is independence) and the Frank copula (any
nonzero delta, delta -> 0 is independence). ``joint`` obtains joint pmfs on
discrete margins by inclusion-exclusion over CDF rectangles.

All evaluators accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._deferred import DeferredModule

# only the partials use it, and only fits take partials
special = DeferredModule("scipy.special")

# Coordinates may overshoot [0, 1] by at most this much (accumulated floating
# point drift in cumulative sums) before they are rejected.
COORD_TOL = 1e-12

# |delta| below this evaluates the Frank copula at its independence limit;
# the closed form is a 0/0 expression at delta = 0.
FRANK_INDEPENDENCE_TOL = 1e-8


class CopulaFamily(str, enum.Enum):
    PRODUCT = "product"
    GUMBEL = "gumbel"
    FRANK = "frank"


@dataclass(frozen=True)
class CopulaSpec:
    """A copula family together with its dependence parameter."""

    family: CopulaFamily
    delta: float = 0.0

    def __post_init__(self):
        family = CopulaFamily(self.family)
        delta = float(self.delta)
        if not math.isfinite(delta):
            raise ValueError(f"copula delta must be finite, got {delta}")
        if family is CopulaFamily.PRODUCT:
            delta = 0.0
        elif family is CopulaFamily.GUMBEL and delta < 1.0:
            raise ValueError(f"Gumbel copula requires delta >= 1, got {delta}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "delta", delta)

    def to_json_dict(self) -> dict:
        return {"family": self.family.value, "delta": self.delta}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CopulaSpec":
        if not isinstance(d, dict) or "family" not in d:
            raise ValueError(f"copula entry {d!r} lacks a 'family'")
        return cls(CopulaFamily(d["family"]), _json_float(d, "delta", 0.0))


def _json_float(d: dict, key: str, default=None) -> float:
    """``float(d.get(key, default))``, or a ValueError that names the key."""
    value = d.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None


PRODUCT = CopulaSpec(CopulaFamily.PRODUCT)


def _checked_unit(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    bad = (arr < -COORD_TOL) | (arr > 1.0 + COORD_TOL) | ~np.isfinite(arr)
    if np.any(bad):
        value = arr[bad].flat[0] if arr.ndim else float(arr)
        raise ValueError(f"coordinate {name}={value} outside [0, 1]")
    return np.clip(arr, 0.0, 1.0)


def _gumbel_with_partials(u: np.ndarray, v: np.ndarray, delta: float, values_only: bool):
    # With x = -log u, y = -log v and s = (x^d + y^d)^(1/d), C = exp(-s) has
    #   dC/du = C s w_u / (x u),  w_u = x^d / (x^d + y^d) = expit(d (la - lb)),
    #   dC/dd = C s (w_min |la - lb| + log1p(r) / d) / d,  r = e^(-d |la - lb|),
    # where w_min = r / (1 + r) is the smaller weight: every term is positive.
    # With la = log x, lb = log y, s is taken in log space,
    # log s = max(la, lb) + log1p(r) / d, which stays finite for any delta.
    x, y = -np.log(u), -np.log(v)
    la, lb = np.log(x), np.log(y)
    t = delta * (la - lb)
    r = np.exp(-np.abs(t))
    log1p_r = np.log1p(r)
    log_s = np.maximum(la, lb) + log1p_r / delta
    s = np.exp(log_s)
    cdf = u * v if delta == 1.0 else np.exp(-s)
    if values_only:
        return (cdf,)
    # log(C s) = -s + log s; dC/du = C s w_u / (x u) with log(x u) = la - x
    log_cs = log_s - s
    du = np.exp(log_cs + special.log_expit(t) - la + x)
    dv = np.exp(log_cs + special.log_expit(-t) - lb + y)
    dd = np.exp(log_cs) * (r / (1.0 + r) * np.abs(la - lb) + log1p_r / delta) / delta
    return cdf, du, dv, dd


def _log_expm1(x: np.ndarray) -> np.ndarray:
    # log(e^x - 1) for x > 0 without overflow: x + log(1 - e^-x).
    return x + np.log1p(-np.exp(-x))


# Below this |delta| the Frank CDF is evaluated in its expm1/log1p form;
# away from independence that form cancels as the textbook one does.
_FRANK_SMALL_DELTA = 1.0


def _frank_cdf(u: np.ndarray, v: np.ndarray, delta: float) -> np.ndarray:
    # The textbook form -log(1 + (e^-du - 1)(e^-dv - 1)/(e^-d - 1))/d cancels
    # catastrophically once d*min(u, v) exceeds ~37 (all expm1 terms round to
    # -1). The large-|delta| branches below are cancellation-free for any
    # magnitude, but near independence their logs of size |log delta| cancel
    # to an O(delta) value; there -log1p(-a b)/d with a = expm1(-du)/expm1(-d)
    # and b = -expm1(-dv) keeps full relative precision.
    if abs(delta) < _FRANK_SMALL_DELTA:
        a = np.expm1(-delta * u) / math.expm1(-delta)
        return -np.log1p(a * np.expm1(-delta * v)) / delta
    # delta <= -1 (delta >= 1 is _frank_positive_with_partials'): every
    # exponent is positive, so work with |delta| in logs.
    a = -delta
    s = _log_expm1(a * u) + _log_expm1(a * v) - _log_expm1(np.asarray(a, dtype=float))
    return np.logaddexp(0.0, s) / a


def _frank_positive_with_partials(u: np.ndarray, v: np.ndarray, delta: float, values_only: bool):
    # delta > 0. With a = e^-du, b = e^-dv, c = e^-d the numerator of the
    # closed form C = -(log N - log(1 - c)) / d is N = a + b - ab - c,
    # factored into the positive terms a(1 - b) + b(1 - c/b), and
    #   dC/du = a(1 - b) / N = expit(d(v - u) + log(1 - b) - log(1 - e^-d(1-v))),
    # symmetrically for v. Euler's relation gives
    #   d * dC/dd = u dC/du + v dC/dv - C - K,  K = c(1 - a)(1 - b) / (N(1 - c)) >= 0.
    # C cancels near independence; below delta = 1 callers take _frank_cdf's.
    log_1mb = np.log(-np.expm1(-delta * v))
    log_v_far = np.log(-np.expm1(-delta * (1.0 - v)))
    log_num = np.logaddexp(-delta * u + log_1mb, -delta * v + log_v_far)
    log_1mc = np.log(-np.expm1(-delta))
    cdf = -(log_num - log_1mc) / delta
    if values_only:
        return (cdf,)
    log_1ma = np.log(-np.expm1(-delta * u))
    log_u_far = np.log(-np.expm1(-delta * (1.0 - u)))
    # delta * (v - u), not delta * v - delta * u: near the comonotone corner
    # the two products are ~1e10 and their difference would lose ~6 digits
    gap = delta * (v - u)
    du = special.expit(gap + log_1mb - log_v_far)
    dv = special.expit(log_1ma - log_u_far - gap)
    if delta < _FRANK_SERIES_DELTA:
        return cdf, du, dv, _frank_delta_series(u, v, delta)
    k = np.exp(log_1ma + log_1mb - log_num - (delta + log_1mc))
    return cdf, du, dv, (u * du + v * dv - cdf - k) / delta


# Below this |delta| the Euler form of dC/dd cancels (its terms are O(1) and
# its value is O(delta)), so dC/dd comes from the Taylor series in delta.
_FRANK_SERIES_DELTA = 1e-2


def _frank_delta_series(u: np.ndarray, v: np.ndarray, delta: float) -> np.ndarray:
    # C = uv + sum_k c_k delta^k with P = uv(1-u)(1-v), U = u(1-u), V = v(1-v),
    # Q = (1-2u)(1-2v): c1 = P/2, c2 = PQ/12, c3 = P(6UV - U - V)/24,
    # c4 = PQ(36UV - 3U - 3V - 1)/720. Truncation error ~ (delta/2pi)^4 relative.
    uu, vv = u * (1.0 - u), v * (1.0 - v)
    p, q = uu * vv, (1.0 - 2.0 * u) * (1.0 - 2.0 * v)
    return p * (
        0.5
        + delta * q / 6.0
        + delta**2 * (6.0 * p - uu - vv) / 8.0
        + delta**3 * q * (36.0 * p - 3.0 * uu - 3.0 * vv - 1.0) / 180.0
    )


def _cdf_with_partials(
    family: CopulaFamily, delta: float, u: np.ndarray, v: np.ndarray, values_only: bool = False
):
    """(C, dC/du, dC/dv, dC/ddelta) at points strictly inside the unit square,
    or ``(C,)`` with ``values_only``, which returns before any partial is
    formed and so needs no scipy.

    The one place that dispatches on the copula family: ``_cdf_core`` (and
    so ``copula_cdf``) and both cell builders take their values from here,
    and C is the same in both modes, bit for bit.
    The partials reuse the value's intermediates: all of the Gumbel closed
    form, and the log numerator of the Frank one for delta >= 1. Inside the
    Frank independence band the partials are those of the delta -> 0 limit,
    dC/ddelta = uv(1-u)(1-v)/2. On the edges the values and partials are
    known without the closed forms (C(u, 1) = u, C(u, 0) = 0), so callers
    add those terms themselves. Opens no ``np.errstate``: for Frank
    delta < 0 a v within ~1e-16 of 0 meets log(0), in the value and in the
    reflection, where the results are the finite v -> 0 limits, and callers
    that can reach it ignore the divide.
    """
    if family is CopulaFamily.PRODUCT:
        cdf = u * v
        return (cdf,) if values_only else (cdf, v, u, np.zeros_like(cdf))
    if family is CopulaFamily.GUMBEL:
        return _gumbel_with_partials(u, v, delta, values_only)
    if abs(delta) < FRANK_INDEPENDENCE_TOL:
        cdf = u * v
        return (cdf,) if values_only else (cdf, v, u, _frank_delta_series(u, v, 0.0))
    if delta >= _FRANK_SMALL_DELTA:
        return _frank_positive_with_partials(u, v, delta, values_only)
    cdf = _frank_cdf(u, v, delta)
    if values_only:
        return (cdf,)
    if delta > 0:
        return (cdf,) + _frank_positive_with_partials(u, v, delta, False)[1:]
    # C(u, v; delta) = u - C(u, 1 - v; -delta). Reflecting the value itself
    # would lose cells of ~1e-18 to cancellation, so only the partials are
    # taken from the reflection.
    _, du, dv, dd = _frank_positive_with_partials(u, 1.0 - v, -delta, False)
    return cdf, 1.0 - du, dv, dd


def _cdf_core(spec: CopulaSpec, uu: np.ndarray, vv: np.ndarray) -> np.ndarray:
    """CDF on already-validated arrays in [0, 1]: ``_cdf_with_partials``'s
    value inside the square, and the closed-form edges C(u, 0) = C(0, v) = 0,
    C(1, v) = v and C(u, 1) = u, where the closed forms pass through log(0)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _cdf_with_partials(spec.family, spec.delta, uu, vv, values_only=True)[0]
    out = np.where(uu == 1.0, vv, out)
    out = np.where(vv == 1.0, uu, out)
    return np.where((uu == 0.0) | (vv == 0.0), 0.0, out)


def copula_cdf(spec: CopulaSpec, u, v):
    """Evaluate C(u, v; delta) for the given family.

    Coordinates may overshoot [0, 1] by at most ``COORD_TOL``. Returns a
    float for scalar inputs, an array otherwise.
    """
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    uu, vv = np.broadcast_arrays(_checked_unit(u, "u"), _checked_unit(v, "v"))
    out = np.clip(_cdf_core(spec, uu, vv), 0.0, 1.0)
    return float(out) if scalar else out


"""Bivariate copula CDFs and rectangle masses on discrete margins.

Three families are supported: the independence (product) copula, the Gumbel
copula (delta >= 1, delta = 1 is independence) and the Frank copula (any
nonzero delta, delta -> 0 is independence). Joint pmfs on discrete margins
are obtained by inclusion-exclusion over CDF rectangles.

All evaluators accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

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


def _gumbel_cdf(u: np.ndarray, v: np.ndarray, delta: float) -> np.ndarray:
    # Log-space form of exp(-((-log u)^d + (-log v)^d)^(1/d)): with
    # la = log(-log u), lb = log(-log v), m = max(la, lb), the exponent is
    # exp(m + log1p(exp(-d*|la - lb|)) / d). Stays finite for any delta.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        la = np.log(-np.log(u))
        lb = np.log(-np.log(v))
        m = np.maximum(la, lb)
        s = np.exp(m + np.log1p(np.exp(-delta * np.abs(la - lb))) / delta)
        return np.exp(-s)


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
    with np.errstate(divide="ignore", invalid="ignore"):
        if abs(delta) < _FRANK_SMALL_DELTA:
            a = np.expm1(-delta * u) / math.expm1(-delta)
            return -np.log1p(a * np.expm1(-delta * v)) / delta
        if delta > 0:
            # Numerator a + b - ab - c (a = e^-du, b = e^-dv, c = e^-d)
            # factored into the positive terms a(1 - b) + b(1 - c/b).
            term1 = -delta * u + np.log(-np.expm1(-delta * v))
            term2 = -delta * v + np.log(-np.expm1(-delta * (1.0 - v)))
            log_num = np.logaddexp(term1, term2)
            return -(log_num - np.log(-np.expm1(-delta))) / delta
        # delta < 0: every exponent is positive, so work with |delta| in logs.
        a = -delta
        s = _log_expm1(a * u) + _log_expm1(a * v) - _log_expm1(np.asarray(a, dtype=float))
        return np.logaddexp(0.0, s) / a


def _cdf_core(spec: CopulaSpec, uu: np.ndarray, vv: np.ndarray) -> np.ndarray:
    """CDF on already-validated arrays in [0, 1]; boundary values are patched
    analytically since the closed forms pass through log(0) there."""
    if spec.family is CopulaFamily.PRODUCT:
        return uu * vv
    if spec.family is CopulaFamily.GUMBEL:
        if spec.delta == 1.0:
            return uu * vv
        out = _gumbel_cdf(uu, vv, spec.delta)
    else:
        if abs(spec.delta) < FRANK_INDEPENDENCE_TOL:
            return uu * vv
        out = _frank_cdf(uu, vv, spec.delta)
    out = np.where(uu == 1.0, vv, out)
    out = np.where(vv == 1.0, np.where(uu == 1.0, 1.0, uu), out)
    out = np.where((uu == 0.0) | (vv == 0.0), 0.0, out)
    return out


def _gumbel_partials(u: np.ndarray, v: np.ndarray, delta: float):
    # With x = -log u, y = -log v and s = (x^d + y^d)^(1/d), C = exp(-s) has
    #   dC/du = C s w_u / (x u),  w_u = x^d / (x^d + y^d) = expit(d (la - lb)),
    #   dC/dd = C s (w_min |la - lb| + log1p(r) / d) / d,  r = e^(-d |la - lb|),
    # where w_min = r / (1 + r) is the smaller weight: every term is positive.
    x, y = -np.log(u), -np.log(v)
    la, lb = np.log(x), np.log(y)
    gap = np.abs(la - lb)
    r = np.exp(-delta * gap)
    log1p_r = np.log1p(r)
    log_s = np.maximum(la, lb) + log1p_r / delta
    # log(C s) = -s + log s; dC/du = C s w_u / (x u) with log(x u) = la - x
    log_cs = log_s - np.exp(log_s)
    du = np.exp(log_cs + special.log_expit(delta * (la - lb)) - la + x)
    dv = np.exp(log_cs + special.log_expit(delta * (lb - la)) - lb + y)
    dd = np.exp(log_cs) * (r / (1.0 + r) * gap + log1p_r / delta) / delta
    return du, dv, dd


def _frank_positive_partials(u: np.ndarray, v: np.ndarray, delta: float):
    # delta > 0. With a = e^-du, b = e^-dv, c = e^-d the numerator of the
    # closed form is N = a(1 - b) + (b - c) (see _frank_cdf), and
    #   dC/du = a(1 - b) / N = expit(d(v - u) + log(1 - b) - log(1 - e^-d(1-v))),
    # symmetrically for v. Euler's relation gives
    #   d * dC/dd = u dC/du + v dC/dv - C - K,  K = c(1 - a)(1 - b) / (N(1 - c)) >= 0.
    du_, dv_ = delta * u, delta * v
    log_1ma = np.log(-np.expm1(-du_))
    log_1mb = np.log(-np.expm1(-dv_))
    log_u_far = np.log(-np.expm1(du_ - delta))
    log_v_far = np.log(-np.expm1(dv_ - delta))
    # delta * (v - u), not dv_ - du_: near the comonotone corner the two
    # products are ~1e10 and their difference would lose ~6 digits
    gap = delta * (v - u)
    du = special.expit(gap + log_1mb - log_v_far)
    dv = special.expit(log_1ma - log_u_far - gap)
    if delta < _FRANK_SERIES_DELTA:
        return du, dv, _frank_delta_series(u, v, delta)
    log_num = np.logaddexp(log_1mb - du_, log_v_far - dv_)
    log_1mc = math.log(-math.expm1(-delta))
    cdf = (log_1mc - log_num) / delta
    k = np.exp(log_1ma + log_1mb - log_num - (delta + log_1mc))
    return du, dv, (u * du + v * dv - cdf - k) / delta


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


def _cdf_partials(spec: CopulaSpec, uu: np.ndarray, vv: np.ndarray):
    """(dC/du, dC/dv, dC/ddelta) at points strictly inside the unit square.

    Inside the Frank independence band the partials are those of the
    delta -> 0 limit, dC/ddelta = uv(1-u)(1-v)/2. On the edges the partials
    are known without the closed forms (C(u, 1) = u, C(u, 0) = 0), so callers
    add those terms themselves.
    """
    if spec.family is CopulaFamily.PRODUCT:
        return vv, uu, np.zeros(np.broadcast(uu, vv).shape)
    delta = spec.delta
    if spec.family is CopulaFamily.GUMBEL:
        return _gumbel_partials(uu, vv, delta)
    if abs(delta) < FRANK_INDEPENDENCE_TOL:
        return vv, uu, _frank_delta_series(uu, vv, 0.0)
    if delta > 0:
        return _frank_positive_partials(uu, vv, delta)
    # C(u, v; delta) = u - C(u, 1 - v; -delta). An edge v below ~5.6e-17
    # reflects onto 1 - v = 1.0, where log(1 - e^-d(1-v)) is log(0); the
    # partials there are the finite v -> 0 limits, so the divide is expected.
    with np.errstate(divide="ignore"):
        du, dv, dd = _frank_positive_partials(uu, 1.0 - vv, -delta)
    return 1.0 - du, dv, dd


def copula_cdf(spec: CopulaSpec, u, v):
    """Evaluate C(u, v; delta) for the given family.

    Coordinates may overshoot [0, 1] by at most ``COORD_TOL``. Returns a
    float for scalar inputs, an array otherwise.
    """
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    uu, vv = np.broadcast_arrays(_checked_unit(u, "u"), _checked_unit(v, "v"))
    out = np.clip(_cdf_core(spec, uu, vv), 0.0, 1.0)
    return float(out) if scalar else out


def rectangle_mass(spec: CopulaSpec, u_lo, u_hi, v_lo, v_hi):
    """Mass the copula assigns to the rectangle (u_lo, u_hi] x (v_lo, v_hi].

    Computed by inclusion-exclusion over the four corners. Tiny negatives
    from floating point cancellation are clamped to 0.
    """
    u_lo, u_hi = np.asarray(u_lo, float), np.asarray(u_hi, float)
    v_lo, v_hi = np.asarray(v_lo, float), np.asarray(v_hi, float)
    if np.any(u_lo > u_hi) or np.any(v_lo > v_hi):
        raise ValueError("rectangle endpoints out of order")
    mass = (
        copula_cdf(spec, u_hi, v_hi)
        - copula_cdf(spec, u_lo, v_hi)
        - copula_cdf(spec, u_hi, v_lo)
        + copula_cdf(spec, u_lo, v_lo)
    )
    clipped = np.maximum(mass, 0.0)
    if np.ndim(mass) == 0:
        return float(clipped)
    return clipped

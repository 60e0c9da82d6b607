"""The DAR(1) and BDAR(1) processes.

A DAR(1) series keeps its previous value with probability phi and otherwise
draws fresh from an innovation distribution on the same state space. The
bivariate BDAR(1) couples two such series twice over: the two keep/innovate
indicators are joined by one copula, the two innovations by another.

This module holds the parameter container, the one-step transition kernel,
the exact conditional and stationary pmfs, and path simulation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .copulas import PRODUCT, CopulaFamily, CopulaSpec, _json_float
from .joint import (
    _BLOCK,
    CategoricalMarginal,
    _cell_table,
    _draw_cells,
    _innovation_cells,
    _mechanism_cells,
    sample_joint,
)


class Variant(str, enum.Enum):
    """The five nested model variants.

    M1: independent series (both copulas product).
    M2: one shared keep/innovate indicator, dependent innovations.
    M3: independent indicators, dependent innovations.
    M4: dependent indicators, independent innovations.
    M5: dependent indicators and dependent innovations.
    """

    M1 = "m1"
    M2 = "m2"
    M3 = "m3"
    M4 = "m4"
    M5 = "m5"

    @classmethod
    def parse(cls, value) -> "Variant":
        if isinstance(value, cls):
            return value
        text = str(value).strip().lower()
        if text in ("1", "2", "3", "4", "5"):
            text = "m" + text
        return cls(text)


# Each variant's free scalars in the fit's order: ``phi`` is M2's shared keep
# rate (phi1 = phi2), ``delta_alpha`` and ``delta_eps`` the mechanism and
# innovation dependence. A copula without a free delta is the product, except
# M2's mechanism, which has none.
_FREE_SCALARS = {
    Variant.M1: ("phi1", "phi2"),
    Variant.M2: ("phi", "delta_eps"),
    Variant.M3: ("phi1", "phi2", "delta_eps"),
    Variant.M4: ("phi1", "phi2", "delta_alpha"),
    Variant.M5: ("phi1", "phi2", "delta_alpha", "delta_eps"),
}


@dataclass(frozen=True, eq=False)
class Bdar1Params:
    """Full parameter set of a BDAR(1) model.

    ``copula_alpha`` couples the two keep/innovate indicators (absent for
    M2, where a single shared indicator makes the mechanism comonotone, and
    forced to product for M1/M3). ``copula_eps`` couples the innovations
    (forced to product for M1/M4).
    """

    variant: Variant
    phi1: float
    phi2: float
    m1: CategoricalMarginal
    m2: CategoricalMarginal
    copula_alpha: CopulaSpec | None = None
    copula_eps: CopulaSpec | None = None

    def __post_init__(self):
        variant = Variant.parse(self.variant)
        object.__setattr__(self, "variant", variant)
        for name, phi in (("phi1", self.phi1), ("phi2", self.phi2)):
            if not 0.0 <= phi < 1.0:
                raise ValueError(f"{name}={phi} outside the stationary range [0, 1)")
        object.__setattr__(self, "phi1", float(self.phi1))
        object.__setattr__(self, "phi2", float(self.phi2))
        free = _FREE_SCALARS[variant]
        copulas = (("delta_alpha", "copula_alpha"), ("delta_eps", "copula_eps"))
        if "phi" in free:
            if abs(self.phi1 - self.phi2) > 1e-12:
                raise ValueError("M2 uses one shared keep probability; phi1 must equal phi2")
            if self.copula_alpha is not None:
                raise ValueError("M2 has a single shared indicator; no mechanism copula applies")
            copulas = copulas[1:]
        for name, field in copulas:
            spec = getattr(self, field)
            if name in free:
                if spec is None:
                    raise ValueError(f"{variant.name} requires {field}")
            elif spec is None or spec.family is CopulaFamily.PRODUCT:
                object.__setattr__(self, field, PRODUCT)
            else:
                raise ValueError(f"{variant.name} requires {field} to be the product copula")

    @property
    def d1(self) -> int:
        return self.m1.d

    @property
    def d2(self) -> int:
        return self.m2.d

    def named_values(self) -> dict:
        """Natural-scale parameters by name: both full simplexes, then the
        variant's free scalars in ``_FREE_SCALARS`` order."""
        out = {f"p1_{i + 1}": p for i, p in enumerate(self.m1.probs)}
        out.update({f"p2_{i + 1}": p for i, p in enumerate(self.m2.probs)})
        natural = {"phi": self.phi1, "phi1": self.phi1, "phi2": self.phi2}
        natural["delta_alpha"] = getattr(self.copula_alpha, "delta", None)  # M2 has no copula_alpha
        natural["delta_eps"] = self.copula_eps.delta
        out.update((name, natural[name]) for name in _FREE_SCALARS[self.variant])
        return out

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant.value,
            "phi1": self.phi1,
            "phi2": self.phi2,
            "copula_alpha": None if self.copula_alpha is None else self.copula_alpha.to_json_dict(),
            "copula_eps": self.copula_eps.to_json_dict(),
            "p1": list(self.m1.probs),
            "p2": list(self.m2.probs),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Bdar1Params":
        if not isinstance(d, dict):
            raise ValueError(f"a parameter set must be a JSON object, got {d!r}")
        missing = [key for key in ("variant", "phi1", "phi2", "p1", "p2") if key not in d]
        if missing:
            raise ValueError(f"parameter set lacks the keys {missing}")
        for key in ("p1", "p2"):
            if not isinstance(d[key], (list, tuple)):
                raise ValueError(f"{key} must be a list of probabilities, got {d[key]!r}")

        def spec(entry):
            return None if entry is None else CopulaSpec.from_json_dict(entry)

        return cls(
            variant=Variant.parse(d["variant"]),
            phi1=_json_float(d, "phi1"),
            phi2=_json_float(d, "phi2"),
            m1=CategoricalMarginal(tuple(d["p1"])),
            m2=CategoricalMarginal(tuple(d["p2"])),
            copula_alpha=spec(d.get("copula_alpha")),
            copula_eps=spec(d.get("copula_eps")),
        )


def _state_dtype(d1: int, d2: int) -> type:
    """The narrowest of int8, int16 and int32 that holds states 1..max(d1, d2)."""
    for dtype in (np.int8, np.int16):
        if max(d1, d2) <= np.iinfo(dtype).max:
            return dtype
    return np.int32


@dataclass(frozen=True, eq=False)
class BivariateOrdinalSeries:
    """Two aligned sequences of state indices 1..d1 and 1..d2.

    The sizes ``d1`` and ``d2`` of the state spaces are always given: a
    series need not visit its top states. Both sequences are stored in the
    narrowest signed dtype that holds the larger state space
    (``_state_dtype``): int8 up to 127 states, so 2 bytes per step of the
    pair, not 16; int16 up to 32,767; int32 beyond. Arithmetic on the states
    in that dtype wraps silently, so upcast first where a result can pass
    the dtype's top, as in ``np.multiply(z1 - 1, d2, dtype=np.int64)`` for a
    pair code. Input may be any integer array or sequence, or floats with
    integral values such as 2.0.
    """

    z1: np.ndarray
    z2: np.ndarray
    d1: int
    d2: int

    def __post_init__(self):
        z1, z2 = np.asarray(self.z1), np.asarray(self.z2)
        if z1.ndim != 1 or z2.ndim != 1 or len(z1) != len(z2):
            raise ValueError("the two series must be 1-d and equally long")
        if len(z1) < 2:
            raise ValueError("need at least 2 observations")
        dtype = _state_dtype(self.d1, self.d2)
        for field, z, name, d in (("z1", z1, "first", self.d1), ("z2", z2, "second", self.d2)):
            if z.dtype.kind not in "biu":
                z = z.astype(float, copy=False)
                # NaN and infinities count as non-integral
                fractional = np.flatnonzero(~np.isfinite(z) | (z != np.floor(z)))
                if len(fractional):
                    k = int(fractional[0])
                    raise ValueError(f"{name} series has a non-integral state {float(z[k])} at position {k}")
            # checked before narrowing, so that an out-of-range value cannot wrap into range
            if z.min() < 1 or z.max() > d:
                raise ValueError(f"{name} series has states outside 1..{d}")
            object.__setattr__(self, field, z.astype(dtype, copy=False))

    @property
    def n(self) -> int:
        return len(self.z1)


class TransitionKernel(NamedTuple):
    """The one-step BDAR(1) transition as a four-term mixture.

    P(i, j | s, l) = mech[0, 0] pe[i, j] + mech[0, 1] p1[i] 1[j = l]
    + mech[1, 0] 1[i = s] p2[j] + mech[1, 1] 1[i = s, j = l]: the 2x2
    mechanism cells (index 1 = keep) weigh the innovation pmf ``pe`` and its
    marginals ``p1``, ``p2``. Three views cover every use, and nothing of
    size (d1 d2)^2 is ever built: ``by_pattern`` gives the probabilities by
    repeat pattern that the likelihood scores, ``push`` moves a pmf of the
    pair one step ahead, and ``stationary`` gives its fixed point.
    """

    mech: np.ndarray
    pe: np.ndarray
    p1: np.ndarray
    p2: np.ndarray

    @classmethod
    def from_params(cls, params: Bdar1Params) -> "TransitionKernel":
        p1, p2 = params.m1.as_array(), params.m2.as_array()
        alpha, eps = params.copula_alpha, params.copula_eps
        alpha_family, delta_alpha = (None, 0.0) if alpha is None else (alpha.family, alpha.delta)
        # the copula pass may meet log(0) next to an edge (see _cdf_with_partials)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            mech = _mechanism_cells(params.phi1, params.phi2, alpha_family, delta_alpha, values_only=True)[0]
            pe = _innovation_cells(p1, p2, eps.family, eps.delta, values_only=True)[0]
        return cls(mech, pe, p1, p2)

    def by_pattern(self) -> np.ndarray:
        """One-step probabilities by repeat pattern, shape (2, 2, d1, d2).

        ``[r1, r2, i, j]`` is the probability of the 0-based pair (i, j) after
        any previous pair (s, l) with r1 = 1[i = s] and r2 = 1[j = l]:
        m00 pe[i, j] + r2 m01 p1[i] + r1 m10 p2[j] + r1 r2 m11, the terms
        added in that order. It is indexed like ``transition_counts``.
        """
        m00, m01, m10, m11 = self.mech.ravel().tolist()
        out = np.empty((2, 2) + self.pe.shape)
        innovated = out[0]  # the first series innovated: r1 = 0
        np.multiply(m00, self.pe, out=innovated[0])
        np.add(innovated[0], (m01 * self.p1)[:, None], out=innovated[1])
        # r1 = 1 adds m10 p2[j] to both r2 blocks, and r2 = 1 then m11
        np.add(innovated, m10 * self.p2, out=out[1])
        out[1, 1] += m11
        return out

    def push(self, dist: np.ndarray) -> np.ndarray:
        """The pmf of the next pair given the pmf ``dist`` of the current one,
        in O(d1 d2)."""
        m00, m01, m10, m11 = self.mech.ravel().tolist()
        return (
            (m00 * dist.sum()) * self.pe
            + m10 * np.outer(dist.sum(axis=1), self.p2)
            + m01 * np.outer(self.p1, dist.sum(axis=0))
            + m11 * dist
        )

    def stationary(self) -> np.ndarray:
        """Time-invariant joint pmf of the pair.

        Weighs the product of the innovation marginals by the one-kept
        mechanism mass and the joint innovation pmf by the both-innovate mass,
        renormalised by the both-kept mass. Row/column sums equal the
        innovation marginals.
        """
        mech, pe, p1, p2 = self
        pi11 = mech[1, 1]
        if pi11 >= 1.0 - 1e-12:
            raise ValueError("both series kept forever (pi11 ~ 1); stationary joint pmf undefined")
        return ((mech[1, 0] + mech[0, 1]) * np.outer(p1, p2) + mech[0, 0] * pe) / (1.0 - pi11)


def joint_conditional_pmf(params: Bdar1Params, prev1: int, prev2: int) -> np.ndarray:
    """One-step joint conditional pmf of the pair given the previous pair:
    the kernel pushed once from a point mass."""
    if not 1 <= prev1 <= params.d1:
        raise ValueError(f"state {prev1} outside 1..{params.d1}")
    if not 1 <= prev2 <= params.d2:
        raise ValueError(f"state {prev2} outside 1..{params.d2}")
    dist = np.zeros((params.d1, params.d2))
    dist[prev1 - 1, prev2 - 1] = 1.0
    return TransitionKernel.from_params(params).push(dist)


def transition_tensor(params: Bdar1Params) -> np.ndarray:
    """All joint conditionals at once: tensor[s-1, l-1, i-1, j-1] = P(i, j | s, l).

    A dense (d1 d2)^2 array built from the kernel's own cells. No src code
    calls it; perfbench hooks it. The tests' independent dense oracle is
    ``tests/oracles.py``.
    """
    mech, pe, p1, p2 = TransitionKernel.from_params(params)
    e1 = np.eye(params.d1)
    e2 = np.eye(params.d2)
    return (
        mech[0, 0] * pe[None, None, :, :]
        + mech[1, 0] * e1[:, None, :, None] * p2[None, None, None, :]
        + mech[0, 1] * p1[None, None, :, None] * e2[None, :, None, :]
        + mech[1, 1] * e1[:, None, :, None] * e2[None, :, None, :]
    )


def stationary_joint_pmf(params: Bdar1Params) -> np.ndarray:
    """Time-invariant joint pmf of the pair: ``TransitionKernel.stationary``."""
    return TransitionKernel.from_params(params).stationary()


def _carry_forward(innovated: np.ndarray, z: np.ndarray) -> None:
    """Resolve z_t = z_{t-1} wherever ``innovated[t - 1]`` is False, for
    t = 1..len(innovated), in place and without a loop per step.

    On entry ``z[0]`` holds the state before the steps and ``z[t]`` the
    fresh value of step t. Each position then takes the fresh value of the
    most recent innovating step, or ``z[0]`` if there is none yet. The
    source index is int32 (its running maximum costs less than in int64),
    so the steps must number fewer than 2^31: ``simulate`` passes one
    ``_BLOCK``.
    """
    # source 0 is the state before the steps, source t the fresh value of step t
    source = np.arange(len(z), dtype=np.int32)
    source[1:] *= innovated
    np.maximum.accumulate(source, out=source)
    # np.take, not z[source]: indexing by an int32 array takes about twice
    # as long as np.take with it (50 against 25 us a block)
    z[1:] = np.take(z, source[1:])


def simulate(params: Bdar1Params, length: int, rng: np.random.Generator) -> BivariateOrdinalSeries:
    """Simulate a stationary BDAR(1) path of the given length.

    The first pair is drawn from the stationary joint pmf, which is known in
    closed form, so the path is stationary from its first step and needs no
    burn-in. Draw order is fixed (first pair, all mechanism pairs, all
    innovation pairs) so a seeded generator reproduces the path exactly.
    The pairs are drawn as narrow cell codes (``joint._draw_cells``), from
    one table per cell array. The mechanism codes are drawn for the whole
    path first (1 byte per step); then, ``_BLOCK`` steps at a time, the
    block's innovation codes are drawn, split into the two fresh states and
    carried forward straight into the returned states. A path thus holds
    its states (1 byte per step each up to 127 states, 2 up to 32,767), the
    mechanism codes, temporaries of one block (about 20 bytes per step of
    the block, 0.33 MB), and the two tables (``joint._cell_table``): 64 to
    128 entries of 1 or 2 bytes per cell, at most 2^19 entries (1 MiB at
    200 x 200 states), with one 8-byte temporary per entry while each is
    built. Up to 127 states that is 3 bytes per step plus a fixed part:
    3.54 MB in all at 10^6 steps and 30 x 30 states.
    """
    if length < 2:
        raise ValueError("length must be >= 2")
    kernel = TransitionKernel.from_params(params)
    d2 = params.d2
    # states are 0-based until the path is complete
    init1, init2 = sample_joint(kernel.stationary(), rng)
    mech = _draw_cells(_cell_table(kernel.mech), rng, length - 1)  # 2 * keep1 + keep2
    innov_table = _cell_table(kernel.pe)
    dtype = _state_dtype(params.d1, d2)
    z1, z2 = np.empty(length, dtype=dtype), np.empty(length, dtype=dtype)
    z1[0], z2[0] = init1, init2
    for start in range(0, length - 1, _BLOCK):
        codes = _draw_cells(innov_table, rng, min(_BLOCK, length - 1 - start))  # d2 * fresh1 + fresh2
        stop = start + len(codes)
        # numpy's % on narrow ints is not vectorised, its // is
        fresh1 = codes // d2
        z1[start + 1:stop + 1] = fresh1
        fresh1 *= d2
        z2[start + 1:stop + 1] = codes - fresh1
        block = mech[start:stop]  # 2 * keep1 + keep2
        _carry_forward(block < 2, z1[start:stop + 1])
        _carry_forward((block & 1) == 0, z2[start:stop + 1])
    z1 += 1
    z2 += 1
    return BivariateOrdinalSeries(z1, z2, params.d1, d2)

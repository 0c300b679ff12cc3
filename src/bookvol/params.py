"""Model parameters for the relative demand-curve dynamics.

A parameter set describes the log-OU dynamics of the resting-order masses on
a relative price grid around the clearing price: 2K buckets of width delta_p
labelled k = -K+1 .. K (bucket k straddles relative offset k*delta_p; bucket
0 contains the clearing price), plus the below-grid anchor ("edge") that
carries the cumulative net demand at the bottom of the grid.  Each
coordinate x follows

    d log x = -a (log x - mean_log) dt + sigma_rel * sum_j b(j) sqrt(delta_p) dW_j

with one sheet factor per bucket and loading rows normalized so that
sum_j b(j)^2 delta_p = 1.  Time is measured in hours: mean reversion speeds
are per hour and relative volatilities per square-root hour.

Parameter sets serialize to JSON with per-bucket keys mirroring the usual
calibration-table column names ("q(k,0)", "sigma_q_rel(k)", "a(k)", ...).
A bundled demo set, estimated from one NYSE-style equity session, ships with
the package (see :func:`demo_params`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError

_NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class ModelParams:
    K: int
    delta_p: float
    pi0: float
    # per-bucket arrays, index i <-> k = i - K + 1 (so i = k + K - 1)
    q0: np.ndarray
    a_q: np.ndarray
    mean_logq: np.ndarray
    sigma_q_rel: np.ndarray
    loadings: np.ndarray          # (2K, 2K): rows buckets, columns factors
    # below-grid anchor Q(-K)
    edge0: float
    a_edge: float
    mean_log_edge: float
    sigma_edge_rel: float
    edge_loadings: np.ndarray     # (2K,)
    # physical-measure clearing-price drift, currency per hour (diagnostic only)
    drift_c: float = 0.0

    @property
    def factor_count(self) -> int:
        return 2 * self.K

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(-self.K + 1, self.K + 1)

    def idx(self, k: int) -> int:
        """Array index of bucket k."""
        if not -self.K + 1 <= k <= self.K:
            raise ConfigError(f"bucket k={k} outside grid [-{self.K - 1}, {self.K}]")
        return k + self.K - 1

    @classmethod
    def create(cls, **kw) -> "ModelParams":
        """Build a validated parameter set from plain sequences/scalars."""
        for name in ("q0", "a_q", "mean_logq", "sigma_q_rel", "edge_loadings"):
            kw[name] = np.asarray(kw[name], dtype=float)
        kw["loadings"] = np.asarray(kw["loadings"], dtype=float)
        p = cls(**kw)
        p.validate()
        return p

    def validate(self) -> None:
        n = self.factor_count
        if self.K < 1:
            raise ConfigError("K must be at least 1")
        if self.delta_p <= 0:
            raise ConfigError("delta_p must be positive")
        if self.pi0 <= 0:
            raise ConfigError("pi0 must be positive")
        for name in ("q0", "a_q", "mean_logq", "sigma_q_rel"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ConfigError(f"{name} must have shape ({n},), got {arr.shape}")
        if self.loadings.shape != (n, n):
            raise ConfigError(f"loadings must have shape ({n}, {n})")
        if self.edge_loadings.shape != (n,):
            raise ConfigError(f"edge_loadings must have shape ({n},)")
        if np.any(self.q0 <= 0) or self.edge0 <= 0:
            raise ConfigError("initial quantities must be strictly positive")
        if np.any(self.sigma_q_rel < 0) or self.sigma_edge_rel < 0:
            raise ConfigError("relative volatilities must be non-negative")
        if np.any(self.a_q < 0) or self.a_edge < 0:
            raise ConfigError("mean-reversion speeds must be non-negative")
        norms = (self.loadings**2).sum(axis=1) * self.delta_p
        edge_norm = (self.edge_loadings**2).sum() * self.delta_p
        if np.any(np.abs(norms - 1.0) > _NORMALIZATION_TOL) or abs(edge_norm - 1.0) > _NORMALIZATION_TOL:
            raise ConfigError("loading rows must satisfy sum_j b(j)^2 delta_p = 1")


def identity_loadings(K: int, delta_p: float) -> np.ndarray:
    """Each bucket loads only on its own factor (normalized)."""
    return np.eye(2 * K) / np.sqrt(delta_p)


def uniform_loadings(K: int, delta_p: float) -> np.ndarray:
    """A single row spreading unit variance evenly over all factors."""
    n = 2 * K
    return np.full(n, 1.0 / np.sqrt(n * delta_p))


# ----------------------------------------------------------------------
# serialization

def params_to_dict(p: ModelParams) -> dict:
    buckets = [
        {
            "k": int(k),
            "q(k,0)": float(p.q0[i]),
            "sigma_q_rel(k)": float(p.sigma_q_rel[i]),
            "a(k)": float(p.a_q[i]),
            "mean_logq(k)": float(p.mean_logq[i]),
        }
        for i, k in enumerate(p.k_values)
    ]
    return {
        "K": p.K,
        "delta_p": p.delta_p,
        "pi(0)": p.pi0,
        "Q(-K,0)": p.edge0,
        "a_Q(-K)": p.a_edge,
        "mean_logQ(-K)": p.mean_log_edge,
        "sigma_Q_rel(-K)": p.sigma_edge_rel,
        "c": p.drift_c,
        "buckets": buckets,
        "loadings": p.loadings.tolist(),
        "edge_loadings": p.edge_loadings.tolist(),
    }


def _integer(value, name: str) -> int:
    """A config integer: a JSON integer, or a number with no fractional part.
    A boolean, a fraction or any other value is a ConfigError naming `name`."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def params_from_dict(d: dict) -> ModelParams:
    """The parameter set of a JSON object in the params_to_dict layout.  A
    missing key, a K that is not an integer or buckets that are not a list
    of objects is a ConfigError naming the key."""
    if not isinstance(d, dict):
        raise ConfigError(f"model must be a JSON object, got {type(d).__name__}")
    try:
        K = _integer(d["K"], "K")
        buckets = d["buckets"]
        if not isinstance(buckets, list) or not all(isinstance(r, dict) for r in buckets):
            raise ConfigError("buckets must be a list of objects, one per bucket")
        buckets = sorted(buckets, key=lambda r: r["k"])
        expect = list(range(-K + 1, K + 1))
        if [r["k"] for r in buckets] != expect:
            raise ConfigError(f"bucket labels must be exactly {expect[0]}..{expect[-1]}")
        return ModelParams.create(
            K=K,
            delta_p=float(d["delta_p"]),
            pi0=float(d["pi(0)"]),
            q0=[r["q(k,0)"] for r in buckets],
            sigma_q_rel=[r["sigma_q_rel(k)"] for r in buckets],
            a_q=[r["a(k)"] for r in buckets],
            mean_logq=[r["mean_logq(k)"] for r in buckets],
            loadings=d["loadings"],
            edge0=float(d["Q(-K,0)"]),
            a_edge=float(d["a_Q(-K)"]),
            mean_log_edge=float(d["mean_logQ(-K)"]),
            sigma_edge_rel=float(d["sigma_Q_rel(-K)"]),
            edge_loadings=d["edge_loadings"],
            drift_c=float(d.get("c", 0.0)),
        )
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}") from exc


def save_params(p: ModelParams, path: str | Path) -> None:
    Path(path).write_text(json.dumps(params_to_dict(p), indent=1) + "\n")


def load_params(path: str | Path) -> ModelParams:
    try:
        d = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read parameter file {path}: {exc}") from exc
    return params_from_dict(d)


def demo_params() -> ModelParams:
    """The bundled demo parameter set (one calibrated equity session)."""
    text = resources.files("bookvol").joinpath("data/demo_params.json").read_text()
    return params_from_dict(json.loads(text))

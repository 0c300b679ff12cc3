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
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .sheet import is_whole

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
        for name in ("q0", "a_q", "mean_logq", "sigma_q_rel", "loadings", "edge_loadings"):
            kw[name] = np.asarray(kw[name], dtype=float)
        p = cls(**kw)
        p.validate()
        return p

    def validate(self) -> None:
        """Reject a non-finite value, naming its field and entry (`pi0`,
        `q0[3]`, `loadings[2][5]`), then a K that is not an int (bools
        excluded) or is below 1, arrays of the wrong shape, non-positive sizes
        or prices, negative speeds or vols, and loading rows that are not
        normalized: each a ConfigError."""
        for f in fields(self):
            value = np.asarray(getattr(self, f.name), dtype=float)
            if not np.isfinite(value).all():
                first = np.argwhere(~np.isfinite(value))[0]
                at = "".join(f"[{i}]" for i in first)
                raise ConfigError(f"{f.name}{at} must be finite, got {value[tuple(first)]}")
        if not is_whole(self.K):
            raise ConfigError(f"K must be an integer, got {self.K!r}")
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

# (field, JSON key) of the scalars and of the per-bucket entries, in file order
_SCALAR_KEYS = (("delta_p", "delta_p"), ("pi0", "pi(0)"), ("edge0", "Q(-K,0)"),
                ("a_edge", "a_Q(-K)"), ("mean_log_edge", "mean_logQ(-K)"),
                ("sigma_edge_rel", "sigma_Q_rel(-K)"), ("drift_c", "c"))
_BUCKET_KEYS = (("q0", "q(k,0)"), ("sigma_q_rel", "sigma_q_rel(k)"), ("a_q", "a(k)"),
                ("mean_logq", "mean_logq(k)"))


def params_to_dict(p: ModelParams) -> dict:
    buckets = [{"k": int(k), **{key: float(getattr(p, f)[i]) for f, key in _BUCKET_KEYS}}
               for i, k in enumerate(p.k_values)]
    return {"K": p.K, **{key: getattr(p, f) for f, key in _SCALAR_KEYS},
            "buckets": buckets, "loadings": p.loadings.tolist(),
            "edge_loadings": p.edge_loadings.tolist()}


def _integer(value, name: str) -> int:
    """A config integer: a JSON integer, or a number with no fractional part.
    A boolean, a fraction or any other value is a ConfigError naming `name`."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _number(value, name: str) -> float:
    """A config number: a JSON integer or float.  A boolean, a string or any
    other value is a ConfigError naming `name`."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:           # an integer beyond the float range
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _numbers(value, name: str) -> list[float]:
    """A config list of numbers, entry i read by `_number` and named `name[i]`.
    Any value that is not a list is a ConfigError naming `name`."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return [_number(x, f"{name}[{i}]") for i, x in enumerate(value)]


def params_from_dict(d: dict) -> ModelParams:
    """The parameter set of a JSON object in the params_to_dict layout; `c`
    defaults to 0.  A missing key, labels other than -K+1..K, or a K, label
    (`buckets[0].k`), scalar, bucket entry (`buckets[k=-3].q(k,0)`) or loading
    (`loadings[2][5]`, `edge_loadings[4]`) of the wrong JSON type is a
    ConfigError naming the key; then validate names a non-finite field."""
    if not isinstance(d, dict):
        raise ConfigError(f"model must be a JSON object, got {type(d).__name__}")
    d = {"c": 0.0, **d}
    try:
        K = _integer(d["K"], "K")
        buckets = d["buckets"]
        if not isinstance(buckets, list) or not all(isinstance(r, dict) for r in buckets):
            raise ConfigError("buckets must be a list of objects, one per bucket")
        labels = [_integer(r["k"], f"buckets[{i}].k") for i, r in enumerate(buckets)]
        if len(labels) != 2 * max(K, 0) or sorted(labels) != list(range(-K + 1, K + 1)):
            raise ConfigError(f"bucket labels must be exactly {-K + 1}..{K}")
        rows = sorted(zip(labels, buckets), key=lambda row: row[0])
        loadings = d["loadings"]
        if not isinstance(loadings, list):
            raise ConfigError(f"loadings must be a list of rows, got {loadings!r}")
        return ModelParams.create(
            K=K,
            **{f: _number(d[key], key) for f, key in _SCALAR_KEYS},
            **{f: [_number(r[key], f"buckets[k={k}].{key}") for k, r in rows]
               for f, key in _BUCKET_KEYS},
            loadings=[_numbers(row, f"loadings[{i}]") for i, row in enumerate(loadings)],
            edge_loadings=_numbers(d["edge_loadings"], "edge_loadings"),
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

"""Parameter-container tests: validation, serialization round trip, and the
bundled demo set."""

import copy
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from bookvol.errors import ConfigError
from bookvol.params import (
    ModelParams,
    demo_params,
    identity_loadings,
    load_params,
    params_from_dict,
    params_to_dict,
    save_params,
    uniform_loadings,
)


def test_demo_params_load_and_validate():
    p = demo_params()
    p.validate()
    assert p.K == 7
    assert p.delta_p == 0.05
    assert p.pi0 == 20.16
    assert p.factor_count == 14
    assert p.q0.shape == (14,)
    assert p.loadings.shape == (14, 14)
    assert list(p.k_values) == list(range(-6, 8))


def test_idx_maps_bucket_labels():
    p = demo_params()
    assert p.idx(0) == 6
    assert p.idx(-6) == 0
    assert p.idx(7) == 13


def test_loading_rows_are_normalized():
    mat = identity_loadings(5, 0.1)
    assert np.allclose((mat**2).sum(axis=1) * 0.1, 1.0)
    row = uniform_loadings(5, 0.1)                    # the single edge row
    assert np.allclose((row**2).sum() * 0.1, 1.0)


def test_serialization_round_trip(tmp_path):
    p = demo_params()
    path = tmp_path / "params.json"
    save_params(p, path)
    q = load_params(path)
    assert q.K == p.K and q.delta_p == p.delta_p and q.pi0 == p.pi0
    for name in ("q0", "a_q", "mean_logq", "sigma_q_rel", "loadings", "edge_loadings"):
        assert np.array_equal(getattr(q, name), getattr(p, name)), name
    assert (q.edge0, q.a_edge, q.mean_log_edge, q.sigma_edge_rel, q.drift_c) == \
           (p.edge0, p.a_edge, p.mean_log_edge, p.sigma_edge_rel, p.drift_c)
    # the key order and spelling of the bundled file, byte for byte
    assert path.read_text() == resources.files("bookvol").joinpath("data/demo_params.json").read_text()


def test_bucket_labels_must_be_complete():
    d = params_to_dict(demo_params())
    d["buckets"] = d["buckets"][1:]            # drop k = -6
    with pytest.raises(ConfigError):
        params_from_dict(d)


def test_missing_key_raises_config_error():
    d = params_to_dict(demo_params())
    del d["delta_p"]
    with pytest.raises(ConfigError):
        params_from_dict(d)


def _set(*path, value):
    """An edit that sets one entry of a parameter dict, at a path of keys and indices."""
    def edit(d):
        d = copy.deepcopy(d)
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return d
    return edit


# (path, key as an error names it, what it must be) of every kind of model
# entry; the bucket at list index 3 is k = -3
_MODEL_KEYS = (
    [(("K",), "K", "an integer"), (("buckets", 3, "k"), "buckets[3].k", "an integer")]
    + [((key,), key, "a number") for key in ("delta_p", "pi(0)", "Q(-K,0)", "a_Q(-K)",
                                              "mean_logQ(-K)", "sigma_Q_rel(-K)", "c")]
    + [(("buckets", 3, key), f"buckets[k=-3].{key}", "a number")
       for key in ("q(k,0)", "sigma_q_rel(k)", "a(k)", "mean_logq(k)")]
    + [(("loadings", 2, 5), "loadings[2][5]", "a number"),
       (("edge_loadings", 4), "edge_loadings[4]", "a number")])
_WRONG_TYPES = [(_set(*path, value=v), f"{name} must be {kind}, got {v!r}", f"{name}-{label}")
                for path, name, kind in _MODEL_KEYS
                for v, label in ((True, "true"), ("1", "string"), (None, "null"))
                if (name, label) != ("K", "true")]          # K-bool is listed below
# a non-finite JSON number is named by the ModelParams field it lands in
_NON_FINITE = [(_set(*path, value=v), f"{field} must be finite, got {v}", f"{field}-{v}")
               for path, field in ((("pi(0)",), "pi0"), (("buckets", 3, "q(k,0)"), "q0[3]"),
                                   (("loadings", 2, 5), "loadings[2][5]"))
               for v in (float("nan"), float("inf"))]


@pytest.mark.parametrize("edit, message", [
    (lambda d: {**d, "K": 7.5}, "K must be an integer, got 7.5"),
    (lambda d: {**d, "K": True}, "K must be an integer, got True"),
    (lambda d: {**d, "buckets": 3}, "buckets must be a list of objects, one per bucket"),
    (lambda d: {**d, "buckets": [1.0] + d["buckets"][1:]},
     "buckets must be a list of objects, one per bucket"),
    (lambda d: [d], "model must be a JSON object, got list"),
] + [row[:2] for row in _WRONG_TYPES + _NON_FINITE],
    ids=["K-fraction", "K-bool", "buckets-number", "bucket-number", "model-list"]
    + [row[2] for row in _WRONG_TYPES + _NON_FINITE])
def test_malformed_model_names_its_key(edit, message):
    """A fractional K is not truncated to the K its labels happen to match, a
    boolean or a numeric string is not read as a number, and a NaN or an
    infinity is not a parameter."""
    with pytest.raises(ConfigError) as exc:
        params_from_dict(edit(params_to_dict(demo_params())))
    assert str(exc.value) == message


def test_validate_rejects_bad_shapes_and_signs():
    p = demo_params()
    with pytest.raises(ConfigError):
        ModelParams.create(**{**_kw(p), "delta_p": -0.05})
    with pytest.raises(ConfigError):
        ModelParams.create(**{**_kw(p), "q0": p.q0[:-1]})
    with pytest.raises(ConfigError):
        ModelParams.create(**{**_kw(p), "q0": -p.q0})


@pytest.mark.parametrize("K", [7.0, True])
def test_validate_rejects_a_K_that_is_not_an_int(K):
    """A float or a bool K is named before any shape check reads it."""
    with pytest.raises(ConfigError) as exc:
        replace(demo_params(), K=K).validate()
    assert str(exc.value) == f"K must be an integer, got {K!r}"
    replace(demo_params(), K=np.int64(7)).validate()       # numpy integers pass


def _kw(p: ModelParams) -> dict:
    return dict(K=p.K, delta_p=p.delta_p, pi0=p.pi0, q0=p.q0, a_q=p.a_q,
                mean_logq=p.mean_logq, sigma_q_rel=p.sigma_q_rel,
                loadings=p.loadings, edge0=p.edge0, a_edge=p.a_edge,
                mean_log_edge=p.mean_log_edge, sigma_edge_rel=p.sigma_edge_rel,
                edge_loadings=p.edge_loadings, drift_c=p.drift_c)

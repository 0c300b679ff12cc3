"""Risk-adjustment tests: the normalized price loadings, the drift-kill
linear system against a scalar re-derivation, solver diagnostics, the
closed-form kill against the dense solve on adverse states, and the
vectorized ensemble against explicit single-path stepping.  The two
clearing-volatility routes and the depth law are acceptance criteria 4
and 5."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bookvol import riskneutral
from bookvol.demand import (Ensemble, clear, init_state, ou_step_factors, step_ensemble,
                            step_physical)
from bookvol.errors import BoundaryBreachError, SingularSystemError
from bookvol.params import ModelParams, demo_params, identity_loadings, uniform_loadings
from bookvol.riskneutral import (
    COND_LIMIT,
    _batch_kill_shifts,
    _KillTransform,
    build_mpr_system,
    init_ensemble,
    kill_vectors,
    price_vol,
    simulate_ensemble,
    solve_mpr,
    step_risk_neutral,
)
from bookvol.sheet import SheetConfig, increments, increments_block


def _random_states(n, seed=0):
    """Demo-book states with jittered masses and edge, re-cleared to be live."""
    params = demo_params()
    rng = np.random.default_rng(seed)
    base = init_state(params)
    out = []
    while len(out) < n:
        jittered = replace(
            base,
            log_q=base.log_q + rng.normal(scale=0.05, size=base.log_q.shape),
            log_edge=base.log_edge + rng.normal(scale=0.01),
        )
        _, state = clear(jittered, params)
        out.append(state)
    return params, out


# ----------------------------------------------------------------------
# clearing-price volatility

def test_price_vol_loadings_are_normalized():
    params, states = _random_states(10, seed=5)
    for state in states:
        pv = price_vol(state, params)
        assert (pv.b_pi**2).sum() * params.delta_p == pytest.approx(1.0, rel=1e-12)


def test_zero_noise_gives_zero_volatility():
    params = demo_params()
    quiet = ModelParams.create(
        K=params.K, delta_p=params.delta_p, pi0=params.pi0, q0=params.q0,
        a_q=params.a_q, mean_logq=params.mean_logq,
        sigma_q_rel=np.zeros_like(params.sigma_q_rel), loadings=params.loadings,
        edge0=params.edge0, a_edge=params.a_edge,
        mean_log_edge=params.mean_log_edge, sigma_edge_rel=0.0,
        edge_loadings=params.edge_loadings)
    state = init_state(quiet)
    pv = price_vol(state, quiet)
    assert pv.sigma_pi == 0.0
    assert np.all(kill_vectors(state, quiet) == 0.0)


# ----------------------------------------------------------------------
# the drift-kill system, re-derived with scalars for K = 1

def _tiny_params():
    dp = 0.5
    q = np.array([4.0, 2.0])
    return ModelParams.create(
        K=1, delta_p=dp, pi0=10.0, q0=q, a_q=np.array([1.0, 2.0]),
        mean_logq=np.log(q), sigma_q_rel=np.array([0.3, 0.1]),
        loadings=identity_loadings(1, dp),
        edge0=2.0, a_edge=1.0, mean_log_edge=math.log(2.0),
        sigma_edge_rel=0.2, edge_loadings=uniform_loadings(1, dp))


def test_system_matches_scalar_arithmetic():
    params = _tiny_params()
    state = init_state(params)
    dp, rt = 0.5, 1.0 / math.sqrt(0.5)
    q0, q1, edge = 4.0, 2.0, 2.0
    s0, s1, se = 0.3, 0.1, 0.2

    # factor loadings of the curve value at the node entering each bucket
    v0 = (edge * se * 1.0, edge * se * 1.0)
    v1 = (v0[0] - q0 * s0 * rt, v0[1])

    # left side: [-V_i + w_i q_i s_i B_i] dp, live row w = 1/2, other rows 0
    sigma_expected = np.array([
        [(-v0[0] + 0.5 * q0 * s0 * rt) * dp, -v0[1] * dp],
        [-v1[0] * dp, -v1[1] * dp],
    ])

    # right side: drift of the curve value below the node, the anchored share
    # of the clearing bucket's own drift, and the mass-price covariance
    mu0 = q0 * (0.5 * s0**2)            # log_q sits at its mean: no reversion pull
    mu1 = q1 * (0.5 * s1**2)
    mu_e = edge * (0.5 * se**2)
    cross0 = s0 * (rt * v0[0]) * dp
    cross1 = s1 * (rt * v1[1]) * dp
    b_expected = np.array([
        0.0 - mu_e + 0.5 * (mu0 - q0 * s0**2) + cross0,
        mu0 - mu_e + 0.0 + cross1,
    ])

    system = build_mpr_system(state, params)
    assert np.allclose(system.Sigma, sigma_expected, rtol=1e-12)
    assert np.allclose(system.b, b_expected, rtol=1e-12)

    solved = solve_mpr(system)
    det = sigma_expected[0, 0] * sigma_expected[1, 1] \
        - sigma_expected[0, 1] * sigma_expected[1, 0]
    lam_expected = np.array([
        (b_expected[0] * sigma_expected[1, 1] - sigma_expected[0, 1] * b_expected[1]) / det,
        (sigma_expected[0, 0] * b_expected[1] - b_expected[0] * sigma_expected[1, 0]) / det,
    ])
    assert np.allclose(solved.lam, lam_expected, rtol=1e-10)


def test_solver_diagnostics_over_a_path():
    params = demo_params()
    state = init_state(params)
    cfg = SheetConfig(params.factor_count, params.delta_p, seed=9)
    dt = 1.0 / 60.0
    for step in range(20):
        system = solve_mpr(build_mpr_system(state, params))
        assert system.residual_norm <= 1e-10 * np.linalg.norm(system.b)
        assert system.cond < 1e12
        state = step_risk_neutral(state, params, system.lam, increments(cfg, dt, step), dt)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_closed_form_kill_matches_dense_solve(data):
    """(y, e) = (B·λ, B_E·λ) with λ from the dense solve, on jittered, thin
    and freshly relabelled books, at demo size and at K = 1."""
    params = data.draw(st.sampled_from([demo_params(), _tiny_params()]))
    n = 2 * params.K
    base = init_state(params)
    log_q = base.log_q + np.array(data.draw(st.lists(
        st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    thin = data.draw(st.integers(0, n - 1))
    log_q[thin] -= data.draw(st.floats(0.0, 12.0))
    jittered = replace(base, log_q=log_q,
                       log_edge=base.log_edge + data.draw(st.floats(-1.0, 1.0)))
    try:
        _, state = clear(jittered, params)      # relabels whenever the zero left bucket 0
        system = solve_mpr(build_mpr_system(state, params))
    except (BoundaryBreachError, SingularSystemError):
        assume(False)
    y, e, _, singular = _batch_kill_shifts(Ensemble.of(state), params, _KillTransform(params))
    assert not singular[0]
    got = np.concatenate([y[:, 0], e])
    want = np.concatenate([params.loadings @ system.lam, [params.edge_loadings @ system.lam]])
    tol = 100 * system.cond * np.finfo(float).eps
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


def test_thin_bucket_kill_is_singular_not_bottom(monkeypatch):
    params = demo_params()
    dt = 1.0 / 60.0
    clean, _, _ = simulate_ensemble(params, 5, 3 * dt, dt, seed=2)

    def degenerate_paths(p, n_paths):
        ens = init_ensemble(p, n_paths)
        ens.log_q[2, 1] = -700.0            # interior bucket k = -4 holds e^-700
        ens.log_q[2, 2] = -10.0             # pivot ~1e-16 of the largest, y still finite
        ens.log_edge[3] = 709.0             # edge drift overflows: b and e are not finite
        return ens

    monkeypatch.setattr(riskneutral, "init_ensemble", degenerate_paths)
    ens, diag, _ = simulate_ensemble(params, 5, 3 * dt, dt, seed=2)
    assert (diag.n_aborted_singular, diag.n_aborted_bottom, diag.n_aborted_top) == (3, 0, 0)
    assert [r.singular for r in diag.rows] == [3, 0, 0]
    assert ens.alive.tolist() == [True, False, False, False, True]
    assert np.all(ens.pi[1:4] == params.pi0)
    others = [0, 4]
    assert np.array_equal(ens.pi[others], clean.pi[others])
    assert np.array_equal(ens.log_q[:, others], clean.log_q[:, others])
    assert np.array_equal(ens.log_edge[others], clean.log_edge[others])


def test_singular_system_raises():
    from bookvol.riskneutral import MprSystem
    with pytest.raises(SingularSystemError):
        solve_mpr(MprSystem(Sigma=np.zeros((3, 3)), b=np.ones(3)))


def test_partial_zero_volatility_rejected():
    params = demo_params()
    sig = params.sigma_q_rel.copy()
    sig[3] = 0.0
    broken = ModelParams.create(
        K=params.K, delta_p=params.delta_p, pi0=params.pi0, q0=params.q0,
        a_q=params.a_q, mean_logq=params.mean_logq, sigma_q_rel=sig,
        loadings=params.loadings, edge0=params.edge0, a_edge=params.a_edge,
        mean_log_edge=params.mean_log_edge, sigma_edge_rel=params.sigma_edge_rel,
        edge_loadings=params.edge_loadings)
    with pytest.raises(SingularSystemError):
        simulate_ensemble(broken, 4, 0.5, 0.25, seed=0)


# ----------------------------------------------------------------------
# ensembles

def test_ensemble_matches_explicit_single_path():
    params = demo_params()
    dt, n_steps = 1.0 / 60.0, 30
    ens, diag, _ = simulate_ensemble(params, 3, n_steps * dt, dt, seed=14)
    assert diag.n_aborted == 0

    cfg = SheetConfig(params.factor_count, params.delta_p, seed=14)
    state = init_state(params)
    for step in range(n_steps):
        system = solve_mpr(build_mpr_system(state, params))
        state = step_risk_neutral(state, params, system.lam, increments(cfg, dt, step), dt)
    assert ens.pi[0] == pytest.approx(state.pi, rel=1e-9)
    assert np.allclose(ens.log_q[:, 0], state.log_q, rtol=1e-9)


def _adverse_ensemble(params):
    """Six paths: zero mid top bucket (relabels by +K), zero mid bottom bucket
    (by -(K-1)), a NaN log mass, a bucket below the top thinned to half the
    singular guard, and two clean paths."""
    K = params.K
    ens = Ensemble.of(init_state(params), 6)
    others = np.exp(ens.log_q[1:, 3]) * params.sigma_q_rel[1:]
    ens.log_q[0, 3] = math.log(0.5 * others.max() / COND_LIMIT / params.sigma_q_rel[0])
    ens.log_q[K - 1, 2] = np.nan
    q = np.exp(ens.log_q)
    ens.log_edge[0] = math.log(q[:-1, 0].sum() + 0.5 * q[-1, 0])
    ens.log_edge[1] = math.log(0.5 * q[0, 1])
    ens.log_edge[3] = math.log(q[:K - 1, 3].sum() + 0.5 * q[K - 1, 3])
    return ens


def _path_alone(ens, i):
    """Path i of `ens` as an ensemble of one that shares no memory with it."""
    return Ensemble(ens.delta_p, ens.log_edge[i:i + 1].copy(), ens.log_q[:, i:i + 1].copy(),
                    ens.pi[i:i + 1].copy(), ens.alive[i:i + 1].copy())


def _step_once(ens, params, inc, dt, risk_neutral):
    """One step of simulate_ensemble's loop: kill, drop singular paths, step."""
    singular = np.zeros(ens.pi.size, dtype=bool)
    shifts = None
    if risk_neutral:
        y, e, _, singular = _batch_kill_shifts(ens, params, _KillTransform(params))
        ens.alive &= ~singular
        shifts = (y, e)
    cleared = step_ensemble(ens, params, inc, dt, ou_step_factors(params, dt), kill=shifts,
                            translation=0.0 if risk_neutral else params.drift_c * dt)
    return cleared, singular, shifts


@pytest.mark.parametrize("risk_neutral", [True, False])
@pytest.mark.parametrize("params", [demo_params(), _tiny_params()], ids=["K7", "K1"])
def test_batch_step_matches_single_paths_on_adverse_states(params, risk_neutral):
    """Each column of a stepped adverse ensemble equals that path stepped alone.

    Masks agree exactly.  The kill and the loading projection hold BLAS
    products whose summation order may depend on n, so values agree to
    rel 1e-12; the test below pins clearing alone bit for bit."""
    K, dt = params.K, 1.0 / 60.0
    inc = increments_block(SheetConfig(params.factor_count, params.delta_p, seed=7), dt, 0, 6)
    ens = _adverse_ensemble(params)
    pi_before = ens.pi.copy()
    cleared, singular, shifts = _step_once(ens, params, inc, dt, risk_neutral)

    moved = np.floor((ens.pi - pi_before) / params.delta_p + 0.5)
    assert moved[:2].tolist() == [K, -(K - 1)]
    assert cleared.relabeled.tolist() == [True, K > 1, False, False, False, False]
    assert singular.tolist() == [False, False, risk_neutral, risk_neutral, False, False]
    assert cleared.broken.tolist() == [False, False, not risk_neutral, False, False, False]
    assert ens.alive.tolist() == [True, True, False, not risk_neutral, True, True]

    for i in range(6):
        one = _path_alone(_adverse_ensemble(params), i)
        alone, alone_singular, alone_shifts = _step_once(one, params, inc[i:i + 1], dt,
                                                         risk_neutral)
        assert alone_singular[0] == singular[i]
        for batch, single in zip(cleared, alone):
            assert single[0] == batch[i]
        assert one.alive[0] == ens.alive[i]
        if shifts is not None:
            np.testing.assert_allclose(alone_shifts[0][:, 0], shifts[0][:, i], rtol=1e-12)
            np.testing.assert_allclose(alone_shifts[1], shifts[1][i:i + 1], rtol=1e-12)
        np.testing.assert_allclose(one.log_q[:, 0], ens.log_q[:, i], rtol=1e-12)
        np.testing.assert_allclose(one.log_edge, ens.log_edge[i:i + 1], rtol=1e-12)
        np.testing.assert_allclose(one.pi, ens.pi[i:i + 1], rtol=1e-12)


@pytest.mark.parametrize("params", [demo_params(), _tiny_params()], ids=["K7", "K1"])
def test_batch_clear_matches_single_paths_exactly(params):
    """Clearing has no BLAS product: on the adverse states each path clears
    to the same bits alone as in the batch."""
    ens = _adverse_ensemble(params)
    cleared = riskneutral._batch_clear(ens, params)
    assert cleared.relabeled.tolist() == [True, params.K > 1, False, False, False, False]
    assert cleared.broken.tolist() == [False, False, True, False, False, False]
    for i in range(6):
        one = _path_alone(_adverse_ensemble(params), i)
        alone = riskneutral._batch_clear(one, params)
        for batch, single in zip(cleared, alone):
            assert single[0] == batch[i]
        assert np.array_equal(one.log_q[:, 0], ens.log_q[:, i])
        assert np.array_equal(one.log_edge, ens.log_edge[i:i + 1])
        assert np.array_equal(one.pi, ens.pi[i:i + 1])
        assert one.alive[0] == ens.alive[i]


def test_physical_ensemble_matches_step_physical():
    params = demo_params()
    dt, n_steps = 1.0 / 60.0, 30
    ens, _, _ = simulate_ensemble(params, 2, n_steps * dt, dt, seed=3,
                                  risk_neutral=False)
    cfg = SheetConfig(params.factor_count, params.delta_p, seed=3)
    state = init_state(params)
    for step in range(n_steps):
        state = step_physical(state, params, increments(cfg, dt, step), dt)
    assert ens.pi[0] == pytest.approx(state.pi, rel=1e-12)


def test_martingale_within_monte_carlo_error():
    params = demo_params()
    ens, diag, _ = simulate_ensemble(params, 800, 2.0, 1.0 / 60.0, seed=2)
    terminal = ens.pi[ens.alive]
    se = terminal.std(ddof=1) / math.sqrt(terminal.size)
    assert abs(terminal.mean() - params.pi0) <= 4 * se


def test_noiseless_paths_stay_put_under_both_measures():
    params = demo_params()
    quiet = ModelParams.create(
        K=params.K, delta_p=params.delta_p, pi0=params.pi0, q0=params.q0,
        a_q=params.a_q, mean_logq=np.log(params.q0), sigma_q_rel=np.zeros(14),
        loadings=params.loadings, edge0=params.edge0, a_edge=params.a_edge,
        mean_log_edge=math.log(params.edge0), sigma_edge_rel=0.0,
        edge_loadings=params.edge_loadings)
    for risk_neutral in (True, False):
        ens, diag, _ = simulate_ensemble(quiet, 5, 1.0, 0.25, seed=0,
                                         risk_neutral=risk_neutral)
        assert diag.n_aborted == 0
        assert np.allclose(ens.pi, params.pi0, atol=1e-9)


def test_track_records_price_paths():
    params = demo_params()
    ens, diag, track = simulate_ensemble(params, 4, 0.5, 0.125, seed=1, record_pi=2)
    assert track.shape == (diag.n_steps + 1, 2)
    assert np.allclose(track[0], params.pi0)
    assert track[-1, 0] == ens.pi[0]


def test_init_ensemble_replicates_initial_state():
    params = demo_params()
    ens = init_ensemble(params, 3)
    state = init_state(params)
    assert np.allclose(ens.log_q, state.log_q[:, None])
    assert np.allclose(ens.pi, state.pi)
    assert ens.alive.all()

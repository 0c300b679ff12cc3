"""Risk-adjustment tests: the normalized price loadings, the drift-kill
linear system against a scalar re-derivation, solver diagnostics, the
closed-form kill against the dense solve on adverse states, the ensemble's
columns against the same books stepped and evaluated alone, and the run's
StepPlan: a run and a plan reused across an edit of the books against fresh
plans, a plan of three state-sized work arrays, and a step that allocates no
state-sized array; and the run's one-thread BLAS pin.  The
two clearing-volatility routes and the depth law are acceptance criteria 4
and 5."""

import copy
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bookvol import riskneutral
from bookvol.calibration import synthesize_log
from bookvol.demand import (_batch_clear, init_ensemble, inverse, liquidation_proceeds,
                            node_values, wealth_increment)
from bookvol.errors import SimulationError, SingularSystemError
from bookvol.params import ModelParams, demo_params, identity_loadings, uniform_loadings
from bookvol.riskneutral import (
    COND_LIMIT,
    StepPlan,
    StepRow,
    _batch_kill_shifts,
    build_mpr_system,
    kill_vectors,
    price_vol,
    run_steps,
    sigma_pi_direct,
    simulate_ensemble,
    solve_mpr,
    step_ensemble,
    step_risk_neutral,
)
from bookvol.sheet import SheetConfig, increments_block


def _jittered_books(n, seed=0, params=None):
    """n books of `params` (the demo book) with jittered masses and edge,
    re-cleared to be live."""
    params = demo_params() if params is None else params
    rng = np.random.default_rng(seed)
    books = init_ensemble(params, n)
    for j in range(n):
        books.log_q[:, j] += rng.normal(scale=0.05, size=2 * params.K)
        books.log_edge[j] += rng.normal(scale=0.01)
    _batch_clear(books, params)
    assert books.alive.all()
    return params, books


# ----------------------------------------------------------------------
# clearing-price volatility

def test_price_vol_loadings_are_normalized():
    params, books = _jittered_books(10, seed=5)
    pv = price_vol(books, params)
    assert pv.b_pi.shape == (params.factor_count, 10)
    assert (pv.b_pi**2).sum(axis=0) * params.delta_p == pytest.approx(1.0, rel=1e-12)


def test_zero_noise_gives_zero_volatility():
    params = demo_params()
    quiet = ModelParams.create(
        K=params.K, delta_p=params.delta_p, pi0=params.pi0, q0=params.q0,
        a_q=params.a_q, mean_logq=params.mean_logq,
        sigma_q_rel=np.zeros_like(params.sigma_q_rel), loadings=params.loadings,
        edge0=params.edge0, a_edge=params.a_edge,
        mean_log_edge=params.mean_log_edge, sigma_edge_rel=0.0,
        edge_loadings=params.edge_loadings)
    book = init_ensemble(quiet)
    pv = price_vol(book, quiet)
    assert pv.sigma_pi.tolist() == [0.0] and np.all(pv.b_pi == 0.0)
    assert np.all(kill_vectors(book, quiet) == 0.0)


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
    book = init_ensemble(params)
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

    system = build_mpr_system(book, params)
    assert np.allclose(system.Sigma, sigma_expected[None], rtol=1e-12)
    assert np.allclose(system.b, b_expected[None], rtol=1e-12)

    solved = solve_mpr(system)
    det = sigma_expected[0, 0] * sigma_expected[1, 1] \
        - sigma_expected[0, 1] * sigma_expected[1, 0]
    lam_expected = np.array([
        (b_expected[0] * sigma_expected[1, 1] - sigma_expected[0, 1] * b_expected[1]) / det,
        (sigma_expected[0, 0] * b_expected[1] - b_expected[0] * sigma_expected[1, 0]) / det,
    ])
    assert np.allclose(solved.lam, lam_expected[None], rtol=1e-10)


def _correlated_params():
    """Demo parameters with factor correlation 0.4^|i-j| between buckets."""
    params = demo_params()
    n = 2 * params.K
    corr = 0.4 ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    vals, vecs = np.linalg.eigh(corr)
    return replace(params, loadings=(vecs * np.sqrt(vals)) @ vecs.T / math.sqrt(params.delta_p))


@pytest.mark.parametrize("params", [demo_params(), _correlated_params()],
                         ids=["diagonal", "correlated"])
def test_right_side_matches_its_definition_at_k7(params):
    """b(i) built term by term with scalar loops: the physical drift of the
    masses below bucket i less the edge's, the anchored share w_i of bucket
    i's own drift, and the covariance σ_i·(B_i·V_i)·Δp of bucket i's mass
    with the curve value entering it.  The demo loadings are diagonal, so
    only the correlated ones reach the covariance with the buckets below i."""
    params, books = _jittered_books(5, seed=3, params=params)
    n, F, dp = 2 * params.K, params.factor_count, params.delta_p
    i0 = params.idx(0)
    got = build_mpr_system(books, params).b
    for col in range(5):
        log_q, log_edge = books.log_q[:, col], books.log_edge[col]
        q = [math.exp(x) for x in log_q]
        edge = math.exp(log_edge)
        s, se = params.sigma_q_rel, params.sigma_edge_rel
        mu = [q[l] * (-params.a_q[l] * (log_q[l] - params.mean_logq[l]) + 0.5 * s[l]**2)
              for l in range(n)]
        mu_e = edge * (-params.a_edge * (log_edge - params.mean_log_edge) + 0.5 * se**2)
        want = []
        for i in range(n):
            drift = sum(mu[l] for l in range(i)) - mu_e
            if i == i0:
                drift += 0.5 * (mu[i] - q[i] * s[i]**2)
            v = [edge * se * params.edge_loadings[j]
                 - sum(q[l] * s[l] * params.loadings[l, j] for l in range(i)) for j in range(F)]
            cross = s[i] * sum(params.loadings[i, j] * v[j] for j in range(F)) * dp
            want.append(drift + cross)
        assert params.K == 7
        np.testing.assert_allclose(got[col], want, rtol=1e-12, atol=0)


def test_solver_diagnostics_over_a_path():
    params = demo_params()
    book = init_ensemble(params)
    cfg = SheetConfig(params.factor_count, params.delta_p, seed=9)
    dt = 1.0 / 60.0
    for step in range(20):
        system = solve_mpr(build_mpr_system(book, params))
        assert system.residual_norm[0] <= 1e-10 * np.linalg.norm(system.b[0])
        assert system.cond[0] < 1e12
        step_risk_neutral(book, params, system.lam, increments_block(cfg, dt, step, 1), dt)
        assert book.alive[0]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_closed_form_kill_matches_dense_solve(data):
    """The shift column (e, y) = (B_E·λ, B·λ), in the state's row order, with
    λ from the dense solve, on jittered, thin and freshly cleared books, at
    demo size and at K = 1."""
    params = data.draw(st.sampled_from([demo_params(), _tiny_params()]))
    n = 2 * params.K
    book = init_ensemble(params)
    book.log_q[:, 0] += np.array(data.draw(st.lists(
        st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    thin = data.draw(st.integers(0, n - 1))
    book.log_q[thin] -= data.draw(st.floats(0.0, 12.0))
    book.log_edge += data.draw(st.floats(-1.0, 1.0))
    _batch_clear(book, params)                  # moves π wherever the zero left bucket 0
    assume(book.alive[0])
    try:
        system = solve_mpr(build_mpr_system(book, params))
    except SingularSystemError:
        assume(False)
    shift, _, singular = _batch_kill_shifts(book, params, StepPlan(params, None, 1, kill=True))
    assert not singular[0]
    lam = system.lam[0]
    got = shift[:, 0]
    want = np.concatenate([[params.edge_loadings @ lam], params.loadings @ lam])
    tol = 100 * system.cond[0] * np.finfo(float).eps
    assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


def _thin_books(params):
    """Five demo books, the middle three with a singular kill."""
    ens = init_ensemble(params, 5)
    ens.log_q[2, 1] = -700.0                # interior bucket k = -4 holds e^-700
    ens.log_q[2, 2] = -10.0                 # pivot ~1e-16 of the largest, y still finite
    ens.log_edge[3] = 709.0                 # edge drift overflows: b and e are not finite
    return ens


def test_thin_bucket_kill_is_singular_not_bottom():
    params = demo_params()
    dt = 1.0 / 60.0
    clean, _, _ = simulate_ensemble(params, 5, 3 * dt, dt, seed=2)

    ens = _thin_books(params)
    rows = list(run_steps(params, ens, 3, dt, seed=2))
    assert [(r.singular, r.bottom, r.top) for r in rows] == [(3, 0, 0), (0, 0, 0), (0, 0, 0)]
    assert ens.alive.tolist() == [True, False, False, False, True]
    assert np.all(ens.pi[1:4] == params.pi0)
    others = [0, 4]
    assert np.array_equal(ens.pi[others], clean.pi[others])
    assert np.array_equal(ens.log_q[:, others], clean.log_q[:, others])
    assert np.array_equal(ens.log_edge[others], clean.log_edge[others])


def test_a_run_reports_only_its_own_aborts():
    """Each run counts its own paths: after a thin-book run that aborts three
    paths as singular, a run whose three paths all break is a
    SimulationError with no singular abort in its counts."""
    params, dt = demo_params(), 1.0 / 60.0
    rows = list(run_steps(params, _thin_books(params), 3, dt, seed=2))
    assert sum(r.singular for r in rows) == 3
    ens = init_ensemble(params, 3)
    ens.log_edge[:] = math.log(1e20)        # the curve overflows: every book breaks
    with pytest.raises(SimulationError) as info:
        list(run_steps(params, ens, 3, dt, seed=2))
    assert type(info.value) is SimulationError
    assert str(info.value) == ("all 3 simulated paths aborted "
                               "(top 0, bottom 0, broken 3, singular 0)")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_book_is_a_simulation_error_not_a_warning():
    """An edge of 1e300 overflows the path-0 residual as well as the kill;
    with warnings as errors the run still ends in the run's own verdict."""
    params = replace(demo_params(), edge0=1e300)
    with pytest.raises(SimulationError) as info:
        list(run_steps(params, init_ensemble(params, 2), 3, 1.0 / 60.0))
    assert type(info.value) is SimulationError
    assert str(info.value).endswith("(top 0, bottom 0, broken 2, singular 0)")


@pytest.mark.parametrize("risk_neutral", [True, False])
def test_a_run_yields_the_rows_simulate_ensemble_returns(risk_neutral):
    params, dt, n_steps = demo_params(), 1.0 / 64.0, 8
    rows = list(run_steps(params, init_ensemble(params, 7), n_steps, dt, seed=3,
                          risk_neutral=risk_neutral))
    _, diag, _ = simulate_ensemble(params, 7, n_steps * dt, dt, seed=3,
                                   risk_neutral=risk_neutral)
    assert all(type(row) is StepRow for row in rows) and len(rows) == n_steps
    assert np.array_equal(rows, diag.rows, equal_nan=True)


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
    """simulate_ensemble's closed-form kill against each book stepped alone by
    step_risk_neutral with its dense λ, on its own noise stream."""
    params = demo_params()
    dt, n_steps, n = 1.0 / 60.0, 30, 3
    ens, diag, _ = simulate_ensemble(params, n, n_steps * dt, dt, seed=14)
    assert diag.n_aborted == 0

    cfg = SheetConfig(params.factor_count, params.delta_p, seed=14)
    for i in range(n):
        book = init_ensemble(params)
        for step in range(n_steps):
            system = solve_mpr(build_mpr_system(book, params))
            step_risk_neutral(book, params, system.lam,
                              increments_block(cfg, dt, step, n)[i:i + 1], dt)
        assert book.alive[0]
        assert book.pi[0] == pytest.approx(ens.pi[i], rel=1e-9)
        np.testing.assert_allclose(book.log_q[:, 0], ens.log_q[:, i], rtol=1e-9)


def _adverse_ensemble(params):
    """Six books: zero mid top bucket (a move of +K buckets), zero mid bottom
    bucket (-(K-1) buckets), a NaN log mass, a bucket below the top thinned
    to half the singular guard, and two clean books."""
    K = params.K
    ens = init_ensemble(params, 6)
    others = np.exp(ens.log_q[1:, 3]) * params.sigma_q_rel[1:]
    ens.log_q[0, 3] = math.log(0.5 * others.max() / COND_LIMIT / params.sigma_q_rel[0])
    ens.log_q[K - 1, 2] = np.nan
    q = np.exp(ens.log_q)
    ens.log_edge[0] = math.log(q[:-1, 0].sum() + 0.5 * q[-1, 0])
    ens.log_edge[1] = math.log(0.5 * q[0, 1])
    ens.log_edge[3] = math.log(q[:K - 1, 3].sum() + 0.5 * q[K - 1, 3])
    return ens


def _step_once(ens, params, inc, dt, risk_neutral, plan=None):
    """One step of run_steps' loop: kill, drop singular paths, step; through
    a fresh plan unless one is given."""
    singular = np.zeros(ens.pi.size, dtype=bool)
    shift = None
    if plan is None:
        plan = StepPlan(params, dt, ens.pi.size, kill=risk_neutral)
    if risk_neutral:
        shift, _, singular = _batch_kill_shifts(ens, params, plan)
        ens.alive &= ~singular
    cleared = step_ensemble(ens, params, inc, plan, kill=shift,
                            translation=0.0 if risk_neutral else params.drift_c * dt)
    return cleared, singular, shift


@pytest.mark.parametrize("risk_neutral", [True, False])
@pytest.mark.parametrize("params", [demo_params(), _tiny_params()], ids=["K7", "K1"])
def test_batch_step_matches_single_paths_on_adverse_states(params, risk_neutral):
    """Each column of a stepped adverse ensemble equals that book stepped alone.

    Masks agree exactly.  The kill and the loading projection hold BLAS
    products whose summation order depends on the number of books (a gemv
    on n rows is a dot on one), so values agree to rel 1e-12; the test
    below pins clearing alone bit for bit."""
    K, dt = params.K, 1.0 / 60.0
    inc = increments_block(SheetConfig(params.factor_count, params.delta_p, seed=7), dt, 0, 6)
    ens = _adverse_ensemble(params)
    pi_before = ens.pi.copy()
    cleared, singular, shift = _step_once(ens, params, inc, dt, risk_neutral)

    moved = np.floor((ens.pi - pi_before) / params.delta_p + 0.5)
    assert moved[:2].tolist() == [K, -(K - 1)]
    assert singular.tolist() == [False, False, risk_neutral, risk_neutral, False, False]
    assert cleared.broken.tolist() == [False, False, not risk_neutral, False, False, False]
    assert ens.alive.tolist() == [True, True, False, not risk_neutral, True, True]

    for i in range(6):
        one = _adverse_ensemble(params).column(i)
        alone, alone_singular, alone_shift = _step_once(one, params, inc[i:i + 1], dt,
                                                        risk_neutral)
        assert alone_singular[0] == singular[i]
        for batch, single in zip(cleared, alone):
            assert single[0] == batch[i]
        assert one.alive[0] == ens.alive[i]
        if shift is not None:
            np.testing.assert_allclose(alone_shift[:, 0], shift[:, i], rtol=1e-12)
        np.testing.assert_allclose(one.log_q[:, 0], ens.log_q[:, i], rtol=1e-12)
        np.testing.assert_allclose(one.log_edge, ens.log_edge[i:i + 1], rtol=1e-12)
        np.testing.assert_allclose(one.pi, ens.pi[i:i + 1], rtol=1e-12)


@pytest.mark.parametrize("params", [demo_params(), _tiny_params()], ids=["K7", "K1"])
def test_run_steps_matches_fresh_stages_on_adverse_states(params):
    """Three run_steps steps of the adverse books, each on its own noise
    stream, equal the same steps taken through a fresh plan at every step,
    bit for bit: across the moved, broken and singular books alike."""
    dt, seed = 1.0 / 60.0, 11
    ens = _adverse_ensemble(params)
    for _ in run_steps(params, ens, 3, dt, seed):
        pass
    fresh = _adverse_ensemble(params)
    cfg = SheetConfig(params.factor_count, params.delta_p, seed=seed)
    for step in range(3):
        _step_once(fresh, params, increments_block(cfg, dt, step, 6), dt, True)
    assert ens.alive.tolist() == fresh.alive.tolist() == [True, True, False, False, True, True]
    assert np.array_equal(ens.log_state, fresh.log_state, equal_nan=True)
    assert np.array_equal(ens.pi, fresh.pi)


def test_a_reused_plan_matches_a_fresh_one_after_an_edit_between_steps():
    """A plan carries nothing from one step into the next: six demo books
    stepped twice through one plan, with a bucket edited between the steps,
    equal the same books and edit stepped through a fresh plan each step,
    bit for bit."""
    params, dt = demo_params(), 1.0 / 60.0
    cfg = SheetConfig(params.factor_count, params.delta_p, seed=4)
    plan = StepPlan(params, dt, 6, kill=True)
    reused, fresh = init_ensemble(params, 6), init_ensemble(params, 6)
    for s in range(2):
        if s == 1:                              # an edit outside the stepping
            reused.log_q[3] += 0.2
            fresh.log_q[3] += 0.2
        inc = increments_block(cfg, dt, s, 6)
        _step_once(reused, params, inc, dt, True, plan)
        _step_once(fresh, params, inc, dt, True)
    assert reused.alive.all() and fresh.alive.all()
    assert np.array_equal(reused.log_state, fresh.log_state)
    assert np.array_equal(reused.pi, fresh.pi)


@pytest.mark.parametrize("risk_neutral", [True, False])
def test_a_step_allocates_no_state_sized_array(risk_neutral):
    """After the first step of a 2,048-path run, a step's traced allocations
    peak below one (2K+1, n) float array: the run's StepPlan holds the work
    arrays that the kill, the draws, the OU update and clearing reuse."""
    params, n = demo_params(), 2048
    ens = init_ensemble(params, n)
    steps = run_steps(params, ens, 2, 1.0 / 60.0, seed=4,
                      risk_neutral=risk_neutral)
    tracemalloc.start()
    try:
        next(steps)
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        next(steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ens.log_state.nbytes == 245_760
    assert peak - before < ens.log_state.nbytes


def test_a_plan_holds_three_state_sized_arrays_and_the_mask():
    """A 2,048-path Q plan allocates its three (2K+1, n) float work arrays,
    the (2K+1, n) finiteness mask and a few kB of constants: the draws are a
    view of S, not a fourth array."""
    params, n = demo_params(), 2048
    cells = (2 * params.K + 1) * n
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        plan = StepPlan(params, 1.0 / 60.0, n, kill=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cells * 8 == 245_760 and plan.draws.shape == (n, params.factor_count)
    assert np.shares_memory(plan.draws, plan.S)
    assert peak - before <= 3 * cells * 8 + cells + 32_768


class _FakeBlas:
    """A BLAS thread count behind a getter and a setter, as the pin sees it."""

    def __init__(self, threads):
        self.threads = threads

    def get(self):
        return self.threads

    def put(self, threads):
        self.threads = threads


@pytest.mark.parametrize("exit", ["ends", "raises", "closed"])
def test_a_run_holds_one_blas_thread_and_restores_the_count(monkeypatch, exit):
    """From its first step until it ends, raises or is closed early, a run
    holds BLAS at one thread; then the caller's count comes back."""
    blas = _FakeBlas(3)
    monkeypatch.setattr(riskneutral._one_blas_thread, "calls", (blas.get, blas.put))
    params = demo_params()
    ens = init_ensemble(params, 4)
    if exit == "raises":                        # demand positive across the grid
        ens.log_edge[:] = math.log(1.01 * params.q0.sum())
    steps = run_steps(params, ens, 2, 1.0 / 60.0, seed=1)
    assert blas.threads == 3
    if exit == "raises":
        with pytest.raises(SimulationError, match="all 4 simulated paths aborted"):
            next(steps)
    else:
        next(steps)
        assert blas.threads == 1
        if exit == "closed":
            steps.close()
        else:
            assert [row.alive for row in steps] == [4]
    assert blas.threads == 3


def test_interleaved_runs_restore_the_count_the_first_one_found(monkeypatch):
    """Two runs open at once: the count stays at one until both are closed,
    in whichever order, and then the count the first run found comes back."""
    blas = _FakeBlas(2)
    monkeypatch.setattr(riskneutral._one_blas_thread, "calls", (blas.get, blas.put))
    params = demo_params()
    first, second = (run_steps(params, init_ensemble(params, 2), 3, 1.0 / 60.0)
                     for _ in range(2))
    next(first)
    next(second)
    first.close()
    assert blas.threads == 1
    second.close()
    assert blas.threads == 2


def test_the_blas_pin_does_nothing_without_the_symbols(monkeypatch):
    """A BLAS without the OpenBLAS thread calls leaves the pin with nothing to call."""
    pin = riskneutral._OneBlasThread()
    monkeypatch.setattr(pin, "symbols", ("no_such_get_threads", "no_such_set_threads"))
    with pin:
        assert pin.calls == ()


def test_the_blas_pin_reaches_numpys_openblas():
    """Where numpy bundles OpenBLAS, a pin sets its count to one, and the
    last pin to close restores the count the first one found."""
    pin = riskneutral._OneBlasThread()
    calls = pin._lookup()
    if not calls:
        pytest.skip("numpy's BLAS reports no OpenBLAS thread count")
    get = calls[0]
    before = get()
    with pin:
        assert get() == 1
        with pin:
            assert get() == 1
        assert get() == 1
    assert get() == before


@pytest.mark.parametrize("params", [demo_params(), _tiny_params()], ids=["K7", "K1"])
def test_batch_clear_matches_single_paths_exactly(params):
    """Clearing has no BLAS product: on the adverse states each book clears
    to the same bits alone as in the batch, and each live book's π is the
    inverse at net demand 0 of its curve before clearing, bit for bit."""
    ens = _adverse_ensemble(params)
    before = _adverse_ensemble(params)
    cleared = riskneutral._batch_clear(ens, params)
    assert cleared.broken.tolist() == [False, False, True, False, False, False]
    assert ens.alive.tolist() == [True, True, False, True, True, True]
    for i in range(6):
        one = _adverse_ensemble(params).column(i)
        alone = riskneutral._batch_clear(one, params)
        for batch, single in zip(cleared, alone):
            assert single[0] == batch[i]
        assert np.array_equal(one.log_q[:, 0], ens.log_q[:, i])
        assert np.array_equal(one.log_edge, ens.log_edge[i:i + 1])
        assert np.array_equal(one.pi, ens.pi[i:i + 1])
        assert one.alive[0] == ens.alive[i]
        if ens.alive[i]:
            assert ens.pi[i] == inverse(before.column(i), 0.0)[0]


def _wide_params(K):
    """K buckets a side, the masses growing away from the clearing bucket."""
    dp, n = 0.05, 2 * K
    q = 1e3 * (1.0 + 0.1 * np.abs(np.arange(n) - (K - 1)))
    edge0 = q[:K - 1].sum() + 0.5 * q[K - 1]
    return ModelParams.create(
        K=K, delta_p=dp, pi0=20.0, q0=q, a_q=np.full(n, 10.0), mean_logq=np.log(q),
        sigma_q_rel=np.full(n, 0.1), loadings=identity_loadings(K, dp), edge0=edge0,
        a_edge=10.0, mean_log_edge=math.log(edge0), sigma_edge_rel=0.05,
        edge_loadings=uniform_loadings(K, dp))


@pytest.mark.parametrize("K, n", [
    pytest.param(9, 64, id="9"), pytest.param(10, 64, id="10"),
    pytest.param(9, 300, id="9-300"), pytest.param(10, 300, id="10-300"),
])
def test_batch_clear_matches_single_paths_exactly_on_wide_grids(K, n):
    """With K - 1 >= 8 masses below the clearing bucket, np.sum on a single
    column adds them pairwise; the edge re-anchoring must add them in row
    order, as on many columns, so n jittered books clear to the same bits
    alone as in the batch.  300 books are wider than
    _ACCUMULATE_MAX_COLUMNS, so the batch's running sums come from the loop
    over rows and each book's alone from np.add.accumulate."""
    params = _wide_params(K)
    rng = np.random.default_rng(10)
    ens = init_ensemble(params, n)
    ens.log_q += rng.normal(scale=1.0, size=ens.log_q.shape)
    ens.log_edge += rng.normal(scale=0.05, size=n)
    before = copy.deepcopy(ens)
    cleared = riskneutral._batch_clear(ens, params)
    assert ens.alive.all()
    for i in range(n):
        one = copy.deepcopy(before.column(i))
        alone = riskneutral._batch_clear(one, params)
        for batch, single in zip(cleared, alone):
            assert single[0] == batch[i]
        assert np.array_equal(one.log_edge, ens.log_edge[i:i + 1])
        assert np.array_equal(one.log_q[:, 0], ens.log_q[:, i])
        assert np.array_equal(one.pi, ens.pi[i:i + 1])
        assert ens.pi[i] == inverse(before.column(i), 0.0)[0]


def test_physical_columns_match_books_stepped_alone():
    """Under P each column of a run equals its book stepped alone on its own
    noise stream, to rel 1e-12 for the BLAS reason above."""
    params = demo_params()
    dt, n_steps, n = 1.0 / 60.0, 30, 3
    ens, _, _ = simulate_ensemble(params, n, n_steps * dt, dt, seed=3, risk_neutral=False)
    cfg = SheetConfig(params.factor_count, params.delta_p, seed=3)
    for i in range(n):
        book = init_ensemble(params)
        plan = StepPlan(params, dt, 1)
        for step in range(n_steps):
            step_ensemble(book, params, increments_block(cfg, dt, step, n)[i:i + 1], plan,
                          translation=params.drift_c * dt)
        assert book.pi[0] == pytest.approx(ens.pi[i], rel=1e-12)


@pytest.mark.parametrize("risk_neutral", [True, False])
def test_grouped_run_matches_whole_run_bit_for_bit(risk_neutral):
    """A 5,120-path run stepped in groups of 256 or of 2,560 columns equals
    the whole run bit for bit over 60 steps: the noise projection is one
    gemm and the kill's products keep their bits at these sizes.  Checked on
    OpenBLAS 0.3.31 (Haswell kernels, numpy 2.4); smaller groups still
    differ through the kill's gemv."""
    params, n, n_steps, dt = demo_params(), 5120, 60, 1.0 / 60.0
    whole, _, _ = simulate_ensemble(params, n, 1.0, dt, seed=3, risk_neutral=risk_neutral)
    cfg = SheetConfig(params.factor_count, params.delta_p, seed=3)
    for size in (256, 2560):
        groups = [init_ensemble(params, size) for _ in range(n // size)]
        for step in range(n_steps):
            inc = increments_block(cfg, dt, step, n)
            for g, ens in enumerate(groups):
                _step_once(ens, params, inc[g * size:(g + 1) * size], dt, risk_neutral)
        for name in ("pi", "log_q", "log_edge", "alive"):
            grouped = np.concatenate([getattr(ens, name) for ens in groups], axis=-1)
            assert np.array_equal(grouped, getattr(whole, name)), (size, name)


@pytest.mark.parametrize("params", [demo_params(), _tiny_params(), _correlated_params()],
                         ids=["K7", "K1", "K7-correlated"])
def test_curve_functions_answer_each_column_as_its_book_alone(params):
    """Each per-book function on 64 jittered books, one with a thin clearing
    bucket, equals the same call on each book's column alone, bit for bit.
    The exception is b of build_mpr_system: its right side holds a BLAS
    product, which rounds differently on one book (rel 1e-12)."""
    n, K, i0 = 64, params.K, params.idx(0)
    rng = np.random.default_rng(8)
    books = init_ensemble(params, n)
    books.log_q += rng.normal(scale=0.3, size=books.log_q.shape)
    books.log_edge += rng.normal(scale=0.05, size=n)
    _batch_clear(books, params)
    books.log_q[i0, 1] -= 8.0                   # book 1: a thin clearing bucket, its zero
    q = np.exp(books.log_q[:, 1])               # re-anchored mid-bucket
    books.log_edge[1] = math.log(q[:K - 1].sum() + 0.5 * q[K - 1])
    after = copy.deepcopy(books)
    after.log_q += rng.normal(scale=0.01, size=after.log_q.shape)
    after.log_edge += rng.normal(scale=0.002, size=n)
    _batch_clear(after, params)
    assert books.alive.all() and after.alive.all()

    vals = node_values(books)
    u = rng.uniform(-1.0, 1.0, size=(3, n))
    x, theta, theta_after = 0.8 * u * np.where(u > 0, vals[0], -vals[-1])
    qv = rng.uniform(0.0, 2.0, size=n)

    def per_book(ens, after, x, theta, theta_after, qv):
        pv = price_vol(ens, params)
        system = build_mpr_system(ens, params)
        exact = [inverse(ens, x), liquidation_proceeds(ens, theta),
                 wealth_increment(ens, after, theta, theta_after, theta_qv=qv),
                 pv.sigma_pi, pv.b_pi.T, sigma_pi_direct(ens, params), system.Sigma]
        return exact, system.b

    batched, b = per_book(books, after, x, theta, theta_after, qv)
    for i in range(n):
        alone, b_alone = per_book(books.column(i), after.column(i), x[i], theta[i],
                                  theta_after[i], qv[i])
        for got, want in zip(alone, batched):
            assert np.array_equal(got, want[i:i + 1])
        np.testing.assert_allclose(b_alone, b[i:i + 1], rtol=1e-12)


def test_martingale_within_monte_carlo_error():
    params = demo_params()
    ens, diag, _ = simulate_ensemble(params, 800, 2.0, 1.0 / 60.0, seed=2)
    terminal = ens.pi[ens.alive]
    se = terminal.std(ddof=1) / math.sqrt(terminal.size)
    assert abs(terminal.mean() - params.pi0) <= 4 * se


def test_terminal_variance_does_not_depend_on_the_step():
    """Under Q at 20 hours, Var π_T at 4-minute steps lies within 3 combined
    standard errors of Var π_T at 1-minute steps, SE(var) = var·√(2/(n-1)).
    Clearing moves the relative curve with π by one rule, so a coarse step
    that carries π past half a bucket changes no bucket mass."""
    params, n = demo_params(), 2000
    var = {}
    for minutes in (4, 1):
        ens, _, _ = simulate_ensemble(params, n, 20.0, minutes / 60.0, seed=5)
        var[minutes] = ens.pi.var(ddof=1)
    se = math.sqrt((var[4]**2 + var[1]**2) * 2.0 / (n - 1))
    assert abs(var[4] - var[1]) <= 3.0 * se


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
    ens = init_ensemble(params, 4)
    track = [ens.pi[:2].copy()]
    for _ in run_steps(params, ens, 4, 0.125, seed=1):
        track.append(ens.pi[:2].copy())
    track = np.array(track)
    assert track.shape == (5, 2)
    assert np.allclose(track[0], params.pi0)
    assert track[-1, 0] == ens.pi[0]


@pytest.mark.parametrize("risk_neutral", [True, False])
def test_step_stages_are_looked_up_per_call(monkeypatch, risk_neutral):
    """Timing hooks wrap clearing, the kill and the path-0 residual as
    riskneutral attributes; the loop must reach each through that name,
    once per step (the kill and its residual under Q only)."""
    stages = ("_batch_clear", "_batch_kill_shifts", "_path0_rel_residual")
    calls = dict.fromkeys(stages, 0)
    for name in stages:
        def counted(*args, _name=name, _stage=getattr(riskneutral, name)):
            calls[_name] += 1
            return _stage(*args)
        monkeypatch.setattr(riskneutral, name, counted)
    simulate_ensemble(demo_params(), 4, 3.0 / 60.0, 1.0 / 60.0, seed=1,
                      risk_neutral=risk_neutral)
    per_step = 3 if risk_neutral else 0
    assert calls == {"_batch_clear": 3, "_batch_kill_shifts": per_step,
                     "_path0_rel_residual": per_step}


@pytest.mark.parametrize("risk_neutral", [True, False])
def test_a_run_builds_one_generator_and_draws_fresh_increments(monkeypatch, risk_neutral):
    """A run keeps one Philox and re-keys it for every draw: a 50-bar log and
    a 3-step, 300-path run each build one, and each step's increments equal a
    fresh increments_block call."""
    built, incs = [], []
    philox, step = np.random.Philox, riskneutral.step_ensemble

    def counted_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    def recorded_step(ens, params, inc, *args, **kwargs):
        incs.append(inc.copy())
        return step(ens, params, inc, *args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted_philox)
    synthesize_log(demo_params(), 50, seed=3)
    assert len(built) == 1

    built.clear()
    monkeypatch.setattr(riskneutral, "step_ensemble", recorded_step)
    params, n, dt = demo_params(), 300, 1.0 / 60.0
    simulate_ensemble(params, n, 3 * dt, dt, seed=2, risk_neutral=risk_neutral)
    assert len(built) == 1
    monkeypatch.undo()
    cfg = SheetConfig(params.factor_count, params.delta_p, seed=2)
    assert len(incs) == 3
    for k, inc in enumerate(incs):
        assert np.array_equal(inc, increments_block(cfg, dt, k, n))


def test_init_ensemble_replicates_initial_state():
    params = demo_params()
    ens = init_ensemble(params, 3)
    assert np.array_equal(ens.log_q, np.repeat(init_ensemble(params).log_q, 3, axis=1))
    assert np.array_equal(ens.log_q[:, 0], np.log(params.q0))
    assert np.array_equal(ens.log_edge, np.full(3, np.log(params.edge0)))
    assert np.array_equal(ens.pi, np.full(3, params.pi0))
    assert ens.alive.all()


@pytest.mark.parametrize("horizon, dt", [
    (math.inf, 0.05), (math.nan, 0.05), (0.1, math.inf), (0.1, math.nan), (0.0, 0.05),
], ids=["inf-horizon", "nan-horizon", "inf-dt", "nan-dt", "zero-horizon"])
def test_simulate_ensemble_rejects_a_non_finite_horizon_or_step(horizon, dt):
    with pytest.raises(ValueError) as exc:
        simulate_ensemble(demo_params(), 3, horizon, dt)
    assert str(exc.value) == ("horizon and dt must be positive and finite, got "
                              f"horizon_hours={horizon}, dt_hours={dt}")


@pytest.mark.parametrize("n_paths", [0, -2, 2.5, 3.0, True])
def test_simulate_ensemble_rejects_a_path_count_that_is_not_a_whole_number(n_paths):
    with pytest.raises(ValueError) as exc:
        simulate_ensemble(demo_params(), n_paths, 0.1, 0.05)
    assert str(exc.value) == f"n_paths must be an int of at least 1, got {n_paths!r}"


def test_simulate_ensemble_reports_a_bad_path_count_ahead_of_a_bad_horizon():
    with pytest.raises(ValueError, match="n_paths must be an int of at least 1, got 0"):
        simulate_ensemble(demo_params(), 0, -1.0, 0.05)

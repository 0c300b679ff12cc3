"""Relative demand-curve tests: clearing against an independent interpolation
oracle, re-centering bookkeeping, the inverse process, liquidation proceeds,
and the wealth/jump-penalty identities."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bookvol.demand import (
    _ou_factors,
    clear,
    curve_value,
    init_state,
    inverse,
    jump_penalty,
    liquidation_proceeds,
    node_offsets,
    node_values,
    step_physical,
    wealth_increment,
)
from bookvol.errors import BoundaryBreachError, SimulationError, UndefinedInverseError
from bookvol.params import ModelParams, demo_params, identity_loadings, uniform_loadings
from bookvol.riskneutral import step_risk_neutral
from bookvol.sheet import SheetConfig, increments


def _flat_params(K=4, delta_p=0.1, qbar=50.0, drift_c=0.0, sigma=0.0):
    """Uniform book: every bucket holds qbar, so the curve slope is constant."""
    n = 2 * K
    logq = math.log(qbar) * np.ones(n)
    edge0 = qbar * (K - 1) + 0.5 * qbar
    return ModelParams.create(
        K=K, delta_p=delta_p, pi0=10.0,
        q0=np.exp(logq), a_q=np.full(n, 2.0), mean_logq=logq,
        sigma_q_rel=np.full(n, sigma),
        loadings=identity_loadings(K, delta_p),
        edge0=edge0, a_edge=2.0, mean_log_edge=math.log(edge0),
        sigma_edge_rel=sigma, edge_loadings=uniform_loadings(K, delta_p),
        drift_c=drift_c,
    )


# ----------------------------------------------------------------------
# curve geometry

def test_node_values_decrease_in_price():
    state = init_state(demo_params())
    vals = node_values(state)
    assert np.all(np.diff(vals) < 0)


def test_curve_value_matches_interpolation():
    state = init_state(demo_params())
    offs, vals = node_offsets(state), node_values(state)
    for s in np.linspace(offs[0], offs[-1], 23):
        assert curve_value(state, state.pi + s) == pytest.approx(
            np.interp(s, offs, vals), rel=1e-12)


def test_initial_state_is_consistent():
    # demo parameters encode a book whose curve crosses zero mid-bucket
    state = init_state(demo_params())
    assert abs(curve_value(state, state.pi)) <= 1e-9 * state.edge()


# ----------------------------------------------------------------------
# clearing

def test_clear_matches_independent_crossing():
    params = demo_params()
    state = init_state(params)
    # nudge the book off its consistency point, then re-clear
    bumped = replace(state, log_edge=state.log_edge + 0.004)
    offs, vals = node_offsets(bumped), node_values(bumped)
    z_expected = float(np.interp(0.0, vals[::-1], offs[::-1]))
    assert abs(z_expected) < bumped.delta_p / 2       # no relabelling here

    pi_new, cleared = clear(bumped, params)
    assert pi_new == pytest.approx(bumped.pi + z_expected, rel=1e-12)
    assert np.array_equal(cleared.log_q, bumped.log_q)
    assert curve_value(cleared, cleared.pi) == pytest.approx(0.0, abs=1e-6 * bumped.edge())


def test_clear_relabels_grid_on_large_move():
    params = demo_params()
    state = init_state(params)
    offs, vals = node_offsets(state), node_values(state)
    target = 1.2 * state.delta_p                      # crossing 1.2 buckets up
    shift = float(np.interp(target, offs, vals))
    bumped = replace(state, log_edge=float(np.log(state.edge() - shift)))

    pi_new, cleared = clear(bumped, params)
    assert pi_new == pytest.approx(state.pi + target, rel=1e-12)
    # bucket labels rolled down by one: new k holds the old k+1 series
    assert np.array_equal(cleared.log_q[:-1], bumped.log_q[1:])
    assert cleared.log_q[-1] == params.mean_logq[-1]  # rotated-in bucket


def test_clear_resets_edge_to_consistency_value():
    params = demo_params()
    state = init_state(params)
    bumped = replace(state, log_edge=state.log_edge + 0.004)
    _, cleared = clear(bumped, params)
    q = cleared.quantities()
    K = cleared.K
    assert cleared.edge() == pytest.approx(q[: K - 1].sum() + 0.5 * q[K - 1], rel=1e-12)


def test_clear_raises_on_top_breach():
    params = demo_params()
    state = init_state(params)
    high = replace(state, log_edge=state.log_edge + 40.0)  # demand never crosses
    with pytest.raises(BoundaryBreachError) as err:
        clear(high, params)
    assert err.value.side == "top"


def test_clear_raises_on_bottom_breach():
    params = demo_params()
    state = init_state(params)
    empty = replace(state, log_edge=-800.0)       # edge mass underflows to zero
    assert node_values(empty)[0] <= 0.0           # no crossing for the oracle to find
    with pytest.raises(BoundaryBreachError) as err:
        clear(empty, params)
    assert err.value.side == "bottom"


@pytest.mark.parametrize("field", ["log_q", "log_edge"])
def test_clear_rejects_non_finite_masses(field):
    params = demo_params()
    state = init_state(params)
    bad = replace(state, log_q=state.log_q.copy())
    if field == "log_q":
        bad.log_q[3] = np.nan
    else:
        bad.log_edge = np.inf
    with pytest.raises(SimulationError):
        clear(bad, params)


def _book_crossing_at(params, target):
    """Masses tilted off their means; the edge puts the curve's zero at offset target."""
    state = init_state(params)
    state = replace(state, log_q=params.mean_logq + 0.1 * np.linspace(-1.0, 1.0, 2 * params.K))
    offs, vals = node_offsets(state), node_values(state)
    return replace(state, log_edge=float(np.log(state.edge() - np.interp(target, offs, vals))))


@pytest.mark.parametrize("K, target, kstar", [
    (1, 0.3, 0),        # K = 1 book, crossing inside bucket 0
    (1, 1.2, 1),        # K = 1, relabel by K
    (7, 7.2, 7),        # relabel by K, the largest upward move the grid allows
    (7, -6.2, -6),      # relabel by -(K-1), the largest downward move
])
def test_clear_on_adverse_books_matches_crossing_oracle(K, target, kstar):
    params = _flat_params(K=K)
    state = _book_crossing_at(params, target * params.delta_p)
    offs, vals = node_offsets(state), node_values(state)
    z_expected = float(np.interp(0.0, vals[::-1], offs[::-1]))

    pi_new, cleared = clear(state, params)
    assert pi_new == pytest.approx(state.pi + z_expected, rel=1e-12)
    assert pi_new == inverse(state, 0.0)      # clearing is the inverse at level 0, bit for bit
    n = 2 * K
    kept, landed = slice(max(kstar, 0), n + min(kstar, 0)), slice(max(-kstar, 0), n - max(kstar, 0))
    assert np.array_equal(cleared.log_q[landed], state.log_q[kept])
    fresh = np.ones(n, dtype=bool)
    fresh[landed] = False                     # buckets rotated in at their long-run mean
    assert fresh.sum() == abs(kstar)
    assert np.array_equal(cleared.log_q[fresh], params.mean_logq[fresh])
    assert curve_value(cleared, cleared.pi) == pytest.approx(0.0, abs=1e-9 * cleared.edge())


@pytest.mark.parametrize("stepper", ["physical", "risk_neutral"])
def test_single_state_steps_raise_clearing_errors(stepper):
    params = demo_params()
    state = init_state(params)
    high = replace(state, log_edge=state.log_edge + 40.0)
    inc = np.zeros(params.factor_count)
    with pytest.raises(BoundaryBreachError) as err:
        if stepper == "physical":
            step_physical(high, params, inc, 0.01)
        else:
            step_risk_neutral(high, params, np.zeros(params.factor_count), inc, 0.01)
    assert err.value.side == "top"


# ----------------------------------------------------------------------
# dynamics

def _ou_step(x, a, mean, sigma, dt, z):
    decay, vol = _ou_factors(a, sigma, dt)
    return mean + (x - mean) * decay + vol * z


def test_ou_factors_noiseless_decay():
    x = _ou_step(3.0, a=1.5, mean=1.0, sigma=0.0, dt=0.25, z=0.0)
    assert x == pytest.approx(1.0 + 2.0 * math.exp(-1.5 * 0.25), rel=1e-14)


def test_ou_factors_zero_rate_is_arithmetic():
    x = _ou_step(2.0, a=0.0, mean=99.0, sigma=0.4, dt=0.09, z=1.7)
    assert x == pytest.approx(2.0 + 0.4 * math.sqrt(0.09) * 1.7, rel=1e-14)


def test_noiseless_book_is_a_fixed_point():
    params = _flat_params()
    state = init_state(params)
    cfg = SheetConfig(params.factor_count, params.delta_p, seed=0)
    for step in range(50):
        state = step_physical(state, params, increments(cfg, 0.01, step), 0.01)
    assert state.pi == pytest.approx(params.pi0, abs=1e-9)


def test_drift_translates_price_exactly():
    params = _flat_params(drift_c=0.7)
    state = init_state(params)
    cfg = SheetConfig(params.factor_count, params.delta_p, seed=0)
    dt = 0.02
    for step in range(25):
        state = step_physical(state, params, increments(cfg, dt, step), dt)
    assert state.pi == pytest.approx(params.pi0 + 0.7 * dt * 25, rel=1e-12)


# ----------------------------------------------------------------------
# inverse process and proceeds

def test_inverse_rejects_out_of_range():
    state = init_state(demo_params())
    vals = node_values(state)
    for level in (vals[0] * 1.01, vals[-1] * 1.01, math.nan):
        with pytest.raises(UndefinedInverseError):
            inverse(state, level)
        with pytest.raises(UndefinedInverseError):
            liquidation_proceeds(state, level)
        with pytest.raises(UndefinedInverseError):
            jump_penalty(state, 0.0, level)


def test_proceeds_of_no_position_are_zero():
    proceeds = liquidation_proceeds(init_state(demo_params()), 0.0)
    assert proceeds == 0.0 and math.copysign(1.0, proceeds) == 1.0


def _thin_bucket_book():
    """Demo book with one bucket below the clearing price thinned 3000-fold."""
    state = init_state(demo_params())
    log_q = state.log_q.copy()
    log_q[3] -= 8.0
    return replace(state, log_q=log_q)


@pytest.mark.parametrize("book", ["K1", "thin"])
def test_proceeds_match_dense_quadrature_on_adverse_curves(book):
    # criterion 11's oracle and tolerance, out to both ends of the curve range
    if book == "K1":
        params = _flat_params(K=1)
        state = _book_crossing_at(params, 0.3 * params.delta_p)
    else:
        state = _thin_bucket_book()
    vals = node_values(state)
    for theta in (vals[0], vals[-1]):
        xs = np.linspace(0.0, theta, 10_001)
        oracle = np.trapezoid([inverse(state, x) for x in xs], xs)
        assert liquidation_proceeds(state, theta) == pytest.approx(oracle, rel=1e-6)


def test_node_level_falls_in_the_segment_starting_there():
    # at an interior node level the inverse is the node's offset exactly, and
    # the quadratic-variation cost takes the slope of the segment on the
    # node's higher-price side; pick the node whose neighbouring slopes differ most
    state = init_state(demo_params())
    vals, offs = node_values(state), node_offsets(state)
    widths = -np.diff(vals)                   # level drop of segment m+1, from node m
    m = 1 + int(np.argmax(np.abs(np.log(widths[1:] / widths[:-1]))))
    theta = vals[m]
    assert inverse(state, theta) == state.pi + offs[m]
    dv = wealth_increment(state, state, theta, theta, jump=False, theta_qv=1.0)
    assert dv == pytest.approx(-0.5 * state.delta_p / widths[m], rel=1e-12)
    assert dv != pytest.approx(-0.5 * state.delta_p / widths[m - 1], rel=1e-3)


# ----------------------------------------------------------------------
# wealth and the block-trade penalty

def test_jump_penalty_closed_form_on_uniform_curve():
    # constant slope |dP/dx| = delta_p / qbar, so the displacement cost of a
    # block is exactly the triangle area slope * dtheta^2 / 2
    params = _flat_params(K=4, delta_p=0.1, qbar=50.0)
    state = init_state(params)
    slope = params.delta_p / 50.0
    for dtheta in (30.0, -30.0, 80.0):
        got = jump_penalty(state, 0.0, dtheta)
        assert got == pytest.approx(0.5 * slope * dtheta**2, rel=1e-12)
    assert jump_penalty(state, 25.0, 25.0) == 0.0


def test_wealth_of_fixed_position_is_theta_dpi_under_translation():
    # with sigma = 0 the whole curve translates by c*dt each step, so the
    # liquidation value of a fixed position gains exactly theta * dpi
    params = _flat_params(drift_c=0.9)
    state = init_state(params)
    cfg = SheetConfig(params.factor_count, params.delta_p, seed=1)
    theta, dt = 40.0, 0.05
    after = step_physical(state, params, increments(cfg, dt, 0), dt)
    dv = wealth_increment(state, after, theta, theta, jump=False)
    assert dv == pytest.approx(theta * (after.pi - state.pi), rel=1e-12)


def test_quadratic_variation_cost_on_uniform_curve():
    # constant slope |dP/dx| = delta_p / qbar on every segment, so on a still
    # curve the only wealth change is the cost 0.5 * slope * d[theta]
    params = _flat_params(K=4, delta_p=0.1, qbar=50.0)
    state = init_state(params)
    for theta in (0.0, 30.0, -30.0):
        dv = wealth_increment(state, state, theta, theta, jump=False, theta_qv=4.0)
        assert dv == pytest.approx(-0.5 * (params.delta_p / 50.0) * 4.0, rel=1e-12)


def test_ramp_strategy_wealth_error_scales_linearly_in_dt():
    # trading a linear ramp via per-step blocks: each block costs the exact
    # triangle penalty, so total wealth minus the running integral of
    # theta dpi must be C*dt with C = 0.5*slope*rate^2*T -- first order in dt
    params = _flat_params(drift_c=0.9)
    slope = params.delta_p / 50.0
    rate, horizon = 120.0, 0.4

    def run(n_steps):
        dt = horizon / n_steps
        cfg = SheetConfig(params.factor_count, params.delta_p, seed=2)
        state = init_state(params)
        theta = 0.0
        wealth = stieltjes = 0.0
        for step in range(n_steps):
            after = step_physical(state, params, increments(cfg, dt, step), dt)
            theta_new = rate * (step + 1) * dt
            wealth += wealth_increment(state, after, theta, theta_new, jump=True)
            stieltjes += theta * (after.pi - state.pi)
            state, theta = after, theta_new
        return wealth - stieltjes

    expected_c = 0.5 * slope * rate**2 * horizon
    err_coarse = run(16)
    err_fine = run(32)
    assert err_coarse == pytest.approx(-expected_c * horizon / 16, rel=1e-9)
    assert err_fine == pytest.approx(err_coarse / 2, rel=1e-9)

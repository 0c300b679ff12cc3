"""Relative demand-curve tests: clearing against an independent interpolation
oracle, re-centering bookkeeping, breached and broken books, the inverse
process, liquidation proceeds, and the wealth/jump-penalty identities."""

import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest

from bookvol.demand import (
    _ACCUMULATE_MAX_COLUMNS,
    _batch_clear,
    _running_sum,
    _segment,
    curve_value,
    init_ensemble,
    inverse,
    jump_penalty,
    liquidation_proceeds,
    node_offsets,
    node_values,
    wealth_increment,
)
from bookvol.errors import SimulationError, UndefinedInverseError
from bookvol.params import ModelParams, demo_params, identity_loadings, uniform_loadings
from bookvol.riskneutral import (
    StepPlan,
    _ou_factors,
    run_steps,
    step_ensemble,
    step_risk_neutral,
)


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


def _physical_steps(params, book, n_steps, dt, seed):
    """Step `book` under the physical measure; yield after each step."""
    return run_steps(params, book, n_steps, dt, seed, risk_neutral=False)


# ----------------------------------------------------------------------
# curve geometry

def test_node_values_decrease_in_price():
    vals = node_values(init_ensemble(demo_params(), 2))
    assert vals.shape == (15, 2)
    assert np.all(np.diff(vals, axis=0) < 0)


def test_curve_value_matches_interpolation():
    book = init_ensemble(demo_params())
    offs, vals = node_offsets(book), node_values(book)[:, 0]
    for s in np.linspace(offs[0], offs[-1], 23):
        assert curve_value(book, book.pi + s)[0] == pytest.approx(
            np.interp(s, offs, vals), rel=1e-12)


def test_initial_state_is_consistent():
    # demo parameters encode a book whose curve crosses zero mid-bucket
    book = init_ensemble(demo_params())
    assert abs(curve_value(book, book.pi)[0]) <= 1e-9 * math.exp(book.log_edge[0])


@pytest.mark.parametrize("n_paths", [0, -2, 2.5, 3.0, True])
def test_init_ensemble_rejects_a_path_count_that_is_not_a_whole_number(n_paths):
    with pytest.raises(ValueError) as exc:
        init_ensemble(demo_params(), n_paths)
    assert str(exc.value) == f"n_paths must be an int of at least 1, got {n_paths!r}"
    assert init_ensemble(demo_params(), np.int64(3)).pi.shape == (3,)


def test_column_is_a_view_of_its_book():
    params = demo_params()
    books = init_ensemble(params, 3)
    books.log_edge[1] += 0.004
    one = books.column(1)
    assert (one.log_q.shape, one.pi.shape) == ((2 * params.K, 1), (1,))
    _batch_clear(one, params)                 # clearing the view clears book 1 in place
    assert books.pi[1] == one.pi[0] != params.pi0
    assert books.log_edge[1] == one.log_edge[0]
    assert np.array_equal(books.pi[[0, 2]], [params.pi0] * 2)


def test_column_indexes_like_a_sequence():
    """A negative i counts from the end, an i out of range is an IndexError
    (never an empty ensemble), and a slice keeps its slice meaning."""
    books = init_ensemble(demo_params(), 3)
    books.pi[:] = [1.0, 2.0, 3.0]
    assert [books.column(i).pi.tolist() for i in (0, 2, -1, -3)] == [[1.0], [3.0], [3.0], [1.0]]
    assert books.column(np.int64(1)).pi.tolist() == [2.0]
    for i in (3, 5, -4):
        with pytest.raises(IndexError):
            books.column(i)
    assert books.column(slice(1, 5)).pi.tolist() == [2.0, 3.0]
    assert books.column(slice(5, 6)).pi.size == 0


# ----------------------------------------------------------------------
# clearing

def test_clear_matches_independent_crossing():
    params = demo_params()
    book = init_ensemble(params)
    book.log_edge += 0.004                    # nudge the book off its consistency point
    edge = math.exp(book.log_edge[0])
    offs, vals = node_offsets(book), node_values(book)[:, 0]
    z_expected = float(np.interp(0.0, vals[::-1], offs[::-1]))
    assert abs(z_expected) < book.delta_p / 2       # the zero stays in bucket 0

    log_q = book.log_q.copy()
    _batch_clear(book, params)
    assert book.alive[0]
    assert book.pi[0] == pytest.approx(params.pi0 + z_expected, rel=1e-12)
    assert np.array_equal(book.log_q, log_q)
    assert curve_value(book, book.pi)[0] == pytest.approx(0.0, abs=1e-6 * edge)


def test_clear_translates_curve_on_large_move():
    """A crossing 1.2 buckets up moves π there and leaves every mass on its
    label: the relative curve moves rigidly with π, so clearing it again
    finds its zero where it already is."""
    params = demo_params()
    book = init_ensemble(params)
    offs, vals = node_offsets(book), node_values(book)[:, 0]
    target = 1.2 * book.delta_p                       # crossing 1.2 buckets up
    shift = float(np.interp(target, offs, vals))
    book.log_edge[0] = np.log(math.exp(book.log_edge[0]) - shift)
    log_q = book.log_q.copy()

    _batch_clear(book, params)
    assert book.pi[0] == pytest.approx(params.pi0 + target, rel=1e-12)
    assert np.array_equal(book.log_q, log_q)
    pi = book.pi.copy()
    _batch_clear(book, params)
    assert book.alive[0]
    assert book.pi[0] == pytest.approx(pi[0], rel=1e-12)


def test_clear_resets_edge_to_consistency_value():
    params = demo_params()
    book = init_ensemble(params)
    book.log_edge += 0.004
    _batch_clear(book, params)
    q = np.exp(book.log_q[:, 0])
    K = params.K
    edge = 0.0
    for mass in q[: K - 1]:                   # the masses below bucket 0, in row order
        edge += mass
    assert book.log_edge[0] == np.log(edge + 0.5 * q[K - 1])


@pytest.mark.parametrize("K", [1, 7])
def test_clear_edge_equals_the_halved_running_sum_oracle(K):
    """The re-anchored log-edge is, bit for bit, the log of the running sum
    of q̃(-K+1..0) with q̃(0) halved, on jittered, thin-bucket, far-crossing,
    dead and broken columns; dead columns keep their edge and broken ones
    take the placeholder."""
    params = _flat_params(K=K)
    n = 12
    books = init_ensemble(params, n)
    rng = np.random.default_rng(K)
    books.log_q += rng.normal(scale=1.0, size=books.log_q.shape)
    books.log_q[K - 1, 4] -= 20.0               # thin clearing bucket
    books.log_q[0, 5] -= 20.0                   # thin bottom bucket
    q = np.exp(books.log_q)
    # the zero near mid-bucket 0, or (column 6) near the top of the grid
    books.log_edge = np.log(q[:K].sum(axis=0) - 0.5 * q[K - 1]) \
        + rng.normal(scale=0.02, size=n)
    books.log_edge[6] = np.log(q[:, 6].sum() - 0.1 * q[-1, 6])
    books.alive[7] = False                      # dead before the pass
    books.log_q[-1, 8] = np.nan                 # broken
    books.log_edge[9] = np.inf                  # broken
    q = np.exp(books.log_q)
    halved = q[:K].copy()
    halved[K - 1] *= 0.5
    expected = np.log(_running_sum(halved)[-1])
    before = books.log_edge.copy()

    cleared = _batch_clear(books, params)
    assert cleared.broken.tolist() == [j in (8, 9) for j in range(n)]
    live = books.alive
    assert live.tolist() == [j not in (7, 8, 9) for j in range(n)]
    assert np.array_equal(books.log_edge[live], expected[live])
    assert books.log_edge[7] == before[7]
    assert np.all(books.log_edge[[8, 9]] == params.mean_log_edge)


@pytest.mark.parametrize("width", [1, _ACCUMULATE_MAX_COLUMNS, _ACCUMULATE_MAX_COLUMNS + 1, 300])
def test_running_sum_adds_in_row_order_at_any_width(width):
    """One np.add.accumulate call (narrow arrays) and the loop over rows
    (wide ones) both give np.cumsum's bits, and a column summed alone
    equals the same column summed in the array."""
    x = np.random.default_rng(width).lognormal(size=(20, width))
    out = np.empty_like(x)
    assert _running_sum(x, out=out) is out
    assert np.array_equal(out, np.cumsum(x, axis=0))
    for i in (0, width - 1):
        assert np.array_equal(_running_sum(x[:, i:i + 1]), out[:, i:i + 1])


@pytest.mark.parametrize("side", ["top", "bottom"])
def test_breached_book_is_reported_and_frozen(side):
    params = demo_params()
    books = init_ensemble(params, 2)
    if side == "top":
        books.log_edge[1] += 40.0                 # demand never crosses
    else:
        books.log_edge[1] = -800.0                # edge mass underflows to zero
        assert node_values(books)[0, 1] <= 0.0    # no crossing for the oracle to find
    log_q, log_edge = books.log_q[:, 1].copy(), books.log_edge[1]

    cleared = _batch_clear(books, params)
    for mask in cleared._fields:
        assert getattr(cleared, mask).tolist() == [False, mask == side]
    assert books.alive.tolist() == [True, False]
    assert np.array_equal(books.log_q[:, 1], log_q)
    assert (books.log_edge[1], books.pi[1]) == (log_edge, params.pi0)


@pytest.mark.parametrize("field", ["log_q", "log_edge"])
def test_clear_rejects_non_finite_masses(field):
    params = demo_params()
    books = init_ensemble(params, 2)
    if field == "log_q":
        books.log_q[3, 1] = np.nan
    else:
        books.log_edge[1] = np.inf
    cleared = _batch_clear(books, params)
    assert cleared.broken.tolist() == [False, True]
    assert not (cleared.top.any() or cleared.bottom.any())
    assert books.alive.tolist() == [True, False]
    assert books.pi[1] == params.pi0


def _book_crossing_at(params, target):
    """Masses tilted off their means; the edge puts the curve's zero at offset target."""
    book = init_ensemble(params)
    book.log_q[:, 0] = params.mean_logq + 0.1 * np.linspace(-1.0, 1.0, 2 * params.K)
    offs, vals = node_offsets(book), node_values(book)[:, 0]
    book.log_edge[0] = np.log(math.exp(book.log_edge[0]) - np.interp(target, offs, vals))
    return book


@pytest.mark.parametrize("K, target, buckets", [
    (1, 0.3, 0),        # K = 1 book, crossing inside bucket 0
    (1, 1.2, 1),        # K = 1, a move of K buckets
    (7, 7.2, 7),        # K buckets, the largest upward move the grid allows
    (7, -6.2, -6),      # -(K-1) buckets, the largest downward move
])
def test_clear_on_adverse_books_matches_crossing_oracle(K, target, buckets):
    """The crossing moves π by `buckets` whole buckets, and the masses keep
    their labels however far it moves."""
    params = _flat_params(K=K)
    book = _book_crossing_at(params, target * params.delta_p)
    offs, vals = node_offsets(book), node_values(book)[:, 0]
    z_expected = float(np.interp(0.0, vals[::-1], offs[::-1]))
    log_q, at_zero = book.log_q[:, 0].copy(), inverse(book, 0.0)

    assert math.floor(z_expected / params.delta_p + 0.5) == buckets
    _batch_clear(book, params)
    assert book.pi[0] == pytest.approx(params.pi0 + z_expected, rel=1e-12)
    assert book.pi[0] == at_zero[0]           # clearing is the inverse at level 0, bit for bit
    assert np.array_equal(book.log_q[:, 0], log_q)
    assert curve_value(book, book.pi)[0] == pytest.approx(
        0.0, abs=1e-9 * math.exp(book.log_edge[0]))


@pytest.mark.parametrize("stepper", ["physical", "risk_neutral"])
def test_single_state_steps_raise_clearing_errors(stepper):
    """A single book is an ensemble of one: a step past the top of the grid
    freezes it, and the run, with no book left, raises."""
    params = demo_params()
    book = init_ensemble(params)
    book.log_edge[0] = math.log(1.01 * params.q0.sum())    # demand positive across the grid
    steps = run_steps(params, book, 1, 0.01, risk_neutral=stepper == "risk_neutral")
    with pytest.raises(SimulationError, match=r"all 1 simulated paths aborted \(top 1, bottom 0"):
        next(steps)
    assert not book.alive[0] and book.pi[0] == params.pi0


@pytest.mark.parametrize("stepper", ["physical", "risk_neutral"])
def test_a_step_freezes_a_breached_book(stepper):
    params = demo_params()
    books = init_ensemble(params, 2)
    books.log_edge[1] += 40.0
    inc, dt = np.zeros((2, params.factor_count)), 0.01
    if stepper == "physical":
        cleared = step_ensemble(books, inc, StepPlan(params, dt, 2, risk_neutral=False))
    else:
        cleared = step_risk_neutral(books, params, np.zeros_like(inc), inc, dt)
    assert cleared.top.tolist() == [False, True]
    assert books.alive.tolist() == [True, False]
    assert books.pi[1] == params.pi0


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
    book = init_ensemble(params)
    for _ in _physical_steps(params, book, 50, 0.01, seed=0):
        pass
    assert book.pi[0] == pytest.approx(params.pi0, abs=1e-9)


def test_drift_translates_price_exactly():
    params = _flat_params(drift_c=0.7)
    book = init_ensemble(params)
    dt = 0.02
    for _ in _physical_steps(params, book, 25, dt, seed=0):
        pass
    assert book.pi[0] == pytest.approx(params.pi0 + 0.7 * dt * 25, rel=1e-12)


# ----------------------------------------------------------------------
# inverse process and proceeds

def test_inverse_rejects_out_of_range():
    book = init_ensemble(demo_params())
    vals = node_values(book)[:, 0]
    for level in (vals[0] * 1.01, vals[-1] * 1.01, math.nan):
        with pytest.raises(UndefinedInverseError):
            inverse(book, level)
        with pytest.raises(UndefinedInverseError):
            liquidation_proceeds(book, level)
        with pytest.raises(UndefinedInverseError):
            jump_penalty(book, 0.0, level)


def test_proceeds_of_no_position_are_zero():
    proceeds = liquidation_proceeds(init_ensemble(demo_params()), 0.0)
    assert proceeds.tolist() == [0.0] and math.copysign(1.0, proceeds[0]) == 1.0


def _thin_bucket_book():
    """Demo book with one bucket below the clearing price thinned 3000-fold."""
    book = init_ensemble(demo_params())
    book.log_q[3] -= 8.0
    return book


@pytest.mark.parametrize("kind", ["K1", "thin"])
def test_proceeds_match_dense_quadrature_on_adverse_curves(kind):
    # criterion 11's oracle and tolerance, out to both ends of the curve range
    if kind == "K1":
        params = _flat_params(K=1)
        book = _book_crossing_at(params, 0.3 * params.delta_p)
    else:
        book = _thin_bucket_book()
    vals = node_values(book)[:, 0]
    for theta in (vals[0], vals[-1]):
        xs = np.linspace(0.0, theta, 10_001)
        oracle = np.trapezoid([inverse(book, x)[0] for x in xs], xs)
        assert liquidation_proceeds(book, theta)[0] == pytest.approx(oracle, rel=1e-6)


def _segment_oracle(vals, delta_p, x, live):
    """Width and offset of the segment holding level x, one column at a time
    in Python floats: walk down the column's nodes to the first one below x
    (a level equal to an interior node falls in the segment starting there)."""
    K, n = len(vals) // 2, vals.shape[1]
    x, live = np.broadcast_to(x, n), np.broadcast_to(live, n)
    width, offset = np.ones(n), np.zeros(n)
    for i in range(n):
        if not live[i]:
            continue
        col, level = [float(v) for v in vals[:, i]], float(x[i])
        j = 1
        while j < 2 * K and col[j] >= level:
            j += 1
        width[i] = col[j - 1] - col[j]
        node = (j - 1 - (K - 0.5)) * delta_p
        offset[i] = node + delta_p * (col[j - 1] - level) / width[i]
    return width, offset


def _adverse_curves(K, rng):
    """Node columns of decreasing curves, each with a level at 0 (clearing)
    and one away from 0 (the inverse): whole-number masses put the zero in
    the first segment, in the last, and exactly on each interior node; float
    masses put the other level on each interior node, at both ends of the
    curve range, and at random inside it."""
    cols, zero_cols, levels = [], [], []
    q = rng.integers(1, 9, 2 * K).astype(float)
    for edge in (0.5 * q[0], q.sum() - 0.5 * q[-1], *np.cumsum(q)[:-1]):
        zero_cols.append(np.concatenate(([edge], edge - np.cumsum(q))))
    for _ in range(3):
        q = rng.uniform(0.01, 3.0, 2 * K)
        col = np.concatenate(([0.0], -np.cumsum(q))) + rng.uniform(0.0, q.sum())
        cols += [col] * (2 * K + 2)
        levels += [*col[1:-1], col[0], col[-1], rng.uniform(col[-1], col[0])]
    return np.array(zero_cols).T, np.array(cols).T, np.array(levels)


@pytest.mark.parametrize("K", [1, 2, 7, 129])
def test_segment_matches_a_per_column_search_bit_for_bit(K):
    """_segment's width and offset equal a slow per-column search exactly, in
    a batch and one column at a time, at level 0 and away from it, with
    dead columns at width 1 and offset 0 (K = 129 counts past a uint8)."""
    rng = np.random.default_rng(K)
    delta_p = 0.05
    curve = SimpleNamespace(delta_p=delta_p)
    zero_vals, vals, levels = _adverse_curves(K, rng)
    assert np.all(np.diff(vals, axis=0) < 0) and np.all(np.diff(zero_vals, axis=0) < 0)
    assert np.any(zero_vals[1:-1] == 0.0) and np.any(vals[1:-1] == levels)
    for v, x in ((zero_vals, 0.0), (vals, levels)):
        n = v.shape[1]
        for live in (True, np.arange(n) % 3 != 1):
            want = _segment_oracle(v, delta_p, x, live)
            got = _segment(v, curve, x, live)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            if live is not True:
                assert np.all(got[0][~live] == 1.0) and np.all(got[1][~live] == 0.0)
            for i in range(n):
                one = _segment(v[:, i:i + 1], curve, np.broadcast_to(x, n)[i:i + 1],
                               np.broadcast_to(live, n)[i:i + 1])
                assert one[0][0] == want[0][i] and one[1][0] == want[1][i]


def test_node_level_falls_in_the_segment_starting_there():
    # at an interior node level the inverse is the node's offset exactly, and
    # the quadratic-variation cost takes the slope of the segment on the
    # node's higher-price side; pick the node whose neighbouring slopes differ most
    book = init_ensemble(demo_params())
    vals, offs = node_values(book)[:, 0], node_offsets(book)
    widths = -np.diff(vals)                   # level drop of segment m+1, from node m
    m = 1 + int(np.argmax(np.abs(np.log(widths[1:] / widths[:-1]))))
    theta = vals[m]
    assert inverse(book, theta)[0] == book.pi[0] + offs[m]
    dv = wealth_increment(book, book, theta, theta, jump=False, theta_qv=1.0)[0]
    assert dv == pytest.approx(-0.5 * book.delta_p / widths[m], rel=1e-12)
    assert dv != pytest.approx(-0.5 * book.delta_p / widths[m - 1], rel=1e-3)


# ----------------------------------------------------------------------
# wealth and the block-trade penalty

def test_jump_penalty_closed_form_on_uniform_curve():
    # constant slope |dP/dx| = delta_p / qbar, so the displacement cost of a
    # block is exactly the triangle area slope * dtheta^2 / 2
    params = _flat_params(K=4, delta_p=0.1, qbar=50.0)
    book = init_ensemble(params)
    slope = params.delta_p / 50.0
    for dtheta in (30.0, -30.0, 80.0):
        got = jump_penalty(book, 0.0, dtheta)[0]
        assert got == pytest.approx(0.5 * slope * dtheta**2, rel=1e-12)
    assert jump_penalty(book, 25.0, 25.0).tolist() == [0.0]


def test_wealth_of_fixed_position_is_theta_dpi_under_translation():
    # with sigma = 0 the whole curve translates by c*dt each step, so the
    # liquidation value of a fixed position gains exactly theta * dpi
    params = _flat_params(drift_c=0.9)
    book = init_ensemble(params)
    before = copy.deepcopy(book)
    theta, dt = 40.0, 0.05
    next(_physical_steps(params, book, 1, dt, seed=1))
    dv = wealth_increment(before, book, theta, theta, jump=False)[0]
    assert dv == pytest.approx(theta * (book.pi[0] - before.pi[0]), rel=1e-12)


def test_quadratic_variation_cost_on_uniform_curve():
    # constant slope |dP/dx| = delta_p / qbar on every segment, so on a still
    # curve the only wealth change is the cost 0.5 * slope * d[theta]
    params = _flat_params(K=4, delta_p=0.1, qbar=50.0)
    book = init_ensemble(params)
    for theta in (0.0, 30.0, -30.0):
        dv = wealth_increment(book, book, theta, theta, jump=False, theta_qv=4.0)[0]
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
        book = init_ensemble(params)
        before = copy.deepcopy(book)
        theta = 0.0
        wealth = stieltjes = 0.0
        for step, _ in enumerate(_physical_steps(params, book, n_steps, dt, seed=2)):
            theta_new = rate * (step + 1) * dt
            wealth += wealth_increment(before, book, theta, theta_new, jump=True)[0]
            stieltjes += theta * (book.pi[0] - before.pi[0])
            before, theta = copy.deepcopy(book), theta_new
        return wealth - stieltjes

    expected_c = 0.5 * slope * rate**2 * horizon
    err_coarse = run(16)
    err_fine = run(32)
    assert err_coarse == pytest.approx(-expected_c * horizon / 16, rel=1e-9)
    assert err_fine == pytest.approx(err_coarse / 2, rel=1e-9)

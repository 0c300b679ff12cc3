"""Noise-sheet tests: reproducibility of the counter-based draws, the
increment variances and the basis integrals.  The covariance structure
Cov(W(t,s1), W(t,s2)) = t * min(s1, s2) is acceptance criterion 10."""

import numpy as np
import pytest

from bookvol.calibration import synthesize_log
from bookvol.params import demo_params
from bookvol.riskneutral import simulate_ensemble
from bookvol.sheet import SheetConfig, basis_integral, increments_block

CFG = SheetConfig(factor_count=6, delta_p=0.25, seed=11)


def test_same_seed_same_draws():
    a = increments_block(CFG, 0.5, step=3, n_streams=10)
    b = increments_block(CFG, 0.5, step=3, n_streams=10)
    assert np.array_equal(a, b)


def test_short_last_chunk_is_a_prefix_of_the_whole_chunk():
    # n=300 draws only 44 rows of the second chunk; n=512 draws all 256
    short = increments_block(CFG, 0.5, step=7, n_streams=300)
    whole = increments_block(CFG, 0.5, step=7, n_streams=512)
    assert np.array_equal(short, whole[:300])


@pytest.mark.parametrize("chunk, n", [(1, 256), (2, 300), (3, 44)])
def test_a_draw_from_a_later_chunk_is_the_tail_of_a_draw_from_chunk_0(chunk, n):
    """A draw of n streams from chunk c on equals rows 256·c onward of a draw
    from chunk 0 at the same step, a short last chunk included."""
    whole = increments_block(CFG, 0.5, step=4, n_streams=256 * chunk + n)
    tail = increments_block(CFG, 0.5, step=4, n_streams=n, first_chunk=chunk)
    assert np.array_equal(tail, whole[256 * chunk:])


@pytest.mark.parametrize("chunk", [-1, 1.0, 2.5, True, "1"])
def test_a_first_chunk_that_is_not_a_whole_number_is_rejected(chunk):
    with pytest.raises(ValueError) as exc:
        increments_block(CFG, 0.5, 3, 10, first_chunk=chunk)
    assert str(exc.value) == f"first_chunk must be an int of at least 0, got {chunk!r}"


def test_steps_and_seeds_decorrelate():
    a = increments_block(CFG, 1.0, step=0, n_streams=4)
    b = increments_block(CFG, 1.0, step=1, n_streams=4)
    c = increments_block(SheetConfig(6, 0.25, seed=12), 1.0, step=0, n_streams=4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_negative_dt_rejected():
    for dt in (-1.0, np.nan):
        with pytest.raises(ValueError, match="dt must be non-negative"):
            increments_block(CFG, dt, 0, 1)


@pytest.mark.parametrize("shape", [(5, 6), (12, 6), (10, 5)],
                         ids=["fewer-rows", "more-rows", "fewer-columns"])
def test_out_of_another_shape_is_rejected(shape):
    """An `out` that is not (n_streams, factor_count) is named with both shapes."""
    with pytest.raises(ValueError) as exc:
        increments_block(CFG, 0.5, 3, 10, out=np.empty(shape))
    assert str(exc.value) == f"out must have shape (10, 6), got {shape}"


def test_rekeyed_draws_match_a_fresh_generator():
    # one generator is re-keyed from chunk to chunk and from call to call;
    # a state left over from the previous chunk or step (buffered bits, a
    # pending half word) would shift the normals that follow
    def fresh(step, chunk, rows):
        bits = np.random.Philox(key=[CFG.seed, chunk], counter=[0, 0, 0, step])
        return np.random.Generator(bits).standard_normal((rows, CFG.factor_count))

    for step in (5, 0, 5, 3):
        block = increments_block(CFG, 1.0, step, n_streams=300)
        assert np.array_equal(block[:256], fresh(step, 0, 256))
        assert np.array_equal(block[256:], fresh(step, 1, 44))
        assert np.array_equal(increments_block(CFG, 1.0, step, 258)[257], fresh(step, 1, 2)[-1])


def test_increment_variance_is_dt():
    dt = 0.25
    draws = increments_block(CFG, dt, step=0, n_streams=20_000)
    assert draws.mean() == pytest.approx(0.0, abs=0.01)
    assert draws.var() == pytest.approx(dt, rel=0.05)


def test_basis_integral_ramp():
    # factor j covers [j*dp, (j+1)*dp); the integral of its normalized
    # indicator up to s is clip(s - j*dp, 0, dp)/sqrt(dp)
    dp = CFG.delta_p
    got = basis_integral(CFG, 0.6)
    expected = np.clip(0.6 - np.arange(6) * dp, 0.0, dp) / np.sqrt(dp)
    assert np.allclose(got, expected)
    assert np.allclose(basis_integral(CFG, 0.0), 0.0)
    with pytest.raises(ValueError):
        basis_integral(CFG, CFG.span + 1.0)


def test_normalized_loading_gives_unit_rate_variance():
    rng = np.random.default_rng(5)
    row = rng.normal(size=6)
    row /= np.sqrt((row**2).sum() * CFG.delta_p)     # sum b^2 dp = 1
    dt = 0.3
    inc = increments_block(CFG, dt, step=2, n_streams=20_000)
    vals = np.sqrt(CFG.delta_p) * inc @ row
    assert vals.var() == pytest.approx(dt, rel=0.05)


@pytest.mark.parametrize("seed, message", [
    (-1, r"seed must be in \[0, 2\*\*64\), got -1"),
    (2**64, r"seed must be in \[0, 2\*\*64\), got 18446744073709551616"),
    (1.9, "seed must be an integer, got 1.9"),
    (2.0, "seed must be an integer, got 2.0"),
    (True, "seed must be an integer, got True"),
], ids=["-1", "18446744073709551616", "1.9", "2.0", "True"])
def test_seed_outside_the_philox_key_range_is_rejected(seed, message):
    with pytest.raises(ValueError, match=message):
        SheetConfig(factor_count=6, delta_p=0.25, seed=seed)
    with pytest.raises(ValueError, match=message):
        simulate_ensemble(demo_params(), 3, 0.1, 0.05, seed=seed)
    with pytest.raises(ValueError, match=message):
        synthesize_log(demo_params(), 2, seed=seed)
    SheetConfig(factor_count=6, delta_p=0.25, seed=2**64 - 1)     # the largest key is fine
    numpy_seed = SheetConfig(factor_count=6, delta_p=0.25, seed=np.uint64(11))
    assert np.array_equal(increments_block(numpy_seed, 0.5, 3, 10),
                          increments_block(CFG, 0.5, 3, 10))

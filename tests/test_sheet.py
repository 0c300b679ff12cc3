"""Noise-sheet tests: reproducibility of the counter-based draws, the
increment variances and the basis integrals.  The covariance structure
Cov(W(t,s1), W(t,s2)) = t * min(s1, s2) is acceptance criterion 10."""

import numpy as np
import pytest

from bookvol.sheet import (
    SheetConfig,
    basis_integral,
    increments,
    increments_block,
)

CFG = SheetConfig(factor_count=6, delta_p=0.25, seed=11)


def test_same_seed_same_draws():
    a = increments_block(CFG, 0.5, step=3, n_streams=10)
    b = increments_block(CFG, 0.5, step=3, n_streams=10)
    assert np.array_equal(a, b)


def test_single_stream_matches_block_row():
    block = increments_block(CFG, 0.5, step=7, n_streams=300)
    for stream in (0, 1, 255, 256, 299):   # spans a chunk boundary at 256
        assert np.array_equal(increments(CFG, 0.5, 7, stream), block[stream])


def test_short_last_chunk_is_a_prefix_of_the_whole_chunk():
    # n=300 draws only 44 rows of the second chunk; n=512 draws all 256
    short = increments_block(CFG, 0.5, step=7, n_streams=300)
    whole = increments_block(CFG, 0.5, step=7, n_streams=512)
    assert np.array_equal(short, whole[:300])
    assert np.array_equal(increments(CFG, 0.5, 7, 299), short[299])


def test_steps_and_seeds_decorrelate():
    a = increments_block(CFG, 1.0, step=0, n_streams=4)
    b = increments_block(CFG, 1.0, step=1, n_streams=4)
    c = increments_block(SheetConfig(6, 0.25, seed=12), 1.0, step=0, n_streams=4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_negative_dt_rejected():
    with pytest.raises(ValueError):
        increments_block(CFG, -1.0, 0, 1)


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


"""Option-pricing tests: the closed form against an independent
implementation, inversion round trips and boundary cases, common-random-number
shape properties, and Monte-Carlo error behaviour."""

import math

import numpy as np
import pytest

from bookvol.errors import ConfigError, SimulationError
from bookvol.params import demo_params, params_to_dict, params_from_dict
from bookvol.pricing import (
    ONE_MINUTE_YEARS,
    PricingRequest,
    bs_call,
    call_price,
    implied_vol,
    put_price,
    simulate_terminals,
    smile,
)


def _bs_reference(spot, strike, expiry, sigma):
    """Independent closed form via math.erf (no scipy), at rate 0."""
    if sigma <= 0 or expiry <= 0:
        return max(spot - strike, 0.0)
    srt = sigma * math.sqrt(expiry)
    d1 = (math.log(spot / strike) + 0.5 * sigma**2 * expiry) / srt
    d2 = d1 - srt
    cdf = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    return spot * cdf(d1) - strike * cdf(d2)


def test_closed_form_matches_independent_reference():
    for spot in (18.0, 20.16, 25.0):
        for strike in (15.0, 20.0, 24.0):
            for sigma in (0.08, 0.25, 0.9):
                for expiry in (0.02, 0.5):
                    assert bs_call(spot, strike, expiry, sigma) == pytest.approx(
                        _bs_reference(spot, strike, expiry, sigma), rel=1e-12)


def test_closed_form_degenerates_to_intrinsic():
    assert bs_call(20.0, 18.0, 0.25, 0.0) == 2.0
    assert bs_call(20.0, 18.0, 0.0, 0.4) == 2.0
    assert bs_call(20.0, 22.0, 0.0, 0.4) == 0.0


def test_implied_vol_round_trip():
    for sigma in (0.08, 0.2, 0.5, 1.4):
        for moneyness in (0.95, 1.0, 1.05):
            for expiry in (0.1, 0.5):
                strike = 20.0 * moneyness
                price = bs_call(20.0, strike, expiry, sigma)
                got = implied_vol(price, 20.0, strike, expiry)
                assert got == pytest.approx(sigma, abs=1e-9)


def test_implied_vol_boundaries():
    # exactly intrinsic -> the vanishing-volatility limit
    assert implied_vol(2.0, 20.0, 18.0, 0.25) == 0.0
    assert implied_vol(0.0, 20.0, 22.0, 0.25) == 0.0
    # below intrinsic or above the spot: no volatility explains the price
    assert implied_vol(1.99, 20.0, 18.0, 0.25) is None
    assert implied_vol(20.0, 20.0, 18.0, 0.25) is None
    with pytest.raises(ValueError):
        implied_vol(1.0, -20.0, 18.0, 0.25)
    with pytest.raises(ValueError):
        implied_vol(1.0, 20.0, 18.0, 0.0)
    with pytest.raises(ValueError):
        implied_vol(math.nan, 20.0, 20.0, 0.01)
    with pytest.raises(ValueError):
        implied_vol(1.0, 20.0, 20.0, math.inf)


def test_quote_statistics_by_hand():
    terminals = np.array([1.0, 2.0, 3.0])
    mean, se = call_price(terminals, 1.5)
    payoffs = [0.0, 0.5, 1.5]
    assert mean == pytest.approx(sum(payoffs) / 3)
    assert se == pytest.approx(np.std(payoffs, ddof=1) / math.sqrt(3))
    pmean, _ = put_price(terminals, 1.5)
    assert pmean == pytest.approx(0.5 / 3)


def test_put_call_parity_on_shared_sample():
    req = PricingRequest(strikes=(20.0,), expiry=0.002, n_paths=500, seed=8)
    terminals = simulate_terminals(demo_params(), req)
    for strike in (19.5, 20.0, 20.5):
        c, _ = call_price(terminals, strike)
        p, _ = put_price(terminals, strike)
        assert c - p == pytest.approx(terminals.mean() - strike, rel=1e-12)


def test_prices_monotone_and_convex_under_common_draws():
    req = PricingRequest(strikes=(20.0,), expiry=0.002, n_paths=600, seed=3)
    terminals = simulate_terminals(demo_params(), req)
    strikes = np.arange(19.6, 20.7, 0.1)
    prices = np.array([call_price(terminals, k)[0] for k in strikes])
    assert np.all(np.diff(prices) <= 1e-12)
    assert np.all(np.diff(prices, 2) >= -1e-12)


def test_standard_error_shrinks_with_path_count():
    params = demo_params()
    small = smile(params, PricingRequest(strikes=(20.16,), expiry=0.002,
                                         n_paths=400, seed=12))
    large = smile(params, PricingRequest(strikes=(20.16,), expiry=0.002,
                                         n_paths=1600, seed=12))
    ratio = small.quotes[0].std_error / large.quotes[0].std_error
    assert 1.6 < ratio < 2.5        # fourfold paths roughly halve the error


def test_smile_table_round_trip_and_determinism():
    params = demo_params()
    req = PricingRequest(strikes=(19.9, 20.16, 20.4), expiry=0.002,
                         n_paths=300, seed=7)
    a = smile(params, req)
    b = smile(params, req)
    assert [q.price for q in a.quotes] == [q.price for q in b.quotes]
    assert a.n_aborted_paths == 0

    text = a.to_text()
    lines = text.strip().splitlines()
    assert lines[0] == "strike,price,std_error,implied_vol,n_aborted_paths"
    assert len(lines) == 1 + len(req.strikes)
    first = lines[1].split(",")
    assert float(first[0]) == 19.9
    assert float(first[1]) == pytest.approx(a.quotes[0].price, rel=1e-9)


def test_request_validation():
    with pytest.raises(ConfigError):
        PricingRequest(strikes=(20.0,), expiry=0.0)
    for n_paths in (0, 2.5, 3.0, True):
        with pytest.raises(ConfigError, match=f"n_paths must be an int of at least 1, "
                                              f"got {n_paths!r}"):
            PricingRequest(strikes=(20.0,), expiry=0.02, n_paths=n_paths)
    for strikes in [(-1.0,), (math.nan, 20.0), (math.inf,)]:
        with pytest.raises(ConfigError, match="positive and finite"):
            PricingRequest(strikes=strikes, expiry=0.02)
    for seed in (-1, 2**64, 1.5, True):
        with pytest.raises(ConfigError, match="seed"):
            PricingRequest(strikes=(20.0,), expiry=0.02, seed=seed)
    PricingRequest(strikes=(20.0,), expiry=0.02, seed=2**64 - 1)
    PricingRequest(strikes=(20.0,), expiry=0.02, n_paths=np.int64(5), seed=np.uint64(3))
    with pytest.raises(ConfigError):
        PricingRequest(strikes=(20.0,), expiry=0.02, dt=0.05)
    with pytest.raises(ConfigError):
        smile(demo_params(), PricingRequest(strikes=(), expiry=0.02))


def test_all_aborted_paths_raise():
    d = params_to_dict(demo_params())
    d["Q(-K,0)"] = 1e20               # demand never crosses inside the grid
    broken = params_from_dict(d)
    req = PricingRequest(strikes=(20.0,), expiry=0.001, n_paths=5, seed=0)
    with pytest.raises(SimulationError):
        simulate_terminals(broken, req)

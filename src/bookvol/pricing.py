"""Monte Carlo valuation of European calls on the clearing price.

The pipeline is: draw a risk-neutral ensemble of demand-curve paths, read
off the terminal clearing prices, average call payoffs per strike, and
invert the Black-Scholes formula (bisection) to express each price as an
annualized implied volatility.  All strikes share one terminal sample
(common random numbers), which makes monotonicity and convexity of the
price curve in strike exact rather than statistical, and makes put-call
parity an algebraic identity on the sample.

Expiries and step sizes are quoted in trading years of
``TRADING_HOURS_PER_YEAR`` hours (252 days x 6.5 hours); the simulation
itself runs in trading hours.  Under Q the clearing price is itself a
martingale, so there is one convention: the payoff is not discounted, the
forward is π₀, and implied vols invert Black-Scholes at rate 0.

Everything here is deterministic for a fixed (params, request) pair: the
ensemble is driven by counter-based streams keyed on the request seed and
the payoff reduction is a fixed-order numpy sum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import sheet
from .errors import ConfigError
from .params import ModelParams
from .riskneutral import simulate_ensemble

# 252 trading days of 6.5 hours each.
TRADING_HOURS_PER_YEAR = 1638.0

# One calibration bar (one minute) expressed in trading years.
ONE_MINUTE_YEARS = 1.0 / (60.0 * TRADING_HOURS_PER_YEAR)

# Bisection bracket for implied-vol inversion.
VOL_BRACKET = (1e-6, 5.0)


def check_run(expiry: float, n_paths: int, dt: float, seed: int) -> None:
    """Reject a simulation with no finite horizon, no whole path count, a step
    outside (0, expiry], or a seed that is not a Philox key (sheet.check_seed)."""
    if not 0.0 < expiry < math.inf:
        raise ConfigError(f"expiry must be positive and finite, got {expiry}")
    if not (sheet.is_whole(n_paths) and n_paths >= 1):
        raise ConfigError(f"n_paths must be an int of at least 1, got {n_paths!r}")
    if not 0.0 < dt <= expiry:
        raise ConfigError(f"dt must be in (0, expiry], got dt={dt} expiry={expiry}")
    try:
        sheet.check_seed(seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class PricingRequest:
    """Inputs of one valuation run.

    ``strikes`` are in currency, ``expiry`` and ``dt`` in trading years.
    """

    strikes: tuple
    expiry: float
    n_paths: int = 10_000
    dt: float = ONE_MINUTE_YEARS
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "strikes", tuple(float(k) for k in self.strikes))
        check_run(self.expiry, self.n_paths, self.dt, self.seed)
        if not all(0.0 < k < math.inf for k in self.strikes):
            raise ConfigError(f"strikes must be positive and finite, got {self.strikes}")


@dataclass(frozen=True)
class OptionQuote:
    """One strike's price, Monte Carlo standard error, and implied vol.

    ``implied_vol`` is None when the price admits no Black-Scholes root
    (below intrinsic from Monte Carlo noise, or at/above spot).
    """

    strike: float
    price: float
    std_error: float
    implied_vol: Optional[float]


@dataclass(frozen=True)
class SmileTable:
    quotes: tuple
    n_aborted_paths: int

    def to_text(self) -> str:
        """Delimiter-separated table, one row per strike.

        Columns: strike, price, std_error, implied_vol, n_aborted_paths.
        An undefined implied vol prints as ``nan``.
        """
        lines = ["strike,price,std_error,implied_vol,n_aborted_paths"]
        for q in self.quotes:
            iv = "nan" if q.implied_vol is None else f"{q.implied_vol:.10g}"
            lines.append(
                f"{q.strike:.10g},{q.price:.10g},{q.std_error:.10g},"
                f"{iv},{self.n_aborted_paths}"
            )
        return "\n".join(lines) + "\n"


def simulate_terminals(params: ModelParams, req: PricingRequest) -> np.ndarray:
    """Terminal clearing prices of a risk-neutral ensemble.

    Runs ``req.n_paths`` paths to ``req.expiry`` and returns the clearing
    prices of the paths that survived.  Aborted paths are excluded and
    reported through a warning; when none survive, simulate_ensemble raises.
    """
    ens, diag, _ = simulate_ensemble(params, req.n_paths, req.expiry * TRADING_HOURS_PER_YEAR,
                                     req.dt * TRADING_HOURS_PER_YEAR, seed=req.seed)
    if diag.n_aborted:
        warnings.warn(f"{diag.n_aborted} of {req.n_paths} paths aborted and were excluded "
                      "from the terminal sample", RuntimeWarning, stacklevel=2)
    return ens.pi[ens.alive]


def _payoff_stats(payoff: np.ndarray) -> tuple:
    """Sample mean of a payoff sample and its standard error."""
    if payoff.size == 0:
        raise ValueError("empty terminal sample")
    se = float(payoff.std(ddof=1) / math.sqrt(payoff.size)) if payoff.size > 1 else 0.0
    return float(payoff.mean()), se


def call_price(terminals: np.ndarray, strike: float) -> tuple:
    """Sample mean of the call payoff and its standard error."""
    return _payoff_stats(np.maximum(np.asarray(terminals, dtype=float) - strike, 0.0))


def put_price(terminals: np.ndarray, strike: float) -> tuple:
    """Sample mean of the put payoff and its standard error."""
    return _payoff_stats(np.maximum(strike - np.asarray(terminals, dtype=float), 0.0))


def bs_call(spot: float, strike: float, expiry: float, sigma: float) -> float:
    """Black-Scholes value of a European call at rate 0, the one convention
    of a martingale π: no carry and no discount.

    The zero-volatility (or zero-expiry) limit is the intrinsic value
    max(spot - strike, 0).
    """
    if sigma <= 0.0 or expiry <= 0.0:
        return max(spot - strike, 0.0)
    srt = sigma * math.sqrt(expiry)
    d1 = (math.log(spot / strike) + 0.5 * sigma * sigma * expiry) / srt
    d2 = d1 - srt
    return spot * _norm_cdf(d1) - strike * _norm_cdf(d2)


def _norm_cdf(x: float) -> float:
    """Standard normal CDF; the erfc form keeps its precision in the lower tail."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def implied_vol(price: float, spot: float, strike: float, expiry: float) -> Optional[float]:
    """Annualized volatility whose Black-Scholes call value matches ``price``.

    Bisection over sigma in [1e-6, 5], pinched to 1e-12 in sigma.
    Returns None (undefined, not an exception) when no root exists in the
    bracket: price strictly below the intrinsic value, price at
    or above spot, or price requiring a volatility above 5.  A price that
    equals intrinsic exactly sits on the boundary and maps to 0.
    """
    if not (expiry > 0.0 and spot > 0.0 and strike > 0.0
            and all(map(math.isfinite, (price, spot, strike, expiry)))):
        raise ValueError(f"expiry, spot and strike must be positive and all inputs finite, got "
                         f"price={price} spot={spot} strike={strike} expiry={expiry}")
    intrinsic = max(spot - strike, 0.0)
    if price == intrinsic:
        return 0.0
    if price < intrinsic or price >= spot:
        return None

    lo, hi = VOL_BRACKET
    if bs_call(spot, strike, expiry, lo) >= price:
        # Root sits below the bracket floor; the floor is within tolerance
        # of it for any realistic vega.
        return lo
    if bs_call(spot, strike, expiry, hi) < price:
        return None
    # Pinch the bracket to 1e-12 in sigma rather than stopping on the
    # price gap alone: where vega is tiny (deep in the money, short
    # expiry) a 1e-8 price gap can still hide a 1e-5 error in sigma.
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bs_call(spot, strike, expiry, mid) < price:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def smile(params: ModelParams, req: PricingRequest) -> SmileTable:
    """Option quotes across strikes from one shared terminal sample.

    Common random numbers: every strike is priced on the same terminals,
    so the price curve is non-increasing and convex in strike exactly.
    Implied vols invert Black-Scholes at spot = params.pi0 and rate 0.
    """
    if not req.strikes:
        raise ConfigError("smile needs at least one strike")
    terminals = simulate_terminals(params, req)
    n_aborted = req.n_paths - terminals.size
    quotes = []
    for strike in req.strikes:
        price, se = call_price(terminals, strike)
        iv = implied_vol(price, params.pi0, strike, req.expiry)
        quotes.append(OptionQuote(strike, price, se, iv))
    return SmileTable(tuple(quotes), n_aborted)

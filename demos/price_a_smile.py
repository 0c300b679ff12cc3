"""Monte-Carlo option prices and the implied-volatility curve.

Simulates the book under the risk-adjusted measure (where the clearing price
is driftless), verifies the martingale property on the sample, prices a
ladder of calls off one common set of paths, and prints the smile.  Common
random numbers make the price ladder exactly monotone and convex in strike,
so the shape of the curve is signal, not noise.
"""

import math

from bookvol.demand import init_ensemble
from bookvol.params import demo_params
from bookvol.pricing import TRADING_HOURS_PER_YEAR, PricingRequest, simulate_terminals, smile
from bookvol.riskneutral import sigma_pi_direct


def main() -> None:
    params = demo_params()
    req = PricingRequest(
        strikes=(19.8, 19.9, 20.0, 20.1, 20.2, 20.3, 20.4, 20.5),
        expiry=0.02,                 # trading years; about 33 trading hours
        n_paths=4000,
        seed=7,
    )

    print(f"spot pi(0) = {params.pi0}, expiry = {req.expiry} years, "
          f"{req.n_paths} paths, one-minute steps")

    terminals = simulate_terminals(params, req)
    mean = terminals.mean()
    se = terminals.std(ddof=1) / math.sqrt(terminals.size)
    print(f"terminal mean = {mean:.4f} (se {se:.4f}); "
          f"deviation from spot = {abs(mean - params.pi0) / se:.2f} se")

    table = smile(params, req)
    print(f"\n{table.to_text()}")

    ivs = [q.implied_vol for q in table.quotes if q.implied_vol is not None]
    print(f"implied vols defined at {len(ivs)}/{len(table.quotes)} strikes, "
          f"range {min(ivs):.4f} .. {max(ivs):.4f} (annual)")
    spot_vol = sigma_pi_direct(init_ensemble(params), params)[0]   # per sqrt hour
    print(f"for scale: instantaneous clearing-price vol "
          f"{spot_vol * math.sqrt(TRADING_HOURS_PER_YEAR):.4f} annualized")


if __name__ == "__main__":
    main()

"""How book depth at the clearing price sets the price volatility.

The clearing price diffuses with a volatility that is inversely proportional
to the resting quantity in the bucket being cleared: piling orders onto the
clearing price damps it, thinning them amplifies it.  This script sweeps the
depth of that one bucket and prints the resulting volatility, confirms the
exact factor-of-two law, and shows the diagnostics of the drift-kill solve
that makes the simulated price driftless.
"""

import math

import numpy as np

from bookvol.demand import init_ensemble
from bookvol.params import demo_params
from bookvol.pricing import TRADING_HOURS_PER_YEAR
from bookvol.riskneutral import (
    build_mpr_system,
    price_vol,
    sigma_pi_direct,
    solve_mpr,
    step_risk_neutral,
)
from bookvol.sheet import SheetConfig, increments_block


def main() -> None:
    params = demo_params()

    print("== depth sweep at the clearing bucket ==")
    print(f"{'depth x':>8s} {'sigma_pi /sqrt(h)':>18s} {'annualized':>11s}")
    factors = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    books = init_ensemble(params, len(factors))       # one column per depth
    books.log_q[params.idx(0)] += np.log(factors)     # all else equal
    vols = sigma_pi_direct(books, params)
    for factor, vol in zip(factors, vols):
        print(f"{factor:8.2f} {vol:18.6f} {vol * math.sqrt(TRADING_HOURS_PER_YEAR):10.4f}")

    base, doubled = vols[2], vols[3]
    print(f"\ndoubling check: {doubled:.12f} == {base:.12f}/2 "
          f"(ratio {doubled / base:.15f})")

    book = init_ensemble(params)
    pv = price_vol(book, params)
    print(f"normalization route agrees: {pv.sigma_pi[0]:.15f} "
          f"vs direct {base:.15f}")

    print("\n== drift-kill solve over ten one-minute steps ==")
    cfg = SheetConfig(params.factor_count, params.delta_p, seed=3)
    print(f"{'step':>4s} {'cond':>10s} {'residual/|b|':>13s} {'sigma_pi':>10s}")
    dt = 1.0 / 60.0
    for step in range(10):
        system = solve_mpr(build_mpr_system(book, params))
        rel = system.residual_norm[0] / np.linalg.norm(system.b[0])
        print(f"{step:4d} {system.cond[0]:10.2e} {rel:13.2e} "
              f"{sigma_pi_direct(book, params)[0]:10.6f}")
        step_risk_neutral(book, params, system.lam, increments_block(cfg, dt, step, 1), dt)


if __name__ == "__main__":
    main()

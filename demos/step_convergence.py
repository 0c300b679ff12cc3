"""How the terminal clearing price depends on the simulation step.

Clearing moves the relative demand curve with the price by one rule, so the
scheme converges as the step shrinks: a coarse step gives the same terminal
law as a fine one, up to Monte-Carlo error.  This script simulates the demo
book under the risk-adjusted measure at 4-, 2-, 1- and 1/2-minute steps over
4 and 20 hours, on 2,000 paths, and prints for each run the variance of the
terminal price, its mean offset from spot, the at-the-money call and the
aborted paths, each estimate with its standard error.
"""

import math

import numpy as np

from bookvol import demo_params, simulate_ensemble

N_PATHS, SEED = 2000, 5
STEP_MINUTES = (4.0, 2.0, 1.0, 0.5)


def main() -> None:
    params = demo_params()
    print(f"spot pi(0) = {params.pi0}, {N_PATHS} paths, seed {SEED}, risk-adjusted measure")
    for hours in (4.0, 20.0):
        print(f"\nhorizon {hours:g} hours")
        print(f"{'step (min)':>10}  {'Var pi_T':>17}  {'E pi_T - pi0':>18}  "
              f"{'ATM call':>17}  {'aborted':>7}")
        for minutes in STEP_MINUTES:
            ens, diag, _ = simulate_ensemble(params, N_PATHS, hours, minutes / 60.0, seed=SEED)
            pi, n = ens.pi, ens.pi.size
            var = pi.var(ddof=1)
            call = np.maximum(pi - params.pi0, 0.0)
            print(f"{minutes:>10g}  "
                  f"{var:.5f} ± {var * math.sqrt(2.0 / (n - 1)):.5f}  "
                  f"{pi.mean() - params.pi0:+.5f} ± {math.sqrt(var / n):.5f}  "
                  f"{call.mean():.5f} ± {call.std(ddof=1) / math.sqrt(n):.5f}  "
                  f"{diag.n_aborted:>7}")


if __name__ == "__main__":
    main()

"""Round trip: model -> message log -> fitted model.

Generates a synthetic day of order-book messages from known parameters,
then runs the full calibration pipeline on the raw text — parse, clean,
snapshot into one-minute bars, fit the per-bucket mean-reverting dynamics
and the factor loadings — and compares what comes back with the truth.
Fast mean reversion is used so ten thousand bars actually identify the
parameters; the bundled demo values would need orders of magnitude more
data to pin down.
"""

import math

import numpy as np

from bookvol import calibration as cal
from bookvol.params import ModelParams


def ground_truth() -> ModelParams:
    K, dp = 7, 0.05
    n = 2 * K
    a = np.linspace(10.0, 25.0, n)
    sig = np.where(np.arange(n) < K - 1, 0.005, np.linspace(0.10, 0.30, n))
    mean_logq = np.full(n, math.log(2e9))
    corr = 0.4 ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    vals, vecs = np.linalg.eigh(corr)
    loadings = (vecs @ np.diag(np.sqrt(vals)) @ vecs.T) / math.sqrt(dp)
    q0 = np.exp(mean_logq)
    edge0 = q0[:K - 1].sum() + 0.5 * q0[K - 1]
    return ModelParams.create(
        K=K, delta_p=dp, pi0=20.16, q0=q0, a_q=a, mean_logq=mean_logq,
        sigma_q_rel=sig, loadings=loadings, edge0=edge0, a_edge=5.0,
        mean_log_edge=math.log(edge0), sigma_edge_rel=0.002,
        edge_loadings=np.full(n, 1.0 / math.sqrt(n * dp)))


def main() -> None:
    truth = ground_truth()
    n_bars = 10_000

    print(f"synthesizing {n_bars} one-minute bars of messages ...")
    text = cal.format_log(cal.synthesize_log(truth, n_bars, seed=21))
    lines = text.count("\n")
    print(f"  {lines} lines, {len(text) / 1e6:.1f} MB of text")

    parsed = cal.parse_messages(text, strict=True)
    panel = cal.build_panel(
        parsed.events, pi0=truth.pi0, K=truth.K, delta_p=truth.delta_p,
        session=(cal.SESSION_START_NS, cal.SESSION_START_NS + n_bars * cal.BAR_NS))
    report = cal.fit_report(panel)
    fitted = report.params

    print(f"\nnormality of one-minute log returns: "
          f"JB = {report.jb_stat:.2f}, p = {report.jb_pvalue:.3%}")

    print(f"\n{'bucket':>6s} {'a true':>8s} {'a fit':>8s} "
          f"{'sig true':>9s} {'sig fit':>9s}")
    for j in range(truth.factor_count):
        k = j - truth.K + 1
        print(f"{k:+6d} {truth.a_q[j]:8.2f} {fitted.a_q[j]:8.2f} "
              f"{truth.sigma_q_rel[j]:9.4f} {fitted.sigma_q_rel[j]:9.4f}")

    err_a = np.abs(fitted.a_q / truth.a_q - 1.0).max()
    err_s = np.abs(fitted.sigma_q_rel / truth.sigma_q_rel - 1.0).max()
    corr_true = (truth.loadings @ truth.loadings.T) * truth.delta_p
    corr_fit = (fitted.loadings @ fitted.loadings.T) * truth.delta_p
    err_c = np.abs(corr_fit - corr_true).max()
    print(f"\nworst relative errors: a {err_a:.1%}, sigma {err_s:.1%}; "
          f"worst loading-correlation gap {err_c:.4f}")

    print(f"fitted parameters were validated when built; pi0 = {fitted.pi0:.4f} "
          f"(last clearing price of the synthetic session)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Sweep the rho adaptation gain on the benchmark scenario and tabulate how
the contraction margin trades against tail tracking error.

    python scripts/sweep_gains.py
"""

import numpy as np

from mrac import gamma0_direct, tracking_metrics
from mrac.scenario import benchmark_config, config_from_dict, run_lockstep

GAMMAS = (0.25, 0.5, 1.0, 1.5, 1.9)


def main():
    base = benchmark_config().to_dict()
    base["horizon"] = 3000
    print(f"{'gamma':>6} {'gamma0':>7} {'margin':>7} {'sup|e|':>10} "
          f"{'tail|e|':>10} {'sum eps^2/m^2':>14}")
    # the five members differ only in gamma, so they run as one lockstep
    # group, each byte for byte as it would alone
    runs = run_lockstep([
        config_from_dict(dict(base, gains=dict(base["gains"], gamma=gamma)))
        for gamma in GAMMAS])
    for gamma, run in zip(GAMMAS, runs):
        if isinstance(run, Exception):
            raise run
        g0 = gamma0_direct(0.5 * np.eye(3), gamma, [2.0])
        metrics = tracking_metrics(run.trace)
        print(f"{gamma:>6.2f} {g0:>7.2f} {2.0 - g0:>7.2f} "
              f"{run.trace.summary.sup_e:>10.3g} "
              f"{metrics.last_window_max:>10.3g} "
              f"{run.trace.summary.sum_eps2_over_m2:>14.6g}")


if __name__ == "__main__":
    main()

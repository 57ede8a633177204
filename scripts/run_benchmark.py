#!/usr/bin/env python3
"""Run the bundled second-order benchmark under both reference inputs and
print the convergence story: tracking error windows, the value-function
decrease, and where the adaptation energy went.

    python scripts/run_benchmark.py [--out DIR]
"""

import argparse
import os

from mrac import l2_accumulators, tracking_metrics
from mrac.cli import write_trace_csv
from mrac.scenario import benchmark_config, run_scenario


def describe(run):
    tr = run.trace
    metrics = tracking_metrics(tr, settle_threshold=1e-3)
    acc = l2_accumulators(tr)
    print(f"== {run.config.name}")
    print(f"   steps                 {tr.steps}")
    print(f"   sup |e|               {tr.summary.sup_e:.4g}")
    print(f"   last-window max |e|   {metrics.last_window_max:.4g}")
    print(f"   settled below 1e-3 at {metrics.settling_index}")
    print(f"   V(0) -> V(end)        {tr.V[0]:.4g} -> {tr.V[-1]:.4g}")
    print(f"   sum eps^2/m^2         {acc['sum_eps2_over_m2']:.4g}")
    print(f"   update-energy tail    {acc['tail_frac_dtheta']:.3g}")
    print(f"   invariants            {run.invariants}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=None, help="write trace CSVs here")
    args = parser.parse_args()
    for two_tone in (False, True):
        run = run_scenario(benchmark_config(two_tone=two_tone))
        describe(run)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"{run.config.name}.trace.csv")
            write_trace_csv(run.trace, path)
            print(f"   trace -> {path}")


if __name__ == "__main__":
    main()

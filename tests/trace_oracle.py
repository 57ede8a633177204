"""Oracles for the chunked trace writers of ``mrac.cli``.

The per-value loops below are the writers the chunked row formatter
replaced: one ``repr(float(v))`` per value and one row per write. The
chunked writers must produce the same bytes.
"""

import numpy as np

from mrac.cli import trace_header


def write_trace_csv(trace, path):
    n = trace.x.shape[1]
    M = trace.u.shape[1]
    V = trace.V if trace.V is not None else np.full(trace.steps, np.nan)
    dV = trace.dV if trace.dV is not None else np.full(trace.steps, np.nan)
    fired = (trace.proj_fired if trace.proj_fired is not None
             else np.zeros(trace.steps, dtype=bool))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(trace_header(n, M)) + "\n")
        for k in range(trace.steps):
            vals = [trace.t[k], *trace.x[k], *trace.x_m[k], *trace.e[k],
                    *trace.u[k], *trace.eps[k], trace.m[k], V[k], dV[k]]
            fh.write(",".join(repr(float(v)) for v in vals))
            fh.write("," + ("1" if fired[k] else "0") + "\n")


def write_gnuplot_dat(trace, path):
    n = trace.x.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# t " + " ".join(f"e_{i+1}" for i in range(n)) + "\n")
        for k in range(trace.steps):
            fh.write(" ".join(repr(float(v))
                              for v in (trace.t[k], *trace.e[k])))
            fh.write("\n")

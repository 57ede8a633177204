"""Verification quantities: Lyapunov-function series, L2 accumulators,
tracking metrics, the per-run trace container, and the two sinks a run's
records go to as it proceeds.

Parameter-error Lyapunov values need the true matching gains, so runners
fill the V and dV columns only when the scenario is matchable; otherwise
those columns are NaN and the summary reports None for them.

Every quantity of a trace is computed a block of rows at a time, by one
set of block functions: the trace rows of a block of records
(``trace_rows``), and the consumers of a trace's rows, fed in order
(``add(rows, lo, end)``), such as ``Reduction`` (the summary and the
tracking metrics). ``Collect`` keeps a run's records whole and makes its
trace of them, feeding the trace's blocks to the same consumers;
``Stream`` makes the trace rows of each block as the run proceeds and
keeps only what the summary needs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Optional

import numpy as np

from . import _rows
from ._rows import records, row_blocks


TraceSummary = namedtuple(
    "TraceSummary", "steps sup_e sup_theta sum_eps2_over_m2 sum_dtheta_sq "
    "tail_frac_eps tail_frac_dtheta final_V diverged")

TrackingMetrics = namedtuple("TrackingMetrics",
                             "sup_e last_window_max settling_index")

# V(t), its increments, and the decrement sum eps^2/m^2 per step, one entry
# per trace record; dV is NaN at the final record (no successor step)
LyapunovSeries = namedtuple("LyapunovSeries", "V dV decrement gamma0")


class SimulationTrace(namedtuple(
        "SimulationTrace", "scheme time_domain horizon dt t x x_m e u eps m "
        "theta rho x_hat V dV proj_fired proj_g2 proj_f2 series diverged "
        "diverged_at summary metrics",
        defaults=(None,) * 16 + (False, None, None, None))):
    """Per-step record of one closed-loop run plus its summary and
    tracking metrics.

    Arrays hold one row per recorded step; ``len(t) == horizon + 1`` unless
    the run was truncated by divergence, in which case ``diverged`` is set
    and ``diverged_at`` names the first non-finite step. theta is (steps,
    n_w, M), the stacked parameter estimates; ``series`` is the
    LyapunovSeries of V, when the runner computed V. The trace of a
    streamed run (``Stream``) keeps no rows: its arrays are None.
    """

    __slots__ = ()

    @property
    def steps(self) -> int:
        return self.summary.steps if self.t is None else self.t.shape[0]

    def summarize(self) -> TraceSummary:
        return summarize(self)

    def rows(self, lo: int, hi: int, copy: bool = False) -> "SimulationTrace":
        """Rows lo..hi of the trace, whose V series holds its V and dV, as
        views, or as copies with ``copy``."""

        def cut(value):
            if not isinstance(value, np.ndarray):
                return value
            return value[lo:hi].copy() if copy else value[lo:hi]

        # built from argument lists: _replace builds a tuple of unknown
        # length, whose resizing leaves one small tuple more on Python's
        # free lists per call
        values = list(map(cut, self))
        if self.series is not None:
            at = self._fields.index
            values[at("series")] = LyapunovSeries(
                values[at("V")], values[at("dV")],
                cut(self.series.decrement), self.series.gamma0)
        return SimulationTrace(*values)


def feed(trace: SimulationTrace, *consumers) -> None:
    """Give the rows of ``trace`` to each of ``consumers`` a block of rows
    at a time, in order (``add(rows, lo, end)``, ``end`` the trace's step
    count)."""
    for lo, hi in row_blocks(trace.steps):
        rows = trace.rows(lo, hi)
        for consumer in consumers:
            consumer.add(rows, lo, trace.steps)


# the share of a series that the tail fractions and the tracking window read
TAIL_FRAC = 0.1


def _sup_abs(values: np.ndarray) -> float:
    """max |values| without an |values| copy; 0.0 when empty, NaN when any
    element is NaN."""
    if not values.size:
        return 0.0
    # |values| has no -0.0, which a maximum of zeros may keep
    return float(np.maximum(values.max(), -values.min())) + 0.0


def _tail_fraction(values: np.ndarray) -> Optional[float]:
    total = float(np.sum(values))
    if total <= 0.0:
        return 0.0
    k = max(1, int(math.ceil(TAIL_FRAC * values.shape[0])))
    return float(np.sum(values[-k:])) / total


def decrement_series(eps: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_i eps_i^2 / m^2 at each step, a block of steps at a time."""
    dec = np.empty(eps.shape[0])
    for lo, hi in row_blocks(dec.shape[0]):
        dec[lo:hi] = np.sum(eps[lo:hi]**2, axis=1) / m[lo:hi]**2
    return dec


def _squared_steps(theta: np.ndarray, out: np.ndarray) -> None:
    """|theta(t + 1) - theta(t)|^2 of the consecutive rows of ``theta``
    into ``out``, a block of rows at a time."""
    for lo, hi in row_blocks(out.shape[0]):
        step = theta[lo + 1:hi + 1] - theta[lo:hi]
        step **= 2
        np.sum(step, axis=(1, 2), out=out[lo:hi])


class Reduction:
    """The summary and tracking metrics of a trace of ``steps`` rows, a
    consumer of its rows (see ``feed``): sup norms, the tracking window
    (the last TAIL_FRAC of the steps) and the last step above ``settle``
    as the rows come; the decrement and |theta(t + 1) - theta(t)|^2 of
    every step kept whole (16 B/step), since the summary's sums and tail
    fractions are pairwise sums over the whole run. A trace that ends
    early (divergence) reduces to the rows it has, and reports no
    tracking window. ``dec`` is the decrement series when the trace keeps
    it whole already, in its V series."""

    def __init__(self, steps: int, settle: Optional[float] = None,
                 dec: Optional[np.ndarray] = None):
        self.dec = np.empty(steps) if dec is None else dec
        self.dtheta = np.empty(max(steps - 1, 0))
        self.window = steps - max(1, int(math.ceil(TAIL_FRAC * steps)))
        self.settle, self.unsettled = settle, None
        self.steps = 0
        self.sup_e = self.sup_theta = self.last_window = 0.0
        self.m_finite = True
        self.theta = self.final_V = None

    # a finite record can square to inf: that is its value, not an error
    @np.errstate(over="ignore", invalid="ignore")
    def add(self, rows: SimulationTrace, lo: int, end=None) -> None:
        k = rows.steps
        self.steps = lo + k
        # NaN-propagating maxima, as one maximum over the whole run
        self.sup_e = float(np.maximum(self.sup_e, _sup_abs(rows.e)))
        self.sup_theta = float(np.maximum(self.sup_theta,
                                          _sup_abs(rows.theta)))
        if lo + k > self.window:
            self.last_window = float(np.maximum(
                self.last_window, _sup_abs(rows.e[max(self.window - lo, 0):])))
        if self.settle is not None:
            above = np.flatnonzero(~(np.max(np.abs(rows.e), axis=1)
                                     <= self.settle))
            if above.size:
                self.unsettled = lo + int(above[-1])
        self.m_finite = self.m_finite and bool(np.all(np.isfinite(rows.m)))
        if self.m_finite:
            # the V series holds the same series of the same records
            self.dec[lo:lo + k] = (rows.series.decrement
                                   if rows.series is not None
                                   else decrement_series(rows.eps, rows.m))
        pair = (rows.theta if self.theta is None
                else np.concatenate([self.theta, rows.theta]))
        _squared_steps(pair, self.dtheta[lo + k - pair.shape[0]:lo + k - 1])
        self.theta = rows.theta[-1:].copy()
        if rows.V is not None:
            self.final_V = float(rows.V[-1])

    def summary(self, diverged: bool) -> TraceSummary:
        """The summary of the rows added; the tail fractions are the
        shares of the last TAIL_FRAC of the steps."""
        steps = self.steps
        sum_eps = tail_eps = None
        if steps and self.m_finite:
            dec = self.dec[:steps]
            sum_eps = float(np.sum(dec))
            tail_eps = _tail_fraction(dec)
        dtheta_sq = self.dtheta[:max(steps - 1, 0)]
        final_V = self.final_V
        return TraceSummary(
            steps=steps,
            sup_e=self.sup_e,
            sup_theta=self.sup_theta,
            sum_eps2_over_m2=sum_eps,
            sum_dtheta_sq=float(np.sum(dtheta_sq)),
            tail_frac_eps=tail_eps,
            tail_frac_dtheta=(_tail_fraction(dtheta_sq) if dtheta_sq.size
                              else 0.0),
            final_V=final_V if final_V is not None and math.isfinite(final_V)
            else None,
            diverged=diverged,
        )

    def metrics(self, diverged: bool) -> TrackingMetrics:
        """The tracking metrics of the rows added (see
        ``tracking_metrics``)."""
        if diverged:
            return TrackingMetrics(sup_e=math.inf, last_window_max=math.inf,
                                   settling_index=None)
        settle = None
        if self.settle is not None:
            settle = (0 if self.unsettled is None
                      else self.unsettled + 1
                      if self.unsettled + 1 < self.steps else None)
        return TrackingMetrics(sup_e=self.sup_e,
                               last_window_max=self.last_window,
                               settling_index=settle)


def _reduced(trace: SimulationTrace, settle=None) -> Reduction:
    reduction = Reduction(trace.steps, settle, None if trace.series is None
                          else trace.series.decrement)
    feed(trace, reduction)
    return reduction


def summarize(trace: SimulationTrace) -> TraceSummary:
    """Recompute the summary block from the per-step records (see
    ``Reduction``)."""
    return _reduced(trace).summary(trace.diverged)


def _stack_gains(Gamma, n_w: int, n_blocks: int) -> np.ndarray:
    G = np.asarray(Gamma, dtype=float)
    if G.ndim == 2:
        G = np.broadcast_to(G, (n_blocks, n_w, n_w)).copy()
    if G.shape != (n_blocks, n_w, n_w):
        raise ValueError(f"Gamma must stack to ({n_blocks}, {n_w}, {n_w}), got {G.shape}")
    return G


def gamma0_direct(Gamma, gamma, rho_star) -> float:
    """Contraction margin for the direct scheme: max over blocks of
    lambda_max(|rho*_j| Gamma_j) and gamma_j, computed from actual gains."""
    rho_s = np.atleast_1d(np.asarray(rho_star, dtype=float))
    M = rho_s.shape[0]
    gam = np.broadcast_to(np.atleast_1d(np.asarray(gamma, dtype=float)), (M,))
    G = np.asarray(Gamma, dtype=float)
    if G.ndim == 2:
        G = np.broadcast_to(G, (M,) + G.shape)
    worst = 0.0
    for j in range(M):
        lam = float(np.max(np.linalg.eigvalsh(abs(rho_s[j]) * G[j])))
        worst = max(worst, lam, gam[j])
    return worst


def gamma1_indirect(Gamma) -> float:
    """Largest gain eigenvalue across blocks for the indirect scheme."""
    G = np.asarray(Gamma, dtype=float)
    if G.ndim == 2:
        G = G[None]
    return max(float(np.max(np.linalg.eigvalsh(G[j]))) for j in range(G.shape[0]))


def _theta_error_quad(theta_series, theta_star, Ginv) -> np.ndarray:
    # theta_series (T, n_w, M), Ginv (M, n_w, n_w) -> (T, M) quadratic forms,
    # a block of steps at a time, into the (M, T) layout of a whole-series
    # einsum: the products that read them take their BLAS call from it
    T, _, M = theta_series.shape
    quad = np.empty((M, T))
    for lo, hi in row_blocks(T):
        E = (theta_series[lo:hi] - theta_star[None]).transpose(2, 0, 1)
        quad[:, lo:hi] = np.einsum("mtw,mtw->mt", np.matmul(E, Ginv), E)
    return quad.T


def value_series(V, decrement=None, gamma0: float = math.nan) -> LyapunovSeries:
    """V with its increments; the decrement is NaN where it is not given."""
    dV = np.full(V.shape[0], np.nan)
    np.subtract(V[1:], V[:-1], out=dV[:-1])
    if decrement is None:
        decrement = np.full(V.shape[0], np.nan)
    return LyapunovSeries(V=V, dV=dV, decrement=decrement, gamma0=gamma0)


@np.errstate(over="ignore", invalid="ignore")
def direct_V_series(theta_series, rho_series, theta_star, rho_star,
                    Gamma, gamma, eps_series, m_series) -> LyapunovSeries:
    """Vectorized V(t), dV(t) and decrement series for a direct-scheme run."""
    _, n_w, M = theta_series.shape
    G = _stack_gains(Gamma, n_w, M)
    Ginv = np.linalg.inv(G)
    rho_s = np.atleast_1d(np.asarray(rho_star, dtype=float))
    gam = np.broadcast_to(np.atleast_1d(np.asarray(gamma, dtype=float)), (M,))
    quad = _theta_error_quad(theta_series, np.asarray(theta_star, float).reshape(n_w, M), Ginv)
    # each full-horizon temporary goes before the next is made
    rho_err = rho_series - rho_s[None]
    rho_err **= 2
    rho_err /= gam[None]
    V = quad @ np.abs(rho_s)
    del quad
    V += np.sum(rho_err, axis=1)
    del rho_err
    dec = decrement_series(eps_series, m_series)
    return value_series(V, dec, gamma0_direct(Gamma, gamma, rho_star))


@np.errstate(over="ignore", invalid="ignore")
def indirect_V_series(theta_series, theta_star, Gamma,
                      eps_series, m_series) -> LyapunovSeries:
    """Vectorized V(t), dV(t) and decrement series for an indirect-scheme run."""
    _, n_w, M = theta_series.shape
    G = _stack_gains(Gamma, n_w, M)
    Ginv = np.linalg.inv(G)
    quad = _theta_error_quad(theta_series, np.asarray(theta_star, float).reshape(n_w, M), Ginv)
    V = np.sum(quad, axis=1)
    del quad
    dec = decrement_series(eps_series, m_series)
    return value_series(V, dec, gamma1_indirect(Gamma))


def first_violation(dV, decrement, gamma0: float, tolerance: float):
    """The first row at which dV > -(2 - gamma0) * decrement + tolerance
    (or dV is NaN), or None."""
    bound = -(2.0 - gamma0) * decrement
    bound += tolerance
    bad = ~(dV <= bound)
    return int(np.argmax(bad)) if np.any(bad) else None


def check_delta_V(series: LyapunovSeries, tolerance: float = 1e-10):
    """Verify dV(t) <= -(2 - gamma0) * decrement(t) + tolerance at every step,
    with the series' own gamma0.

    Returns (passed, first_violating_step). Failure is a result, not an
    error; the final record has no increment and is skipped.
    """
    for lo, hi in row_blocks(series.V.shape[0] - 1):
        first = first_violation(series.dV[lo:hi], series.decrement[lo:hi],
                                series.gamma0, tolerance)
        if first is not None:
            return False, lo + first
    return True, None


def tracking_metrics(trace: SimulationTrace,
                     settle_threshold: Optional[float] = None) -> TrackingMetrics:
    """Finite-horizon tracking summary over the trailing window, the last
    TAIL_FRAC of the steps.

    The settling index is the first step from which the max-norm error
    stays at or below the threshold for the rest of the trace (None when it
    never settles or no threshold is given). A diverged trace reports
    infinite sup norms.
    """
    return _reduced(trace, settle_threshold).metrics(trace.diverged)


# what makes a run's trace of its records: the scheme, time domain, horizon
# and step, and ``V_series(rec)``, the LyapunovSeries of the records ``rec``
# (None when V is not defined)
TraceSpec = namedtuple("TraceSpec", "scheme time_domain horizon dt V_series")


def trace_rows(spec: TraceSpec, rec: dict, lo: int) -> SimulationTrace:
    """The trace rows of the records ``rec`` of the steps lo onward, keyed
    by trace field, with proj_fired where proj_f2 is not zero. ``m2`` holds
    m^2, and m takes its place in its record; without it eps and m are NaN.
    The V series' last dV is NaN: it needs the next row's V."""
    steps = rec["x"].shape[0]
    if "m2" in rec:
        m2 = rec.pop("m2")
        rec["m"] = np.sqrt(m2, out=m2)
    else:
        rec["eps"] = np.full(rec["x"].shape, np.nan)
        rec["m"] = np.full(steps, np.nan)
    rec["proj_fired"] = np.any(rec.get("proj_f2", np.zeros((steps, 0))) != 0.0,
                               axis=1)
    # finite records can still square or subtract to inf; that is their
    # value
    with np.errstate(over="ignore", invalid="ignore"):
        series = (spec.V_series(rec) if steps and spec.V_series is not None
                  else None)
        rec["e"] = rec["x"] - rec["x_m"]
    t = np.arange(lo, lo + steps, dtype=float)
    t *= spec.dt
    return SimulationTrace(
        scheme=spec.scheme, time_domain=spec.time_domain,
        horizon=spec.horizon, dt=spec.dt, t=t, series=series,
        V=None if series is None else series.V,
        dV=None if series is None else series.dV, **rec)


class Collect:
    """The collecting sink of a run (a store of ``_rows.RowBuffer``): the
    record arrays of ``shapes`` for every step, and the trace of ``spec``
    made of them, cut at the divergence step, whose summary and tracking
    metrics its rows reduce to (``Reduction``)."""

    def __init__(self, shapes: dict, spec: TraceSpec):
        self.spec, self.rec = spec, records(shapes, spec.horizon + 1)

    def store(self, rows: dict, t0: int, stop: int) -> None:
        for name, block in rows.items():
            self.rec[name][t0:t0 + block.shape[0]] = block

    def finish(self, diverged_at) -> SimulationTrace:
        steps = self.spec.horizon + 1 if diverged_at is None else diverged_at
        # the records belong to this run alone, so the trace keeps views of
        # them rather than a second copy
        trace = trace_rows(self.spec, {name: values[:steps] for name, values
                                       in self.rec.items()}, 0)
        diverged = diverged_at is not None
        reduction = _reduced(trace)
        return trace._replace(diverged=diverged, diverged_at=diverged_at,
                              summary=reduction.summary(diverged),
                              metrics=reduction.metrics(diverged))


class Stream:
    """The streaming sink of a run (a store of ``_rows.RowBuffer``): the
    records of ``shapes`` are made into trace rows of ``spec``
    (``trace_rows``) a block of ``row_blocks`` at a time as the run
    proceeds, and each block's rows go, in order, to ``consumers`` and to
    the run's ``Reduction``. A row's dV needs the next row's V, so each
    block's last row is held back until the next block is made. Since a
    block of BLOCK rows is made only once two more rows are stored (the
    last block takes a lone last row), the blocks are those of
    ``row_blocks`` over the run's steps, ended early or not. ``finish``
    returns a trace of the summary alone: the run holds the decrement and
    |dtheta|^2 series of its summary, 16 B/step, and a fixed number of
    rows."""

    def __init__(self, shapes: dict, spec: TraceSpec, consumers):
        self.spec = spec
        self.reduction = Reduction(spec.horizon + 1)
        self.consumers = [*consumers, self.reduction]
        self.rec = records(shapes, _rows.BLOCK + _rows.CHUNK + 1)
        self.stored = self.lo = 0  # rows stored, and the step of the first
        self.held = None

    def store(self, rows: dict, t0: int, stop: int) -> None:
        for name, block in rows.items():
            self.rec[name][self.stored:self.stored + stop] = block[:stop]
        self.stored += stop
        while self.stored >= _rows.BLOCK + 2:
            self._block(_rows.BLOCK)

    def _give(self, rows: SimulationTrace, lo: int, end=None) -> None:
        for consumer in self.consumers:
            consumer.add(rows, lo, end)

    @np.errstate(over="ignore", invalid="ignore")
    def _block(self, k: int) -> None:
        """Make the trace rows of the first ``k`` rows stored and give them
        on, but for the last, which is held back; the rows stored after
        them then move to the front."""
        lo = self.lo
        block = trace_rows(self.spec, {name: values[:k] for name, values
                                       in self.rec.items()}, lo)
        if self.held is not None:
            if block.V is not None:
                self.held.dV[0] = block.V[0] - self.held.V[0]
            self._give(self.held, lo - 1)
        if k > 1:
            self._give(block.rows(0, k - 1), lo)
        # a copy: the block's rows of the records are overwritten next
        self.held = block.rows(k - 1, k, copy=True)
        self.stored -= k
        self.lo += k
        for values in self.rec.values():
            values[:self.stored] = values[k:k + self.stored]

    def finish(self, diverged_at) -> SimulationTrace:
        steps = self.spec.horizon + 1 if diverged_at is None else diverged_at
        if steps > self.lo:
            self._block(steps - self.lo)
        if self.held is not None:
            self._give(self.held, steps - 1, steps)
        diverged = diverged_at is not None
        spec = self.spec
        return SimulationTrace(
            scheme=spec.scheme, time_domain=spec.time_domain,
            horizon=spec.horizon, dt=spec.dt, diverged=diverged,
            diverged_at=diverged_at,
            summary=self.reduction.summary(diverged),
            metrics=self.reduction.metrics(diverged))


"""Verification quantities: Lyapunov-function series, L2 accumulators,
tracking metrics, the per-run trace container, and the sink a run's
records go to as it proceeds.

Parameter-error Lyapunov values need the true matching gains, so a run's
law carries V (``_rows.Layout``) only when the scenario is matchable;
otherwise the trace has no V series and the summary reports None for V.

Every quantity of a trace is computed a block of rows at a time, by one
set of block functions: the trace rows of a block of records
(``trace_rows``), and the consumers of a trace's rows, fed in order
(``add(rows, lo, end)``), such as ``Reduction`` (the summary and the
tracking metrics). ``Stream`` makes the trace rows of each block of a run
as it proceeds and gives them to the run's consumers; the last of them
reduces the rows, and ``Keep``, the reduction of a run that keeps its
rows, holds them too.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Optional

import numpy as np

from . import _rows
from ._rows import row_blocks
from .errors import GainError
from .gains import _entries, _stack_gains


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
    LyapunovSeries of V, when the runner computed V. The trace of a run
    that does not keep its rows (``Keep``) holds none: its arrays are None.
    """

    __slots__ = ()

    @property
    def steps(self) -> int:
        return self.summary.steps if self.t is None else self.t.shape[0]

    def summarize(self) -> TraceSummary:
        return summarize(self)

    def rows(self, lo: int, hi: int) -> "SimulationTrace":
        """Views of rows lo..hi of the trace, whose V series holds its V and
        dV."""

        def cut(value):
            return value[lo:hi] if isinstance(value, np.ndarray) else value

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


class Reduction:
    """The summary and tracking metrics of a trace of ``steps`` rows, a
    consumer of its rows (see ``feed``): sup norms, the tracking window
    (the last TAIL_FRAC of the steps) and the last step above ``settle``
    as the rows come; the decrement and |theta(t + 1) - theta(t)|^2 of
    every step kept whole (16 B/step), since the summary's sums and tail
    fractions are pairwise sums over the whole run. A trace that ends
    early (divergence) reduces to the rows it has, and reports no
    tracking window."""

    def __init__(self, steps: int, settle: Optional[float] = None):
        self.dec = np.empty(steps)
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
        if rows.series is not None:
            # the V series holds the same series of the same records
            self.dec[lo:lo + k] = rows.series.decrement
        elif self.m_finite:
            self.dec[lo:lo + k] = decrement_series(rows.eps, rows.m)
        if k:
            # |theta(t + 1) - theta(t)|^2 of the block's steps and of the
            # step into it from the last row before it
            pair = (rows.theta if self.theta is None
                    else np.concatenate([self.theta, rows.theta]))
            step = pair[1:] - pair[:-1]
            step **= 2
            np.sum(step, axis=(1, 2),
                   out=self.dtheta[lo + k - pair.shape[0]:lo + k - 1])
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

    def kept(self, gamma0) -> dict:
        """The trace fields the reduction keeps of the rows added: none."""
        return {}


class Keep(Reduction):
    """The reduction of a run that keeps the rows it is given: each array
    field of their trace in one array of ``steps`` rows, made when the
    first block comes, and their V series, whose decrement is the
    reduction's own (``dec``) and whose gamma0 ``kept`` is given."""

    def __init__(self, steps: int):
        super().__init__(steps)
        self.arrays = {}

    def add(self, rows: SimulationTrace, lo: int, end=None) -> None:
        super().add(rows, lo, end)
        for name, values in zip(rows._fields, rows):
            if isinstance(values, np.ndarray):
                if name not in self.arrays:
                    self.arrays[name] = np.empty(
                        self.dec.shape + values.shape[1:], values.dtype)
                self.arrays[name][lo:lo + values.shape[0]] = values

    def kept(self, gamma0) -> dict:
        rows = {name: values[:self.steps]
                for name, values in self.arrays.items()}
        if "V" in rows:
            rows["series"] = LyapunovSeries(rows["V"], rows["dV"],
                                            self.dec[:self.steps], gamma0)
        return rows


def _reduced(trace: SimulationTrace, settle=None) -> Reduction:
    reduction = Reduction(trace.steps, settle)
    feed(trace, reduction)
    return reduction


def summarize(trace: SimulationTrace) -> TraceSummary:
    """Recompute the summary block from the per-step records (see
    ``Reduction``)."""
    return _reduced(trace).summary(trace.diverged)


def gamma0_direct(Gamma, gamma, rho_star) -> float:
    """Contraction margin for the direct scheme: max over blocks of
    lambda_max(|rho*_j| Gamma_j) and gamma_j, computed from actual gains."""
    rho_s = np.atleast_1d(np.asarray(rho_star, dtype=float))
    M = rho_s.shape[0]
    gam = _entries(gamma, "gamma", M, True, GainError)
    G = _stack_gains(Gamma, M)
    worst = 0.0
    for j in range(M):
        lam = float(np.max(np.linalg.eigvalsh(abs(rho_s[j]) * G[j])))
        worst = max(worst, lam, float(gam[j]))
    return worst


def gamma1_indirect(Gamma) -> float:
    """Largest gain eigenvalue across blocks for the indirect scheme."""
    return max(float(np.max(np.linalg.eigvalsh(Gj)))
               for Gj in _stack_gains(Gamma))


def _theta_error_quad(theta_series, theta_star, Gamma) -> np.ndarray:
    # theta_series (T, n_w, M), Gamma's blocks (M, n_w, n_w) -> (T, M)
    # quadratic forms in their inverses, a block of steps at a time, into
    # the (M, T) layout of a whole-series einsum: the products that read
    # them take their BLAS call from it
    T, n_w, M = theta_series.shape
    Ginv = np.linalg.inv(_stack_gains(Gamma, M))
    theta_star = np.asarray(theta_star, float).reshape(n_w, M)
    quad = np.empty((M, T))
    for lo, hi in row_blocks(T):
        E = (theta_series[lo:hi] - theta_star[None]).transpose(2, 0, 1)
        quad[:, lo:hi] = np.einsum("mtw,mtw->mt", np.matmul(E, Ginv), E)
    return quad.T


def value_series(V, decrement, gamma0: float) -> LyapunovSeries:
    """V with its increments, the decrement and the constant gamma0."""
    dV = np.full(V.shape[0], np.nan)
    np.subtract(V[1:], V[:-1], out=dV[:-1])
    return LyapunovSeries(V=V, dV=dV, decrement=decrement, gamma0=gamma0)


def _gradient_V(rec, theta_star, Gamma, rho_star=None, gamma=None):
    """V of each of the records ``rec`` of a gradient run, by their theta,
    and with ``rho_star`` (the direct scheme) by their rho too."""
    quad = _theta_error_quad(rec["theta"], theta_star, Gamma)
    if rho_star is None:
        return np.sum(quad, axis=1)
    rho_s = np.atleast_1d(np.asarray(rho_star, dtype=float))
    gam = _entries(gamma, "gamma", rho_s.shape[0], True, GainError)
    # each full-horizon temporary goes before the next is made
    rho_err = rec["rho"] - rho_s[None]
    rho_err **= 2
    rho_err /= gam[None]
    # a sum of scaled columns: a BLAS product gives the rows at its tail
    # other last bits, so that a row's V would depend on its block
    quad *= np.abs(rho_s)
    V = np.sum(quad, axis=1)
    del quad
    V += np.sum(rho_err, axis=1)
    return V


@np.errstate(over="ignore", invalid="ignore")
def direct_V_series(theta_series, rho_series, theta_star, rho_star,
                    Gamma, gamma, eps_series, m_series) -> LyapunovSeries:
    """Vectorized V(t), dV(t) and decrement series for a direct-scheme run."""
    V = _gradient_V({"theta": theta_series, "rho": rho_series}, theta_star,
                    Gamma, rho_star, gamma)
    return value_series(V, decrement_series(eps_series, m_series),
                        gamma0_direct(Gamma, gamma, rho_star))


@np.errstate(over="ignore", invalid="ignore")
def indirect_V_series(theta_series, theta_star, Gamma,
                      eps_series, m_series) -> LyapunovSeries:
    """Vectorized V(t), dV(t) and decrement series for an indirect-scheme run."""
    V = _gradient_V({"theta": theta_series}, theta_star, Gamma)
    return value_series(V, decrement_series(eps_series, m_series),
                        gamma1_indirect(Gamma))


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


# the scheme, time domain, horizon and step of a run's trace
TraceSpec = namedtuple("TraceSpec", "scheme time_domain horizon dt")


def trace_rows(spec: TraceSpec, law, rec: dict, lo: int) -> SimulationTrace:
    """The trace rows of the records ``rec`` of the steps lo onward, keyed
    by trace field, with proj_fired where proj_f2 is not zero. ``m2`` holds
    m^2, and m takes its place in ``rec``, its record left as it is (a
    row may be made into trace rows twice); without it eps and m are NaN.
    The V series is ``law``'s (``_rows.Layout``); its last dV, which needs
    the next row's V, is NaN."""
    steps = rec["x"].shape[0]
    if "m2" in rec:
        rec["m"] = np.sqrt(rec.pop("m2"))
    else:
        rec["eps"] = np.full(rec["x"].shape, np.nan)
        rec["m"] = np.full(steps, np.nan)
    rec["proj_fired"] = np.any(rec.get("proj_f2", np.zeros((steps, 0))) != 0.0,
                               axis=1)
    # finite records can still square or subtract to inf; that is their
    # value
    with np.errstate(over="ignore", invalid="ignore"):
        series = (value_series(law.value(rec),
                               decrement_series(rec["eps"], rec["m"]),
                               law.gamma0)
                  if steps and law.value is not None else None)
        rec["e"] = rec["x"] - rec["x_m"]
    t = np.arange(lo, lo + steps, dtype=float)
    t *= spec.dt
    return SimulationTrace(
        scheme=spec.scheme, time_domain=spec.time_domain,
        horizon=spec.horizon, dt=spec.dt, t=t, series=series,
        V=None if series is None else series.V,
        dV=None if series is None else series.dV, **rec)


class Stream:
    """A run of ``law`` on ``signal`` set up, whose trace ``spec``
    describes: its runner (``_rows.run``, ``_rows.run_ct``) steps ``law``
    over the horizon and step of ``spec``, samples ``signal`` and gives the
    run's finished rows, in order, to ``store``; ``finish`` makes its trace.
    The records of the law's columns are made into trace rows of ``spec``
    and ``law`` (``trace_rows``) a block of ``row_blocks`` at a time as the
    run proceeds, and each block goes, in one call each, to ``consumers``,
    the last of which reduces the rows (a ``Reduction``, or a ``Keep``,
    whose rows the run's trace then holds; without consumers, a ``Keep``
    alone). A block's trace rows are made with the next stored row, whose
    V completes the block's last dV; since a block of BLOCK rows is made
    only once two more rows are stored (the last block takes a lone last
    row), the blocks are those of ``row_blocks`` over the run's steps,
    ended early or not. The run holds a fixed number of rows beside
    what its reduction keeps."""

    def __init__(self, law, signal, spec: TraceSpec, consumers=None):
        self.law, self.signal, self.spec = law, signal, spec
        self.consumers = ([Keep(spec.horizon + 1)] if consumers is None
                          else consumers)
        steps = min(_rows.BLOCK + _rows.CHUNK + 1, spec.horizon + 1)
        self.rec = {name: np.zeros((steps,) + np.shape(at))
                    for name, at in law.cols.items()}
        self.stored = self.lo = 0  # rows stored, and the step of the first

    def store(self, rows: dict) -> None:
        stop = self.stored + rows["x"].shape[0]
        for name, block in rows.items():
            self.rec[name][self.stored:stop] = block
        self.stored = stop
        while self.stored >= _rows.BLOCK + 2:
            self._block(_rows.BLOCK)

    @np.errstate(over="ignore", invalid="ignore")
    def _block(self, k: int, end=None) -> None:
        """Give the first ``k`` rows stored on, their trace rows made with
        the next stored row unless they end the run's ``end`` steps; the
        rows stored after them then move to the front."""
        lo, made = self.lo, k + (end is None)
        rows = trace_rows(self.spec, self.law, {
            name: values[:made] for name, values in self.rec.items()},
            lo).rows(0, k)
        for consumer in self.consumers:
            consumer.add(rows, lo, end)
        self.stored -= k
        self.lo += k
        for values in self.rec.values():
            values[:self.stored] = values[k:k + self.stored]

    def finish(self, diverged_at) -> SimulationTrace:
        """Give the last block on (a run of no rows has one, empty) and
        return the run's trace."""
        steps = self.spec.horizon + 1 if diverged_at is None else diverged_at
        self._block(steps - self.lo, steps)
        spec, reduction = self.spec, self.consumers[-1]
        diverged = diverged_at is not None
        return SimulationTrace(
            scheme=spec.scheme, time_domain=spec.time_domain,
            horizon=spec.horizon, dt=spec.dt, diverged=diverged,
            diverged_at=diverged_at, summary=reduction.summary(diverged),
            metrics=reduction.metrics(diverged),
            **reduction.kept(self.law.gamma0))

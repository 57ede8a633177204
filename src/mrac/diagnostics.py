"""Verification quantities: Lyapunov-function series, L2 accumulators,
tracking metrics, and the per-run trace container.

Parameter-error Lyapunov values need the true matching gains, so runners
fill the V and dV columns only when the scenario is matchable; otherwise
those columns are NaN and the summary reports None for them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Optional

import numpy as np

from ._rows import row_blocks


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
        "diverged_at summary", defaults=(None,) * 8 + (False, None, None))):
    """Per-step record of one closed-loop run plus a recomputable summary.

    Arrays hold one row per recorded step; ``len(t) == horizon + 1`` unless
    the run was truncated by divergence, in which case ``diverged`` is set
    and ``diverged_at`` names the first non-finite step. theta is (steps,
    n_w, M), the stacked parameter estimates; ``series`` is the
    LyapunovSeries of V, when the runner computed V.
    """

    __slots__ = ()

    @property
    def steps(self) -> int:
        return self.t.shape[0]

    def summarize(self) -> TraceSummary:
        return summarize(self)


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


def _squared_steps(theta: np.ndarray) -> np.ndarray:
    """|theta(t + 1) - theta(t)|^2 at each step but the last, a block of
    rows at a time."""
    out = np.zeros(max(theta.shape[0] - 1, 0))
    for lo, hi in row_blocks(out.shape[0]):
        step = theta[lo + 1:hi + 1] - theta[lo:hi]
        step **= 2
        np.sum(step, axis=(1, 2), out=out[lo:hi])
    return out


# a finite record can square to inf: that is its value, not an error
@np.errstate(over="ignore", invalid="ignore")
def summarize(trace: SimulationTrace) -> TraceSummary:
    """Recompute the summary block from the per-step records; the tail
    fractions are the shares of the last TAIL_FRAC of the steps."""
    sum_eps = tail_eps = None
    if trace.eps.size > 0 and bool(np.all(np.isfinite(trace.m))):
        # the V series holds the same series of the same records
        dec = (trace.series.decrement if trace.series is not None
               else decrement_series(trace.eps, trace.m))
        sum_eps = float(np.sum(dec))
        tail_eps = _tail_fraction(dec)

    dtheta_sq = _squared_steps(trace.theta)
    sum_dtheta = float(np.sum(dtheta_sq))
    tail_dtheta = _tail_fraction(dtheta_sq) if dtheta_sq.size else 0.0

    if trace.V is not None and trace.V.size and math.isfinite(trace.V[-1]):
        final_V = float(trace.V[-1])
    else:
        final_V = None

    return TraceSummary(
        steps=trace.steps,
        sup_e=_sup_abs(trace.e),
        sup_theta=_sup_abs(trace.theta),
        sum_eps2_over_m2=sum_eps,
        sum_dtheta_sq=sum_dtheta,
        tail_frac_eps=tail_eps,
        tail_frac_dtheta=tail_dtheta,
        final_V=final_V,
        diverged=trace.diverged,
    )


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


def check_delta_V(series: LyapunovSeries, tolerance: float = 1e-10):
    """Verify dV(t) <= -(2 - gamma0) * decrement(t) + tolerance at every step,
    with the series' own gamma0.

    Returns (passed, first_violating_step). Failure is a result, not an
    error; the final record has no increment and is skipped.
    """
    scale = -(2.0 - series.gamma0)
    for lo, hi in row_blocks(series.V.shape[0] - 1):
        bound = scale * series.decrement[lo:hi]
        bound += tolerance
        bad = ~(series.dV[lo:hi] <= bound)
        if np.any(bad):
            return False, lo + int(np.argmax(bad))
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
    if trace.diverged:
        return TrackingMetrics(sup_e=math.inf, last_window_max=math.inf,
                               settling_index=None)
    e = trace.e
    k = max(1, int(math.ceil(TAIL_FRAC * e.shape[0])))
    settle = None
    if settle_threshold is not None:
        e_norm = np.max(np.abs(e), axis=1)
        ok = e_norm <= settle_threshold
        # first index from which everything stays below threshold
        idx = np.where(~ok)[0]
        settle = 0 if idx.size == 0 else (int(idx[-1]) + 1 if idx[-1] + 1 < e_norm.shape[0] else None)
    return TrackingMetrics(sup_e=_sup_abs(e), last_window_max=_sup_abs(e[-k:]),
                           settling_index=settle)

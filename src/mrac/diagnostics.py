"""Verification quantities: Lyapunov-function series, L2 accumulators,
tracking metrics, and the per-run trace container.

Parameter-error Lyapunov values need the true matching gains, so runners
fill the V and dV columns only when the scenario is matchable; otherwise
those columns are NaN and the summary reports None for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class TraceSummary:
    steps: int
    sup_e: float
    sup_theta: float
    sum_eps2_over_m2: Optional[float]
    sum_dtheta_sq: float
    sum_drho_sq: Optional[float]
    tail_frac_eps: Optional[float]
    tail_frac_dtheta: Optional[float]
    final_V: Optional[float]
    diverged: bool


@dataclass(frozen=True)
class TrackingMetrics:
    sup_e: float
    last_window_max: float
    settling_index: Optional[int]


@dataclass
class LyapunovSeries:
    """V(t), its increments, and the decrement sum eps^2/m^2 per step.

    All arrays have one entry per trace record; dV is NaN at the final
    record (no successor step).
    """

    V: np.ndarray
    dV: np.ndarray
    decrement: np.ndarray
    gamma0: float


@dataclass(eq=False)
class SimulationTrace:
    """Per-step record of one closed-loop run plus a recomputable summary.

    Arrays hold one row per recorded step; ``len(t) == horizon + 1`` unless
    the run was truncated by divergence, in which case ``diverged`` is set
    and ``diverged_at`` names the first non-finite step.
    """

    scheme: str
    time_domain: str
    horizon: int
    dt: float
    t: np.ndarray
    x: np.ndarray
    x_m: np.ndarray
    e: np.ndarray
    u: np.ndarray
    eps: np.ndarray
    m: np.ndarray
    theta: np.ndarray  # (steps, n_w, M) stacked parameter estimates
    rho: Optional[np.ndarray] = None
    x_hat: Optional[np.ndarray] = None
    V: Optional[np.ndarray] = None
    dV: Optional[np.ndarray] = None
    proj_fired: Optional[np.ndarray] = None
    proj_g2: Optional[np.ndarray] = None
    proj_f2: Optional[np.ndarray] = None
    # V with its increments and decrements, when the runner computed V
    series: Optional[LyapunovSeries] = field(default=None, repr=False)
    diverged: bool = False
    diverged_at: Optional[int] = None
    summary: Optional[TraceSummary] = field(default=None, repr=False)

    @property
    def steps(self) -> int:
        return self.t.shape[0]

    def summarize(self, tail_frac: float = 0.1) -> TraceSummary:
        return summarize(self, tail_frac)


def _tail_fraction(values: np.ndarray, tail_frac: float) -> Optional[float]:
    total = float(np.sum(values))
    if total <= 0.0:
        return 0.0
    k = max(1, int(math.ceil(tail_frac * values.shape[0])))
    return float(np.sum(values[-k:])) / total


# a finite record can square to inf: that is its value, not an error
@np.errstate(over="ignore", invalid="ignore")
def summarize(trace: SimulationTrace, tail_frac: float = 0.1) -> TraceSummary:
    """Recompute the summary block from the per-step records."""
    e_norm = np.max(np.abs(trace.e), axis=1) if trace.e.size else np.zeros(0)
    sup_e = float(np.max(e_norm)) if e_norm.size else 0.0
    sup_theta = float(np.max(np.abs(trace.theta))) if trace.theta.size else 0.0

    has_eps = trace.eps.size > 0 and bool(np.all(np.isfinite(trace.m)))
    if has_eps:
        dec = np.sum(trace.eps**2, axis=1) / trace.m**2
        sum_eps = float(np.sum(dec))
        tail_eps = _tail_fraction(dec, tail_frac)
    else:
        sum_eps = None
        tail_eps = None

    dtheta = np.diff(trace.theta, axis=0)
    dtheta_sq = np.sum(dtheta**2, axis=(1, 2)) if dtheta.size else np.zeros(0)
    sum_dtheta = float(np.sum(dtheta_sq))
    tail_dtheta = _tail_fraction(dtheta_sq, tail_frac) if dtheta_sq.size else 0.0

    if trace.rho is not None:
        drho = np.diff(trace.rho, axis=0)
        sum_drho = float(np.sum(drho**2))
    else:
        sum_drho = None

    if trace.V is not None and trace.V.size and math.isfinite(trace.V[-1]):
        final_V = float(trace.V[-1])
    else:
        final_V = None

    return TraceSummary(
        steps=trace.steps,
        sup_e=sup_e,
        sup_theta=sup_theta,
        sum_eps2_over_m2=sum_eps,
        sum_dtheta_sq=sum_dtheta,
        sum_drho_sq=sum_drho,
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
    # theta_series (T, n_w, M), Ginv (M, n_w, n_w) -> (T, M) quadratic forms
    err = theta_series - theta_star[None]
    E = err.transpose(2, 0, 1)  # (M, T, n_w)
    tmp = np.matmul(E, Ginv)  # (M, T, n_w)
    return np.einsum("mtw,mtw->mt", tmp, E).T


def value_series(V, decrement=None, gamma0: float = math.nan) -> LyapunovSeries:
    """V with its increments; the decrement is NaN where it is not given."""
    dV = np.full(V.shape[0], np.nan)
    dV[:-1] = np.diff(V)
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
    V = quad @ np.abs(rho_s) + np.sum((rho_series - rho_s[None]) ** 2 / gam[None], axis=1)
    dec = np.sum(eps_series**2, axis=1) / m_series**2
    return value_series(V, dec, gamma0_direct(Gamma, gamma, rho_star))


@np.errstate(over="ignore", invalid="ignore")
def indirect_V_series(theta_series, theta_star, Gamma,
                      eps_series, m_series) -> LyapunovSeries:
    """Vectorized V(t), dV(t) and decrement series for an indirect-scheme run."""
    _, n_w, M = theta_series.shape
    G = _stack_gains(Gamma, n_w, M)
    Ginv = np.linalg.inv(G)
    quad = _theta_error_quad(theta_series, np.asarray(theta_star, float).reshape(n_w, M), Ginv)
    dec = np.sum(eps_series**2, axis=1) / m_series**2
    return value_series(np.sum(quad, axis=1), dec, gamma1_indirect(Gamma))


def check_delta_V(series: LyapunovSeries, gamma0: Optional[float] = None,
                  tolerance: float = 1e-10):
    """Verify dV(t) <= -(2 - gamma0) * decrement(t) + tolerance at every step.

    Returns (passed, first_violating_step). Failure is a result, not an
    error; the final record has no increment and is skipped.
    """
    g0 = series.gamma0 if gamma0 is None else gamma0
    bound = -(2.0 - g0) * series.decrement
    T = series.V.shape[0]
    if T < 2:
        return True, None
    bad = ~(series.dV[:T - 1] <= bound[:T - 1] + tolerance)
    if np.any(bad):
        return False, int(np.argmax(bad))
    return True, None


def tracking_metrics(trace: SimulationTrace, window_frac: float = 0.1,
                     settle_threshold: Optional[float] = None) -> TrackingMetrics:
    """Finite-horizon tracking summary over the trailing window.

    The settling index is the first step from which the max-norm error
    stays at or below the threshold for the rest of the trace (None when it
    never settles or no threshold is given). A diverged trace reports
    infinite sup norms.
    """
    if trace.diverged:
        return TrackingMetrics(sup_e=math.inf, last_window_max=math.inf,
                               settling_index=None)
    e_norm = np.max(np.abs(trace.e), axis=1)
    k = max(1, int(math.ceil(window_frac * e_norm.shape[0])))
    sup_e = float(np.max(e_norm))
    last_window = float(np.max(e_norm[-k:]))
    settle = None
    if settle_threshold is not None:
        ok = e_norm <= settle_threshold
        # first index from which everything stays below threshold
        idx = np.where(~ok)[0]
        settle = 0 if idx.size == 0 else (int(idx[-1]) + 1 if idx[-1] + 1 < e_norm.shape[0] else None)
    return TrackingMetrics(sup_e=sup_e, last_window_max=last_window,
                           settling_index=settle)

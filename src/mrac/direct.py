"""Direct gradient adaptive state tracking.

The controller parameters are stacked per input column: column j of theta is
[K1 column j; row j of K2], so with omega = [x; r] the control is simply
u_j = theta_j^T omega. Estimates are driven by the normalized gradient of
sum_i eps_i^2 / m^2 where eps = e + Xi rho composes the tracking error with
the swapping signals; rho_j estimates 1/k2*_j. Updates:

    theta_j <- theta_j - sign(k2*_j) Gamma_j (sum_i eps_i zeta_ij) / m^2
    rho_j   <- rho_j   - gamma_j (sum_i eps_i xi_ij) / m^2

applied as differences in discrete time and as derivatives in continuous
time (where the whole closed loop, filters and parameters included, is
integrated jointly to avoid order-of-integration artifacts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _rows
from ._rows import Law, block
from .diagnostics import SimulationTrace, direct_V_series
from .errors import GainError, ModelError
from .systems import (DISCRETE, PlantModel, ReferenceModel, ReferenceSignal,
                      integrate_ct, solve_matching)


def stack_controller_gains(K1, K2) -> np.ndarray:
    """Stack (K1, K2) into the (n+M, M) parameter layout used throughout."""
    K1 = np.asarray(K1, dtype=float)
    K2 = np.atleast_2d(np.asarray(K2, dtype=float))
    if K1.ndim == 1:
        K1 = K1.reshape(-1, 1)
    return np.vstack([K1, K2.T])


def _sym_check(G, label, atol=1e-10):
    if not np.allclose(G, G.T, atol=atol, rtol=0.0):
        raise GainError(f"{label} must be symmetric")


@dataclass(frozen=True)
class DirectGainConfig:
    """Adaptation gains plus the sign/bound priors they are validated against.

    Discrete single-input: 0 < Gamma = Gamma^T < 2 k2_lower I and
    0 < gamma < 2. Discrete multi-input: each block satisfies the
    conservative 0 < Gamma_j < k2_lower_j I (with the factor-of-two slack
    left on the table) and 0 < gamma_j < 2; with diagonal enforcement on,
    Gamma_j must additionally be block diagonal with a diagonal lower
    block. Continuous time only needs positive definiteness.
    """

    Gamma: np.ndarray  # (M, n_w, n_w) after normalization
    gamma: np.ndarray  # (M,)
    sign_k2: np.ndarray  # (M,) entries +-1
    k2_lower: np.ndarray  # (M,) positive
    time_domain: str = DISCRETE
    enforce_diagonal_k2: bool = True

    def __post_init__(self):
        signs = np.atleast_1d(np.asarray(self.sign_k2, dtype=float))
        M = signs.shape[0]
        if not np.all(np.abs(signs) == 1.0):
            raise GainError("sign_k2 entries must be +1 or -1")
        lower = np.broadcast_to(
            np.atleast_1d(np.asarray(self.k2_lower, dtype=float)), (M,)).copy()
        if np.any(lower <= 0.0):
            raise GainError("k2 lower bounds must be positive")
        gam = np.broadcast_to(
            np.atleast_1d(np.asarray(self.gamma, dtype=float)), (M,)).copy()
        G = np.asarray(self.Gamma, dtype=float)
        if G.ndim == 2:
            G = np.broadcast_to(G, (M,) + G.shape).copy()
        if G.ndim != 3 or G.shape[0] != M or G.shape[1] != G.shape[2]:
            raise GainError(f"Gamma must stack to (M, n_w, n_w), got {G.shape}")
        n_w = G.shape[1]
        n = n_w - M
        if n < 1:
            raise GainError(f"Gamma block size {n_w} too small for M={M}")
        for j in range(M):
            _sym_check(G[j], f"Gamma[{j}]")
            eig = np.linalg.eigvalsh(G[j])
            if eig[0] <= 0.0:
                raise GainError(f"Gamma[{j}] must be positive definite")
            if self.time_domain == DISCRETE:
                if M == 1:
                    if eig[-1] >= 2.0 * lower[j]:
                        raise GainError(
                            f"Gamma violates the 2*k2_lower bound: largest eigenvalue "
                            f"{eig[-1]:.6g} >= {2.0 * lower[j]:.6g}"
                        )
                else:
                    if eig[-1] >= lower[j]:
                        raise GainError(
                            f"Gamma[{j}] violates the k2_lower bound: largest eigenvalue "
                            f"{eig[-1]:.6g} >= {lower[j]:.6g}"
                        )
                if not (0.0 < gam[j] < 2.0):
                    raise GainError(f"gamma[{j}]={gam[j]:.6g} outside (0, 2)")
            else:
                if gam[j] <= 0.0:
                    raise GainError(f"gamma[{j}] must be positive")
            if M > 1 and self.enforce_diagonal_k2:
                off = G[j][:n, n:]
                tail = G[j][n:, n:]
                if np.any(off != 0.0) or np.any(tail * (1.0 - np.eye(M)) != 0.0):
                    raise GainError(
                        f"Gamma[{j}] must be block diagonal with a diagonal "
                        "K2 block when diagonal enforcement is on"
                    )
        object.__setattr__(self, "Gamma", G)
        object.__setattr__(self, "gamma", gam)
        object.__setattr__(self, "sign_k2", signs)
        object.__setattr__(self, "k2_lower", lower)

    @property
    def n_inputs(self) -> int:
        return self.sign_k2.shape[0]


def _shape_theta(theta, n_w, M):
    th = np.asarray(theta, dtype=float)
    if th.ndim == 1:
        th = th.reshape(-1, 1)
    if th.shape != (n_w, M):
        raise ModelError(f"theta must have shape ({n_w}, {M}), got {th.shape}")
    return th.copy()


@dataclass
class InitialConditions:
    """Initial states for a scenario run; unset entries default to zero
    (and the estimator state defaults to the plant state)."""

    x0: Optional[np.ndarray] = None
    xm0: Optional[np.ndarray] = None
    theta0: Optional[np.ndarray] = None
    rho0: Optional[np.ndarray] = None
    xhat0: Optional[np.ndarray] = None

    def resolved(self, n: int, n_w: int, M: int):
        x0 = np.zeros(n) if self.x0 is None else np.asarray(self.x0, float).reshape(n)
        xm0 = np.zeros(n) if self.xm0 is None else np.asarray(self.xm0, float).reshape(n)
        theta0 = (np.zeros((n_w, M)) if self.theta0 is None
                  else _shape_theta(self.theta0, n_w, M))
        rho0 = (np.zeros(M) if self.rho0 is None else np.broadcast_to(
            np.atleast_1d(np.asarray(self.rho0, dtype=float)), (M,)).copy())
        xhat0 = x0.copy() if self.xhat0 is None else np.asarray(self.xhat0, float).reshape(n)
        return x0, xm0, theta0, rho0, xhat0


def _check_run_args(plant: PlantModel, ref: ReferenceModel,
                    signal: ReferenceSignal, gains, horizon: int):
    if plant.time_domain != ref.time_domain:
        raise ModelError("plant and reference model time domains differ")
    if gains.time_domain != plant.time_domain:
        raise ModelError("gain config was validated for a different time domain")
    if plant.n != ref.n or plant.n_inputs != ref.n_inputs:
        raise ModelError("plant and reference model dimensions differ")
    if signal.dimension != plant.n_inputs:
        raise ModelError(
            f"signal dimension {signal.dimension} != input count {plant.n_inputs}"
        )
    if horizon < 1:
        raise ModelError("horizon must be at least 1")


# the matching solution a runner solves itself when it is given none
SOLVE = object()


def _matching(plant, ref, match=SOLVE):
    """``match``, or when it is ``SOLVE`` the scenario's matching solution;
    None when ``solve_matching`` raises (a singular K2)."""
    if match is not SOLVE:
        return match
    try:
        return solve_matching(plant, ref)
    except ModelError:
        return None


def _diagonal_match(match):
    """``match`` when it is matchable with a diagonal, invertible K2*, else
    None: V needs theta* and rho* = 1/k2*."""
    if match is None or not match.matchable():
        return None
    K2d = np.diag(match.K2)
    if np.any(np.abs(K2d) < 1e-12) \
            or np.max(np.abs(match.K2 - np.diag(K2d))) > 1e-9:
        return None
    return match


def _finish_trace(scheme, domain, horizon, dt, diverged_at, rec,
                  V_series=None):
    """The trace of one run from its record arrays, keyed by trace field,
    cut at the divergence step. ``m2`` holds m^2; without it eps and m are
    NaN. ``V_series(rec)`` gives the run's LyapunovSeries, or None when V is
    not defined."""
    steps = (horizon + 1) if diverged_at is None else diverged_at
    # the records belong to this run alone, so the trace keeps views of
    # them rather than a second copy
    rec = {name: values[:steps] for name, values in rec.items()}
    if "m2" in rec:
        rec["m"] = np.sqrt(rec.pop("m2"))
    else:
        rec["eps"] = np.full(rec["x"].shape, np.nan)
        rec["m"] = np.full(steps, np.nan)
    rec.setdefault("proj_fired", np.zeros(steps, dtype=bool))
    # finite records can still square or subtract to inf; that is their
    # value
    with np.errstate(over="ignore", invalid="ignore"):
        series = V_series(rec) if steps and V_series is not None else None
        rec["e"] = rec["x"] - rec["x_m"]
    trace = SimulationTrace(
        scheme=scheme, time_domain=domain, horizon=horizon, dt=dt,
        t=np.arange(steps, dtype=float) * dt, series=series,
        V=None if series is None else series.V,
        dV=None if series is None else series.dV,
        diverged=diverged_at is not None, diverged_at=diverged_at, **rec)
    trace.summary = trace.summarize()
    return trace


def _direct_law(A, B, Am, Bm, gains, enforce, P, rho, x0, xm0) -> Law:
    """The direct law on the shared layout (see ``_rows``), from theta_j =
    row j of P.

    F columns: S_(j,c), -q_1..-q_M, x_m, x. Row 0 of W^T reads eps = x -
    x_m + sum_j rho_j Xi_j off F, row 1 + j reads Xi_j = S_j theta_j - q_j,
    so rho_j sits in row 0 at -q_j's column.
    """
    n, M = B.shape
    C = n + M
    MC = M * C
    K = MC + M + 2  # F columns
    cxm, cx = MC + M, MC + M + 1
    nK = n * K

    # one constant map advances every linear state, given r and u
    L = np.zeros((nK, nK + 2 * M))
    for j in range(M):
        for c in range(C):
            k = j * C + c
            block(L, n, k, k, Am)
            L[k * n:(k + 1) * n, cx * n + c if c < n else nK + c - n] = Bm[:, j]
        block(L, n, MC + j, MC + j, Am)
        L[(MC + j) * n:(MC + j + 1) * n, nK + M + j] = -Bm[:, j]
    block(L, n, cxm, cxm, Am)
    L[cxm * n:(cxm + 1) * n, nK:nK + M] = Bm
    block(L, n, cx, cx, A)
    L[cx * n:, nK + M:] = B

    # [Xi^T, S^T] (-eps / m^2) -> the steps of theta and rho, with the sign
    # priors, the diagonal-K2 mask and gamma folded in
    G = np.zeros(((M + 1) * K, M + MC))
    for j in range(M):
        Gj = gains.sign_k2[j] * gains.Gamma[j]
        for c in range(C):
            if not (enforce and c >= n and c - n != j):
                G[(1 + j) * K + j * C + c, M + j * C:M + (j + 1) * C] = Gj[c]
        G[MC + j, j] = gains.gamma[j]

    F = np.zeros((K, n))
    F[cxm], F[cx] = xm0, x0
    WT = np.zeros((M + 1, K))
    WT[0, MC:cxm] = rho
    WT[0, cxm], WT[0, cx] = -1.0, 1.0
    for j in range(M):
        WT[1 + j, MC + j] = 1.0
        WT[1 + j, j * C:(j + 1) * C] = P[j]
    law = Law(L, G, F, WT.ravel(), M, xi_in_m=True, xi_in_ab=True, rho=True)
    law.cols["rho"] = law.W.start + MC + np.arange(M)
    return law


def run_direct_scenario(plant: PlantModel, ref: ReferenceModel,
                        signal: ReferenceSignal, gains: DirectGainConfig,
                        init: InitialConditions, horizon: int,
                        h: float = 0.01, method: str = "rk4",
                        match=SOLVE) -> SimulationTrace:
    """Closed-loop direct-gradient run over the given horizon.

    Per step: read x and x_m, form e, emit zeta/xi from the banks, form
    eps, record, compute u from the current estimates, update parameters,
    then advance plant, reference and filters on this step's signals.
    Returns the full trace. A run diverges at the first step at which an
    element of x, u or m is not finite, or, in continuous time, after a
    step whose integration is not finite (see ``_rows``); the trace then
    ends before that step, with the divergence marker set instead of
    raising. ``match`` is the scenario's matching solution (see
    ``_matching``), which gives V.
    """
    _check_run_args(plant, ref, signal, gains, horizon)
    match = _diagonal_match(_matching(plant, ref, match))
    n, M = plant.n, plant.n_inputs
    x0, xm0, theta0, rho0, _ = init.resolved(n, n + M, M)
    enforce = gains.enforce_diagonal_k2 and M > 1
    P = theta0.T.copy()  # rows are theta_j
    if enforce:
        P[:, n:] *= np.eye(M)
    law = _direct_law(plant.A, plant.B, ref.A_m, ref.B_m, gains, enforce, P,
                      rho0, x0, xm0)
    rec, store = _rows.records(law.cols, horizon + 1)
    if plant.time_domain == DISCRETE:
        h = 1.0
        diverged_at = _rows.run(
            law, signal.sample(np.arange(horizon + 1, dtype=float)), store)
    else:
        diverged_at = _rows.run_ct(law, law.z0, signal, horizon, h, method,
                                   integrate_ct, store)

    def V_series(rec):
        return direct_V_series(
            rec["theta"], rec["rho"], stack_controller_gains(match.K1, match.K2),
            1.0 / np.diag(match.K2), gains.Gamma, gains.gamma, rec["eps"],
            rec["m"])

    return _finish_trace("direct_gradient", plant.time_domain, horizon, h,
                         diverged_at, rec,
                         None if match is None else V_series)

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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rows import RowBuffer, block, first_nonfinite
from .diagnostics import SimulationTrace, direct_V_series
from .errors import GainError, ModelError, NumericsError
from .filters import ChannelFilterBank, RegressorFrame
from .systems import (CONTINUOUS, DISCRETE, PlantModel, ReferenceModel,
                      ReferenceSignal, integrate_ct, solve_matching)


def stack_controller_gains(K1, K2) -> np.ndarray:
    """Stack (K1, K2) into the (n+M, M) parameter layout used throughout."""
    K1 = np.asarray(K1, dtype=float)
    K2 = np.atleast_2d(np.asarray(K2, dtype=float))
    if K1.ndim == 1:
        K1 = K1.reshape(-1, 1)
    return np.vstack([K1, K2.T])


def split_controller_gains(theta) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of stack_controller_gains: theta -> (K1, K2)."""
    th = np.asarray(theta, dtype=float)
    if th.ndim == 1:
        th = th.reshape(-1, 1)
    M = th.shape[1]
    return th[:-M].copy(), th[-M:].T.copy()


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

    @property
    def n_w(self) -> int:
        return self.Gamma.shape[1]


@dataclass
class DirectControllerState:
    """Adaptive estimates plus the filter bank that feeds them."""

    theta: np.ndarray  # (n_w, M)
    rho: np.ndarray  # (M,)
    bank: ChannelFilterBank

    @property
    def K1(self) -> np.ndarray:
        return split_controller_gains(self.theta)[0]

    @property
    def K2(self) -> np.ndarray:
        return split_controller_gains(self.theta)[1]


def make_direct_state(ref: ReferenceModel, theta0=None, rho0=None) -> DirectControllerState:
    """Fresh controller state; estimates default to zero."""
    n, M = ref.n, ref.n_inputs
    n_w = n + M
    theta = np.zeros((n_w, M)) if theta0 is None else _shape_theta(theta0, n_w, M)
    rho = np.zeros(M) if rho0 is None else np.broadcast_to(
        np.atleast_1d(np.asarray(rho0, dtype=float)), (M,)).copy()
    return DirectControllerState(theta=theta, rho=rho,
                                 bank=ChannelFilterBank(ref, n_w))


def _shape_theta(theta, n_w, M):
    th = np.asarray(theta, dtype=float)
    if th.ndim == 1:
        th = th.reshape(-1, 1)
    if th.shape != (n_w, M):
        raise ModelError(f"theta must have shape ({n_w}, {M}), got {th.shape}")
    return th.copy()


def control_direct(theta, x, r) -> np.ndarray:
    """u = K1^T x + K2 r, with the gains read out of the stacked estimate."""
    th = np.asarray(theta, dtype=float)
    if th.ndim == 1:
        th = th.reshape(-1, 1)
    x = np.asarray(x, dtype=float).reshape(-1)
    r = np.atleast_1d(np.asarray(r, dtype=float)).reshape(-1)
    M = th.shape[1]
    if th.shape[0] != x.shape[0] + M or r.shape[0] != M:
        raise ModelError(
            f"control_direct: theta {th.shape} incompatible with x ({x.shape[0]}) "
            f"and r ({r.shape[0]})"
        )
    omega = np.concatenate([x, r])
    return th.T @ omega


def epsilon_direct(e, rho, xi) -> np.ndarray:
    """Estimation error eps_i = e_i + sum_j rho_j xi_ij."""
    e = np.asarray(e, dtype=float).reshape(-1)
    xi_m = np.asarray(xi, dtype=float)
    if xi_m.ndim == 1:
        xi_m = xi_m.reshape(-1, 1)
    rho_v = np.atleast_1d(np.asarray(rho, dtype=float))
    if xi_m.shape[0] != e.shape[0] or xi_m.shape[1] != rho_v.shape[0]:
        raise ModelError(
            f"epsilon_direct: e {e.shape}, xi {xi_m.shape}, rho {rho_v.shape} disagree"
        )
    return e + xi_m @ rho_v


def direct_increment(theta, rho, gains: DirectGainConfig, epsilon,
                     frame: RegressorFrame):
    """Negative-gradient term of the law: the discrete-time update difference
    and, identically, the continuous-time derivative."""
    eps = np.asarray(epsilon, dtype=float).reshape(-1)
    m2 = frame.m * frame.m
    a = np.einsum("k,kjc->jc", eps, frame.zeta)  # (M, n_w)
    dth = -np.matmul(gains.Gamma, (gains.sign_k2[:, None] * a)[:, :, None])[..., 0].T / m2
    b = eps @ frame.xi  # (M,)
    drho = -gains.gamma * b / m2
    return dth, drho


def update_direct_discrete(state: DirectControllerState, gains: DirectGainConfig,
                           epsilon, frame: RegressorFrame) -> DirectControllerState:
    """One gradient step on (theta, rho); the filter bank is advanced separately."""
    dth, drho = direct_increment(state.theta, state.rho, gains, epsilon, frame)
    theta = state.theta + dth
    rho = state.rho + drho
    M = rho.shape[0]
    if M > 1 and gains.enforce_diagonal_k2:
        theta[-M:] *= np.eye(M).T
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(rho))):
        raise NumericsError("non-finite parameter update")
    return DirectControllerState(theta=theta, rho=rho, bank=state.bank)


def update_direct_ct(state: DirectControllerState, gains: DirectGainConfig,
                     frame_eval, h: float, method: str = "rk4") -> DirectControllerState:
    """Integrate the parameter derivatives one step.

    ``frame_eval(theta, rho) -> (epsilon, frame)`` supplies the estimation
    error and regressor frame at interior stage points; pass a constant
    closure to hold them fixed over the step.
    """
    n_w, M = state.theta.shape

    def rhs(_t, y):
        th = y[: n_w * M].reshape(n_w, M)
        rh = y[n_w * M:]
        eps, frame = frame_eval(th, rh)
        dth, drho = direct_increment(th, rh, gains, eps, frame)
        if M > 1 and gains.enforce_diagonal_k2:
            dth[-M:] *= np.eye(M).T
        return np.concatenate([dth.ravel(), drho])

    y0 = np.concatenate([state.theta.ravel(), state.rho])
    y1 = integrate_ct(rhs, y0, h, method=method)
    return DirectControllerState(theta=y1[: n_w * M].reshape(n_w, M),
                                 rho=y1[n_w * M:], bank=state.bank)


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


def _maybe_direct_V(plant, ref, gains, rec_theta, rec_rho, rec_eps, rec_m):
    """V/dV series when the scenario is matchable with diagonal K2*."""
    try:
        match = solve_matching(plant, ref)
    except ModelError:
        return None, None
    if not match.matchable():
        return None, None
    K2d = np.diag(match.K2)
    if np.max(np.abs(match.K2 - np.diag(K2d))) > 1e-9 or np.any(np.abs(K2d) < 1e-12):
        return None, None
    theta_star = stack_controller_gains(match.K1, match.K2)
    series = direct_V_series(rec_theta, rec_rho, theta_star, 1.0 / K2d,
                             gains.Gamma, gains.gamma, rec_eps, rec_m)
    return series.V, series.dV


def run_direct_scenario(plant: PlantModel, ref: ReferenceModel,
                        signal: ReferenceSignal, gains: DirectGainConfig,
                        init: InitialConditions, horizon: int,
                        h: float = 0.01, method: str = "rk4") -> SimulationTrace:
    """Closed-loop direct-gradient run over the given horizon.

    Per step: read x and x_m, form e, emit zeta/xi from the banks, form
    eps, record, compute u from the current estimates, update parameters,
    then advance plant, reference and filters on this step's signals.
    Returns the full trace; a non-finite signal truncates it with the
    divergence marker set instead of raising.
    """
    _check_run_args(plant, ref, signal, gains, horizon)
    if plant.time_domain == DISCRETE:
        return _run_direct_discrete(plant, ref, signal, gains, init, horizon)
    return _run_direct_ct(plant, ref, signal, gains, init, horizon, h, method)


def _run_direct_discrete(plant, ref, signal, gains, init, horizon):
    n, M = plant.n, plant.n_inputs
    C = n + M
    A, B, Am, Bm = plant.A, plant.B, ref.A_m, ref.B_m
    x0, xm0, theta0, rho0, _ = init.resolved(n, C, M)
    enforce = gains.enforce_diagonal_k2 and M > 1

    P = theta0.T.copy()  # rows are theta_j
    if enforce:
        P[:, n:] *= np.eye(M)
    r_all = signal.sample(np.arange(horizon + 1, dtype=float))

    records = _direct_loop(A, B, Am, Bm, gains, enforce, P, rho0, x0, xm0,
                           r_all)
    return _finish_direct_trace(plant, ref, gains, horizon, 1.0, DISCRETE,
                                *records)


def _direct_loop(A, B, Am, Bm, gains, enforce, P, rho, x0, xm0, r_all):
    """The discrete direct law on a row buffer (see ``_rows``).

    Row layout: F columns [-q_1..-q_M, x_m, x, S_(j,c)], then Xi_1..Xi_M
    and eps as n-vectors, then the regressor tail omega = [x, r] and u,
    then W^T. Row j < M of W^T reads Xi_j = S_j theta_j - q_j off F; row M
    reads eps = x - x_m + sum_j rho_j Xi_j, so it carries theta_j rho_j,
    which is refreshed after every update. Returns the records that
    ``_finish_direct_trace`` takes, with the divergence step first.
    """
    n, M = B.shape
    C = n + M
    MC = M * C
    K = M + 2 + MC  # F columns
    cxm, cx, cS = M, M + 1, M + 2
    XE = n * K  # Xi_1..Xi_M, eps
    X2 = XE + n * (M + 1)  # omega = [x, r], then u
    R0 = X2 + n
    U0 = R0 + M
    W0 = U0 + M
    T1 = r_all.shape[0]

    # one constant map advances every linear state, given u and r
    T = np.zeros((X2 + n, W0))
    for j in range(M):
        block(T, n, j, j, Am)
        T[j * n:(j + 1) * n, U0 + j] = -Bm[:, j]
    block(T, n, cxm, cxm, Am)
    T[cxm * n:(cxm + 1) * n, R0:U0] = Bm
    for c in (cx, X2 // n):
        block(T, n, c, cx, A)
        T[c * n:(c + 1) * n, U0:W0] = B
    for j in range(M):
        for c in range(C):
            k = cS + j * C + c
            block(T, n, k, k, Am)
            T[k * n:(k + 1) * n, cx * n + c if c < n else R0 + c - n] = Bm[:, j]

    # the gradient of every estimate entry, with the sign priors, the
    # diagonal-K2 mask and gamma folded in, lands directly on W^T
    G = np.zeros(((M + 1) * K, MC + M))
    for j in range(M):
        Gj = gains.sign_k2[j] * gains.Gamma[j]
        for c in range(C):
            if not (enforce and c >= n and c - n != j):
                G[j * K + cS + j * C + c, j * C:(j + 1) * C] = Gj[c]
        G[M * K + j, MC + j] = gains.gamma[j]

    rows = RowBuffer(W0 + (M + 1) * K, T1)
    row0 = rows.buf[0]
    row0[cxm * n:(cxm + 1) * n] = xm0
    row0[cx * n:(cx + 1) * n] = x0
    row0[X2:R0] = x0
    row0[R0:U0] = r_all[0]
    WT = row0[W0:].reshape(M + 1, K)
    for j in range(M):
        WT[j, j] = 1.0
        WT[j, cS + j * C:cS + (j + 1) * C] = P[j]
    WT[M, :M] = rho
    WT[M, cxm] = -1.0
    WT[M, cx] = 1.0
    WT[M, cS:] = (P * rho[:, None]).ravel()

    def views(i):
        """Row i's operands for its own step, and for the step into it."""
        row = rows.buf[i]
        W = row[W0:]
        H = row[cS * n:XE + n * M]
        # theta_j is row j of W^T from column cS + jC on
        Pv = W[cS:].reshape(M, K + C)[:, :C]
        own = (Pv.dot, row[X2:U0], row[U0:W0], W.reshape(M + 1, K).dot,
               row[:XE].reshape(K, n), row[XE:X2].reshape(M + 1, n), H.dot,
               H, row[XE + n * M:X2], H.reshape(MC + M, n).dot, W, row[:W0])
        into = (W, Pv, W[M * K:M * K + M, None],
                W[M * K + cS:].reshape(M, C), row[:X2 + n])
        return own, into

    row_views = [views(i) for i in range(rows.size + 1)]
    steps = [row_views[i][0] + row_views[i + 1][1] for i in range(rows.size)]

    rec_x = np.empty((T1, n)); rec_xm = np.empty((T1, n))
    rec_u = np.empty((T1, M)); rec_eps = np.empty((T1, n)); rec_m = np.empty(T1)
    rec_th = np.empty((T1, C, M)); rec_rho = np.empty((T1, M))
    th_at = W0 + np.array([[j * K + cS + j * C + c for j in range(M)]
                           for c in range(C)])
    buf = rows.buf
    epsb = np.empty(n)
    ab = np.empty(MC + M)
    dW = np.empty((M + 1) * K)
    # bound .dot methods skip the __array_function__ dispatch of np.dot
    Tdot, Gdot, scale, add = T.dot, G.dot, np.multiply, np.add
    diverged_at = None
    with np.errstate(all="ignore"):
        for t0, count, updates in rows.chunks(r_all, R0):
            m2 = rec_m[t0:t0 + count]
            for i in range(count):
                (Pdot, om, u, Wdot, FT, XET, Hdot, H, eps, HTdot, W, z, Wn,
                 Pn, rhon, epsSn, zn) = steps[i]
                Pdot(om, u)
                Wdot(FT, XET)
                m = 1.0 + float(Hdot(H))
                m2[i] = m
                if i == updates:
                    break
                scale(eps, -1.0 / m, epsb)
                HTdot(epsb, ab)
                Gdot(ab, dW)
                add(W, dW, Wn)
                scale(Pn, rhon, epsSn)
                Tdot(z, zn)
            done = buf[:count]
            sl = slice(t0, t0 + count)
            rec_x[sl] = done[:, cx * n:(cx + 1) * n]
            rec_xm[sl] = done[:, cxm * n:(cxm + 1) * n]
            rec_u[sl] = done[:, U0:W0]
            rec_eps[sl] = done[:, XE + n * M:X2]
            rec_th[sl] = done[:, th_at]
            rec_rho[sl] = done[:, W0 + M * K:W0 + M * K + M]
            bad = first_nonfinite(m2, rec_x[sl], rec_u[sl])
            if bad is not None:
                diverged_at = t0 + bad
                break
        np.sqrt(rec_m, out=rec_m)
        rec_e = rec_x - rec_xm
    return (diverged_at, rec_x, rec_xm, rec_e, rec_u, rec_eps, rec_m,
            rec_th, rec_rho)


def _run_direct_ct(plant, ref, signal, gains, init, horizon, h, method):
    n, M = plant.n, plant.n_inputs
    C = n + M
    A, B, Am, Bm = plant.A, plant.B, ref.A_m, ref.B_m
    x0, xm0, theta0, rho0, _ = init.resolved(n, C, M)
    enforce = gains.enforce_diagonal_k2 and M > 1
    P0 = theta0.T.copy()
    if enforce:
        P0[:, n:] *= np.eye(M)
    Gbd = np.zeros((M * C, M * C))
    for j in range(M):
        Gbd[j * C:(j + 1) * C, j * C:(j + 1) * C] = gains.sign_k2[j] * gains.Gamma[j]
    gam = gains.gamma
    eyeM = np.eye(M)

    # joint state: [x, xm, S, q, P, rho]
    sl_x = slice(0, n)
    sl_xm = slice(n, 2 * n)
    sl_S = slice(2 * n, 2 * n + n * M * C)
    sl_q = slice(sl_S.stop, sl_S.stop + n * M)
    sl_P = slice(sl_q.stop, sl_q.stop + M * C)
    sl_rho = slice(sl_P.stop, sl_P.stop + M)

    def readout(tau, z):
        x = z[sl_x]; xm = z[sl_xm]
        S = z[sl_S].reshape(n, M * C); q = z[sl_q].reshape(n, M)
        P = z[sl_P].reshape(M, C); rho = z[sl_rho]
        r = signal.at(tau)
        om = np.concatenate([x, r])
        u = P @ om
        Xi = np.einsum("kjc,jc->kj", S.reshape(n, M, C), P) - q
        eps = (x - xm) + Xi @ rho
        m2 = 1.0 + float(np.dot(S.ravel(), S.ravel())) + float(np.dot(Xi.ravel(), Xi.ravel()))
        return x, xm, u, eps, m2, om, Xi, S, P, rho, r

    def rhs(tau, z):
        x, xm, u, eps, m2, om, Xi, S, P, rho, r = readout(tau, z)
        dP = -(Gbd @ (S.T @ eps)).reshape(M, C) / m2
        drho = -gam * (eps @ Xi) / m2
        if enforce:
            dP[:, n:] *= eyeM
        dS = Am @ S + (Bm[:, :, None] * om[None, None, :]).reshape(n, M * C)
        dq = Am @ z[sl_q].reshape(n, M) + Bm * u[None, :]
        dx = A @ x + B @ u
        dxm = Am @ xm + Bm @ r
        return np.concatenate([dx, dxm, dS.ravel(), dq.ravel(), dP.ravel(), drho])

    z = np.concatenate([x0, xm0, np.zeros(n * M * C), np.zeros(n * M),
                        P0.ravel(), rho0])
    T1 = horizon + 1
    rec_x = np.empty((T1, n)); rec_xm = np.empty((T1, n)); rec_e = np.empty((T1, n))
    rec_u = np.empty((T1, M)); rec_eps = np.empty((T1, n)); rec_m = np.empty(T1)
    rec_th = np.empty((T1, C, M)); rec_rho = np.empty((T1, M))
    diverged_at = None
    with np.errstate(all="ignore"):
        for k in range(T1):
            tau = k * h
            x, xm, u, eps, m2, *_, P, rho, _r = readout(tau, z)
            if not math.isfinite(m2 + float(np.dot(x, x)) + float(np.dot(u, u))):
                diverged_at = k
                break
            rec_x[k] = x; rec_xm[k] = xm; rec_e[k] = x - xm; rec_u[k] = u
            rec_eps[k] = eps; rec_m[k] = math.sqrt(m2)
            rec_th[k] = P.T; rec_rho[k] = rho
            if k == horizon:
                break
            try:
                z = integrate_ct(rhs, z, h, t=tau, method=method)
            except NumericsError:
                diverged_at = k + 1
                break

    return _finish_direct_trace(plant, ref, gains, horizon, h, CONTINUOUS,
                                diverged_at, rec_x, rec_xm, rec_e, rec_u,
                                rec_eps, rec_m, rec_th, rec_rho)


def _finish_direct_trace(plant, ref, gains, horizon, dt, domain, diverged_at,
                         rec_x, rec_xm, rec_e, rec_u, rec_eps, rec_m,
                         rec_th, rec_rho):
    steps = (horizon + 1) if diverged_at is None else diverged_at
    sl = slice(0, steps)
    V = dV = None
    if steps > 0:
        V, dV = _maybe_direct_V(plant, ref, gains, rec_th[sl], rec_rho[sl],
                                rec_eps[sl], rec_m[sl])
    # the records belong to this run alone, so the trace keeps views of
    # them rather than a second copy
    trace = SimulationTrace(
        scheme="direct_gradient", time_domain=domain, horizon=horizon, dt=dt,
        t=np.arange(steps, dtype=float) * dt,
        x=rec_x[sl], x_m=rec_xm[sl], e=rec_e[sl],
        u=rec_u[sl], eps=rec_eps[sl], m=rec_m[sl],
        theta=rec_th[sl], rho=rec_rho[sl],
        V=V, dV=dV,
        proj_fired=np.zeros(steps, dtype=bool),
        diverged=diverged_at is not None, diverged_at=diverged_at,
    )
    trace.summary = trace.summarize()
    return trace

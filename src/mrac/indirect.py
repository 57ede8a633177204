"""Indirect gradient adaptive state tracking.

Here the estimates target the plant parametrization rather than the
controller: column j of theta stacks [column j of Theta1; row j of Theta2],
where A = A_m - B_m Theta1*^T and B = B_m Theta2*. An a-posteriori state
estimator

    xhat(t+1) = A_m xhat(t) + B_m (Theta2(t) u(t) - Theta1(t)^T x(t))

produces the estimation error e_x = xhat - x that drives the normalized
gradient law over the regressor omega = [-x; u], with eps = e_x + sum_j
xi_j. A projection keeps the diagonal entries of Theta2 sign-correct and
bounded away from zero so the controller recovery

    K1^T = Theta2^{-1} Theta1^T,  K2 = Theta2^{-1}

stays well posed. The single-input normalizer omits the xi energy; the
multi-input law includes it (the two formulations differ on this point and
each is followed literally).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import lt, mul

import numpy as np

from . import _ctloop
from ._ctloop import Field
from ._rows import RowBuffer, block, first_nonfinite
from .diagnostics import SimulationTrace, indirect_V_series
from .direct import InitialConditions, _check_run_args, _shape_theta
from .errors import (GainError, ModelError, NumericsError, ProjectionError,
                     SingularGainError)
from .filters import ChannelFilterBank, RegressorFrame
from .systems import (CONTINUOUS, DISCRETE, PlantModel, ReferenceModel,
                      ReferenceSignal, integrate_ct, solve_matching)


@dataclass(frozen=True)
class ProjectionConfig:
    """Sign priors and the lower bound theta2_lower = 1 / k2_upper.

    ``enabled=False`` keeps the raw gradient law; controller recovery then
    raises on sub-threshold estimates instead of being protected.
    """

    theta2_lower: np.ndarray  # (M,) positive
    signs: np.ndarray  # (M,) entries +-1
    enabled: bool = True

    def __post_init__(self):
        signs = np.atleast_1d(np.asarray(self.signs, dtype=float))
        M = signs.shape[0]
        if not np.all(np.abs(signs) == 1.0):
            raise ProjectionError("projection signs must be +1 or -1")
        lower = np.broadcast_to(
            np.atleast_1d(np.asarray(self.theta2_lower, dtype=float)), (M,)).copy()
        if np.any(lower <= 0.0) or not np.all(np.isfinite(lower)):
            raise ProjectionError(
                "theta2 lower bounds must be positive and finite")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "theta2_lower", lower)

    @classmethod
    def from_k2_upper(cls, k2_upper, signs, enabled: bool = True) -> "ProjectionConfig":
        """Build the bound from an upper bound on |k2*| (lower = 1/upper)."""
        upper = np.atleast_1d(np.asarray(k2_upper, dtype=float))
        if np.any(upper <= 0.0):
            raise ProjectionError("k2 upper bounds must be positive")
        # a subnormal bound has no finite reciprocal; __post_init__ rejects it
        with np.errstate(over="ignore"):
            lower = 1.0 / upper
        return cls(theta2_lower=lower, signs=signs, enabled=enabled)

    @property
    def n_inputs(self) -> int:
        return self.signs.shape[0]


@dataclass(frozen=True)
class IndirectGainConfig:
    """Gain blocks for the indirect law.

    Each Gamma_j must be symmetric positive definite and block diagonal
    with a diagonal trailing M x M block (the structure the projection
    argument needs); discrete time additionally requires every eigenvalue
    below 2.
    """

    Gamma: np.ndarray  # (M, n_w, n_w)
    time_domain: str = DISCRETE

    def __post_init__(self):
        G = np.asarray(self.Gamma, dtype=float)
        if G.ndim == 2:
            G = G[None]
        if G.ndim != 3 or G.shape[1] != G.shape[2]:
            raise GainError(f"Gamma must stack to (M, n_w, n_w), got {G.shape}")
        M = G.shape[0]
        n_w = G.shape[1]
        n = n_w - M
        if n < 1:
            raise GainError(f"Gamma block size {n_w} too small for M={M}")
        for j in range(M):
            if not np.allclose(G[j], G[j].T, atol=1e-10, rtol=0.0):
                raise GainError(f"Gamma[{j}] must be symmetric")
            eig = np.linalg.eigvalsh(G[j])
            if eig[0] <= 0.0:
                raise GainError(f"Gamma[{j}] must be positive definite")
            if self.time_domain == DISCRETE and eig[-1] >= 2.0:
                raise GainError(
                    f"Gamma[{j}] violates the spectral bound 2: largest eigenvalue "
                    f"{eig[-1]:.6g}"
                )
            off = G[j][:n, n:]
            tail = G[j][n:, n:]
            if np.any(off != 0.0) or np.any(tail * (1.0 - np.eye(M)) != 0.0):
                raise GainError(
                    f"Gamma[{j}] must be block diagonal with a diagonal trailing block"
                )
        object.__setattr__(self, "Gamma", G)

    @property
    def n_inputs(self) -> int:
        return self.Gamma.shape[0]

    @property
    def n_w(self) -> int:
        return self.Gamma.shape[1]


def stack_plant_estimate(Theta1, Theta2) -> np.ndarray:
    """Stack (Theta1, Theta2) into the (n+M, M) column layout."""
    T1 = np.asarray(Theta1, dtype=float)
    T2 = np.atleast_2d(np.asarray(Theta2, dtype=float))
    if T1.ndim == 1:
        T1 = T1.reshape(-1, 1)
    return np.vstack([T1, T2.T])


def split_plant_estimate(theta):
    """theta -> (Theta1, Theta2)."""
    th = np.asarray(theta, dtype=float)
    if th.ndim == 1:
        th = th.reshape(-1, 1)
    M = th.shape[1]
    return th[:-M].copy(), th[-M:].T.copy()


def theta_star_indirect(K1, K2) -> np.ndarray:
    """True plant parametrization from matching gains:
    Theta1* = K1 (K2^{-1})^T, Theta2* = K2^{-1}."""
    K1 = np.asarray(K1, dtype=float)
    K2 = np.atleast_2d(np.asarray(K2, dtype=float))
    if K1.ndim == 1:
        K1 = K1.reshape(-1, 1)
    K2inv = np.linalg.inv(K2)
    return stack_plant_estimate(K1 @ K2inv.T, K2inv)


@dataclass
class IndirectControllerState:
    theta: np.ndarray  # (n_w, M)
    x_hat: np.ndarray  # (n,)
    bank: ChannelFilterBank

    @property
    def Theta1(self) -> np.ndarray:
        return split_plant_estimate(self.theta)[0]

    @property
    def Theta2(self) -> np.ndarray:
        return split_plant_estimate(self.theta)[1]

    @property
    def theta2_diag(self) -> np.ndarray:
        M = self.theta.shape[1]
        return np.array([self.theta[-M + j, j] for j in range(M)])


def check_projection_start(theta, projection: ProjectionConfig):
    """Reject initial estimates that violate the projection preconditions."""
    th = np.asarray(theta, dtype=float)
    if th.ndim == 1:
        th = th.reshape(-1, 1)
    M = th.shape[1]
    for j in range(M):
        t2 = th[-M + j, j]
        if projection.signs[j] * t2 < projection.theta2_lower[j]:
            raise ProjectionError(
                f"initial theta2[{j}]={t2:.6g} violates sign/lower-bound "
                f"(need sign {projection.signs[j]:+.0f}, magnitude >= "
                f"{projection.theta2_lower[j]:.6g})"
            )


def make_indirect_state(ref: ReferenceModel, theta0, xhat0=None,
                        projection: ProjectionConfig | None = None) -> IndirectControllerState:
    n, M = ref.n, ref.n_inputs
    n_w = n + M
    theta = _shape_theta(theta0, n_w, M)
    if M > 1:
        theta[-M:] *= np.eye(M).T
    if projection is not None and projection.enabled:
        check_projection_start(theta, projection)
    x_hat = np.zeros(n) if xhat0 is None else np.asarray(xhat0, float).reshape(n)
    return IndirectControllerState(theta=theta, x_hat=x_hat,
                                   bank=ChannelFilterBank(ref, n_w))


def step_estimator(state: IndirectControllerState, ref: ReferenceModel,
                   x, u) -> np.ndarray:
    """One estimator step: A_m xhat + B_m (Theta2 u - Theta1^T x)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.atleast_1d(np.asarray(u, dtype=float)).reshape(-1)
    n, M = ref.n, ref.n_inputs
    if x.shape[0] != n or u.shape[0] != M:
        raise ModelError("step_estimator: state/input dimensions disagree")
    omega = np.concatenate([-x, u])
    v = state.theta.T @ omega  # = Theta2 u - Theta1^T x
    return ref.A_m @ state.x_hat + ref.B_m @ v


def epsilon_indirect(e_x, xi) -> np.ndarray:
    """eps_i = e_xi + sum_j xi_ij (no rho weighting here)."""
    e_x = np.asarray(e_x, dtype=float).reshape(-1)
    xi_m = np.asarray(xi, dtype=float)
    if xi_m.ndim == 1:
        xi_m = xi_m.reshape(-1, 1)
    if xi_m.shape[0] != e_x.shape[0]:
        raise ModelError(f"epsilon_indirect: e_x {e_x.shape}, xi {xi_m.shape} disagree")
    return e_x + np.sum(xi_m, axis=1)


def _projection_values(theta2, g2, projection: ProjectionConfig):
    """Discrete landing form: zero when the candidate stays admissible,
    otherwise the correction placing theta2 exactly on the signed bound."""
    cand = theta2 + g2
    target = projection.signs * projection.theta2_lower
    need = projection.signs * cand < projection.theta2_lower
    return np.where(need, target - cand, 0.0)


def indirect_step_values(theta, gains: IndirectGainConfig,
                         projection: ProjectionConfig | None,
                         epsilon, frame: RegressorFrame):
    """Gradient step with projection; returns (theta_next, g2, f2)."""
    th = np.asarray(theta, dtype=float)
    if th.ndim == 1:
        th = th.reshape(-1, 1)
    n_w, M = th.shape
    n = n_w - M
    eps = np.asarray(epsilon, dtype=float).reshape(-1)
    m2 = frame.m * frame.m
    a = np.einsum("k,kjc->jc", eps, frame.zeta)  # (M, n_w)
    g = -np.matmul(gains.Gamma, a[:, :, None])[..., 0].T / m2  # (n_w, M)
    if M > 1:
        g[-M:] *= np.eye(M).T
    theta2 = np.array([th[n + j, j] for j in range(M)])
    g2 = np.array([g[n + j, j] for j in range(M)])
    if projection is not None and projection.enabled:
        f2 = _projection_values(theta2, g2, projection)
    else:
        f2 = np.zeros(M)
    theta_next = th + g
    for j in range(M):
        theta_next[n + j, j] += f2[j]
    if not np.all(np.isfinite(theta_next)):
        raise NumericsError("non-finite parameter update")
    return theta_next, g2, f2


def update_indirect_discrete(state: IndirectControllerState,
                             gains: IndirectGainConfig,
                             projection: ProjectionConfig | None,
                             epsilon, frame: RegressorFrame) -> IndirectControllerState:
    theta_next, _, _ = indirect_step_values(state.theta, gains, projection,
                                            epsilon, frame)
    return IndirectControllerState(theta=theta_next, x_hat=state.x_hat,
                                   bank=state.bank)


def recover_controller_gains(theta, projection: ProjectionConfig | None):
    """(K1, K2) from the plant estimate; raises when Theta2 is not safely
    invertible and no projection guards it."""
    th = np.asarray(theta, dtype=float)
    if th.ndim == 1:
        th = th.reshape(-1, 1)
    n_w, M = th.shape
    n = n_w - M
    theta2 = np.array([th[n + j, j] for j in range(M)])
    floor = projection.theta2_lower if projection is not None else np.full(M, 1e-12)
    if np.any(np.abs(theta2) < floor - 1e-15):
        raise SingularGainError(
            f"theta2 diagonal {theta2} below the invertibility threshold {floor}"
        )
    K2 = np.diag(1.0 / theta2)
    K1 = th[:n] / theta2[None, :]  # columns K1[:, j] = Theta1[:, j] / theta2_j
    return K1, K2


def control_indirect(state: IndirectControllerState,
                     projection: ProjectionConfig | None, x, r) -> np.ndarray:
    """u = K1^T x + K2 r with gains recovered from the projected estimate."""
    x = np.asarray(x, dtype=float).reshape(-1)
    r = np.atleast_1d(np.asarray(r, dtype=float)).reshape(-1)
    K1, K2 = recover_controller_gains(state.theta, projection)
    return K1.T @ x + K2 @ r


def _ct_projection_rate(theta2, g2, projection: ProjectionConfig):
    """Derivative-nulling form: on (or past) the bound with an outward raw
    derivative, cancel it; otherwise leave the law untouched."""
    on_boundary = projection.signs * theta2 <= projection.theta2_lower + 1e-12
    outward = projection.signs * g2 < 0.0
    return np.where(on_boundary & outward, -g2, 0.0)


def update_indirect_ct(state: IndirectControllerState, gains: IndirectGainConfig,
                       projection: ProjectionConfig | None, frame_eval,
                       h: float, method: str = "rk4") -> IndirectControllerState:
    """Integrate the indirect law one step; ``frame_eval(theta) ->
    (epsilon, frame)`` is evaluated at interior stage points."""
    n_w, M = state.theta.shape
    n = n_w - M

    def rhs(_t, y):
        th = y.reshape(n_w, M)
        eps, frame = frame_eval(th)
        eps = np.asarray(eps, dtype=float).reshape(-1)
        m2 = frame.m * frame.m
        a = np.einsum("k,kjc->jc", eps, frame.zeta)
        g = -np.matmul(gains.Gamma, a[:, :, None])[..., 0].T / m2
        if M > 1:
            g[-M:] *= np.eye(M).T
        if projection is not None and projection.enabled:
            theta2 = np.array([th[n + j, j] for j in range(M)])
            g2 = np.array([g[n + j, j] for j in range(M)])
            f2 = _ct_projection_rate(theta2, g2, projection)
            for j in range(M):
                g[n + j, j] += f2[j]
        return g.ravel()

    y1 = integrate_ct(rhs, state.theta.ravel(), h, method=method)
    theta = y1.reshape(n_w, M)
    if projection is not None and projection.enabled:
        _clamp_theta2(theta[n:], projection)
    return IndirectControllerState(theta=theta, x_hat=state.x_hat, bank=state.bank)


def _clamp_theta2(block, projection: ProjectionConfig):
    """Snap the theta2 diagonal of a writeable (M, M) view back onto the
    signed bound where integration landed a hair inside it."""
    theta2 = np.einsum("ii->i", block)  # a writeable view of the diagonal
    for j in range(theta2.shape[0]):
        if projection.signs[j] * theta2[j] < projection.theta2_lower[j]:
            theta2[j] = projection.signs[j] * projection.theta2_lower[j]


def run_indirect_scenario(plant: PlantModel, ref: ReferenceModel,
                          signal: ReferenceSignal, gains: IndirectGainConfig,
                          projection: ProjectionConfig | None,
                          init: InitialConditions, horizon: int,
                          h: float = 0.01, method: str = "rk4") -> SimulationTrace:
    """Closed-loop indirect-gradient run; loop order as in the direct case
    with the estimator advanced on the same pre-update estimates."""
    _check_run_args(plant, ref, signal, gains, horizon)
    if projection is not None and projection.n_inputs != plant.n_inputs:
        raise ModelError("projection dimension disagrees with the input count")
    if plant.time_domain == DISCRETE:
        return _run_indirect_discrete(plant, ref, signal, gains, projection,
                                      init, horizon)
    return _run_indirect_ct(plant, ref, signal, gains, projection, init,
                            horizon, h, method)


def _run_indirect_discrete(plant, ref, signal, gains, projection, init, horizon):
    n, M = plant.n, plant.n_inputs
    C = n + M
    A, B, Am, Bm = plant.A, plant.B, ref.A_m, ref.B_m
    x0, xm0, theta0, _, xhat0 = init.resolved(n, C, M)

    P = theta0.T.copy()
    if M > 1:
        P[:, n:] *= np.eye(M)
    proj_on = projection is not None and projection.enabled
    if proj_on:
        check_projection_start(P.T, projection)
    floor = (projection.theta2_lower if projection is not None
             else np.full(M, 1e-12))
    r_all = signal.sample(np.arange(horizon + 1, dtype=float))

    records = _indirect_loop(A, B, Am, Bm, gains,
                             projection if proj_on else None, floor, P, x0,
                             xm0, xhat0, r_all)
    return _finish_indirect_trace(plant, ref, gains, horizon, 1.0, DISCRETE,
                                  *records)


def _indirect_loop(A, B, Am, Bm, gains, projection, floor, P, x0, xm0, xhat0,
                   r_all):
    """The discrete indirect law on a row buffer (see ``_rows``).

    Row layout: x_m, then F columns [q_1..q_M, xhat, x, S_(j,c)], then
    Xi_1..Xi_M and eps as n-vectors, then [x, r] and u, then W^T and the
    numerator gains [Theta1^T | I]. Row j < M of W^T reads Xi_j off F, row M
    reads eps = xhat - x + sum_j Xi_j; both carry theta, so one increment
    updates every copy. The control u = Theta2^{-1} (Theta1^T x + r) makes
    the estimator input v = Theta2 u - Theta1^T x equal r(t) up to rounding,
    so q and xhat are driven by r.
    ``projection`` is None when it is off. Returns the records that
    ``_finish_indirect_trace`` takes, with the divergence step first.
    """
    n, M = B.shape
    C = n + M
    MC = M * C
    K = M + 2 + MC  # F columns
    cxh, cx, cS = M, M + 1, M + 2
    XE = n * (1 + K)  # Xi_1..Xi_M, eps
    X2 = XE + n * (M + 1)  # [x, r], then u
    R0 = X2 + n
    U0 = R0 + M
    W0 = U0 + M
    NW = (M + 1) * K + MC
    T1 = r_all.shape[0]

    # one constant map advances every linear state, given u and r
    T = np.zeros((X2 + n, W0))
    block(T, n, 0, 0, Am)
    T[:n, R0:U0] = Bm
    for j in range(M):
        block(T, n, 1 + j, 1 + j, Am)
        T[(1 + j) * n:(2 + j) * n, R0 + j] = Bm[:, j]
    block(T, n, 1 + cxh, 1 + cxh, Am)
    T[(1 + cxh) * n:(2 + cxh) * n, R0:U0] = Bm
    for c in (1 + cx, X2 // n):
        block(T, n, c, 1 + cx, A)
        T[c * n:(c + 1) * n, U0:W0] = B
    for j in range(M):
        for c in range(C):
            k = 1 + cS + j * C + c
            block(T, n, k, k, Am)
            if c < n:
                T[k * n:(k + 1) * n, (1 + cx) * n + c] = -Bm[:, j]
            else:
                T[k * n:(k + 1) * n, U0 + c - n] = Bm[:, j]

    # the gradient of every estimate entry, with the diagonal-Theta2 mask
    # folded in, lands on all three copies of theta at once
    G = np.zeros((NW, MC))
    for j in range(M):
        for c in range(C):
            if M > 1 and c >= n and c - n != j:
                continue
            at = [j * K + cS + j * C + c, M * K + cS + j * C + c]
            if c < n:
                at.append((M + 1) * K + j * C + c)
            G[at, j * C:(j + 1) * C] = gains.Gamma[j][c]

    rows = RowBuffer(W0 + NW * (2 if projection is not None else 1), T1)
    row0 = rows.buf[0]
    row0[:n] = xm0
    row0[(1 + cxh) * n:(2 + cxh) * n] = xhat0
    row0[(1 + cx) * n:(2 + cx) * n] = x0
    row0[X2:R0] = x0
    row0[R0:U0] = r_all[0]
    WT = row0[W0:W0 + (M + 1) * K].reshape(M + 1, K)
    Kx = row0[W0 + (M + 1) * K:W0 + NW].reshape(M, C)
    for j in range(M):
        WT[j, j] = -1.0
        WT[j, cS + j * C:cS + (j + 1) * C] = P[j]
        Kx[j, :n] = P[j, :n]
        Kx[j, n + j] = 1.0
    WT[M, :M] = -1.0
    WT[M, cxh] = 1.0
    WT[M, cx] = -1.0
    WT[M, cS:] = P.ravel()

    th2_at = [j * K + cS + j * C + n + j for j in range(M)]
    shared_dW = np.empty(NW)

    def views(i):
        """Row i's operands for its own step, and for the step into it."""
        row = rows.buf[i]
        W = row[W0:W0 + NW]
        S = row[n * (1 + cS):XE]
        # the multi-input normalizer includes the xi energy
        Hm = row[n * (1 + cS):XE + n * M] if M > 1 else S
        # theta2_j in row j and in row M of W^T
        th2 = W[th2_at[0]::K + C + 1][:M]
        dW = row[W0 + NW:] if projection is not None else shared_dW
        own = (W[(M + 1) * K:].reshape(M, C).dot, row[X2:U0], row[U0:W0],
               th2, W[:(M + 1) * K].reshape(M + 1, K).dot,
               row[n:XE].reshape(K, n), row[XE:X2].reshape(M + 1, n), Hm.dot,
               Hm, row[XE + n * M:X2], S.reshape(MC, n).dot, W, dW, row[:W0])
        into = (W, th2, W[M * K + th2_at[0]::C + 1][:M], row[:X2 + n])
        return own, into

    row_views = [views(i) for i in range(rows.size + 1)]
    steps = [row_views[i][0] + row_views[i + 1][1] for i in range(rows.size)]

    rec_x = np.empty((T1, n)); rec_xm = np.empty((T1, n))
    rec_u = np.empty((T1, M)); rec_eps = np.empty((T1, n)); rec_m = np.empty(T1)
    rec_th = np.empty((T1, C, M)); rec_xh = np.empty((T1, n))
    rec_g2 = np.zeros((T1, M)); rec_f2 = np.zeros((T1, M))
    th_at = W0 + np.array([[j * K + cS + j * C + c for j in range(M)]
                           for c in range(C)])
    if projection is not None:
        signs, lower = projection.signs, projection.theta2_lower
        signs_l, lower_l = signs.tolist(), lower.tolist()
        g2_at = W0 + NW + np.array(th2_at)
    buf = rows.buf
    epsb = np.empty(n)
    ab = np.empty(MC)
    # bound .dot methods skip the __array_function__ dispatch of np.dot
    Tdot, Gdot, scale, add, div = T.dot, G.dot, np.multiply, np.add, np.divide
    diverged_at = None
    with np.errstate(all="ignore"):
        for t0, count, updates in rows.chunks(r_all, R0):
            m2 = rec_m[t0:t0 + count]
            for i in range(count):
                (Kdot, xr, u, th2, Wdot, FT, XET, Hdot, Hm, eps, STdot, W, dW,
                 z, Wn, th2n, th2en, zn) = steps[i]
                Kdot(xr, u)
                div(u, th2, u)
                Wdot(FT, XET)
                m = 1.0 + float(Hdot(Hm))
                m2[i] = m
                if i == updates:
                    break
                scale(eps, -1.0 / m, epsb)
                STdot(epsb, ab)
                Gdot(ab, dW)
                add(W, dW, Wn)
                if projection is not None and any(
                        map(lt, map(mul, signs_l, th2n.tolist()), lower_l)):
                    # land exactly as the gradient-then-correction form
                    cand = th2n.copy()
                    f2 = np.where(signs * cand < lower, signs * lower - cand,
                                  0.0)
                    th2n += f2
                    th2en += f2
                    rec_f2[t0 + i] = f2
                Tdot(z, zn)
            done = buf[:count]
            sl = slice(t0, t0 + count)
            rec_x[sl] = done[:, (1 + cx) * n:(2 + cx) * n]
            rec_xm[sl] = done[:, :n]
            rec_xh[sl] = done[:, (1 + cxh) * n:(2 + cxh) * n]
            rec_u[sl] = done[:, U0:W0]
            rec_eps[sl] = done[:, XE + n * M:X2]
            rec_th[sl] = done[:, th_at]
            if projection is not None:
                rec_g2[sl] = done[:, g2_at]
                if updates < count:
                    rec_g2[t0 + updates] = 0.0
            bad = first_nonfinite(m2, rec_x[sl], rec_u[sl])
            # a step checks theta2 before its divergence probe
            reached = count if bad is None else bad + 1
            theta2 = rec_th[t0:t0 + reached][:, np.arange(n, C), np.arange(M)]
            low = np.flatnonzero(
                np.any(np.abs(theta2) < floor - 1e-15, axis=1))
            if low.size:
                raise SingularGainError(
                    f"theta2 diagonal {theta2[low[0]]} below the "
                    f"invertibility threshold at step {t0 + low[0]}"
                )
            if bad is not None:
                diverged_at = t0 + bad
                break
        np.sqrt(rec_m, out=rec_m)
        rec_e = rec_x - rec_xm
    return (diverged_at, rec_x, rec_xm, rec_e, rec_u, rec_eps, rec_m, rec_th,
            rec_xh, rec_g2, rec_f2, np.any(rec_f2 != 0.0, axis=1))


def _run_indirect_ct(plant, ref, signal, gains, projection, init, horizon,
                     h, method):
    n, M = plant.n, plant.n_inputs
    C = n + M
    x0, xm0, theta0, _, xhat0 = init.resolved(n, C, M)
    P0 = theta0.T.copy()
    if M > 1:
        P0[:, n:] *= np.eye(M)
    proj_on = projection is not None and projection.enabled
    if proj_on:
        check_projection_start(P0.T, projection)
    # integration stages may sit a hair inside the projected region, so the
    # stage guard only protects the division, not the boundary itself
    floor = (0.5 * projection.theta2_lower if proj_on
             else (projection.theta2_lower if projection is not None
                   else np.full(M, 1e-12)))
    field, z, store, records = _indirect_ct_field(
        plant.A, plant.B, ref.A_m, ref.B_m, gains,
        projection if proj_on else None, floor, P0, x0, xm0, xhat0, horizon)
    after_step = None
    if proj_on:
        def after_step(z):
            _clamp_theta2(z[-M * C:].reshape(M, C)[:, n:], projection)
    diverged_at = _ctloop.run(field, z, signal, horizon, h, method,
                              integrate_ct, store, after_step)
    return _finish_indirect_trace(plant, ref, gains, horizon, h, CONTINUOUS,
                                  diverged_at, *records)


def _indirect_ct_field(A, B, Am, Bm, gains, projection, floor, P, x0, xm0,
                       xhat0, horizon):
    """The continuous indirect law as one field (see ``_ctloop``).

    z holds the linear states as the columns of an n-row matrix F, in
    column-major order [S_(j,c), q_1..q_M, x_m, xhat, x], then P (row j is
    theta_j). The work row holds eps and Xi_1..Xi_M as n-vectors, then a
    copy of F, r and u, so that [x, r] and [Xi, S] are contiguous, then m^2
    and the raw theta2 rates g2. Row 0 of W^T reads eps = xhat - x +
    sum_j Xi_j off F, row 1 + j reads Xi_j. The control u = Theta2^{-1}
    (Theta1^T x + r) makes the estimator input v = Theta2 u - Theta1^T x
    equal r up to rounding, so q and xhat are driven by r. ``projection``
    is None when it is off. Returns the field, the initial z, the chunk
    store and the record arrays ``_finish_indirect_trace`` takes after the
    divergence step.
    """
    n, M = B.shape
    C = n + M
    MC = M * C
    K = MC + M + 3  # F columns
    cxm, cxh, cx = MC + M, MC + M + 1, MC + M + 2
    nK = n * K
    N = nK + MC
    F0 = n * (M + 1)
    R0 = F0 + nK
    U0 = R0 + M
    width = U0 + 2 * M + 1

    # one constant map advances every linear state, given r and u
    L = np.zeros((nK, nK + 2 * M))
    for j in range(M):
        for c in range(C):
            k = j * C + c
            block(L, n, k, k, Am)
            if c < n:
                L[k * n:(k + 1) * n, cx * n + c] = -Bm[:, j]
            else:
                L[k * n:(k + 1) * n, nK + M + c - n] = Bm[:, j]
        block(L, n, MC + j, MC + j, Am)
        L[(MC + j) * n:(MC + j + 1) * n, nK + j] = Bm[:, j]
    for c in (cxm, cxh):
        block(L, n, c, c, Am)
        L[c * n:(c + 1) * n, nK:nK + M] = Bm
    block(L, n, cx, cx, A)
    L[cx * n:, nK + M:] = B

    # S^T eps -> dP, with the diagonal-Theta2 mask folded in
    G = np.zeros((MC, MC))
    for j in range(M):
        for c in range(C):
            if not (M > 1 and c >= n and c - n != j):
                G[j * C + c, j * C:(j + 1) * C] = gains.Gamma[j][c]

    # W^T is shared scratch; its theta_j blocks are a strided (M, C) view,
    # and the eps row reads all of P at once
    WTbuf = np.zeros((M + 1) * K + MC)
    WT = WTbuf[:(M + 1) * K].reshape(M + 1, K)
    WTP = WTbuf[K:K + M * (K + C)].reshape(M, K + C)[:, :C]
    WT0P = WT[0, :MC].reshape(M, C)
    for j in range(M):
        WT[1 + j, MC + j] = -1.0
    WT[0, MC:MC + M] = -1.0
    WT[0, cxh], WT[0, cx] = 1.0, -1.0
    # [Theta1 | I], so that one product with [x, r] gives Theta2 u
    Kx = np.zeros((M, C))
    Kx[:, n:] = np.eye(M)
    Kx1 = Kx[:, :n]
    epsb = np.empty(n)
    ab = np.empty(MC)
    floor_l = (floor - 1e-15).tolist()
    if projection is not None:
        signs_l = projection.signs.tolist()
        edge_l = (projection.theta2_lower + 1e-12).tolist()
    th2_of_P = slice(n, MC, C + 1)  # theta2 in P, flattened

    def views(row):
        # the multi-input normalizer includes the xi energy
        H = row[n:F0 + n * MC] if M > 1 else row[F0:F0 + n * MC]
        return (row[F0:R0], row[R0:U0], row[U0:U0 + M],
                row[F0 + n * (K - 1):U0], row[F0:U0 + M],
                row[:F0].reshape(M + 1, n), row[F0:R0].reshape(K, n), H.dot,
                H, row[F0:F0 + n * MC].reshape(MC, n).dot, row[:n],
                row[U0 + M:U0 + M + 1], row[U0 + M + 1:],
                row[F0 + n * cx:R0])

    # bound .dot methods skip the __array_function__ dispatch of np.dot
    Ldot, Gdot, WTdot, Kxdot = L.dot, G.dot, WT.dot, Kx.dot
    scale, div, empty = np.multiply, np.divide, np.empty

    def f(y, r, v):
        Fw, rw, u, xr, lin, XE, FT, Hdot, H, STdot, eps, m2w, g2w, _ = v
        Py = y[nK:]
        P = Py.reshape(M, C)
        theta2 = Py[th2_of_P]
        th2 = theta2.tolist()
        for t, lo in zip(th2, floor_l):
            if abs(t) < lo:
                raise SingularGainError(
                    f"theta2 diagonal {theta2} below the invertibility "
                    "threshold")
        Fw[...] = y[:nK]
        rw[...] = r
        Kx1[...] = P[:, :n]
        Kxdot(xr, u)
        div(u, theta2, u)
        WTP[...] = P
        WT0P[...] = P
        WTdot(FT, XE)
        m2 = 1.0 + float(Hdot(H))
        m2w[0] = m2
        scale(eps, -1.0 / m2, epsb)
        STdot(epsb, ab)
        dz = empty(N)
        dP = dz[nK:]
        Gdot(ab, dP)
        if projection is not None:
            g2 = dP[th2_of_P]
            g2w[...] = g2
            if any(s * t <= e and s * g < 0.0 for s, t, e, g
                   in zip(signs_l, th2, edge_l, g2.tolist())):
                g2 += _ct_projection_rate(theta2, g2w, projection)
        Ldot(lin, dz[:nK])
        return dz

    def probe(v):
        u, m2w, x = v[2], v[11], v[13]
        return math.isfinite(float(m2w[0]) + float(x.dot(x))
                             + float(u.dot(u)))

    z = np.zeros(N)
    z[cxm * n:(cxm + 1) * n] = xm0
    z[cxh * n:(cxh + 1) * n] = xhat0
    z[cx * n:nK] = x0
    z[nK:] = P.ravel()

    T1 = horizon + 1
    rec_x = np.empty((T1, n)); rec_xm = np.empty((T1, n)); rec_e = np.empty((T1, n))
    rec_u = np.empty((T1, M)); rec_eps = np.empty((T1, n)); rec_m = np.empty(T1)
    rec_th = np.empty((T1, C, M)); rec_xh = np.empty((T1, n))
    rec_g2 = np.zeros((T1, M)); rec_f2 = np.zeros((T1, M))
    rec_fired = np.zeros(T1, dtype=bool)
    th_at = width + nK + np.array([[j * C + c for j in range(M)]
                                   for c in range(C)])
    th2_at = width + nK + np.arange(n, MC, C + 1)

    def store(rows, t0):
        sl = slice(t0, t0 + rows.shape[0])
        rec_x[sl] = rows[:, F0 + cx * n:R0]
        rec_xm[sl] = rows[:, F0 + cxm * n:F0 + cxh * n]
        rec_xh[sl] = rows[:, F0 + cxh * n:F0 + cx * n]
        np.subtract(rec_x[sl], rec_xm[sl], out=rec_e[sl])
        rec_u[sl] = rows[:, U0:U0 + M]
        rec_eps[sl] = rows[:, :n]
        np.sqrt(rows[:, U0 + M], out=rec_m[sl])
        rec_th[sl] = rows[:, th_at]
        if projection is not None:
            rec_g2[sl] = rows[:, U0 + M + 1:width]
            rec_f2[sl] = _ct_projection_rate(rows[:, th2_at], rec_g2[sl],
                                             projection)
            np.any(rec_f2[sl] != 0.0, axis=1, out=rec_fired[sl])

    return Field(f, views, width, probe), z, store, (
        rec_x, rec_xm, rec_e, rec_u, rec_eps, rec_m, rec_th, rec_xh, rec_g2,
        rec_f2, rec_fired)


def _maybe_indirect_V(plant, ref, gains, rec_theta, rec_eps, rec_m):
    try:
        match = solve_matching(plant, ref)
    except ModelError:
        return None, None
    if not match.matchable():
        return None, None
    K2d = np.diag(match.K2)
    if np.max(np.abs(match.K2 - np.diag(K2d))) > 1e-9 or np.any(np.abs(K2d) < 1e-12):
        return None, None
    theta_star = theta_star_indirect(match.K1, match.K2)
    series = indirect_V_series(rec_theta, theta_star, gains.Gamma, rec_eps, rec_m)
    return series.V, series.dV


def _finish_indirect_trace(plant, ref, gains, horizon, dt, domain, diverged_at,
                           rec_x, rec_xm, rec_e, rec_u, rec_eps, rec_m,
                           rec_th, rec_xh, rec_g2, rec_f2, rec_fired):
    steps = (horizon + 1) if diverged_at is None else diverged_at
    sl = slice(0, steps)
    V = dV = None
    if steps > 0:
        V, dV = _maybe_indirect_V(plant, ref, gains, rec_th[sl], rec_eps[sl],
                                  rec_m[sl])
    # the records belong to this run alone, so the trace keeps views of
    # them rather than a second copy
    trace = SimulationTrace(
        scheme="indirect_gradient", time_domain=domain, horizon=horizon, dt=dt,
        t=np.arange(steps, dtype=float) * dt,
        x=rec_x[sl], x_m=rec_xm[sl], e=rec_e[sl],
        u=rec_u[sl], eps=rec_eps[sl], m=rec_m[sl],
        theta=rec_th[sl], x_hat=rec_xh[sl],
        V=V, dV=dV,
        proj_fired=rec_fired[sl], proj_g2=rec_g2[sl],
        proj_f2=rec_f2[sl],
        diverged=diverged_at is not None, diverged_at=diverged_at,
    )
    trace.summary = trace.summarize()
    return trace

"""Classical continuous-time Lyapunov-based adaptive schemes.

These are the comparison baseline for the gradient designs. Both flavours
need P = P^T > 0 solving P A_m + A_m^T P = -Q; the direct laws push the
controller gains along -e^T P B_m directions, the indirect laws drive a
plant-parametrization estimate from the estimator error e_x instead.
Simulation integrates the whole closed loop (states plus parameters) with
one fixed-step scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .diagnostics import SimulationTrace
from .direct import InitialConditions, stack_controller_gains
from .errors import GainError, ModelError, NumericsError
from .indirect import (ProjectionConfig, _clamp_theta2, _ct_projection_rate,
                       check_projection_start, stack_plant_estimate,
                       theta_star_indirect)
from .systems import (CONTINUOUS, PlantModel, ReferenceModel, ReferenceSignal,
                      integrate_ct, is_hurwitz, solve_matching)


@dataclass(frozen=True)
class LyapunovCertificate:
    """P = P^T > 0 together with the Q it was solved for and the defect norm."""

    P: np.ndarray
    Q: np.ndarray
    residual: float


def solve_lyapunov_ct(A_m, Q) -> LyapunovCertificate:
    """Solve P A_m + A_m^T P = -Q by Kronecker vectorization.

    Desk-scale systems make the dense (n^2 x n^2) solve perfectly adequate.
    A_m must be Hurwitz and Q symmetric positive definite.
    """
    A = np.asarray(A_m, dtype=float)
    Qm = np.asarray(Q, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ModelError(f"A_m must be square, got {A.shape}")
    n = A.shape[0]
    if Qm.shape != (n, n):
        raise ModelError(f"Q must be {n} x {n}, got {Qm.shape}")
    if not np.allclose(Qm, Qm.T, atol=1e-10, rtol=0.0):
        raise ModelError("Q must be symmetric")
    if np.min(np.linalg.eigvalsh(Qm)) <= 0.0:
        raise ModelError("Q must be positive definite")
    if not is_hurwitz(A):
        raise ModelError("A_m is not Hurwitz; the Lyapunov equation has no P > 0")
    eye = np.eye(n)
    coeff = np.kron(A.T, eye) + np.kron(eye, A.T)
    vecP = np.linalg.solve(coeff, -Qm.reshape(-1))
    P = vecP.reshape(n, n)
    P = 0.5 * (P + P.T)
    residual = float(np.linalg.norm(P @ A + A.T @ P + Qm))
    if residual > 1e-9:
        raise ModelError(f"Lyapunov solve residual {residual:.3g} above 1e-9")
    if np.min(np.linalg.eigvalsh(P)) <= 0.0:
        raise ModelError("computed P is not positive definite")
    return LyapunovCertificate(P=P, Q=Qm.copy(), residual=residual)


def sp_from_signs(signs, gammas=None) -> np.ndarray:
    """Diagonal S_p = diag(sign_i * gamma_i) for a diagonal K2* prior."""
    s = np.atleast_1d(np.asarray(signs, dtype=float))
    if not np.all(np.abs(s) == 1.0):
        raise GainError("signs must be +1 or -1")
    g = np.ones_like(s) if gammas is None else np.atleast_1d(np.asarray(gammas, float))
    if g.shape != s.shape or np.any(g <= 0.0):
        raise GainError("gammas must be positive and match the sign count")
    return np.diag(s * g)


@dataclass(frozen=True)
class LyapunovDirectGains:
    """Single-input: (Gamma, gamma, sign_k2). Multi-input: S_p."""

    Gamma: Optional[np.ndarray] = None
    gamma: Optional[float] = None
    sign_k2: Optional[float] = None
    S_p: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.S_p is not None:
            object.__setattr__(self, "S_p", np.atleast_2d(np.asarray(self.S_p, float)))
            return
        if self.Gamma is None or self.gamma is None or self.sign_k2 is None:
            raise GainError("need either S_p or the (Gamma, gamma, sign_k2) triple")
        G = np.atleast_2d(np.asarray(self.Gamma, dtype=float))
        if not np.allclose(G, G.T, atol=1e-10, rtol=0.0):
            raise GainError("Gamma must be symmetric")
        if np.min(np.linalg.eigvalsh(G)) <= 0.0:
            raise GainError("Gamma must be positive definite")
        if self.gamma <= 0.0:
            raise GainError("gamma must be positive")
        if abs(self.sign_k2) != 1.0:
            raise GainError("sign_k2 must be +1 or -1")
        object.__setattr__(self, "Gamma", G)


@dataclass(frozen=True)
class LyapunovIndirectGains:
    """Gamma1 drives the Theta1 law, Gamma2 (diagonal) the Theta2 law.

    theta1_law selects between the two stated Theta1 updates: "standard"
    (Gamma1 acts on the state side, n x n) and "transposed" (Gamma1 acts on
    the input side, M x M).
    """

    Gamma1: np.ndarray
    Gamma2: np.ndarray
    theta1_law: str = "standard"

    def __post_init__(self):
        G1 = np.atleast_2d(np.asarray(self.Gamma1, dtype=float))
        G2 = np.atleast_2d(np.asarray(self.Gamma2, dtype=float))
        if self.theta1_law not in ("standard", "transposed"):
            raise GainError(f"unknown theta1 law {self.theta1_law!r}")
        if not np.allclose(G1, G1.T, atol=1e-10, rtol=0.0):
            raise GainError("Gamma1 must be symmetric")
        if np.min(np.linalg.eigvalsh(G1)) <= 0.0:
            raise GainError("Gamma1 must be positive definite")
        if np.any(G2 * (1.0 - np.eye(G2.shape[0])) != 0.0):
            raise GainError("Gamma2 must be diagonal")
        if np.any(np.diag(G2) <= 0.0):
            raise GainError("Gamma2 diagonal must be positive")
        object.__setattr__(self, "Gamma1", G1)
        object.__setattr__(self, "Gamma2", G2)


def lyapunov_direct_derivatives(K1, K2, e, x, r, P, B_m,
                                gains: LyapunovDirectGains):
    """Raw derivative fields of the direct laws (before integration)."""
    e = np.asarray(e, float).reshape(-1)
    x = np.asarray(x, float).reshape(-1)
    r = np.atleast_1d(np.asarray(r, float)).reshape(-1)
    B_m = np.asarray(B_m, float)
    if B_m.ndim == 1:
        B_m = B_m.reshape(-1, 1)
    if gains.S_p is not None:
        w = gains.S_p.T @ (B_m.T @ (P @ e))  # (M,)
        dK1 = -np.outer(x, w)
        dK2 = -np.outer(w, r)
        return dK1, dK2
    s = float(e @ (P @ B_m[:, 0]))
    dK1 = -gains.sign_k2 * (gains.Gamma @ x) * s
    dK2 = -gains.sign_k2 * gains.gamma * r * s
    return dK1.reshape(-1, 1), np.atleast_2d(dK2)


def update_lyapunov_direct_ct(K1, K2, e, x, r, P, B_m,
                              gains: LyapunovDirectGains, h: float):
    """One step with the driving signals held over the interval (the
    derivative is then constant, so the step is exact)."""
    dK1, dK2 = lyapunov_direct_derivatives(K1, K2, e, x, r, P, B_m, gains)
    K1n = np.asarray(K1, float).reshape(dK1.shape) + h * dK1
    K2n = np.atleast_2d(np.asarray(K2, float)) + h * dK2
    if not (np.all(np.isfinite(K1n)) and np.all(np.isfinite(K2n))):
        raise NumericsError("non-finite gain update")
    return K1n, K2n


def lyapunov_indirect_derivatives(Theta1, Theta2, e_x, x, u, P, B_m,
                                  gains: LyapunovIndirectGains,
                                  projection: ProjectionConfig | None = None):
    """Raw derivative fields of the indirect laws, projection included."""
    e_x = np.asarray(e_x, float).reshape(-1)
    x = np.asarray(x, float).reshape(-1)
    u = np.atleast_1d(np.asarray(u, float)).reshape(-1)
    B_m = np.asarray(B_m, float)
    if B_m.ndim == 1:
        B_m = B_m.reshape(-1, 1)
    T1 = np.asarray(Theta1, float)
    if T1.ndim == 1:
        T1 = T1.reshape(-1, 1)
    T2 = np.atleast_2d(np.asarray(Theta2, float))
    M = T2.shape[0]
    w = B_m.T @ (P @ e_x)  # (M,)
    if gains.theta1_law == "standard":
        dT1 = np.outer(gains.Gamma1 @ x, w)
    else:
        dT1 = np.outer(x, gains.Gamma1 @ w)
    G2d = np.diag(gains.Gamma2)
    dT2 = -np.outer(G2d * w, u)
    if M > 1:
        dT2 = dT2 * np.eye(M)  # non-diagonal entries are pinned at zero
    if projection is not None and projection.enabled:
        theta2 = np.diag(T2).copy()
        g2 = np.diag(dT2).copy()
        f2 = _ct_projection_rate(theta2, g2, projection)
        dT2 = dT2 + np.diag(f2)
    return dT1, dT2


def update_lyapunov_indirect_ct(Theta1, Theta2, e_x, x, u, P, B_m,
                                gains: LyapunovIndirectGains,
                                projection: ProjectionConfig | None,
                                h: float):
    """One frozen-signal step of the indirect laws."""
    dT1, dT2 = lyapunov_indirect_derivatives(Theta1, Theta2, e_x, x, u, P,
                                             B_m, gains, projection)
    T1n = np.asarray(Theta1, float).reshape(dT1.shape) + h * dT1
    T2n = np.atleast_2d(np.asarray(Theta2, float)) + h * dT2
    if projection is not None and projection.enabled:
        _clamp_theta2(T2n, projection)
    if not (np.all(np.isfinite(T1n)) and np.all(np.isfinite(T2n))):
        raise NumericsError("non-finite estimate update")
    return T1n, T2n


@dataclass
class LyapunovLoop:
    """Packed closed-loop system for one Lyapunov scheme: the joint rhs,
    state packing helpers, the certificate, and a V evaluator (None when the
    scenario is not matchable)."""

    mode: str
    n: int
    M: int
    ct: LyapunovCertificate
    rhs: Callable
    pack: Callable
    unpack: Callable
    V: Optional[Callable]


def build_lyapunov_loop(plant: PlantModel, ref: ReferenceModel,
                        signal: ReferenceSignal, mode: str, gains,
                        projection: ProjectionConfig | None = None,
                        Q=None) -> LyapunovLoop:
    """Assemble the joint closed-loop right-hand side for simulation or for
    single-step probing (h-refinement checks use it directly)."""
    if plant.time_domain != CONTINUOUS or ref.time_domain != CONTINUOUS:
        raise ModelError("Lyapunov schemes are continuous-time only")
    if mode not in ("direct", "indirect"):
        raise ModelError(f"unknown Lyapunov mode {mode!r}")
    n, M = plant.n, plant.n_inputs
    Qm = np.eye(n) if Q is None else np.asarray(Q, float)
    cert = solve_lyapunov_ct(ref.A_m, Qm)
    P = cert.P
    A, B, Am, Bm = plant.A, plant.B, ref.A_m, ref.B_m

    try:
        match = solve_matching(plant, ref)
        matchable = match.matchable()
    except ModelError:
        match, matchable = None, False

    if mode == "direct":
        if gains.S_p is None and M > 1:
            raise GainError("multi-input direct scheme needs S_p")
        Ms = Msinv = None
        if gains.S_p is not None and matchable:
            Ms = match.K2 @ gains.S_p
            if not np.allclose(Ms, Ms.T, atol=1e-9, rtol=0.0) or \
                    np.min(np.linalg.eigvalsh(0.5 * (Ms + Ms.T))) <= 0.0:
                raise GainError("K2* S_p is not symmetric positive definite")
            Msinv = np.linalg.inv(Ms)

        sl_x = slice(0, n)
        sl_xm = slice(n, 2 * n)
        sl_K1 = slice(2 * n, 2 * n + n * M)
        sl_K2 = slice(sl_K1.stop, sl_K1.stop + M * M)

        def unpack(z):
            return (z[sl_x], z[sl_xm], z[sl_K1].reshape(n, M),
                    z[sl_K2].reshape(M, M))

        def pack(x, xm, K1, K2):
            return np.concatenate([np.asarray(x, float).reshape(n),
                                   np.asarray(xm, float).reshape(n),
                                   np.asarray(K1, float).reshape(n * M),
                                   np.atleast_2d(np.asarray(K2, float)).reshape(M * M)])

        def rhs(tau, z):
            x, xm, K1, K2 = unpack(z)
            r = signal.at(tau)
            u = K1.T @ x + K2 @ r
            e = x - xm
            dK1, dK2 = lyapunov_direct_derivatives(K1, K2, e, x, r, P, Bm, gains)
            dx = A @ x + B @ u
            dxm = Am @ xm + Bm @ r
            return np.concatenate([dx, dxm, dK1.ravel(), dK2.ravel()])

        V = None
        if matchable:
            def V(z):
                x, xm, K1, K2 = unpack(z)
                e = x - xm
                base = float(e @ (P @ e))
                dK1 = K1 - match.K1
                dK2 = K2 - match.K2
                if gains.S_p is not None:
                    return base + float(np.trace(dK1 @ Msinv @ dK1.T)) \
                        + float(np.trace(dK2.T @ Msinv @ dK2))
                k2s = abs(match.k2)
                t1 = float(dK1[:, 0] @ np.linalg.solve(gains.Gamma, dK1[:, 0]))
                return base + (t1 + float(dK2[0, 0]) ** 2 / gains.gamma) / k2s

        return LyapunovLoop(mode=mode, n=n, M=M, ct=cert, rhs=rhs,
                            pack=pack, unpack=unpack, V=V)

    # indirect
    proj_on = projection is not None and projection.enabled
    sl_x = slice(0, n)
    sl_xm = slice(n, 2 * n)
    sl_xh = slice(2 * n, 3 * n)
    sl_T1 = slice(3 * n, 3 * n + n * M)
    sl_T2 = slice(sl_T1.stop, sl_T1.stop + M * M)

    def unpack(z):
        return (z[sl_x], z[sl_xm], z[sl_xh], z[sl_T1].reshape(n, M),
                z[sl_T2].reshape(M, M))

    def pack(x, xm, T1, T2, xh):
        return np.concatenate([np.asarray(x, float).reshape(n),
                               np.asarray(xm, float).reshape(n),
                               np.asarray(xh, float).reshape(n),
                               np.asarray(T1, float).reshape(n * M),
                               np.atleast_2d(np.asarray(T2, float)).reshape(M * M)])

    def control(x, r, T1, T2):
        theta2 = np.diag(T2)
        return (T1.T @ x + r) / theta2

    def rhs(tau, z):
        x, xm, xh, T1, T2 = unpack(z)
        r = signal.at(tau)
        u = control(x, r, T1, T2)
        e_x = xh - x
        dT1, dT2 = lyapunov_indirect_derivatives(T1, T2, e_x, x, u, P, Bm,
                                                 gains, projection)
        dxh = Am @ xh + Bm @ (T2 @ u - T1.T @ x)
        dx = A @ x + B @ u
        dxm = Am @ xm + Bm @ r
        return np.concatenate([dx, dxm, dxh, dT1.ravel(), dT2.ravel()])

    V = None
    if matchable:
        theta_star = theta_star_indirect(match.K1, match.K2)
        T1s = theta_star[:n]
        T2s = theta_star[n:].T

        def V(z):
            x, _xm, xh, T1, T2 = unpack(z)
            e_x = xh - x
            base = float(e_x @ (P @ e_x))
            d1 = T1 - T1s
            d2 = T2 - T2s
            if gains.theta1_law == "standard":
                t1 = float(np.trace(d1.T @ np.linalg.solve(gains.Gamma1, d1)))
            else:
                t1 = float(np.trace(d1 @ np.linalg.solve(gains.Gamma1, d1.T)))
            t2 = float(np.trace(d2.T @ np.linalg.solve(gains.Gamma2, d2)))
            return base + t1 + t2

    return LyapunovLoop(mode="indirect", n=n, M=M, ct=cert, rhs=rhs,
                        pack=pack, unpack=unpack, V=V)


def run_lyapunov_scenario(plant: PlantModel, ref: ReferenceModel,
                          signal: ReferenceSignal, mode: str, gains,
                          projection: ProjectionConfig | None,
                          init: InitialConditions, horizon: int,
                          h: float = 0.01, method: str = "rk4",
                          Q=None) -> SimulationTrace:
    """Simulate a Lyapunov scheme over horizon steps of size h.

    The trace's theta column stacks the evolving gains ([K1; K2^T] for the
    direct scheme, [Theta1; Theta2^T] for the indirect one); the gradient
    scheme's eps and m columns are not defined here and come back NaN.
    """
    if signal.dimension != plant.n_inputs:
        raise ModelError("signal dimension disagrees with the input count")
    if horizon < 1:
        raise ModelError("horizon must be at least 1")
    loop = build_lyapunov_loop(plant, ref, signal, mode, gains, projection, Q)
    n, M = loop.n, loop.M
    C = n + M
    x0, xm0, theta0, _, xhat0 = init.resolved(n, C, M)
    T1blk = theta0[:n]
    T2blk = theta0[n:].T
    if mode == "indirect":
        if M > 1:
            T2blk = T2blk * np.eye(M)
        if projection is not None and projection.enabled:
            check_projection_start(stack_plant_estimate(T1blk, T2blk), projection)
        z = loop.pack(x0, xm0, T1blk, T2blk, xhat0)
    else:
        z = loop.pack(x0, xm0, T1blk, T2blk)

    T1 = horizon + 1
    rec_x = np.empty((T1, n)); rec_xm = np.empty((T1, n)); rec_e = np.empty((T1, n))
    rec_u = np.empty((T1, M)); rec_th = np.empty((T1, C, M))
    rec_xh = np.empty((T1, n)) if mode == "indirect" else None
    rec_V = np.full(T1, np.nan)
    diverged_at = None

    with np.errstate(all="ignore"):
        for k in range(T1):
            tau = k * h
            if mode == "direct":
                x, xm, K1, K2 = loop.unpack(z)
                r = signal.at(tau)
                u = K1.T @ x + K2 @ r
                theta_now = stack_controller_gains(K1, K2)
            else:
                x, xm, xh, Tb1, Tb2 = loop.unpack(z)
                r = signal.at(tau)
                u = (Tb1.T @ x + r) / np.diag(Tb2)
                theta_now = stack_plant_estimate(Tb1, Tb2)
                rec_xh[k] = xh
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
                diverged_at = k
                break
            rec_x[k] = x; rec_xm[k] = xm; rec_e[k] = x - xm; rec_u[k] = u
            rec_th[k] = theta_now
            if loop.V is not None:
                rec_V[k] = loop.V(z)
            if k == horizon:
                break
            try:
                z = integrate_ct(loop.rhs, z, h, t=tau, method=method)
            except NumericsError:
                diverged_at = k + 1
                break
            if mode == "indirect" and projection is not None and projection.enabled:
                _clamp_theta2(z[3 * n + n * M:].reshape(M, M), projection)

    steps = (horizon + 1) if diverged_at is None else diverged_at
    sl = slice(0, steps)
    V = rec_V[sl].copy() if loop.V is not None else None
    dV = None
    if V is not None:
        dV = np.full(steps, np.nan)
        if steps > 1:
            dV[:-1] = np.diff(V)
    trace = SimulationTrace(
        scheme=f"lyapunov_{mode}", time_domain=CONTINUOUS, horizon=horizon,
        dt=h, t=np.arange(steps, dtype=float) * h,
        x=rec_x[sl].copy(), x_m=rec_xm[sl].copy(), e=rec_e[sl].copy(),
        u=rec_u[sl].copy(),
        eps=np.full((steps, n), np.nan), m=np.full(steps, np.nan),
        theta=rec_th[sl].copy(),
        x_hat=rec_xh[sl].copy() if rec_xh is not None else None,
        V=V, dV=dV,
        proj_fired=np.zeros(steps, dtype=bool),
        diverged=diverged_at is not None, diverged_at=diverged_at,
    )
    trace.summary = trace.summarize()
    return trace

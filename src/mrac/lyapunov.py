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

from . import _ctloop
from ._ctloop import Field
from .diagnostics import SimulationTrace
from .direct import InitialConditions
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


# a barely Hurwitz A_m gives a P that overflows; its residual then reads
# inf or nan and the solve is rejected
@np.errstate(over="ignore", invalid="ignore")
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
    if not residual <= 1e-9:
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
    """Packed closed-loop system for one Lyapunov scheme: the fused field
    over the packed state and the joint rhs wrapping it, ``pack``,
    ``columns(rows)`` (the x, x_m, xhat, u and theta columns of finished
    chunk rows, xhat None for the direct scheme), the certificate, and V of
    one packed state and ``V_series(x, x_m, xhat, theta)`` along records
    (both None when the scenario is not matchable)."""

    mode: str
    n: int
    M: int
    ct: LyapunovCertificate
    field: Field
    rhs: Callable
    pack: Callable
    columns: Callable
    V: Optional[Callable]
    V_series: Optional[Callable]


def build_lyapunov_loop(plant: PlantModel, ref: ReferenceModel,
                        signal: ReferenceSignal, mode: str, gains,
                        projection: ProjectionConfig | None = None,
                        Q=None) -> LyapunovLoop:
    """Assemble the joint closed loop for simulation or for single-step
    probing (h-refinement checks use ``rhs`` directly).

    z holds the linear states [x_m, x] (direct) or [x_m, xhat, x]
    (indirect), then theta = [K1; K2^T] or [Theta1; Theta2^T] row by row.
    The work row holds a copy of the linear states, then r and u, so that
    [x, r] is contiguous; one constant matrix advances every linear state
    given r and u, and the estimate rates are outer products of two short
    vectors. In the indirect scheme u = Theta2^{-1} (Theta1^T x + r) makes
    the estimator input Theta2 u - Theta1^T x equal r up to rounding, so
    xhat is driven by r.
    """
    if plant.time_domain != CONTINUOUS or ref.time_domain != CONTINUOUS:
        raise ModelError("Lyapunov schemes are continuous-time only")
    if mode not in ("direct", "indirect"):
        raise ModelError(f"unknown Lyapunov mode {mode!r}")
    n, M = plant.n, plant.n_inputs
    C = n + M
    Qm = np.eye(n) if Q is None else np.asarray(Q, float)
    cert = solve_lyapunov_ct(ref.A_m, Qm)
    P = cert.P
    A, B, Am, Bm = plant.A, plant.B, ref.A_m, ref.B_m

    try:
        match = solve_matching(plant, ref)
        matchable = match.matchable()
    except ModelError:
        match, matchable = None, False

    nF = 2 * n if mode == "direct" else 3 * n  # linear states
    N = nF + C * M
    X0 = nF - n  # x is the last linear state
    R0, U0 = nF, nF + M
    # one constant map advances every linear state, given r and u
    L = np.zeros((nF, nF + 2 * M))
    for c in range(0, X0, n):  # x_m, and xhat driven by r
        L[c:c + n, c:c + n] = Am
        L[c:c + n, R0:U0] = Bm
    L[X0:, X0:nF] = A
    L[X0:, U0:] = B
    th_at = np.arange(C * M).reshape(C, M)
    Ldot = L.dot
    scale, add, div, isfinite, empty, zeros = (np.multiply, np.add,
                                               np.divide, np.isfinite,
                                               np.empty, np.zeros)

    def probe(v):
        x, u = v[-1], v[2]
        return bool(isfinite(x).all()) and bool(isfinite(u).all())

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

        # d theta = outer(Gd omega, -w): w = S_p^T B_m^T P e, Gd = I
        # (multi-input), or w = sign(k2) e^T P b_m, Gd = diag(Gamma, gamma)
        Gd = np.eye(C)
        if gains.S_p is not None:
            Wp = gains.S_p.T @ Bm.T @ P
        else:
            Wp = gains.sign_k2 * (P @ Bm[:, 0])[None, :]
            Gd[:n, :n] = gains.Gamma
            Gd[n, n] = gains.gamma
        Wn = np.hstack([Wp, -Wp])  # on [x_m, x]
        Gddot, Wndot = Gd.dot, Wn.dot
        width = U0 + M + C + M

        def views(row):
            gv, wv = row[U0 + M:U0 + M + C], row[U0 + M + C:]
            return (row[:nF], row[R0:U0], row[U0:U0 + M], row[X0:U0],
                    row[:U0 + M], gv, gv[:, None], wv, wv[None, :],
                    row[X0:nF])

        def f(y, r, v):
            Fw, rw, u, om, lin, gv, gcol, wv, wrow, _ = v
            Fw[...] = y[:nF]
            rw[...] = r
            om.dot(y[nF:].reshape(C, M), u)
            Gddot(om, gv)
            Wndot(Fw, wv)
            dz = empty(N)
            Ldot(lin, dz[:nF])
            scale(gcol, wrow, dz[nF:].reshape(C, M))
            return dz

        def pack(x, xm, K1, K2):
            return np.concatenate([np.asarray(xm, float).reshape(n),
                                   np.asarray(x, float).reshape(n),
                                   np.asarray(K1, float).reshape(n * M),
                                   np.atleast_2d(np.asarray(K2, float)).T.reshape(M * M)])

        def columns(rows):
            return (rows[:, X0:nF], rows[:, :n], None,
                    rows[:, U0:U0 + M], rows[:, width + nF + th_at])

        V_series = None
        if matchable:
            K1s, K2sT = match.K1, match.K2.T
            if gains.S_p is None:
                Ginv = np.linalg.inv(gains.Gamma)
                k2s = abs(match.k2)

            def V_series(x, xm, xh, theta):
                e = x - xm
                base = np.einsum("ti,ij,tj->t", e, P, e)
                d1 = theta[:, :n] - K1s
                d2 = theta[:, n:] - K2sT  # (K2 - K2*)^T
                if gains.S_p is not None:
                    return (base + np.einsum("tia,ab,tib->t", d1, Msinv, d1)
                            + np.einsum("tja,ab,tjb->t", d2, Msinv, d2))
                t1 = np.einsum("ti,ij,tj->t", d1[:, :, 0], Ginv, d1[:, :, 0])
                return base + (t1 + d2[:, 0, 0] ** 2 / gains.gamma) / k2s

    else:
        proj_on = projection is not None and projection.enabled
        G1 = gains.Gamma1
        G1dot = G1.dot
        standard = gains.theta1_law == "standard"
        negG2 = -np.diag(gains.Gamma2)
        Wp = Bm.T @ P
        Wc = np.hstack([np.zeros((M, n)), Wp, -Wp])  # on [x_m, xhat, x]
        Wcdot = Wc.dot
        if proj_on:
            signs_l = projection.signs.tolist()
            edge_l = (projection.theta2_lower + 1e-12).tolist()
        th2_of = slice(nF + n * M, N, M + 1)  # theta2 in z
        width = U0 + M + 3 * M + n

        def views(row):
            wv, g1, g = (row[U0 + M:U0 + 2 * M], row[U0 + 2 * M:U0 + 3 * M],
                         row[U0 + 3 * M:U0 + 4 * M])
            x = row[X0:nF]
            d1 = row[U0 + 4 * M:]
            return (row[:nF], row[R0:U0], row[U0:U0 + M], row[:U0 + M],
                    wv, wv[None, :], g1, g1[None, :], g, d1, d1[:, None],
                    x[:, None], x)

        def f(y, r, v):
            Fw, rw, u, lin, wv, wrow, g1, g1row, g, d1, d1col, xcol, x = v
            Fw[...] = y[:nF]
            rw[...] = r
            theta2 = y[th2_of]
            x.dot(y[nF:nF + n * M].reshape(n, M), u)
            add(u, rw, u)
            div(u, theta2, u)
            Wcdot(Fw, wv)
            dz = zeros(N)
            Ldot(lin, dz[:nF])
            dT1 = dz[nF:nF + n * M].reshape(n, M)
            if standard:
                G1dot(x, d1)
                scale(d1col, wrow, dT1)
            else:
                G1dot(wv, g1)
                scale(xcol, g1row, dT1)
            scale(negG2, wv, g)
            g2 = dz[th2_of]
            scale(g, u, g2)
            if proj_on and any(
                    s * t <= e and s * d < 0.0 for s, t, e, d
                    in zip(signs_l, theta2.tolist(), edge_l, g2.tolist())):
                g2 += _ct_projection_rate(theta2, g2.copy(), projection)
            return dz

        def pack(x, xm, T1, T2, xh):
            return np.concatenate([np.asarray(xm, float).reshape(n),
                                   np.asarray(xh, float).reshape(n),
                                   np.asarray(x, float).reshape(n),
                                   np.asarray(T1, float).reshape(n * M),
                                   np.atleast_2d(np.asarray(T2, float)).T.reshape(M * M)])

        def columns(rows):
            return (rows[:, X0:nF], rows[:, :n], rows[:, n:2 * n],
                    rows[:, U0:U0 + M], rows[:, width + nF + th_at])

        V_series = None
        if matchable:
            theta_star = theta_star_indirect(match.K1, match.K2)
            G1inv = np.linalg.inv(gains.Gamma1)
            G2inv = np.linalg.inv(gains.Gamma2)

            def V_series(x, xm, xh, theta):
                e = xh - x
                base = np.einsum("ti,ij,tj->t", e, P, e)
                d = theta - theta_star
                d1, d2 = d[:, :n], d[:, n:]  # d2 = (Theta2 - Theta2*)^T
                if standard:
                    t1 = np.einsum("tia,ij,tja->t", d1, G1inv, d1)
                else:
                    t1 = np.einsum("tia,ab,tib->t", d1, G1inv, d1)
                return (base + t1
                        + np.einsum("tai,ij,taj->t", d2, G2inv, d2))

    V = None
    if V_series is not None:
        def V(z):
            # xhat is z[n:2n] in the indirect layout; the direct V ignores it
            return float(V_series(z[None, X0:nF], z[None, :n],
                                  z[None, n:2 * n],
                                  z[nF:].reshape(1, C, M))[0])

    field = Field(f, views, width, probe)
    return LyapunovLoop(mode=mode, n=n, M=M, ct=cert, field=field,
                        rhs=field.rhs(signal), pack=pack, columns=columns, V=V, V_series=V_series)


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
    proj_on = projection is not None and projection.enabled
    if mode == "indirect":
        if M > 1:
            T2blk = T2blk * np.eye(M)
        if proj_on:
            check_projection_start(stack_plant_estimate(T1blk, T2blk), projection)
        z = loop.pack(x0, xm0, T1blk, T2blk, xhat0)
    else:
        z = loop.pack(x0, xm0, T1blk, T2blk)

    T1 = horizon + 1
    rec_x = np.empty((T1, n)); rec_xm = np.empty((T1, n)); rec_e = np.empty((T1, n))
    rec_u = np.empty((T1, M)); rec_th = np.empty((T1, C, M))
    rec_xh = np.empty((T1, n)) if mode == "indirect" else None

    def store(rows, t0):
        sl = slice(t0, t0 + rows.shape[0])
        x, xm, xh, u, theta = loop.columns(rows)
        rec_x[sl] = x; rec_xm[sl] = xm; rec_u[sl] = u; rec_th[sl] = theta
        np.subtract(x, xm, out=rec_e[sl])
        if xh is not None:
            rec_xh[sl] = xh

    after_step = None
    if mode == "indirect" and proj_on:
        def after_step(z):
            _clamp_theta2(z[-M * M:].reshape(M, M), projection)

    diverged_at = _ctloop.run(loop.field, z, signal, horizon, h, method,
                              integrate_ct, store, after_step)

    steps = (horizon + 1) if diverged_at is None else diverged_at
    sl = slice(0, steps)
    V = dV = None
    if loop.V_series is not None:
        # finite records can still square to inf; that is V's value
        with np.errstate(over="ignore", invalid="ignore"):
            V = loop.V_series(rec_x[sl], rec_xm[sl],
                              rec_xh[sl] if rec_xh is not None else None,
                              rec_th[sl])
            dV = np.full(steps, np.nan)
            if steps > 1:
                dV[:-1] = np.diff(V)
    # the records belong to this run alone, so the trace keeps views of
    # them rather than a second copy
    trace = SimulationTrace(
        scheme=f"lyapunov_{mode}", time_domain=CONTINUOUS, horizon=horizon,
        dt=h, t=np.arange(steps, dtype=float) * h,
        x=rec_x[sl], x_m=rec_xm[sl], e=rec_e[sl], u=rec_u[sl],
        eps=np.full((steps, n), np.nan), m=np.full(steps, np.nan),
        theta=rec_th[sl],
        x_hat=rec_xh[sl] if rec_xh is not None else None,
        V=V, dV=dV,
        proj_fired=np.zeros(steps, dtype=bool),
        diverged=diverged_at is not None, diverged_at=diverged_at,
    )
    trace.summary = trace.summarize()
    return trace

"""Classical continuous-time Lyapunov-based adaptive schemes.

These are the comparison baseline for the gradient designs. Both flavours
need P = P^T > 0 solving P A_m + A_m^T P = -Q; the direct laws push the
controller gains along -e^T P B_m directions, the indirect laws drive a
plant-parametrization estimate from the estimator error e_x instead.
Simulation integrates the whole closed loop (states plus parameters) with
one fixed-step scheme.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import _rows
from .diagnostics import SimulationTrace, TraceSpec, value_series
from .direct import (SOLVE, InitialConditions, _check_run_args, _drive,
                     _matching, _set_up, _spd_check)
from .errors import GainError, ModelError
from .indirect import (ProjectionConfig, _active, _ct_guards, _projected_ct,
                       theta_star_indirect)
# the benchmark's tracer wraps solve_matching here by name
from .systems import (CONTINUOUS, PlantModel, ReferenceModel,  # noqa: F401
                      ReferenceSignal, integrate_ct, is_hurwitz, solve_matching)


# P = P^T > 0 together with the Q it was solved for and the defect norm
LyapunovCertificate = namedtuple("LyapunovCertificate", "P Q residual")


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


class LyapunovDirectGains:
    """Single-input: (Gamma, gamma, sign_k2). Multi-input: S_p. The matrix
    given is kept as a 2-D array, every other value as given."""

    def __init__(self, Gamma=None, gamma=None, sign_k2=None, S_p=None):
        self.Gamma, self.gamma, self.sign_k2, self.S_p = Gamma, gamma, sign_k2, S_p
        if S_p is not None:
            self.S_p = np.atleast_2d(np.asarray(S_p, float))
            return
        if Gamma is None or gamma is None or sign_k2 is None:
            raise GainError("need either S_p or the (Gamma, gamma, sign_k2) triple")
        self.Gamma = np.atleast_2d(np.asarray(Gamma, dtype=float))
        _spd_check(self.Gamma, "Gamma")
        if not 0.0 < gamma < np.inf:
            raise GainError("gamma must be positive and finite")
        if abs(sign_k2) != 1.0:
            raise GainError("sign_k2 must be +1 or -1")

    def shapes(self, n: int, M: int) -> dict:
        """The shape each gain must have on an n-state, M-input plant."""
        return {"Gamma": (n, n)} if self.S_p is None else {"S_p": (M, M)}


class LyapunovIndirectGains:
    """Gamma1 drives the Theta1 law, Gamma2 (diagonal) the Theta2 law, both
    kept as 2-D arrays.

    theta1_law selects between the two stated Theta1 updates: "standard"
    (Gamma1 acts on the state side, n x n) and "transposed" (Gamma1 acts on
    the input side, M x M).
    """

    def __init__(self, Gamma1, Gamma2, theta1_law: str = "standard"):
        self.Gamma1 = np.atleast_2d(np.asarray(Gamma1, dtype=float))
        self.Gamma2 = G2 = np.atleast_2d(np.asarray(Gamma2, dtype=float))
        self.theta1_law = theta1_law
        if theta1_law not in ("standard", "transposed"):
            raise GainError(f"unknown theta1 law {theta1_law!r}")
        _spd_check(self.Gamma1, "Gamma1")
        if np.any(G2 * (1.0 - np.eye(G2.shape[0]))):
            raise GainError("Gamma2 must be diagonal")
        if np.any(np.diag(G2) <= 0.0):
            raise GainError("Gamma2 diagonal must be positive")

    def shapes(self, n: int, M: int) -> dict:
        """The shape each gain must have on an n-state, M-input plant."""
        side = M if self.theta1_law == "transposed" else n
        return {"Gamma1": (side, side), "Gamma2": (M, M)}


# one Lyapunov scheme's closed loop: the certificate ``ct``, the scheme on a
# work row (``law``, a ``_rows.Layout`` with ``step``, ``views`` and record
# columns ``cols`` by trace field), the joint rhs, ``pack``, and V of a packed
# state and ``V_series(x, x_m, xhat, theta)`` of records (None unmatchable)
LyapunovLoop = namedtuple("LyapunovLoop", "ct law rhs pack V V_series")


def build_lyapunov_loop(plant: PlantModel, ref: ReferenceModel,
                        signal: ReferenceSignal, mode: str, gains,
                        projection: ProjectionConfig | None = None,
                        cert: LyapunovCertificate | None = None,
                        match=SOLVE) -> LyapunovLoop:
    """Assemble the joint closed loop for simulation or for single-step
    probing (h-refinement checks use ``rhs`` directly). ``cert`` is the
    certificate of A_m, solved here with Q = I when not given; ``match``
    is the scenario's matching solution, as for the gradient runners.

    ``pack(x, xm, T1, T2, xh=None)`` gives z: the linear states [x_m, x]
    (direct) or [x_m, xhat, x] (indirect), then theta = [T1; T2^T] row by
    row, of K1, K2 or of Theta1 and a diagonal Theta2 (multi-input).
    The work row (see ``_rows``) holds the linear states, then r and u, so
    that [x, r] is contiguous, then the scheme's scratch and theta; one
    constant matrix advances every linear state given r and u, and the
    estimate rates are outer products of two short vectors. In the indirect
    scheme u = Theta2^{-1} (Theta1^T x + r) makes the estimator input
    Theta2 u - Theta1^T x equal r up to rounding, so xhat is driven by r.
    """
    if plant.time_domain != CONTINUOUS or ref.time_domain != CONTINUOUS:
        raise ModelError("Lyapunov schemes are continuous-time only")
    if mode not in ("direct", "indirect"):
        raise ModelError(f"unknown Lyapunov mode {mode!r}")
    n, M = plant.n, plant.n_inputs
    C = n + M
    if cert is None:
        cert = solve_lyapunov_ct(ref.A_m, np.eye(n))
    P = cert.P
    A, B, Am, Bm = plant.A, plant.B, ref.A_m, ref.B_m
    match = _matching(plant, ref, match)
    matchable = match is not None and match.matchable()

    nF = 2 * n if mode == "direct" else 3 * n  # linear states
    X0 = nF - n  # x is the last linear state
    # one constant map advances every linear state, given r and u
    L = np.zeros((nF, nF + 2 * M))
    for c in range(0, X0, n):  # x_m, and xhat driven by r
        L[c:c + n, c:c + n] = Am
        L[c:c + n, nF:nF + M] = Bm
    L[X0:, X0:nF] = A
    L[X0:, nF + M:] = B
    Ldot = L.dot
    scale, add, div = np.multiply, np.add, np.divide

    if mode == "direct":
        if gains.S_p is None and M > 1:
            raise GainError("multi-input direct scheme needs S_p")
        if gains.S_p is not None and matchable:
            Ms = match.K2 @ gains.S_p
            if not np.allclose(Ms, Ms.T, atol=1e-9, rtol=0.0) or \
                    np.min(np.linalg.eigvalsh(0.5 * (Ms + Ms.T))) <= 0.0:
                raise GainError("K2* S_p is not symmetric positive definite")
            Msinv = np.linalg.inv(Ms)

        # d theta = outer(Gd omega, -w): w = S_p^T B_m^T P e, Gd = I
        # (multi-input), or w = sign(k2) e^T P b_m, Gd = diag(Gamma, gamma)
        Gd, keep, adjust = np.eye(C), 1.0, None
        if gains.S_p is not None:
            Wp = gains.S_p.T @ Bm.T @ P
        else:
            Wp = gains.sign_k2 * (P @ Bm[:, 0])[None, :]
            Gd[:n, :n] = gains.Gamma
            Gd[n, n] = gains.gamma
        Wn = np.hstack([Wp, -Wp])  # on [x_m, x]
        Gddot, Wndot = Gd.dot, Wn.dot
        # scratch: Gd omega, then w
        law = _rows.Layout(0, nF, M, C + M, C * M)
        U, W, dW = law.U, law.W, law.dW

        def views(row, dF):
            gv, wv = row[U.stop:U.stop + C], row[U.stop + C:W.start]
            return (row[U], row[X0:U.start], row[:U.stop], gv, gv[:, None],
                    wv, wv[None, :], row[:nF], row[W].reshape(C, M), dF,
                    row[dW].reshape(C, M))

        def step(v):
            u, om, lin, gv, gcol, wv, wrow, Fw, theta, dF, dtheta = v
            om.dot(theta, u)
            Gddot(om, gv)
            Wndot(Fw, wv)
            Ldot(lin, dF)
            scale(gcol, wrow, dtheta)

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
        G1 = gains.Gamma1
        G1dot = G1.dot
        standard = gains.theta1_law == "standard"
        negG2 = -np.diag(gains.Gamma2)
        keep = np.eye(M)
        Wp = Bm.T @ P
        Wc = np.hstack([np.zeros((M, n)), Wp, -Wp])  # on [x_m, xhat, x]
        Wcdot = Wc.dot
        # scratch: w, Gamma1 w, -diag(Gamma2) w and Gamma1 x; the rate of
        # theta2's off-diagonal entries is never written and stays zero
        law = _rows.Layout(0, nF, M, 3 * M + n, C * M)
        R, U, W, dW = law.R, law.U, law.W, law.dW
        nM = n * M
        # the Theta2 diagonal, which closes W (and dW)
        law.th2 = th2 = slice(nM, None, M + 1)
        law.theta2_at = np.arange(C * M)[th2]
        adjust = _ct_guards(law, _active(projection))[1]

        def views(row, dF):
            mid, x, T, dT = row[U.stop:W.start], row[X0:nF], row[W], row[dW]
            wv, g1, g, d1 = mid[:M], mid[M:2 * M], mid[2 * M:3 * M], mid[3 * M:]
            return (row[R], row[U], row[:U.stop], wv, wv[None, :], g1,
                    g1[None, :], g, d1, d1[:, None], x[:, None], x, row[:nF],
                    T[:nM].reshape(n, M), T[th2], dF,
                    dT[:nM].reshape(n, M), dT[th2])

        def step(v):
            (rw, u, lin, wv, wrow, g1, g1row, g, d1, d1col, xcol, x, Fw, T1,
             theta2, dF, dT1, g2) = v
            x.dot(T1, u)
            add(u, rw, u)
            div(u, theta2, u)
            Wcdot(Fw, wv)
            Ldot(lin, dF)
            if standard:
                G1dot(x, d1)
                scale(d1col, wrow, dT1)
            else:
                G1dot(wv, g1)
                scale(xcol, g1row, dT1)
            scale(negG2, wv, g)
            scale(g, u, g2)

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

    law.step, law.views = step, views
    law.cols = {"x": np.arange(X0, nF), "x_m": np.arange(n),
                "u": np.arange(U.start, U.stop),
                "theta": W.start + np.arange(C * M).reshape(C, M)}
    if mode == "indirect":
        law.cols["x_hat"] = np.arange(n, 2 * n)

    def pack(x, xm, T1, T2, xh=None):
        row = np.zeros(law.width)
        for name, value in (("x", x), ("x_m", xm), ("x_hat", xh)):
            if name in law.cols and value is not None:
                row[law.cols[name]] = value
        row[law.cols["theta"]] = np.vstack([np.reshape(T1, (n, M)),
                                            np.reshape(T2, (M, M)).T * keep])
        return np.concatenate([row[law.F], row[W]])

    def rhs(tau, z):
        # the field at z on a fresh row, with r read at tau
        row = np.zeros(law.width)
        row[:nF], row[W] = z[:nF], z[nF:]
        row[law.R] = signal.at(tau)
        step(views(row, row[law.dF]))
        dz = row[law.dF.start:]
        return dz if adjust is None else adjust(row)(dz)

    return LyapunovLoop(ct=cert, law=law, rhs=rhs, pack=pack, V=V,
                        V_series=V_series)


def run_lyapunov_scenario(plant: PlantModel, ref: ReferenceModel,
                          signal: ReferenceSignal, mode: str, gains,
                          projection: ProjectionConfig | None,
                          init: InitialConditions, horizon: int,
                          h: float = 0.01, method: str = "rk4",
                          cert: LyapunovCertificate | None = None,
                          match=SOLVE, stream=None) -> SimulationTrace:
    """Simulate a Lyapunov scheme over horizon steps of size h.

    The trace's theta column stacks the evolving gains ([K1; K2^T] for the
    direct scheme, [Theta1; Theta2^T] for the indirect one); the gradient
    scheme's eps and m columns are not defined here and come back NaN. The
    run diverges as the gradient runs do (see ``_rows``), at the first step
    at which an element of x or u is not finite, or after a step whose
    integration is not finite. The indirect scheme's projection acts as the
    gradient one's, without a floor (``indirect._projected_ct``).
    ``cert`` and ``match`` are as for ``build_lyapunov_loop``, ``stream``
    as for the gradient runners.
    """
    x0, xm0, theta0, _, xhat0 = _check_run_args(plant, ref, signal, gains,
                                                init, horizon, projection)
    loop = build_lyapunov_loop(plant, ref, signal, mode, gains, projection,
                               cert, match)
    law, n = loop.law, plant.n
    law.z0 = loop.pack(x0, xm0, theta0[:n], theta0[n:].T, xhat0)

    def V_series(rec):
        # a block of records at a time, so that the closure's temporaries
        # keep one size
        x, xm, xh, theta = (rec["x"], rec["x_m"], rec.get("x_hat"),
                            rec["theta"])
        V = np.empty(x.shape[0])
        for lo, hi in _rows.row_blocks(V.shape[0]):
            V[lo:hi] = loop.V_series(x[lo:hi], xm[lo:hi],
                                     None if xh is None else xh[lo:hi],
                                     theta[lo:hi])
        return value_series(V)

    spec = TraceSpec(f"lyapunov_{mode}", CONTINUOUS, horizon, h,
                     V_series if loop.V_series is not None else None)
    if mode == "indirect":
        run = _projected_ct(law, signal, projection, theta0, spec, stream)
    else:
        run = _set_up(law, signal, spec, stream)
    return _drive(run, CONTINUOUS, horizon, h, method, integrate_ct)

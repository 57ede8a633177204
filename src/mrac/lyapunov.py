"""Classical continuous-time Lyapunov-based adaptive schemes.

These are the comparison baseline for the gradient designs. Both flavours
need P = P^T > 0 solving P A_m + A_m^T P = -Q; the direct laws push the
controller gains along -e^T P B_m directions, the indirect laws drive a
plant-parametrization estimate from the estimator error e_x instead.
Simulation integrates the whole closed loop (states plus parameters) with
one fixed-step scheme.
"""

from __future__ import annotations

import numpy as np

from ._rows import Layout, forms
from .diagnostics import SimulationTrace, Stream, TraceSpec
from .direct import (SOLVE, InitialConditions, _check_run_args, _drive,
                     _matching)
from .errors import ModelError
# the Lyapunov gains and certificate of gains.py stay importable from here
from .gains import (LyapunovCertificate, LyapunovDirectGains,  # noqa: F401
                    LyapunovIndirectGains, ProjectionConfig, _active,
                    solve_lyapunov_ct, theta_star_indirect)
# the benchmark's tracer wraps solve_matching here by name
from .systems import (CONTINUOUS, PlantModel, ReferenceModel,  # noqa: F401
                      ReferenceSignal, integrate_ct, solve_matching)


class _Scheme(Layout):
    """A Lyapunov scheme's law on the work row (see ``_rows``): the linear
    states [x_m, x] or [x_m, xhat, x], then r and u, so that [x, r] is
    contiguous, ``mid`` scratch columns and theta = [T1; T2^T] row by row.
    ``L`` advances every linear state given r and u; ``ct`` is A_m's
    certificate, ``match`` the matching solution and ``value(rec)`` V of a
    block of records (``_rows.Layout``), both None unmatchable; the runner
    sets ``z0`` (``pack``). As a gradient law's, its step takes the
    ``views`` of a row or of a group's block of rows (``_rows.forms``)."""

    stacked = ("L", "z0")
    z0 = None

    def __init__(self, plant, ref, signal, cert, match, nF, mid):
        n, M = plant.n, plant.n_inputs
        self.n, self.M, self.C, self.X0 = n, M, n + M, nF - n
        super().__init__(0, nF, M, mid, self.C * M)
        self.ct = (solve_lyapunov_ct(ref.A_m, np.eye(n)) if cert is None
                   else cert)
        self.signal = signal
        match = _matching(plant, ref, match)
        self.match = match if match is not None and match.matchable() else None
        self.L = L = np.zeros((nF, nF + 2 * M))
        X0 = self.X0
        for c in range(0, X0, n):  # x_m, and xhat driven by r
            L[c:c + n, c:c + n] = ref.A_m
            L[c:c + n, nF:nF + M] = ref.B_m
        L[X0:, X0:nF] = plant.A
        L[X0:, nF + M:] = plant.B
        self.cols = {"x": np.arange(X0, nF), "x_m": np.arange(n),
                     "u": np.arange(self.U.start, self.U.stop),
                     "theta": self.W.start + np.arange(self.C * M).reshape(
                         self.C, M)}

    def pack(self, x, xm, T1, T2, xh=None):
        """z = [F, W] of x, x_m, xhat (indirect) and theta = [T1; T2^T]."""
        n, M = self.n, self.M
        row = np.zeros(self.width)
        for name, value in (("x", x), ("x_m", xm), ("x_hat", xh)):
            if name in self.cols and value is not None:
                row[self.cols[name]] = value
        row[self.cols["theta"]] = np.vstack([np.reshape(T1, (n, M)),
                                             np.reshape(T2, (M, M)).T
                                             * self.keep])
        return np.concatenate([row[self.F], row[self.W]])

    def rhs(self, tau, z):
        """The rate at z, with r read at tau, after the rate check."""
        row = np.zeros(self.width)
        row[self.F], row[self.W] = z[:self.nF], z[self.nF:]
        row[self.R] = self.signal.at(tau)
        self.step(self.views(row, row[self.dF]))
        dz = row[self.dF.start:self.dW.stop]
        guard = self.ct_guards()[0]
        return (guard((row[self.W][self.th2], row[self.dW][self.th2],
                       row[self.f2]), dz) if guard else dz)

    def V(self, z):
        """V of a packed state z (matchable only)."""
        row = np.zeros(self.width)
        row[self.F], row[self.W] = z[:self.nF], z[self.nF:]
        return float(self.value({name: row[None, at]
                                 for name, at in self.cols.items()})[0])


class LyapunovDirect(_Scheme):
    """d theta = outer(Gd omega, -w): w = S_p^T B_m^T P e, Gd = I (form
    "S_p", every multi-input scheme's), or w = sign(k2) e^T P b_m, Gd =
    diag(Gamma, gamma) (form "Gamma"); ``Wn`` reads w off [x_m, x].
    Scratch: Gd omega, then w."""

    stacked = ("Gd", "Wn")
    keep = 1.0

    def __init__(self, plant, ref, signal, gains, cert=None, match=SOLVE):
        n, M = plant.n, plant.n_inputs
        super().__init__(plant, ref, signal, cert, match, 2 * n, n + 2 * M)
        Msinv = gains.premise(M, self.match)
        P, Bm = self.ct.P, ref.B_m
        self.Gd = np.eye(n + M)
        self.form = "Gamma" if gains.S_p is None else "S_p"
        if gains.S_p is not None:
            Wp = gains.S_p.T @ Bm.T @ P
        else:
            Wp = gains.sign_k2 * (P @ Bm[:, 0])[None, :]
            self.Gd[:n, :n] = gains.Gamma
            self.Gd[n, n] = gains.gamma
        self.Wn = np.hstack([Wp, -Wp])
        self.step = self.stepper()
        if self.match is None:
            return
        K1s, K2sT = self.match.K1, self.match.K2.T
        if gains.S_p is None:
            Ginv = np.linalg.inv(gains.Gamma)
            k2s = abs(self.match.k2)

        def value(rec):
            e = rec["x"] - rec["x_m"]
            base = np.einsum("ti,ij,tj->t", e, P, e)
            d1 = rec["theta"][:, :n] - K1s
            d2 = rec["theta"][:, n:] - K2sT  # (K2 - K2*)^T
            if gains.S_p is not None:
                return (base + np.einsum("tia,ab,tib->t", d1, Msinv, d1)
                        + np.einsum("tja,ab,tjb->t", d2, Msinv, d2))
            t1 = np.einsum("ti,ij,tj->t", d1[:, :, 0], Ginv, d1[:, :, 0])
            return base + (t1 + d2[:, 0, 0] ** 2 / gains.gamma) / k2s

        self.value = value

    def stepper(self):
        """The step on the law's own (or stacked) L, Gd and Wn."""
        dot = forms(self.L.shape[:-2]).dot
        Ldot, Gddot, Wndot = dot(self.L), dot(self.Gd), dot(self.Wn)
        scale = np.multiply

        def step(v):
            thetaTdot, om, u, gv, Fw, wv, lin, dF, gcol, wrow, dtheta = v
            thetaTdot(om, u)
            Gddot(om, gv)
            Wndot(Fw, wv)
            Ldot(lin, dF)
            scale(gcol, wrow, dtheta)

        return step

    def views(self, row, dF):
        """The operands ``step`` takes from ``row``, F's rate into ``dF``."""
        U, W, C, M = self.U, self.W, self.C, self.M
        lead = row.shape[:-1]
        dot, col = forms(lead)[:2]
        gv, wv = row[..., U.stop:U.stop + C], row[..., U.stop + C:W.start]
        theta = row[..., W].reshape(lead + (C, M))
        return (dot(theta.swapaxes(-1, -2)), col(row[..., self.X0:U.start]),
                col(row[..., U]), col(gv), col(row[..., :self.nF]), col(wv),
                col(row[..., :U.stop]), col(dF), gv[..., :, None],
                wv[..., None, :], row[..., self.dW].reshape(lead + (C, M)))


class LyapunovIndirect(_Scheme):
    """u = Theta2^{-1} (Theta1^T x + r) makes the estimator input Theta2 u -
    Theta1^T x equal r up to rounding, so xhat is driven by r. With w =
    B_m^T P e_x, which ``Wc`` reads off [x_m, xhat, x], d Theta1 =
    outer(Gamma1 x, w) (form "standard") or outer(x, Gamma1 w) (form
    "transposed"), and d theta2 = -diag(Gamma2) w u. Scratch: w, Gamma1 w,
    -diag(Gamma2) w and Gamma1 x; the rate of theta2's off-diagonal entries
    stays zero. The law carries ``projection``'s theta2 guards
    (``_rows.Layout``)."""

    stacked = ("G1", "Wc", "negG2")

    def __init__(self, plant, ref, signal, gains, projection=None, cert=None,
                 match=SOLVE):
        n, M = plant.n, plant.n_inputs
        super().__init__(plant, ref, signal, cert, match, 3 * n, n + 3 * M)
        P = self.ct.P
        self.form, self.keep = gains.theta1_law, np.eye(M)
        self.G1, self.negG2 = gains.Gamma1, -np.diag(gains.Gamma2)
        Wp = ref.B_m.T @ P
        self.Wc = np.hstack([np.zeros((M, n)), Wp, -Wp])
        # the Theta2 diagonal, which closes W (and dW)
        self.th2 = slice(n * M, None, M + 1)
        self.theta2_at = np.arange((n + M) * M)[self.th2]
        self.cols["x_hat"] = np.arange(n, 2 * n)
        self.carry(projection)
        self.step = self.stepper()
        if self.match is None:
            return
        theta_star = theta_star_indirect(self.match.K1, self.match.K2)
        G1inv = np.linalg.inv(gains.Gamma1)
        G2inv = np.linalg.inv(gains.Gamma2)
        t1 = "tia,ij,tja->t" if self.form == "standard" else "tia,ab,tib->t"

        def value(rec):
            e = rec["x_hat"] - rec["x"]
            d = rec["theta"] - theta_star
            d1, d2 = d[:, :n], d[:, n:]  # d2 = (Theta2 - Theta2*)^T
            return (np.einsum("ti,ij,tj->t", e, P, e)
                    + np.einsum(t1, d1, G1inv, d1)
                    + np.einsum("tai,ij,taj->t", d2, G2inv, d2))

        self.value = value

    def stepper(self):
        """The step on the law's own (or stacked) L, Gamma1, Wc and
        -diag(Gamma2)."""
        dot = forms(self.L.shape[:-2]).dot
        Ldot, G1dot, Wcdot = dot(self.L), dot(self.G1), dot(self.Wc)
        negG2, standard = self.negG2, self.form == "standard"
        scale, add, div = np.multiply, np.add, np.divide

        def step(v):
            (T1Tdot, xc, uc, u, rw, theta2, Fw, wc, wv, lin, dF, d1c, d1col,
             wrow, g1c, xcol, g1row, dT1, g, g2) = v
            T1Tdot(xc, uc)
            add(u, rw, u)
            div(u, theta2, u)
            Wcdot(Fw, wc)
            Ldot(lin, dF)
            if standard:
                G1dot(xc, d1c)
                scale(d1col, wrow, dT1)
            else:
                G1dot(wc, g1c)
                scale(xcol, g1row, dT1)
            scale(negG2, wv, g)
            scale(g, u, g2)

        return step

    def views(self, row, dF):
        """The operands ``step`` takes from ``row``, F's rate into ``dF``."""
        n, M, U = self.n, self.M, self.U
        lead = row.shape[:-1]
        dot, col = forms(lead)[:2]
        x, u, T, dT = (row[..., s] for s in (slice(self.X0, self.nF), U,
                                             self.W, self.dW))
        wv, g1, g, d1 = np.split(row[..., U.stop:self.W.start],
                                 [M, 2 * M, 3 * M], axis=-1)
        T1, dT1 = (v[..., :n * M].reshape(lead + (n, M)) for v in (T, dT))
        return (dot(T1.swapaxes(-1, -2)), col(x), col(u), u, row[..., self.R],
                T[..., self.th2], col(row[..., :self.nF]), col(wv), wv,
                col(row[..., :U.stop]), col(dF), col(d1), d1[..., :, None],
                wv[..., None, :], col(g1), x[..., :, None], g1[..., None, :],
                dT1, g, dT[..., self.th2])


def build_lyapunov_loop(plant: PlantModel, ref: ReferenceModel,
                        signal: ReferenceSignal, mode: str, gains,
                        projection: ProjectionConfig | None = None,
                        cert: LyapunovCertificate | None = None,
                        match=SOLVE):
    """The law of the Lyapunov scheme ``mode``, ``LyapunovDirect`` or
    ``LyapunovIndirect``: the joint closed loop for simulation or for
    single-step probing (h-refinement checks use its ``rhs`` directly).
    ``cert`` is the certificate of A_m, solved here with Q = I when not
    given; ``match`` is the scenario's matching solution, as for the
    gradient runners."""
    if plant.time_domain != CONTINUOUS or ref.time_domain != CONTINUOUS:
        raise ModelError("Lyapunov schemes are continuous-time only")
    if mode == "direct":
        return LyapunovDirect(plant, ref, signal, gains, cert, match)
    if mode == "indirect":
        return LyapunovIndirect(plant, ref, signal, gains, projection, cert,
                                match)
    raise ModelError(f"unknown Lyapunov mode {mode!r}")


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
    gradient one's, without a floor (``_rows.Layout.carry``), and an enabled
    one is checked on the initial estimates.
    ``cert`` and ``match`` are as for ``build_lyapunov_loop``, ``stream``
    as for the gradient runners.
    """
    x0, xm0, theta0, _, xhat0 = _check_run_args(
        plant, ref, signal, gains, init, horizon, projection, h, method)
    law = build_lyapunov_loop(plant, ref, signal, mode, gains, projection,
                              cert, match)
    n = plant.n
    law.z0 = law.pack(x0, xm0, theta0[:n], theta0[n:].T, xhat0)
    spec = TraceSpec(f"lyapunov_{mode}", CONTINUOUS, horizon, h)
    if mode == "indirect" and _active(projection):
        projection.check_start(theta0)
    return _drive(Stream(law, signal, spec, stream), method, integrate_ct)

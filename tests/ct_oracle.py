"""Oracles for the fused continuous-time runners.

Each replay keeps the unfused algebra of one continuous-time scheme: a
``readout`` that rebuilds every signal from the packed state, a joint
``rhs`` with r read at the stage time, and a loop that records the readout
and steps ``rhs`` through ``integrate_ct``, with the runners' divergence
and singular-gain semantics. Each returns a dict of record arrays (cut at
the divergence step) and the divergence step.
"""

import math

import numpy as np

from mrac import (NumericsError, SingularGainError, integrate_ct,
                  solve_lyapunov_ct, solve_matching, stack_controller_gains,
                  stack_plant_estimate, theta_star_indirect)
from mrac.indirect import _clamp_theta2, _ct_projection_rate


def lyapunov_direct_derivatives(e, x, r, P, B_m, gains):
    """(dK1, dK2) of the direct Lyapunov laws: with w = S_p^T B_m^T P e,
    dK1 = -x w^T and dK2 = -w r^T; single-input, with s = e^T P b_m,
    dk1 = -sign(k2) Gamma x s and dk2 = -sign(k2) gamma r s."""
    if gains.S_p is not None:
        w = gains.S_p.T @ (B_m.T @ (P @ e))
        return -np.outer(x, w), -np.outer(w, r)
    s = float(e @ (P @ B_m[:, 0]))
    dK1 = -gains.sign_k2 * (gains.Gamma @ x) * s
    return dK1.reshape(-1, 1), np.atleast_2d(-gains.sign_k2 * gains.gamma * r * s)


def lyapunov_indirect_derivatives(Theta2, e_x, x, u, P, B_m, gains,
                                  projection=None):
    """(dTheta1, dTheta2) of the indirect Lyapunov laws, with w = B_m^T P
    e_x: dTheta1 = Gamma1 x w^T ("standard") or x (Gamma1 w)^T
    ("transposed"), dTheta2 = -diag(Gamma2 w) u^T kept diagonal, and the
    projection cancelling an outward theta2 rate on the bound."""
    w = B_m.T @ (P @ e_x)
    if gains.theta1_law == "standard":
        dT1 = np.outer(gains.Gamma1 @ x, w)
    else:
        dT1 = np.outer(x, gains.Gamma1 @ w)
    dT2 = -np.outer(np.diag(gains.Gamma2) * w, u)
    if dT2.shape[0] > 1:
        dT2 = dT2 * np.eye(dT2.shape[0])  # non-diagonal entries stay zero
    if projection is not None and projection.enabled:
        dT2 = dT2 + np.diag(_ct_projection_rate(np.diag(Theta2).copy(),
                                                np.diag(dT2).copy(),
                                                projection))
    return dT1, dT2


def _records(steps, **arrays):
    return {name: arr[:steps] for name, arr in arrays.items()}


def replay_direct_ct(plant, ref, signal, gains, init, horizon, h=0.01,
                     method="rk4"):
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
        # eps is scaled first, as in the runners: eps S may overflow while
        # m^2 and the rates are finite
        dP = -(Gbd @ (S.T @ (eps / m2))).reshape(M, C)
        drho = -gam * ((eps / m2) @ Xi)
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
    rec = dict(x=np.empty((T1, n)), x_m=np.empty((T1, n)), e=np.empty((T1, n)),
               u=np.empty((T1, M)), eps=np.empty((T1, n)), m=np.empty(T1),
               theta=np.empty((T1, C, M)), rho=np.empty((T1, M)))
    diverged_at = None
    with np.errstate(all="ignore"):
        for k in range(T1):
            tau = k * h
            x, xm, u, eps, m2, *_, P, rho, _r = readout(tau, z)
            if not (math.isfinite(m2) and np.all(np.isfinite(x))
                    and np.all(np.isfinite(u))):
                diverged_at = k
                break
            rec["x"][k] = x; rec["x_m"][k] = xm; rec["e"][k] = x - xm
            rec["u"][k] = u; rec["eps"][k] = eps; rec["m"][k] = math.sqrt(m2)
            rec["theta"][k] = P.T; rec["rho"][k] = rho
            if k == horizon:
                break
            try:
                z = integrate_ct(rhs, z, h, t=tau, method=method)
            except NumericsError:
                diverged_at = k + 1
                break
    steps = T1 if diverged_at is None else diverged_at
    return _records(steps, **rec), diverged_at


def replay_indirect_ct(plant, ref, signal, gains, projection, init, horizon,
                       h=0.01, method="rk4"):
    n, M = plant.n, plant.n_inputs
    C = n + M
    A, B, Am, Bm = plant.A, plant.B, ref.A_m, ref.B_m
    x0, xm0, theta0, _, xhat0 = init.resolved(n, C, M)
    include_xi_in_m = M > 1
    P0 = theta0.T.copy()
    if M > 1:
        P0[:, n:] *= np.eye(M)
    proj_on = projection is not None and projection.enabled
    Gbd = np.zeros((M * C, M * C))
    for j in range(M):
        Gbd[j * C:(j + 1) * C, j * C:(j + 1) * C] = gains.Gamma[j]
    eyeM = np.eye(M)
    diag_flat = np.array([j * C + n + j for j in range(M)])
    floor = (0.5 * projection.theta2_lower if proj_on
             else (projection.theta2_lower if projection is not None
                   else np.full(M, 1e-12)))

    sl_x = slice(0, n)
    sl_xm = slice(n, 2 * n)
    sl_xh = slice(2 * n, 3 * n)
    sl_S = slice(3 * n, 3 * n + n * M * C)
    sl_q = slice(sl_S.stop, sl_S.stop + n * M)
    sl_P = slice(sl_q.stop, sl_q.stop + M * C)

    def readout(tau, z):
        x = z[sl_x]; xm = z[sl_xm]; xh = z[sl_xh]
        S = z[sl_S].reshape(n, M * C); q = z[sl_q].reshape(n, M)
        P = z[sl_P].reshape(M, C)
        r = signal.at(tau)
        Xi = np.einsum("kjc,jc->kj", S.reshape(n, M, C), P) - q
        eps = (xh - x) + np.sum(Xi, axis=1)
        m2 = 1.0 + float(np.dot(S.ravel(), S.ravel()))
        if include_xi_in_m:
            m2 += float(np.dot(Xi.ravel(), Xi.ravel()))
        theta2 = P.ravel()[diag_flat]
        if np.any(np.abs(theta2) < floor - 1e-15):
            raise SingularGainError(
                f"theta2 diagonal {theta2} below the invertibility threshold"
            )
        u = (P[:, :n] @ x + r) / theta2
        return x, xm, xh, S, q, P, r, Xi, eps, m2, theta2, u

    def rhs(tau, z):
        x, xm, xh, S, q, P, r, Xi, eps, m2, theta2, u = readout(tau, z)
        om = np.concatenate([-x, u])
        v = P @ om
        g = -(Gbd @ (S.T @ (eps / m2))).reshape(M, C)
        if M > 1:
            g[:, n:] *= eyeM
        if proj_on:
            g2 = g.ravel()[diag_flat]
            f2 = _ct_projection_rate(theta2, g2, projection)
            gflat = g.ravel()
            gflat[diag_flat] += f2
            g = gflat.reshape(M, C)
        dS = Am @ S + (Bm[:, :, None] * om[None, None, :]).reshape(n, M * C)
        dq = Am @ q + Bm * v[None, :]
        dxh = Am @ xh + Bm @ v
        dx = A @ x + B @ u
        dxm = Am @ xm + Bm @ r
        return np.concatenate([dx, dxm, dxh, dS.ravel(), dq.ravel(), g.ravel()])

    z = np.concatenate([x0, xm0, xhat0, np.zeros(n * M * C), np.zeros(n * M),
                        P0.ravel()])
    T1 = horizon + 1
    rec = dict(x=np.empty((T1, n)), x_m=np.empty((T1, n)), e=np.empty((T1, n)),
               u=np.empty((T1, M)), eps=np.empty((T1, n)), m=np.empty(T1),
               theta=np.empty((T1, C, M)), x_hat=np.empty((T1, n)),
               proj_g2=np.zeros((T1, M)), proj_f2=np.zeros((T1, M)),
               proj_fired=np.zeros(T1, dtype=bool))
    diverged_at = None
    with np.errstate(all="ignore"):
        for k in range(T1):
            tau = k * h
            x, xm, xh, S, q, P, r, Xi, eps, m2, theta2, u = readout(tau, z)
            if not (math.isfinite(m2) and np.all(np.isfinite(x))
                    and np.all(np.isfinite(u))):
                diverged_at = k
                break
            rec["x"][k] = x; rec["x_m"][k] = xm; rec["e"][k] = x - xm
            rec["u"][k] = u; rec["eps"][k] = eps; rec["m"][k] = math.sqrt(m2)
            rec["theta"][k] = P.T; rec["x_hat"][k] = xh
            if proj_on:
                g2 = -(Gbd @ (S.T @ (eps / m2))).reshape(M, C).ravel()[diag_flat]
                f2 = _ct_projection_rate(theta2, g2, projection)
                rec["proj_g2"][k] = g2; rec["proj_f2"][k] = f2
                rec["proj_fired"][k] = bool(np.any(f2 != 0.0))
            if k == horizon:
                break
            try:
                z = integrate_ct(rhs, z, h, t=tau, method=method)
            except NumericsError:
                diverged_at = k + 1
                break
            if proj_on:
                _clamp_theta2(z[sl_P].reshape(M, C)[:, n:], projection)
    steps = T1 if diverged_at is None else diverged_at
    return _records(steps, **rec), diverged_at


def replay_lyapunov(plant, ref, signal, mode, gains, projection, init,
                    horizon, h=0.01, method="rk4", Q=None):
    n, M = plant.n, plant.n_inputs
    C = n + M
    A, B, Am, Bm = plant.A, plant.B, ref.A_m, ref.B_m
    P = solve_lyapunov_ct(Am, np.eye(n) if Q is None else Q).P
    match = solve_matching(plant, ref)
    proj_on = projection is not None and projection.enabled
    x0, xm0, theta0, _, xhat0 = init.resolved(n, C, M)
    T1blk = theta0[:n]
    T2blk = theta0[n:].T
    if mode == "indirect" and M > 1:
        T2blk = T2blk * np.eye(M)

    if mode == "direct":
        sl_K1 = slice(2 * n, 2 * n + n * M)
        sl_K2 = slice(sl_K1.stop, sl_K1.stop + M * M)

        def unpack(z):
            return (z[:n], z[n:2 * n], z[sl_K1].reshape(n, M),
                    z[sl_K2].reshape(M, M))

        def rhs(tau, z):
            x, xm, K1, K2 = unpack(z)
            r = signal.at(tau)
            u = K1.T @ x + K2 @ r
            e = x - xm
            dK1, dK2 = lyapunov_direct_derivatives(e, x, r, P, Bm, gains)
            dx = A @ x + B @ u
            dxm = Am @ xm + Bm @ r
            return np.concatenate([dx, dxm, dK1.ravel(), dK2.ravel()])

        Msinv = None
        if gains.S_p is not None:
            Msinv = np.linalg.inv(match.K2 @ gains.S_p)

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

        z = np.concatenate([x0, xm0, T1blk.ravel(), T2blk.ravel()])
    else:
        sl_T1 = slice(3 * n, 3 * n + n * M)
        sl_T2 = slice(sl_T1.stop, sl_T1.stop + M * M)

        def unpack(z):
            return (z[:n], z[n:2 * n], z[2 * n:3 * n], z[sl_T1].reshape(n, M),
                    z[sl_T2].reshape(M, M))

        def rhs(tau, z):
            x, xm, xh, T1, T2 = unpack(z)
            r = signal.at(tau)
            u = (T1.T @ x + r) / np.diag(T2)
            e_x = xh - x
            dT1, dT2 = lyapunov_indirect_derivatives(T2, e_x, x, u, P, Bm,
                                                     gains, projection)
            dxh = Am @ xh + Bm @ (T2 @ u - T1.T @ x)
            dx = A @ x + B @ u
            dxm = Am @ xm + Bm @ r
            return np.concatenate([dx, dxm, dxh, dT1.ravel(), dT2.ravel()])

        theta_star = theta_star_indirect(match.K1, match.K2)
        T1s, T2s = theta_star[:n], theta_star[n:].T

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

        z = np.concatenate([x0, xm0, xhat0, T1blk.ravel(), T2blk.ravel()])

    T1 = horizon + 1
    rec = dict(x=np.empty((T1, n)), x_m=np.empty((T1, n)), e=np.empty((T1, n)),
               u=np.empty((T1, M)), theta=np.empty((T1, C, M)),
               V=np.empty(T1))
    if mode == "indirect":
        rec["x_hat"] = np.empty((T1, n))
    diverged_at = None
    with np.errstate(all="ignore"):
        for k in range(T1):
            tau = k * h
            r = signal.at(tau)
            if mode == "direct":
                x, xm, K1, K2 = unpack(z)
                u = K1.T @ x + K2 @ r
                theta_now = stack_controller_gains(K1, K2)
            else:
                x, xm, xh, Tb1, Tb2 = unpack(z)
                u = (Tb1.T @ x + r) / np.diag(Tb2)
                theta_now = stack_plant_estimate(Tb1, Tb2)
                rec["x_hat"][k] = xh
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
                diverged_at = k
                break
            rec["x"][k] = x; rec["x_m"][k] = xm; rec["e"][k] = x - xm
            rec["u"][k] = u; rec["theta"][k] = theta_now; rec["V"][k] = V(z)
            if k == horizon:
                break
            try:
                z = integrate_ct(rhs, z, h, t=tau, method=method)
            except NumericsError:
                diverged_at = k + 1
                break
            if mode == "indirect" and proj_on:
                _clamp_theta2(z[3 * n + n * M:].reshape(M, M), projection)
    steps = T1 if diverged_at is None else diverged_at
    return _records(steps, **rec), diverged_at

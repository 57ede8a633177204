"""Oracle for the discrete gradient runners.

Each replay steps one law the long way, in the order the runners promise:
the reference filter bank (``ChannelFilterBank``) emits zeta, xi and m from
its current states, plain numpy forms eps, u and the gradient step (with
the diagonal mask and the projection landing), and then the bank, the
plant, the reference model and the estimator advance on this step's
signals. The step functions are pinned by hand arithmetic in
``test_direct.py`` and ``test_indirect.py``.
"""

import numpy as np

from mrac import ChannelFilterBank, ModelError, SingularGainError


def control_direct(theta, x, r):
    """u = theta^T [x; r] = K1^T x + K2 r."""
    return theta.T @ np.concatenate([x, r])


def epsilon_direct(e, rho, xi):
    """eps_i = e_i + sum_j rho_j xi_ij."""
    return e + xi @ rho


def gradient(Gamma, eps, frame):
    """Column j is -Gamma_j (sum_i eps_i zeta_ij) / m^2, with eps scaled by
    1 / m^2 first, as the runners do: eps zeta may overflow while m^2 and
    the step are finite."""
    a = np.einsum("k,kjc->jc", eps / frame.m ** 2, frame.zeta)
    return -np.matmul(Gamma, a[:, :, None])[..., 0].T


def direct_step(gains, eps, frame):
    """The steps of theta and rho; a multi-input K2 stays diagonal when the
    gains enforce it."""
    dtheta = gradient(gains.sign_k2[:, None, None] * gains.Gamma, eps, frame)
    M = dtheta.shape[1]
    if M > 1 and gains.enforce_diagonal_k2:
        dtheta[-M:] *= np.eye(M)
    return dtheta, -gains.gamma * ((eps / frame.m ** 2) @ frame.xi)


def epsilon_indirect(e_x, xi):
    """eps_i = e_xi + sum_j xi_ij."""
    return e_x + xi.sum(axis=1)


def estimator_step(ref, theta, x_hat, x, u):
    """xhat(t+1) = A_m xhat + B_m (Theta2 u - Theta1^T x)."""
    return ref.A_m @ x_hat + ref.B_m @ (theta.T @ np.concatenate([-x, u]))


def recover_gains(theta, floor):
    """K1 = Theta1 Theta2^{-1} and K2 = Theta2^{-1} of a diagonal Theta2;
    SingularGainError when a theta2 entry is below ``floor``."""
    M = theta.shape[1]
    theta2 = theta[-M:].diagonal()
    if np.any(np.abs(theta2) < floor - 1e-15):
        raise SingularGainError(f"theta2 diagonal {theta2} below {floor}")
    return theta[:-M] / theta2, np.diag(1.0 / theta2)


def indirect_step(gains, projection, theta, eps, frame):
    """(theta(t+1), g2, f2): the gradient step with Theta2 kept diagonal,
    then the correction f2 that lands a theta2 leaving its signed bound on
    the bound."""
    M = theta.shape[1]
    g = gradient(gains.Gamma, eps, frame)
    if M > 1:
        g[-M:] *= np.eye(M)
    g2, f2 = g[-M:].diagonal(), np.zeros(M)
    nxt = theta + g
    if projection is not None and projection.enabled:
        cand = nxt[-M:].diagonal()
        bound = projection.signs * projection.theta2_lower
        f2 = np.where(projection.signs * cand < projection.theta2_lower,
                      bound - cand, 0.0)
        nxt[-M:] += np.diag(f2)
    return nxt, g2, f2


def replay_direct(plant, ref, signal, gains, init, horizon):
    """Records of a discrete direct run, one dict per step, and the step
    the runner must report as diverged: the first at which an element of
    x, u or m is not finite (None when the run completes)."""
    n, M = plant.n, plant.n_inputs
    x, xm, theta, rho, _ = init.resolved(n, n + M, M)
    if M > 1 and gains.enforce_diagonal_k2:
        theta[-M:] *= np.eye(M)
    bank = ChannelFilterBank(ref, n + M)
    records = []
    with np.errstate(all="ignore"):
        for t in range(horizon + 1):
            r = signal.at(t)
            try:
                frame = bank.frame(theta)
            except ModelError:  # non-finite filter energy, so m
                return records, t
            e = x - xm
            eps = epsilon_direct(e, rho, frame.xi)
            u = control_direct(theta, x, r)
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
                return records, t
            records.append(dict(theta=theta, rho=rho, x=x, x_m=xm, e=e,
                                eps=eps, m=frame.m, u=u))
            if t == horizon:
                break
            dtheta, drho = direct_step(gains, eps, frame)
            bank.advance(np.concatenate([x, r]), theta)
            theta, rho = theta + dtheta, rho + drho
            x = plant.A @ x + plant.B @ u
            xm = ref.A_m @ xm + ref.B_m @ r
    return records, None


def assert_replayed(trace, records, names):
    """The trace's ``names`` records equal the replay's within 1e-12."""
    assert trace.steps == len(records)
    for name in names:
        expected = np.array([rec[name] for rec in records])
        assert np.max(np.abs(getattr(trace, name) - expected)) <= 1e-12, name


def replay_indirect(plant, ref, signal, gains, projection, init, horizon):
    """Records of a discrete indirect run, one dict per step, and the step
    at which the controller recovery refused to invert Theta2 (None when it
    never did)."""
    n, M = plant.n, plant.n_inputs
    x, xm, theta, _, x_hat = init.resolved(n, n + M, M)
    if M > 1:
        theta[-M:] *= np.eye(M)
    proj_on = projection is not None and projection.enabled
    floor = (projection.theta2_lower if projection is not None
             else np.full(M, 1e-12))
    bank = ChannelFilterBank(ref, n + M)
    records = []
    for t in range(horizon + 1):
        r = signal.at(t)
        frame = bank.frame(theta, include_xi_in_m=M > 1)
        eps = epsilon_indirect(x_hat - x, frame.xi)
        try:
            K1, K2 = recover_gains(theta, floor)
        except SingularGainError:
            return records, t
        u = K1.T @ x + K2 @ r
        rec = dict(theta=theta, x_hat=x_hat, x=x, x_m=xm, e=x - xm, eps=eps,
                   m=frame.m, u=u, proj_g2=np.zeros(M), proj_f2=np.zeros(M))
        records.append(rec)
        if t == horizon:
            break
        theta_next, g2, f2 = indirect_step(gains, projection, theta, eps,
                                           frame)
        if proj_on:
            rec.update(proj_g2=g2, proj_f2=f2)
        x_hat = estimator_step(ref, theta, x_hat, x, u)
        bank.advance(np.concatenate([-x, u]), theta)
        theta = theta_next
        x = plant.A @ x + plant.B @ u
        xm = ref.A_m @ xm + ref.B_m @ r
    return records, None

"""Oracle for the discrete gradient runners.

Each replay steps one law the long way, in the order the runners promise:
the reference filter bank (``ChannelFilterBank``) emits zeta, xi and m from
its current states, plain numpy forms eps, u and the gradient step (with
the diagonal mask and the projection landing), and then the bank, the
plant, the reference model and the estimator advance on this step's
signals. The step functions are pinned by hand arithmetic in
``test_direct.py`` and ``test_indirect.py``.

The bank is the reference the runners' fused rows (``mrac._rows``) are
checked against, and the acceptance gate certifies its realization. The
reference model's transfer matrix W(z) = (zI - A_m)^{-1} B_m is realized
once per scalar input channel as a shared (A_m, B_m-column) state-space copy:
driving s(t+1) = A_m s(t) + b_j w(t) from rest makes component i of s(t) equal
the scalar transfer output w_ij(z)[w](t). Per step the bank emits

    zeta_ij(t) = w_ij(z)[omega](t)            (vector per output/input pair)
    xi_ij(t)   = theta_j(t)^T zeta_ij(t) - w_ij(z)[theta_j^T omega](t)

from the *current* states, then advances on omega(t) and theta_j(t)^T
omega(t). Outputs at step t therefore depend only on inputs before t
(strict properness), and zeta(0) = xi(0) = 0. The xi signals vanish
identically for frozen parameters: a time-invariant theta commutes with the
filter, so the two terms cancel.
"""

import math
from dataclasses import dataclass

import numpy as np

from mrac import ModelError, ReferenceModel, SingularGainError


@dataclass
class RegressorFrame:
    """Signals read from a bank at one step.

    zeta has shape (n, M, C) with C the number of filtered scalar channels
    (C = dim omega); xi has shape (n, M). Single-input schemes are the
    M = 1 slice.
    """

    zeta: np.ndarray
    xi: np.ndarray
    m: float


def compute_m(zeta, xi=None, include_xi: bool = True) -> float:
    """Normalizing signal m = sqrt(1 + sum zeta^T zeta [+ sum xi^2]).

    Direct schemes include the xi energy; the single-input indirect scheme
    omits it (pass ``include_xi=False`` or ``xi=None``).
    """
    z = np.asarray(zeta, dtype=float)
    total = 1.0 + float(np.dot(z.ravel(), z.ravel()))
    if include_xi and xi is not None:
        xv = np.asarray(xi, dtype=float)
        total += float(np.dot(xv.ravel(), xv.ravel()))
    if not math.isfinite(total):
        raise ModelError("non-finite filter energy while composing m")
    return math.sqrt(total)


def _theta_cols(theta, n_channels: int, n_inputs: int) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    if th.ndim == 1:
        th = th.reshape(-1, 1)
    if th.shape != (n_channels, n_inputs):
        raise ModelError(
            f"theta must have shape ({n_channels}, {n_inputs}), got {th.shape}"
        )
    return th


class ChannelFilterBank:
    """State-space filter bank over a fixed regressor layout.

    ``n_channels`` is the number of scalar inputs being filtered: n+M for
    the direct regressor [x; r], n+M for the indirect regressor [-x; u].
    All states start at zero.
    """

    def __init__(self, ref: ReferenceModel, n_channels: int):
        if n_channels < 1:
            raise ModelError("bank needs at least one channel")
        self.A_m = ref.A_m
        self.B_m = ref.B_m
        self.n = ref.n
        self.n_inputs = ref.n_inputs
        self.n_channels = n_channels
        # S columns are grouped by input block j: S[:, j*C:(j+1)*C] carries the
        # states filtering omega through B_m column j. q holds the auxiliary
        # scalar-product filter states, one per input block.
        self.S = np.zeros((self.n, self.n_inputs * n_channels))
        self.q = np.zeros((self.n, self.n_inputs))

    def zeta(self) -> np.ndarray:
        """Current zeta as an (n, M, C) array; row [i, j] is zeta_ij(t)."""
        return self.S.reshape(self.n, self.n_inputs, self.n_channels).copy()

    def xi(self, theta) -> np.ndarray:
        """Current xi as an (n, M) array for the given estimate columns."""
        th = _theta_cols(theta, self.n_channels, self.n_inputs)
        z3 = self.S.reshape(self.n, self.n_inputs, self.n_channels)
        return np.einsum("kjc,cj->kj", z3, th) - self.q

    def frame(self, theta, include_xi_in_m: bool = True) -> RegressorFrame:
        """Emit zeta(t), xi(t) and m(t) without touching the states."""
        z = self.zeta()
        x = self.xi(theta)
        return RegressorFrame(zeta=z, xi=x, m=compute_m(z, x, include_xi_in_m))

    def advance(self, omega, theta) -> None:
        """Push omega(t) and theta_j(t)^T omega(t) into the states.

        Call after the current outputs have been read; theta must be the
        estimate that was in force at step t (the one used in the control).
        """
        th = _theta_cols(theta, self.n_channels, self.n_inputs)
        advance_zeta(self, omega)
        v = th.T @ np.asarray(omega, dtype=float).reshape(-1)
        self.q = self.A_m @ self.q + self.B_m * v[None, :]


def advance_zeta(bank: ChannelFilterBank, omega) -> np.ndarray:
    """Emit zeta(t), then advance the zeta states on omega(t).

    Read xi (``bank.xi``) before calling this: xi(t) is formed from the
    same pre-advance states.
    """
    om = np.asarray(omega, dtype=float).reshape(-1)
    if om.shape[0] != bank.n_channels:
        raise ModelError(
            f"omega must have length {bank.n_channels}, got {om.shape[0]}"
        )
    out = bank.zeta()
    drive = (bank.B_m[:, :, None] * om[None, None, :]).reshape(bank.n, -1)
    bank.S = bank.A_m @ bank.S + drive
    return out




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

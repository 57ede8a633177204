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

from dataclasses import dataclass

import numpy as np

from . import _rows
from ._rows import Law, block
from .diagnostics import SimulationTrace, indirect_V_series
from .direct import (SOLVE, InitialConditions, _check_run_args,
                     _diagonal_match, _finish_trace, _matching)
from .errors import GainError, ModelError, ProjectionError, SingularGainError
# solve_matching stays a module attribute: the benchmark's tracer wraps it
# here by name
from .systems import (DISCRETE, PlantModel, ReferenceModel,  # noqa: F401
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


def stack_plant_estimate(Theta1, Theta2) -> np.ndarray:
    """Stack (Theta1, Theta2) into the (n+M, M) column layout."""
    T1 = np.asarray(Theta1, dtype=float)
    T2 = np.atleast_2d(np.asarray(Theta2, dtype=float))
    if T1.ndim == 1:
        T1 = T1.reshape(-1, 1)
    return np.vstack([T1, T2.T])


def theta_star_indirect(K1, K2) -> np.ndarray:
    """True plant parametrization from matching gains:
    Theta1* = K1 (K2^{-1})^T, Theta2* = K2^{-1}."""
    K1 = np.asarray(K1, dtype=float)
    K2 = np.atleast_2d(np.asarray(K2, dtype=float))
    if K1.ndim == 1:
        K1 = K1.reshape(-1, 1)
    K2inv = np.linalg.inv(K2)
    return stack_plant_estimate(K1 @ K2inv.T, K2inv)


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


def _ct_projection_rate(theta2, g2, projection: ProjectionConfig):
    """Derivative-nulling form: on (or past) the bound with an outward raw
    derivative, cancel it; otherwise leave the law untouched."""
    on_boundary = projection.signs * theta2 <= projection.theta2_lower + 1e-12
    outward = projection.signs * g2 < 0.0
    return np.where(on_boundary & outward, -g2, 0.0)


def _clamp_theta2(block, projection: ProjectionConfig):
    """Snap the theta2 diagonal of a writeable (M, M) view back onto the
    signed bound where integration landed a hair inside it."""
    theta2 = np.einsum("ii->i", block)  # a writeable view of the diagonal
    for j in range(theta2.shape[0]):
        if projection.signs[j] * theta2[j] < projection.theta2_lower[j]:
            theta2[j] = projection.signs[j] * projection.theta2_lower[j]


def _indirect_law(A, B, Am, Bm, gains, P, x0, xm0, xhat0) -> Law:
    """The indirect law on the shared layout (see ``_rows``), from theta_j =
    row j of P.

    F columns: S_(j,c), q_1..q_M, x_m, xhat, x. Row 0 of W^T reads eps =
    xhat - x + sum_j Xi_j off F, row 1 + j reads Xi_j = S_j theta_j - q_j,
    and [Theta1^T | I] follows W^T, so the estimates have three copies,
    theta2 two. The control u = Theta2^{-1} (Theta1^T x + r) makes the
    estimator input v = Theta2 u - Theta1^T x equal r up to rounding, so q
    and xhat are driven by r.
    """
    n, M = B.shape
    C = n + M
    MC = M * C
    K = MC + M + 3  # F columns
    cxm, cxh, cx = MC + M, MC + M + 1, MC + M + 2
    nK = n * K

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

    # S^T (-eps / m^2) -> the step of every copy of theta, with the
    # diagonal-Theta2 mask folded in
    G = np.zeros(((M + 1) * K + MC, MC))
    for j in range(M):
        for c in range(C):
            if M > 1 and c >= n and c - n != j:
                continue
            at = [(1 + j) * K + j * C + c, j * C + c]
            if c < n:
                at.append((M + 1) * K + j * C + c)
            G[at, j * C:(j + 1) * C] = gains.Gamma[j][c]

    F = np.zeros((K, n))
    F[cxm], F[cxh], F[cx] = xm0, xhat0, x0
    W = np.zeros((M + 1) * K + MC)
    WT = W[:(M + 1) * K].reshape(M + 1, K)
    WT[0, MC:cxm] = -1.0
    WT[0, cxh], WT[0, cx] = 1.0, -1.0
    WT[0, :MC] = P.ravel()
    Kx = W[(M + 1) * K:].reshape(M, C)
    for j in range(M):
        WT[1 + j, MC + j] = -1.0
        WT[1 + j, j * C:(j + 1) * C] = P[j]
        Kx[j, :n] = P[j, :n]
        Kx[j, n + j] = 1.0
    law = Law(L, G, F, W, M, xi_in_m=M > 1, xi_in_ab=False, rho=False)
    law.cols["x_hat"] = law.F0 + n * cxh + np.arange(n)
    # theta2 in row 1 + j and in row 0 of W^T
    law.theta2 = lambda W: (W[law.th2], W[n:MC:C + 1])
    return law


def run_indirect_scenario(plant: PlantModel, ref: ReferenceModel,
                          signal: ReferenceSignal, gains: IndirectGainConfig,
                          projection: ProjectionConfig | None,
                          init: InitialConditions, horizon: int,
                          h: float = 0.01, method: str = "rk4",
                          match=SOLVE) -> SimulationTrace:
    """Closed-loop indirect-gradient run; loop order, divergence rule and
    ``match`` as in the direct case, with the estimator advanced on the
    same pre-update estimates. A theta2 below the invertibility threshold
    raises SingularGainError."""
    _check_run_args(plant, ref, signal, gains, horizon)
    match = _diagonal_match(_matching(plant, ref, match))
    if projection is not None and projection.n_inputs != plant.n_inputs:
        raise ModelError("projection dimension disagrees with the input count")
    n, M = plant.n, plant.n_inputs
    C = n + M
    T1 = horizon + 1
    x0, xm0, theta0, _, xhat0 = init.resolved(n, C, M)
    P = theta0.T.copy()
    if M > 1:
        P[:, n:] *= np.eye(M)
    proj_on = projection is not None and projection.enabled
    if proj_on:
        check_projection_start(P.T, projection)
    law = _indirect_law(plant.A, plant.B, ref.A_m, ref.B_m, gains, P, x0, xm0,
                        xhat0)
    if proj_on:
        law.cols["proj_g2"] = np.arange(law.dW.start, law.dW.stop)[law.th2]
    rec, store = _rows.records(law.cols, T1)
    rec.setdefault("proj_g2", np.zeros((T1, M)))
    rec["proj_f2"] = np.zeros((T1, M))
    floor = (projection.theta2_lower if projection is not None
             else np.full(M, 1e-12))
    if plant.time_domain == DISCRETE:
        h = 1.0
        diverged_at = _rows.run(law, signal.sample(np.arange(T1, dtype=float)),
                                store, projection if proj_on else None,
                                rec["proj_f2"])
        # no update follows the final step
        rec["proj_g2"][horizon] = rec["proj_f2"][horizon] = 0.0
        # a step checks theta2 before its divergence probe
        reached = T1 if diverged_at is None else diverged_at + 1
        theta2 = rec["theta"][:reached, np.arange(n, C), np.arange(M)]
        low = np.flatnonzero(np.any(np.abs(theta2) < floor - 1e-15, axis=1))
        if low.size:
            raise SingularGainError(
                f"theta2 diagonal {theta2[low[0]]} below the invertibility "
                f"threshold at step {low[0]}")
    else:
        # integration stages may sit a hair inside the projected region, so
        # the stage guard only protects the division, not the boundary
        diverged_at = _rows.run_ct(
            law, law.z0, signal, horizon, h, method, integrate_ct, store,
            *_ct_guards(law, projection if proj_on else None,
                        0.5 * floor if proj_on else floor))
        if proj_on:
            rec["proj_f2"] = _ct_projection_rate(
                rec["theta"][:, np.arange(n, C), np.arange(M)],
                rec["proj_g2"], projection)
    rec["proj_fired"] = np.any(rec["proj_f2"] != 0.0, axis=1)

    def V_series(rec):
        return indirect_V_series(
            rec["theta"], theta_star_indirect(match.K1, match.K2),
            gains.Gamma, rec["eps"], rec["m"])

    return _finish_trace("indirect_gradient", plant.time_domain, horizon, h,
                         diverged_at, rec,
                         None if match is None else V_series)


def _ct_guards(law, projection, floor):
    """``after_step`` and ``adjust`` of a continuous-time run (see
    ``_rows.run_ct``): a row whose theta2 is below ``floor`` raises, and
    with a ``projection`` theta2's outward rate on the bound is nulled and
    every copy of theta2 in z snaps onto the bound after each step."""
    n, M, C, K, nK, th2 = law.n, law.M, law.C, law.K, law.nK, law.th2
    theta2_of = law.theta2
    floor_l = (floor - 1e-15).tolist()
    if projection is not None:
        signs_l = projection.signs.tolist()
        edge_l = (projection.theta2_lower + 1e-12).tolist()

    def adjust(dz, row):
        theta2, g2 = row[law.W][th2], dz[nK:][th2]
        for t, lo in zip(theta2.tolist(), floor_l):
            if abs(t) < lo:
                raise SingularGainError(
                    f"theta2 diagonal {theta2} below the invertibility "
                    "threshold")
        if projection is not None and any(
                s * t <= e and s * g < 0.0 for s, t, e, g
                in zip(signs_l, theta2.tolist(), edge_l, g2.tolist())):
            # a copy, so that the row keeps recording the unadjusted rate
            f2 = _ct_projection_rate(theta2, g2, projection)
            dz = dz.copy()
            for rate in theta2_of(dz[nK:]):
                rate += f2
        return dz

    def clamp(z):
        W = z[nK:]
        _clamp_theta2(W[K:K + M * (K + C)].reshape(M, K + C)[:, n:C],
                      projection)
        _clamp_theta2(W[:M * C].reshape(M, C)[:, n:], projection)

    return None if projection is None else clamp, adjust

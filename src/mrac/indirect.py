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

import numpy as np

from ._rows import Law, _check_run_args, _drive, linear_map
# the benchmark's tracer wraps indirect_V_series here by name
from .diagnostics import (SimulationTrace, Stream, TraceSpec,  # noqa: F401
                          gamma1_indirect, gradient_value, indirect_V_series)
# the projection and the indirect gains of gains.py stay importable from here
from .gains import (IndirectGainConfig, InitialConditions,  # noqa: F401
                    ProjectionConfig, _active, _floor, theta_star_indirect)
# the benchmark's tracer wraps solve_matching here by name
from .systems import (DISCRETE, SOLVE, PlantModel,  # noqa: F401
                      ReferenceModel, ReferenceSignal, _matching,
                      integrate_ct, solve_matching)


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
    nK = n * K  # r's column of [F, r, u], u's M on

    # L: S_(j,c) is driven by -x_c or u_(c-n), q_j, x_m and xhat by r, x by u
    L = linear_map(n, K, M, [
        *((j * C + c, Am, [(cx * n + c, -Bm[:, j]) if c < n
                           else (nK + M + c - n, Bm[:, j])])
          for j in range(M) for c in range(C)),
        *((MC + j, Am, [(nK + j, Bm[:, j])]) for j in range(M)),
        *((c, Am, [(nK, Bm)]) for c in (cxm, cxh)),
        (cx, A, [(nK + M, B)])])

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
    law = Law(L, G, F, W, M, xi_in_m=M > 1, rho=False)
    law.cols["x_hat"] = law.F0 + n * cxh + np.arange(n)
    # theta2 in row 1 + j and in row 0 of W^T, and their positions in W
    law.theta2 = lambda W: (W[..., law.th2], W[..., n:MC:C + 1])
    law.theta2_at = np.stack(law.theta2(np.arange(W.shape[0])))
    return law


def _indirect_member(plant, ref, signal, gains, projection, init, horizon,
                     h, match=SOLVE, stream=None, method="rk4") -> Stream:
    """An indirect run with step size ``h`` (1 in discrete time) set up
    (``diagnostics.Stream``), ``stream`` and ``method`` as for
    ``direct._direct_member``; an enabled projection is checked on the
    initial estimates, and the law carries it (``_rows.Layout.carry``)."""
    x0, xm0, theta0, _, xhat0 = _check_run_args(
        plant, ref, signal, gains, init, horizon, projection, h, method)
    match = _matching(plant, ref, match, diagonal=True)
    n, M = plant.n, plant.n_inputs
    P = theta0.T.copy()
    if M > 1:
        P[:, n:] *= np.eye(M)
    law = _indirect_law(plant.A, plant.B, ref.A_m, ref.B_m, gains, P, x0, xm0,
                        xhat0)
    if match is not None:
        law.value = gradient_value(theta_star_indirect(match.K1, match.K2),
                                   gains.Gamma)
        law.gamma0 = gamma1_indirect(gains.Gamma)
    if _active(projection):
        projection.check_start(theta0)
    law.carry(projection,
              _floor(projection, M, stage=plant.time_domain != DISCRETE))
    spec = TraceSpec("indirect_gradient", plant.time_domain, horizon, h)
    return Stream(law, signal, spec, stream)


def run_indirect_scenario(plant: PlantModel, ref: ReferenceModel,
                          signal: ReferenceSignal, gains: IndirectGainConfig,
                          projection: ProjectionConfig | None,
                          init: InitialConditions, horizon: int,
                          h: float = 0.01, method: str = "rk4",
                          match=SOLVE, stream=None) -> SimulationTrace:
    """Closed-loop indirect-gradient run; loop order, divergence rule,
    ``match`` and ``stream`` as in the direct case, with the estimator
    advanced on the same pre-update estimates. A theta2 below the
    invertibility threshold raises SingularGainError."""
    run = _indirect_member(plant, ref, signal, gains, projection, init,
                           horizon, 1.0 if plant.time_domain == DISCRETE
                           else h, match, stream, method)
    return _drive(run, method, integrate_ct)


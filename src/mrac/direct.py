"""Direct gradient adaptive state tracking.

The controller parameters are stacked per input column: column j of theta is
[K1 column j; row j of K2], so with omega = [x; r] the control is simply
u_j = theta_j^T omega. Estimates are driven by the normalized gradient of
sum_i eps_i^2 / m^2 where eps = e + Xi rho composes the tracking error with
the swapping signals; rho_j estimates 1/k2*_j. Updates:

    theta_j <- theta_j - sign(k2*_j) Gamma_j (sum_i eps_i zeta_ij) / m^2
    rho_j   <- rho_j   - gamma_j (sum_i eps_i xi_ij) / m^2

applied as differences in discrete time and as derivatives in continuous
time (where the whole closed loop, filters and parameters included, is
integrated jointly to avoid order-of-integration artifacts).
"""

from __future__ import annotations

import numpy as np

from ._rows import Law, _check_run_args, _drive, linear_map
# the benchmark's tracer wraps direct_V_series here by name
from .diagnostics import (SimulationTrace, Stream, TraceSpec,  # noqa: F401
                          direct_V_series, gamma0_direct, gradient_value)
# the gains and initial conditions of gains.py stay importable from here
from .gains import (DirectGainConfig, InitialConditions,  # noqa: F401
                    stack_controller_gains)
# the benchmark's tracer wraps solve_matching here by name; no run calls it
from .systems import (DISCRETE, SOLVE, PlantModel,  # noqa: F401
                      ReferenceModel, ReferenceSignal, _matching,
                      integrate_ct, solve_matching)


def _direct_law(A, B, Am, Bm, gains, enforce, P, rho, x0, xm0) -> Law:
    """The direct law on the shared layout (see ``_rows``), from theta_j =
    row j of P.

    F columns: S_(j,c), -q_1..-q_M, x_m, x. Row 0 of W^T reads eps = x -
    x_m + sum_j rho_j Xi_j off F, row 1 + j reads Xi_j = S_j theta_j - q_j,
    so rho_j sits in row 0 at -q_j's column.
    """
    n, M = B.shape
    C = n + M
    MC = M * C
    K = MC + M + 2  # F columns
    cxm, cx = MC + M, MC + M + 1
    nK = n * K  # r's column of [F, r, u], u's M on

    # L: S_(j,c) is driven by x_c or r_(c-n), q_j by -u_j, x_m by r, x by u
    L = linear_map(n, K, M, [
        *((j * C + c, Am, [(cx * n + c if c < n else nK + c - n, Bm[:, j])])
          for j in range(M) for c in range(C)),
        *((MC + j, Am, [(nK + M + j, -Bm[:, j])]) for j in range(M)),
        (cxm, Am, [(nK, Bm)]), (cx, A, [(nK + M, B)])])

    # [Xi^T, S^T] (-eps / m^2) -> the steps of theta and rho, with the sign
    # priors, the diagonal-K2 mask and gamma folded in
    G = np.zeros(((M + 1) * K, M + MC))
    for j in range(M):
        Gj = gains.sign_k2[j] * gains.Gamma[j]
        for c in range(C):
            if not (enforce and c >= n and c - n != j):
                G[(1 + j) * K + j * C + c, M + j * C:M + (j + 1) * C] = Gj[c]
        G[MC + j, j] = gains.gamma[j]

    F = np.zeros((K, n))
    F[cxm], F[cx] = xm0, x0
    WT = np.zeros((M + 1, K))
    WT[0, MC:cxm] = rho
    WT[0, cxm], WT[0, cx] = -1.0, 1.0
    for j in range(M):
        WT[1 + j, MC + j] = 1.0
        WT[1 + j, j * C:(j + 1) * C] = P[j]
    law = Law(L, G, F, WT.ravel(), M, xi_in_m=True, rho=True)
    law.cols["rho"] = law.W.start + MC + np.arange(M)
    return law


def _direct_member(plant, ref, signal, gains, init, horizon, h,
                   match=SOLVE, stream=None, method="rk4") -> Stream:
    """A direct run with step size ``h`` (1 in discrete time) set up, its
    rows going to the consumers ``stream`` (``diagnostics.Stream``),
    ``method`` the integrator of a continuous-time one."""
    x0, xm0, theta0, rho0, _ = _check_run_args(
        plant, ref, signal, gains, init, horizon, None, h, method)
    match = _matching(plant, ref, match, diagonal=True)
    n, M = plant.n, plant.n_inputs
    enforce = gains.diagonal is not None and M > 1
    P = theta0.T.copy()  # rows are theta_j
    if enforce:
        P[:, n:] *= np.eye(M)
    law = _direct_law(plant.A, plant.B, ref.A_m, ref.B_m, gains, enforce, P,
                      rho0, x0, xm0)
    if match is not None:
        rho_star = 1.0 / np.diag(match.K2)
        law.value = gradient_value(stack_controller_gains(match.K1, match.K2),
                                   gains.Gamma, rho_star, gains.gamma)
        law.gamma0 = gamma0_direct(gains.Gamma, gains.gamma, rho_star)
    spec = TraceSpec("direct_gradient", plant.time_domain, horizon, h)
    return Stream(law, signal, spec, stream)


def run_direct_scenario(plant: PlantModel, ref: ReferenceModel,
                        signal: ReferenceSignal, gains: DirectGainConfig,
                        init: InitialConditions, horizon: int,
                        h: float = 0.01, method: str = "rk4",
                        match=SOLVE, stream=None) -> SimulationTrace:
    """Closed-loop direct-gradient run over the given horizon.

    Per step: read x and x_m, form e, emit zeta/xi from the banks, form
    eps, record, compute u from the current estimates, update parameters,
    then advance plant, reference and filters on this step's signals.
    Returns the full trace. A run diverges at the first step at which an
    element of x, u or m is not finite, or, in continuous time, after a
    step whose integration is not finite (see ``_rows``); the trace then
    ends before that step, with the divergence marker set instead of
    raising. ``match`` is the scenario's matching solution (see
    ``systems._matching``), which gives V. The run streams its rows
    (``diagnostics.Stream``) to the consumers ``stream``, the last of which
    reduces them and makes the trace returned; without them, the trace
    holds every row (``diagnostics.Keep``).
    """
    run = _direct_member(plant, ref, signal, gains, init, horizon,
                         1.0 if plant.time_domain == DISCRETE else h, match,
                         stream, method)
    return _drive(run, method, integrate_ct)

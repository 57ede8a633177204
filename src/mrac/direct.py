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

from collections import namedtuple
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from . import _lazy
from .errors import GainError, ModelError, ToolkitError
# the gains and initial conditions of gains.py stay importable from here
from .gains import (DirectGainConfig, InitialConditions,  # noqa: F401
                    _check_blocks, _shape_theta, _spd_check,
                    stack_controller_gains)
from .systems import (DISCRETE, PlantModel, ReferenceModel, ReferenceSignal,
                      integrate_ct, solve_matching)

if TYPE_CHECKING:
    from .diagnostics import SimulationTrace

# _rows and diagnostics are imported when a run starts, so that loading a
# config compiles neither; the benchmark's tracer wraps direct_V_series here
__getattr__ = _lazy(__name__, {"direct_V_series": "diagnostics"})


def _check_run_args(plant: PlantModel, ref: ReferenceModel,
                    signal: ReferenceSignal, gains, init: InitialConditions,
                    horizon: int, projection=None, h=1.0, method="rk4"):
    """The check every runner makes before its first step: the models,
    signal, ``gains`` (any scheme's; a Lyapunov one has no time domain),
    ``projection`` and ``init`` all fit the plant's n and M, and in
    continuous time the step ``h`` is positive and finite and ``method``
    an integrator. Returns the resolved initial states
    (``InitialConditions.resolved``)."""
    if plant.time_domain != ref.time_domain:
        raise ModelError("plant and reference model time domains differ")
    if getattr(gains, "time_domain", plant.time_domain) != plant.time_domain:
        raise ModelError("gain config was validated for a different time domain")
    if plant.n != ref.n or plant.n_inputs != ref.n_inputs:
        raise ModelError("plant and reference model dimensions differ")
    n, M = plant.n, plant.n_inputs
    if signal.dimension != M:
        raise ModelError(f"signal dimension {signal.dimension} != input count {M}")
    if isinstance(horizon, bool) or not isinstance(horizon, (int, np.integer)):
        raise ModelError(f"horizon must be an integer, got {horizon!r}")
    if horizon < 1:
        raise ModelError("horizon must be at least 1")
    if plant.time_domain != DISCRETE and not 0.0 < h < np.inf:
        raise ModelError(f"h must be positive and finite, got {h!r}")
    if plant.time_domain != DISCRETE and method not in ("rk4", "euler"):
        raise ModelError(f"method must be 'rk4' or 'euler', got {method!r}")
    for name, want in gains.shapes(n, M).items():
        got = np.shape(getattr(gains, name))
        if got != want:
            raise GainError(f"{name} must have shape {want} on a plant with "
                            f"n={n}, M={M}, got {got}")
    if projection is not None and projection.n_inputs != M:
        raise ModelError("projection dimension disagrees with the input count: "
                         f"signs must have shape ({M},), got "
                         f"{projection.signs.shape}")
    return init.resolved(n, n + M, M)


# the matching solution a runner solves itself when it is given none
SOLVE = object()


def _matching(plant, ref, match=SOLVE):
    """``match``, or when it is ``SOLVE`` the scenario's matching solution;
    None when ``solve_matching`` raises (a singular K2)."""
    if match is not SOLVE:
        return match
    try:
        return solve_matching(plant, ref)
    except ModelError:
        return None


def _diagonal_match(match):
    """``match`` when it is matchable with a diagonal, invertible K2*, else
    None: V needs theta* and rho* = 1/k2*."""
    if match is None or not match.matchable():
        return None
    K2d = np.diag(match.K2)
    if np.any(np.abs(K2d) < 1e-12) \
            or np.max(np.abs(match.K2 - np.diag(K2d))) > 1e-9:
        return None
    return match


def _direct_law(A, B, Am, Bm, gains, enforce, P, rho, x0, xm0) -> Law:
    """The direct law on the shared layout (see ``_rows``), from theta_j =
    row j of P.

    F columns: S_(j,c), -q_1..-q_M, x_m, x. Row 0 of W^T reads eps = x -
    x_m + sum_j rho_j Xi_j off F, row 1 + j reads Xi_j = S_j theta_j - q_j,
    so rho_j sits in row 0 at -q_j's column.
    """
    from ._rows import Law, block
    n, M = B.shape
    C = n + M
    MC = M * C
    K = MC + M + 2  # F columns
    cxm, cx = MC + M, MC + M + 1
    nK = n * K

    # one constant map advances every linear state, given r and u
    L = np.zeros((nK, nK + 2 * M))
    for j in range(M):
        for c in range(C):
            k = j * C + c
            block(L, n, k, k, Am)
            L[k * n:(k + 1) * n, cx * n + c if c < n else nK + c - n] = Bm[:, j]
        block(L, n, MC + j, MC + j, Am)
        L[(MC + j) * n:(MC + j + 1) * n, nK + M + j] = -Bm[:, j]
    block(L, n, cxm, cxm, Am)
    L[cxm * n:(cxm + 1) * n, nK:nK + M] = Bm
    block(L, n, cx, cx, A)
    L[cx * n:, nK + M:] = B

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


# a run set up on its law (see ``_rows``), which carries any theta2 guards
# its runner calls and its trace's V: store(records), which receives its
# finished rows' records in order (its sink's, see ``_set_up``),
# finish(diverged_at), which makes its trace, its reference signal, and its
# trace's TraceSpec, whose horizon, time domain and step dt its runner
# steps it by
Member = namedtuple("Member", "law store finish signal spec")


def _set_up(law, signal, spec, stream=None, extra=None):
    """The run of ``law`` on ``signal`` whose trace ``spec`` describes,
    with its sink (``Stream``) of the records of ``law.cols`` and
    ``extra`` ({name: row shape}, which stay zero) to the consumers
    ``stream``, the last of which reduces the rows; without them, to a
    ``Keep``, so that the run's trace holds its rows."""
    from .diagnostics import Keep, Stream
    out = Stream(law, spec, [Keep(spec.horizon + 1)] if stream is None
                 else stream, extra)
    return Member(law, out.store, out.finish, signal, spec)


def _direct_member(plant, ref, signal, gains, init, horizon, h,
                   match=SOLVE, stream=None, method="rk4") -> Member:
    """A direct run with step size ``h`` (1 in discrete time) set up,
    ``stream`` as for ``_set_up``, ``method`` the integrator of a
    continuous-time one."""
    from .diagnostics import TraceSpec, _gradient_V, gamma0_direct
    x0, xm0, theta0, rho0, _ = _check_run_args(
        plant, ref, signal, gains, init, horizon, None, h, method)
    match = _diagonal_match(_matching(plant, ref, match))
    n, M = plant.n, plant.n_inputs
    enforce = gains.diagonal is not None and M > 1
    P = theta0.T.copy()  # rows are theta_j
    if enforce:
        P[:, n:] *= np.eye(M)
    law = _direct_law(plant.A, plant.B, ref.A_m, ref.B_m, gains, enforce, P,
                      rho0, x0, xm0)
    if match is not None:
        rho_star = 1.0 / np.diag(match.K2)
        law.value = partial(
            _gradient_V, theta_star=stack_controller_gains(match.K1, match.K2),
            Gamma=gains.Gamma, rho_star=rho_star, gamma=gains.gamma)
        law.gamma0 = gamma0_direct(gains.Gamma, gains.gamma, rho_star)
    spec = TraceSpec("direct_gradient", plant.time_domain, horizon, h)
    return _set_up(law, signal, spec, stream)


def _drive(run: Member, method, integrate):
    """The trace of the set-up run ``run``: stepped alone by ``_rows.run``
    in discrete time, else by ``_rows.run_ct`` with ``integrate``, the
    runner module's ``integrate_ct``. The error its law's guards found is
    raised."""
    from . import _rows
    if run.spec.time_domain == DISCRETE:
        [ended] = _rows.run([run])
    else:
        [ended] = _rows.run_ct(run, method, integrate)
    if isinstance(ended, ToolkitError):
        raise ended
    return run.finish(ended)


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
    ``_matching``), which gives V. The run streams its rows
    (``diagnostics.Stream``) to the consumers ``stream``, the last of which
    reduces them and makes the trace returned; without them, the trace
    holds every row (``diagnostics.Keep``).
    """
    run = _direct_member(plant, ref, signal, gains, init, horizon,
                         1.0 if plant.time_domain == DISCRETE else h, match,
                         stream, method)
    return _drive(run, method, integrate_ct)

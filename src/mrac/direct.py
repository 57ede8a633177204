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

import numpy as np

from . import _rows
from ._rows import Law, block
from .diagnostics import (Keep, SimulationTrace, Stream, TraceSpec, _entries,
                          _stack_gains, direct_V_series)
from .errors import GainError, ModelError, ToolkitError
from .systems import (DISCRETE, PlantModel, ReferenceModel, ReferenceSignal,
                      integrate_ct, solve_matching)


def stack_controller_gains(K1, K2) -> np.ndarray:
    """Stack (K1, K2) into the (n+M, M) parameter layout used throughout."""
    K1 = np.asarray(K1, dtype=float)
    K2 = np.atleast_2d(np.asarray(K2, dtype=float))
    if K1.ndim == 1:
        K1 = K1.reshape(-1, 1)
    return np.vstack([K1, K2.T])


def _spd_check(G, label, error=GainError):
    """The ascending eigenvalues of the SPD ``G``, else ``error``."""
    if not np.allclose(G, G.T, atol=1e-10, rtol=0.0):
        raise error(f"{label} must be symmetric")
    eig = np.linalg.eigvalsh(G)
    if eig[0] <= 0.0:
        raise error(f"{label} must be positive definite")
    return eig


def _check_blocks(G, upper, too_large, trailing=None):
    """Check the gain blocks Gamma_j of a gradient law's (M, n_w, n_w)
    stack ``G``, n = n_w - M >= 1: each symmetric positive definite, its
    largest eigenvalue below ``upper``, or its entry j (else the GainError
    is ``too_large(j, lam)``), and, when ``trailing`` names its trailing M x M
    block, block diagonal with that block diagonal."""
    M, n_w = G.shape[:2]
    n = n_w - M
    if n < 1:
        raise GainError(f"Gamma block size {n_w} too small for M={M}")
    upper = np.broadcast_to(upper, (M,))
    for j, Gj in enumerate(G):
        lam = _spd_check(Gj, f"Gamma[{j}]")[-1]
        if lam >= upper[j]:
            raise GainError(too_large(j, lam))
        if trailing and (np.any(Gj[:n, n:])
                         or np.any(Gj[n:, n:] * (1.0 - np.eye(M)))):
            raise GainError(f"Gamma[{j}] must be block diagonal with a "
                            f"diagonal {trailing}")


class DirectGainConfig:
    """Adaptation gains plus the sign/bound priors they are validated against.

    Discrete single-input: 0 < Gamma = Gamma^T < 2 k2_lower I and
    0 < gamma < 2. Discrete multi-input: each block satisfies the
    conservative 0 < Gamma_j < k2_lower_j I (with the factor-of-two slack
    left on the table) and 0 < gamma_j < 2; with diagonal enforcement on,
    Gamma_j must additionally be block diagonal with a diagonal lower
    block. Continuous time only needs positive definiteness and a finite
    gamma > 0. k2_lower must be positive and finite in both. Gamma is kept
    as the (M, n_w, n_w) stack, gamma, sign_k2 and k2_lower as (M,) arrays.
    """

    def __init__(self, Gamma, gamma, sign_k2, k2_lower,
                 time_domain: str = DISCRETE, enforce_diagonal_k2: bool = True):
        self.time_domain = time_domain
        self.enforce_diagonal_k2 = enforce_diagonal_k2
        signs = np.atleast_1d(np.asarray(sign_k2, dtype=float))
        M = signs.shape[0]
        if not np.all(np.abs(signs) == 1.0):
            raise GainError("sign_k2 entries must be +1 or -1")
        lower = _entries(k2_lower, "k2_lower", M, True, GainError)
        if not np.all((lower > 0.0) & (lower < np.inf)):
            raise GainError("k2 lower bounds must be positive and finite")
        gam = _entries(gamma, "gamma", M, True, GainError)
        gamma_upper = 2.0 if time_domain == DISCRETE else np.inf
        bound = (2.0 if M == 1 else 1.0) * lower
        G = _stack_gains(Gamma, M)
        _check_blocks(
            G, bound if time_domain == DISCRETE else np.inf, lambda j, lam: (
                f"{'Gamma' if M == 1 else f'Gamma[{j}]'} violates the "
                f"{'2*' if M == 1 else ''}k2_lower bound: largest eigenvalue "
                f"{lam:.6g} >= {bound[j]:.6g}"),
            "K2 block when diagonal enforcement is on"
            if M > 1 and enforce_diagonal_k2 else None)
        for j in range(M):
            if not 0.0 < gam[j] < gamma_upper:
                raise GainError(f"gamma[{j}]={gam[j]:.6g} outside "
                                f"(0, {gamma_upper:g})")
        self.Gamma, self.gamma, self.sign_k2, self.k2_lower = G, gam, signs, lower

    @property
    def n_inputs(self) -> int:
        return self.sign_k2.shape[0]

    def shapes(self, n: int, M: int) -> dict:
        """The shape each gain must have on an n-state, M-input plant."""
        return {"sign_k2": (M,), "Gamma": (M, n + M, n + M)}


def _shape_theta(theta, n_w, M):
    th = np.asarray(theta, dtype=float)
    if th.ndim == 1:
        th = th.reshape(-1, 1)
    if th.shape != (n_w, M):
        raise ModelError(f"theta must have shape ({n_w}, {M}), got {th.shape}")
    return th.copy()


class InitialConditions(namedtuple("InitialConditions", "x0 xm0 theta0 rho0 "
                                   "xhat0", defaults=(None,) * 5)):
    """Initial states for a scenario run; unset entries default to zero
    (and the estimator state defaults to the plant state)."""

    __slots__ = ()

    def resolved(self, n: int, n_w: int, M: int):
        """(x0, xm0, theta0, rho0, xhat0) as arrays of shapes (n,), (n,),
        (n_w, M), (M,) and (n,); one rho0 entry stands for every input. An
        entry of another size raises ModelError."""
        x0 = np.zeros(n) if self.x0 is None else _entries(self.x0, "x0", n)
        xm0 = np.zeros(n) if self.xm0 is None else _entries(self.xm0, "xm0", n)
        theta0 = (np.zeros((n_w, M)) if self.theta0 is None
                  else _shape_theta(self.theta0, n_w, M))
        rho0 = (np.zeros(M) if self.rho0 is None
                else _entries(self.rho0, "rho0", M, spread=True))
        xhat0 = (x0.copy() if self.xhat0 is None
                 else _entries(self.xhat0, "xhat0", n))
        return x0, xm0, theta0, rho0, xhat0


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
    law = Law(L, G, F, WT.ravel(), M, xi_in_m=True, xi_in_ab=True, rho=True)
    law.cols["rho"] = law.W.start + MC + np.arange(M)
    return law


# a run set up on its law (see ``_rows``), which carries any theta2 guards
# its runner calls: store(records, t0, stop), which receives its rows'
# records (its sink's, see ``_set_up``), finish(diverged_at), which makes
# its trace, and r(lo, hi), r at its rows lo..hi
Member = namedtuple("Member", "law store finish r")


def _sampler(signal: ReferenceSignal, domain: str, h: float):
    """``r(lo, hi)``: r at the rows lo..hi of a run, each row a step, in
    discrete time, else each row the four stage times t_k, t_k + h/2 (twice)
    and t_k + h of step k."""
    if domain == DISCRETE:
        return lambda lo, hi: signal.sample(np.arange(lo, hi, dtype=float))

    def r(lo, hi):
        # a step near the float range overflows the stage times; r then
        # reads NaN and the run diverges
        with np.errstate(over="ignore"):
            t = np.arange(lo, hi) * h
            mid = t + 0.5 * h
            times = np.stack([t, mid, mid, t + h], axis=1)
        return signal.sample(times.ravel()).reshape(hi - lo, 4, -1)

    return r


def _set_up(law, signal, spec, stream=None, extra=None, check=None):
    """The run of ``law`` on ``signal`` whose trace ``spec`` describes,
    with its sink (``Stream``) of the records of ``law.cols`` and
    ``extra`` ({name: row shape}) to the consumers ``stream``, the last
    of which reduces the rows; without them, to a ``Keep``, so that the
    run's trace holds its rows. ``check(records, t0)`` completes or checks
    each chunk's records before the sink receives them."""
    shapes = _rows.shapes(law.cols, **(extra or {}))
    out = Stream(shapes, spec, [Keep(spec.horizon + 1)] if stream is None
                 else stream)

    def store(rows, t0, stop):
        check(rows, t0)
        out.store(rows, t0, stop)

    return Member(law, out.store if check is None else store, out.finish,
                  _sampler(signal, spec.time_domain, spec.dt))


def _direct_member(plant, ref, signal, gains, init, horizon, h,
                   match=SOLVE, stream=None, method="rk4") -> Member:
    """A direct run with step size ``h`` (1 in discrete time) set up,
    ``stream`` as for ``_set_up``, ``method`` the integrator of a
    continuous-time one."""
    x0, xm0, theta0, rho0, _ = _check_run_args(
        plant, ref, signal, gains, init, horizon, None, h, method)
    match = _diagonal_match(_matching(plant, ref, match))
    n, M = plant.n, plant.n_inputs
    enforce = gains.enforce_diagonal_k2 and M > 1
    P = theta0.T.copy()  # rows are theta_j
    if enforce:
        P[:, n:] *= np.eye(M)
    law = _direct_law(plant.A, plant.B, ref.A_m, ref.B_m, gains, enforce, P,
                      rho0, x0, xm0)

    V_series = None
    if match is not None:
        theta_star = stack_controller_gains(match.K1, match.K2)
        rho_star = 1.0 / np.diag(match.K2)

        def V_series(rec):
            return direct_V_series(rec["theta"], rec["rho"], theta_star,
                                   rho_star, gains.Gamma, gains.gamma,
                                   rec["eps"], rec["m"])

    spec = TraceSpec("direct_gradient", plant.time_domain, horizon, h,
                     V_series)
    return _set_up(law, signal, spec, stream)


def _drive(run: Member, domain, horizon, h, method, integrate):
    """The trace of the set-up run ``run`` in time domain ``domain``:
    stepped alone by ``_rows.run`` in discrete time, else by
    ``_rows.run_ct`` with ``integrate``, the runner module's
    ``integrate_ct``. The error its store found is raised."""
    if domain == DISCRETE:
        [ended] = _rows.run([run], horizon + 1)
    else:
        [ended] = _rows.run_ct(run, horizon, h, method, integrate)
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
    domain = plant.time_domain
    run = _direct_member(plant, ref, signal, gains, init, horizon,
                         1.0 if domain == DISCRETE else h, match, stream,
                         method)
    return _drive(run, domain, horizon, h, method, integrate_ct)

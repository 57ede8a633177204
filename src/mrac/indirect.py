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

from operator import lt, mul

import numpy as np

from . import _rows
from ._rows import Law, block, row_blocks
from .diagnostics import SimulationTrace, TraceSpec, indirect_V_series
from .direct import (SOLVE, InitialConditions, Member, _check_run_args,
                     _diagonal_match, _drive, _matching, _set_up, _spd_check,
                     stack_controller_gains)
from .errors import GainError, ProjectionError, SingularGainError
# solve_matching stays a module attribute: the benchmark's tracer wraps it
# here by name
from .systems import (DISCRETE, PlantModel, ReferenceModel,  # noqa: F401
                      ReferenceSignal, integrate_ct, solve_matching)


class ProjectionConfig:
    """Sign priors and the lower bound theta2_lower = 1 / k2_upper, both
    kept as (M,) arrays: signs of entries +-1, positive bounds.

    ``enabled=False`` keeps the raw gradient law; controller recovery then
    raises on sub-threshold estimates instead of being protected. Each
    theta2 rule lives here once: below, in the floors and in ``_ct_guards``.
    """

    def __init__(self, theta2_lower, signs, enabled: bool = True):
        self.enabled = enabled
        self.signs = np.atleast_1d(np.asarray(signs, dtype=float))
        M = self.signs.shape[0]
        if not np.all(np.abs(self.signs) == 1.0):
            raise ProjectionError("projection signs must be +1 or -1")
        lower = np.broadcast_to(
            np.atleast_1d(np.asarray(theta2_lower, dtype=float)), (M,)).copy()
        if np.any(lower <= 0.0) or not np.all(np.isfinite(lower)):
            raise ProjectionError(
                "theta2 lower bounds must be positive and finite")
        self.theta2_lower = lower

    @classmethod
    def from_k2_upper(cls, k2_upper, signs, enabled: bool = True) -> "ProjectionConfig":
        """Build the bound from an upper bound on |k2*| (lower = 1/upper)."""
        upper = np.atleast_1d(np.asarray(k2_upper, dtype=float))
        if np.any(upper <= 0.0):
            raise ProjectionError("k2 upper bounds must be positive")
        # a subnormal bound has no finite reciprocal; __init__ rejects it
        with np.errstate(over="ignore"):
            lower = 1.0 / upper
        return cls(theta2_lower=lower, signs=signs, enabled=enabled)

    @property
    def n_inputs(self) -> int:
        return self.signs.shape[0]

    def check_start(self, theta):
        """Reject initial estimates ``theta`` ((n+M, M) column layout) whose
        theta2 diagonal is outside the bound."""
        for j, t2 in enumerate(_theta2(theta)):
            if self.signs[j] * t2 < self.theta2_lower[j]:
                raise ProjectionError(
                    f"initial theta2[{j}]={t2:.6g} violates sign/lower-bound "
                    f"(need sign {self.signs[j]:+.0f}, magnitude >= "
                    f"{self.theta2_lower[j]:.6g})")

    def holds(self, theta) -> bool:
        """The run invariant: the theta2 diagonal of every record of
        ``theta`` (steps x (n+M) x M) inside its bound, up to 1e-12; tested
        a block of records at a time."""
        return all(bool(np.all(self.signs * _theta2(theta[lo:hi])
                               >= self.theta2_lower - 1e-12))
                   for lo, hi in row_blocks(theta.shape[0]))

    def landing(self, law, f2):
        """The discrete landing, a run's ``after_step`` (see ``_rows.run``):
        step i of a chunk lands a theta2 it left outside the bound on it, in
        every copy ``law.theta2`` names, gradient then correction, with the
        correction in ``f2[i]``, an array of a chunk's rows."""
        signs, lower = self.signs, self.theta2_lower
        signs_l, lower_l = signs.tolist(), lower.tolist()

        def after_step(row, i):
            copies = law.theta2(row[law.W])
            first, out = copies[0], f2[i]

            def land():
                if any(map(lt, map(mul, signs_l, first.tolist()), lower_l)):
                    cand = first.copy()
                    out[...] = np.where(signs * cand < lower,
                                        signs * lower - cand, 0.0)
                    for th2 in copies:
                        th2 += out

            return land

        return after_step

    def rate(self, theta2, g2):
        """The continuous-time correction of theta2's raw rate ``g2``: -g2
        where ``_nulls`` holds, else 0."""
        return np.where(_nulls(self.signs, theta2, self.theta2_lower, g2),
                        -g2, 0.0)

    def clamp(self, at):
        """``clamp(z)``: snap each theta2 of z, at the flat positions ``at``
        (copies x M), back onto the signed bound where integration landed
        it a hair inside."""
        at_l = np.asarray(at).ravel().tolist()
        copies = len(at_l) // self.n_inputs
        signs_l = self.signs.tolist() * copies
        lower_l = self.theta2_lower.tolist() * copies
        bound_l = (self.signs * self.theta2_lower).tolist() * copies

        def clamp(z):
            for p, t, s, lo, b in zip(at_l, z.take(at_l).tolist(), signs_l,
                                      lower_l, bound_l):
                if s * t < lo:
                    z[p] = b

        return clamp


def _nulls(s, theta2, lower, g2):
    """Whether the continuous-time projection nulls theta2's rate ``g2``: on
    (or past) the bound, up to 1e-12, and outward. Floats or arrays."""
    return (s * theta2 <= lower + 1e-12) & (s * g2 < 0.0)


def _active(projection: ProjectionConfig | None):
    """``projection`` when it is enabled, else None."""
    return projection if projection and projection.enabled else None


def _theta2(theta):
    """The theta2 diagonal of estimates ``theta`` (..., n+M, M)."""
    M = theta.shape[-1]
    return np.diagonal(theta[..., -M:, :], axis1=-2, axis2=-1)


def _floor(projection: ProjectionConfig | None, M: int, stage=False):
    """The invertibility floor of |theta2|, less 1e-15: theta2_lower under a
    projection, enabled or not, else 1e-12; half theta2_lower at the
    integration stages of an enabled one, which may sit a hair inside."""
    floor = (np.full(M, 1e-12) if projection is None
             else projection.theta2_lower)
    if stage and _active(projection):
        floor = 0.5 * floor
    return floor - 1e-15


def _start(law, projection: ProjectionConfig | None, theta0):
    """``projection`` when enabled, after its start check on ``theta0``,
    else None; with it theta2's raw rate is recorded as proj_g2."""
    proj = _active(projection)
    if proj is not None:
        proj.check_start(theta0)
        law.cols["proj_g2"] = np.arange(law.dW.start, law.dW.stop)[law.th2]
    return proj


def _projection_records(law, M):
    """The records of theta2's raw rate (proj_g2, zero without an enabled
    projection) and its correction (proj_f2) that a run's records add to
    ``law.cols``: {name: row shape}."""
    return {name: (M,) for name in ("proj_g2", "proj_f2")
            if name not in law.cols}


def _check_floor(theta2, projection: ProjectionConfig | None, t0: int = 0):
    """Raise SingularGainError at the first step of ``theta2`` (steps x M,
    of steps t0 onward) with an entry below the invertibility floor
    (``_floor``)."""
    low = np.flatnonzero(np.any(
        np.abs(theta2) < _floor(projection, theta2.shape[1]), axis=1))
    if low.size:
        raise SingularGainError(
            f"theta2 diagonal {theta2[low[0]]} below the invertibility "
            f"threshold at step {t0 + low[0]}")


class IndirectGainConfig:
    """Gain blocks for the indirect law, kept as the (M, n_w, n_w) stack
    Gamma; a single block is the stack of one, M = 1.

    Each Gamma_j must be symmetric positive definite and block diagonal
    with a diagonal trailing M x M block (the structure the projection
    argument needs); discrete time additionally requires every eigenvalue
    below 2.
    """

    def __init__(self, Gamma, time_domain: str = DISCRETE):
        self.time_domain = time_domain
        G = np.asarray(Gamma, dtype=float)
        if G.ndim == 2:
            G = G[None]
        if G.ndim != 3 or G.shape[1] != G.shape[2]:
            raise GainError(f"Gamma must stack to (M, n_w, n_w), got {G.shape}")
        M, n_w = G.shape[:2]
        n = n_w - M
        if n < 1:
            raise GainError(f"Gamma block size {n_w} too small for M={M}")
        for j in range(M):
            eig = _spd_check(G[j], f"Gamma[{j}]")
            if time_domain == DISCRETE and eig[-1] >= 2.0:
                raise GainError(
                    f"Gamma[{j}] violates the spectral bound 2: largest eigenvalue "
                    f"{eig[-1]:.6g}"
                )
            if np.any(G[j][:n, n:]) or np.any(G[j][n:, n:] * (1.0 - np.eye(M))):
                raise GainError(
                    f"Gamma[{j}] must be block diagonal with a diagonal trailing block"
                )
        self.Gamma = G

    @property
    def n_inputs(self) -> int:
        return self.Gamma.shape[0]

    def shapes(self, n: int, M: int) -> dict:
        """The shape each gain must have on an n-state, M-input plant."""
        return {"Gamma": (M, n + M, n + M)}


def theta_star_indirect(K1, K2) -> np.ndarray:
    """True plant parametrization from matching gains:
    Theta1* = K1 (K2^{-1})^T, Theta2* = K2^{-1}."""
    K1 = np.asarray(K1, dtype=float)
    K2 = np.atleast_2d(np.asarray(K2, dtype=float))
    if K1.ndim == 1:
        K1 = K1.reshape(-1, 1)
    K2inv = np.linalg.inv(K2)
    return stack_controller_gains(K1 @ K2inv.T, K2inv)


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
    # theta2 in row 1 + j and in row 0 of W^T, and their positions in W
    law.theta2 = lambda W: (W[..., law.th2], W[..., n:MC:C + 1])
    law.theta2_at = np.stack(law.theta2(np.arange(W.shape[0])))
    return law


def _indirect_member(plant, ref, signal, gains, projection, init, horizon,
                     h, match=SOLVE, stream=None) -> Member:
    """An indirect run with step size ``h`` (1 in discrete time) set up,
    ``stream`` as for ``direct._direct_member``. The store of a discrete
    run raises SingularGainError at a theta2 below the invertibility
    threshold, and the guards of a continuous-time one (``_ct_guards``) at
    a stage's."""
    x0, xm0, theta0, _, xhat0 = _check_run_args(plant, ref, signal, gains,
                                                init, horizon, projection)
    match = _diagonal_match(_matching(plant, ref, match))
    n, M = plant.n, plant.n_inputs
    P = theta0.T.copy()
    if M > 1:
        P[:, n:] *= np.eye(M)
    law = _indirect_law(plant.A, plant.B, ref.A_m, ref.B_m, gains, P, x0, xm0,
                        xhat0)

    V_series = None
    if match is not None:
        theta_star = theta_star_indirect(match.K1, match.K2)

        def V_series(rec):
            return indirect_V_series(rec["theta"], theta_star, gains.Gamma,
                                     rec["eps"], rec["m"])

    spec = TraceSpec("indirect_gradient", plant.time_domain, horizon, h,
                     V_series)
    if plant.time_domain != DISCRETE:
        return _projected_ct(law, signal, projection, theta0, spec, stream,
                             _floor(projection, M, stage=True))
    proj = _start(law, projection, theta0)
    # the landing's corrections of a chunk's steps
    f2 = np.zeros((_rows.CHUNK + 1, M))

    def check(rows, t0):
        steps = rows["theta"].shape[0]
        rows["proj_f2"] = f2[:steps].copy()
        f2[...] = 0.0
        if "proj_g2" not in rows:
            rows["proj_g2"] = np.zeros((steps, M))
        if t0 + steps == horizon + 1:
            # no update follows the final step
            rows["proj_g2"][-1] = rows["proj_f2"][-1] = 0.0
        # a step checks theta2 before its divergence probe, so the
        # divergence row is checked too
        _check_floor(_theta2(rows["theta"]), projection, t0)

    return _set_up(law, signal, spec, stream, _projection_records(law, M),
                   after_step=proj and proj.landing(law, f2), check=check)


def _projected_ct(law, signal, projection, theta0, spec, stream,
                  floor=None) -> Member:
    """A continuous-time run of ``law`` from its ``z0`` under
    ``projection`` set up, the one path of both indirect schemes:
    ``_start``, the guards ``_ct_guards`` with ``floor``, and proj_f2, the
    projection's correction of each recorded rate, set in each chunk's
    records; ``spec`` makes its trace and ``stream`` is as for
    ``direct._set_up``."""
    proj = _start(law, projection, theta0)
    M = theta0.shape[1]

    def check(rows, t0):
        steps = rows["theta"].shape[0]
        if proj is None:
            rows["proj_g2"] = rows["proj_f2"] = np.zeros((steps, M))
        else:
            rows["proj_f2"] = proj.rate(_theta2(rows["theta"]),
                                        rows["proj_g2"])

    after_step, adjust = _ct_guards(law, proj, floor)
    return _set_up(law, signal, spec, stream, _projection_records(law, M),
                   after_step=after_step, adjust=adjust, check=check)


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
    domain = plant.time_domain
    run = _indirect_member(plant, ref, signal, gains, projection, init,
                           horizon, 1.0 if domain == DISCRETE else h, match,
                           stream)
    return _drive(run, domain, horizon, h, method, integrate_ct)


def _ct_guards(law, projection, floor=None):
    """``after_step`` and ``adjust`` of a continuous-time run (see
    ``_rows.run_ct``) of a law whose theta2 is ``law.th2`` of W, every copy
    at ``law.theta2_at``: a row with |theta2| below ``floor`` raises, and a
    ``projection`` nulls theta2's outward rate on the bound and snaps every
    copy of theta2 in z onto the bound after each step. Both are None when
    there is neither."""
    if projection is None and floor is None:
        return None, None
    floor_l = [] if floor is None else floor.tolist()
    clamp = None
    if projection is not None:
        # theta2's positions in z = [F, W] and in its rate [dF, dW]
        at = law.nF + law.theta2_at
        clamp = projection.clamp(at)
        signs_l, lower_l = (projection.signs.tolist(),
                            projection.theta2_lower.tolist())

    def adjust(row):
        theta2, g2 = row[law.W][law.th2], row[law.dW][law.th2]

        def check(dz):
            t2 = theta2.tolist()
            for t, lo in zip(t2, floor_l):
                if abs(t) < lo:
                    raise SingularGainError(
                        f"theta2 diagonal {theta2} below the invertibility "
                        "threshold")
            if projection is not None and any(
                    map(_nulls, signs_l, t2, lower_l, g2.tolist())):
                # a copy, so that the row keeps recording the unadjusted
                # rate
                dz = dz.copy()
                dz[at] += projection.rate(theta2, g2)
            return dz

        return check

    return clamp, adjust

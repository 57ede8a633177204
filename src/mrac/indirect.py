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

from itertools import chain
from operator import lt, mul

import numpy as np

from ._rows import Law, Layout, block, row_blocks
from .diagnostics import (SimulationTrace, TraceSpec, _entries, _stack_gains,
                          indirect_V_series)
from .direct import (SOLVE, InitialConditions, Member, _check_blocks,
                     _check_run_args, _diagonal_match, _drive, _matching,
                     _set_up, stack_controller_gains)
from .errors import ProjectionError, SingularGainError
# solve_matching stays a module attribute: the benchmark's tracer wraps it
# here by name
from .systems import (DISCRETE, PlantModel, ReferenceModel,  # noqa: F401
                      ReferenceSignal, integrate_ct, solve_matching)


class ProjectionConfig:
    """Sign priors and the lower bound theta2_lower = 1 / k2_upper, both
    kept as (M,) arrays: signs of entries +-1, positive bounds.

    ``enabled=False`` keeps the raw gradient law; controller recovery then
    raises on sub-threshold estimates instead of being protected. Each
    theta2 rule lives here once: below, in the floors and in the guards a
    law carries (``Guarded``).
    """

    def __init__(self, theta2_lower, signs, enabled: bool = True):
        self.enabled = enabled
        self.signs = np.atleast_1d(np.asarray(signs, dtype=float))
        M = self.signs.shape[0]
        if not np.all(np.abs(self.signs) == 1.0):
            raise ProjectionError("projection signs must be +1 or -1")
        lower = _entries(theta2_lower, "theta2_lower", M, True,
                         ProjectionError)
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

    def rate(self, theta2, g2):
        """The continuous-time correction of theta2's raw rate ``g2``: -g2
        where ``_nulls`` holds, else 0."""
        return np.where(_nulls(self.signs, theta2, self.theta2_lower, g2),
                        -g2, 0.0)


def _nulls(s, theta2, lower, g2):
    """Whether the continuous-time projection nulls theta2's rate ``g2``: on
    (or past) the bound, up to 1e-12, and outward. Floats or arrays."""
    return (s * theta2 <= lower + 1e-12) & (s * g2 < 0.0)


def _scalars(block: bool):
    """The reader of the entries of a row's view, or with ``block`` of a
    (B, ...) block's, as one flat list of floats."""
    if block:
        return lambda v: list(chain.from_iterable(v.tolist()))
    return np.ndarray.tolist


class Guarded(Layout):
    """A layout whose law carries theta2 guards: theta2 is ``th2`` of W and
    of dW, its copies ``theta2_at`` of W (copies x M, or M). ``signs`` and
    ``theta2_lower`` are an enabled projection's, ``floor`` a
    continuous-time stage's invertibility floor, each (M,), or (B, M) in a
    group's law (``_rows.stack``). Each guard takes a row's views or a (B,
    ...) block's, and tests its rule on Python scalars before it acts."""

    rate = ProjectionConfig.rate  # on the law's own signs and bounds

    def landing(self):
        """``land(copies, f2)`` (see ``_rows.run``): a theta2 that step i
        left outside the bound in ``copies``, those of row i + 1, lands on
        it, gradient then correction, and the correction goes into row i's
        proj_f2 columns ``f2``."""
        s, lower = self.signs, self.theta2_lower
        s_l, lower_l = s.ravel().tolist(), lower.ravel().tolist()
        flat = _scalars(s.ndim > 1)

        def land(copies, f2):
            t = copies[0]
            if any(map(lt, map(mul, s_l, flat(t)), lower_l)):
                f2[...] = out = np.where(s * t < lower, s * lower - t, 0.0)
                for th2 in copies:
                    th2 += out

        return land

    def ct_guards(self):
        """``(guard, clamp)`` (see ``_rows.run_ct``). ``guard((theta2, g2),
        dz)`` raises SingularGainError at a |theta2| below the floor, and
        returns the rate dz, or a copy of it in which the projection nulls
        theta2's outward rate ``g2`` on the bound (``rate``), so that the
        row keeps the raw rate. ``clamp(z)`` snaps each copy of theta2 in z
        = [F, W] that integration left a hair inside the bound onto it,
        None without a projection."""
        s, lower, floor = self.signs, self.theta2_lower, self.floor
        # theta2's positions in z = [F, W] and in its rate [dF, dW]
        at = self.nF + self.theta2_at.reshape(-1, self.theta2_at.shape[-1])
        flat = _scalars((floor if s is None else s).ndim > 1)
        s_l = lower_l = clamp = None
        if s is not None:
            s_l, lower_l = s.ravel().tolist(), lower.ravel().tolist()
            sc, lc = s[..., None, :], lower[..., None, :]
            at_l = at.ravel()
            # the sign and bound of each entry of z at ``at``
            s_at, lower_at = (np.broadcast_to(v, v.shape[:-2] + at.shape)
                              .ravel().tolist() for v in (sc, lc))

            def clamp(z):
                if any(map(lt, map(mul, s_at, flat(z.take(at_l, -1))),
                           lower_at)):
                    t = z[..., at]
                    z[..., at] = np.where(sc * t < lc, sc * lc, t)
        floor_l = [] if floor is None else floor.ravel().tolist()

        def guard(views, dz):
            theta2, g2 = views
            t2 = flat(theta2)
            if any(map(lt, map(abs, t2), floor_l)):
                raise SingularGainError(f"theta2 diagonal {theta2} below "
                                        "the invertibility threshold")
            if s_l and any(map(_nulls, s_l, t2, lower_l, flat(g2))):
                dz = dz.copy()
                dz[..., at] += self.rate(theta2, g2)[..., None, :]
            return dz

        return guard, clamp


class _IndirectLaw(Law, Guarded):
    """The indirect gradient law, with its theta2 guards."""


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


def _carry(law: Guarded, projection: ProjectionConfig | None, floor=None):
    """``projection`` when enabled, else None; ``law`` then carries its
    signs and bounds, and the stage ``floor`` (see ``Guarded``)."""
    proj = _active(projection)
    law.floor = floor
    if proj is not None:
        law.signs, law.theta2_lower = proj.signs, proj.theta2_lower
    return proj


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
        G = _stack_gains(Gamma)
        _check_blocks(G, 2.0 if time_domain == DISCRETE else np.inf,
                      lambda j, lam: (
                          f"Gamma[{j}] violates the spectral bound 2: "
                          f"largest eigenvalue {lam:.6g}"), "trailing block")
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
    law = _IndirectLaw(L, G, F, W, M, xi_in_m=M > 1, xi_in_ab=False,
                       rho=False)
    law.cols["x_hat"] = law.F0 + n * cxh + np.arange(n)
    # theta2 in row 1 + j and in row 0 of W^T, and their positions in W
    law.theta2 = lambda W: (W[..., law.th2], W[..., n:MC:C + 1])
    law.theta2_at = np.stack(law.theta2(np.arange(W.shape[0])))
    return law


def _indirect_member(plant, ref, signal, gains, projection, init, horizon,
                     h, match=SOLVE, stream=None, method="rk4") -> Member:
    """An indirect run with step size ``h`` (1 in discrete time) set up
    (``_projected``), ``stream`` and ``method`` as for
    ``direct._direct_member``."""
    x0, xm0, theta0, _, xhat0 = _check_run_args(
        plant, ref, signal, gains, init, horizon, projection, h, method)
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
    return _projected(law, signal, projection, theta0, spec, stream,
                      None if plant.time_domain == DISCRETE
                      else _floor(projection, M, stage=True))


def _projected(law, signal, projection, theta0, spec, stream,
               floor=None) -> Member:
    """A run of ``law`` from its ``z0`` under ``projection`` set up, the
    one path of both indirect schemes: the law carries an enabled
    projection, checked on ``theta0``, and the stage ``floor`` (``_carry``);
    the records add theta2's raw rate and its correction (proj_g2, proj_f2;
    zero without one), a record column of a discrete row, set in each chunk
    in continuous time. A discrete store raises SingularGainError at a
    theta2 below the invertibility threshold. ``spec`` makes the trace;
    ``stream`` is as for ``direct._set_up``."""
    proj = _carry(law, projection, floor)
    M = theta0.shape[1]
    discrete = spec.time_domain == DISCRETE
    if proj is not None:
        proj.check_start(theta0)
        law.cols["proj_g2"] = np.arange(law.dW.start, law.dW.stop)[law.th2]
        if discrete:
            law.f2 = slice(law.width, law.width + M)
            law.cols["proj_f2"] = np.arange(law.width, law.width + M)
            law.width += M

    def check(rows, t0):
        steps = rows["theta"].shape[0]
        if proj is None:
            rows["proj_g2"] = rows["proj_f2"] = np.zeros((steps, M))
        elif not discrete:
            rows["proj_f2"] = proj.rate(_theta2(rows["theta"]),
                                        rows["proj_g2"])
        if discrete:
            if t0 + steps == spec.horizon + 1:
                # no update follows the final step
                rows["proj_g2"][-1] = rows["proj_f2"][-1] = 0.0
            # a step checks theta2 before its divergence probe, so the
            # divergence row is checked too
            _check_floor(_theta2(rows["theta"]), projection, t0)

    return _set_up(law, signal, spec, stream,
                   {name: (M,) for name in ("proj_g2", "proj_f2")
                    if name not in law.cols}, check)


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
                           stream, method)
    return _drive(run, domain, horizon, h, method, integrate_ct)


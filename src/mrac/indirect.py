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

from functools import partial
from operator import lt, mul

import numpy as np

from ._rows import Law, Layout, block, forms
# the benchmark's tracer wraps indirect_V_series here by name
from .diagnostics import (SimulationTrace, TraceSpec,  # noqa: F401
                          _gradient_V, gamma1_indirect, indirect_V_series)
from .direct import (SOLVE, InitialConditions, Member, _check_run_args,
                     _diagonal_match, _drive, _matching, _set_up)
from .errors import SingularGainError
# the projection and the indirect gains of gains.py stay importable from here
from .gains import (IndirectGainConfig, ProjectionConfig,  # noqa: F401
                    _active, _below, _floor, _nulls, _theta2,
                    theta_star_indirect)
# solve_matching stays a module attribute: the benchmark's tracer wraps it
# here by name
from .systems import (DISCRETE, PlantModel, ReferenceModel,  # noqa: F401
                      ReferenceSignal, integrate_ct, solve_matching)


class Guarded(Layout):
    """A layout whose law carries theta2 guards: theta2 is ``th2`` of W and
    of dW, its copies ``theta2_at`` of W (copies x M, or M), and an enabled
    projection's correction goes into the ``f2`` columns (``_carry``).
    ``signs`` and ``theta2_lower`` are an enabled projection's, ``floor``
    the run's invertibility floor, each (M,), or (B, M) in a group's law
    (``stack``). Each guard takes a row's views or a (B, ...) block's, and
    tests its rule on Python scalars before it acts."""

    stacked = ("signs", "theta2_lower", "floor")
    signs = theta2_lower = floor = None
    rate = ProjectionConfig.rate  # on the law's own signs and bounds

    def landing(self):
        """``land(copies, f2)`` (see ``_rows.run``), if projected: a theta2
        that step i left outside the bound in ``copies``, those of row i +
        1, lands on it, gradient then correction, and the correction goes
        into row i's proj_f2 columns ``f2``."""
        s, lower = self.signs, self.theta2_lower
        if s is None:
            return None
        s_l, lower_l = s.ravel().tolist(), lower.ravel().tolist()
        flat = forms(s.shape[:-1]).flat

        def land(copies, f2):
            t = copies[0]
            if any(map(lt, map(mul, s_l, flat(t)), lower_l)):
                f2[...] = out = np.where(s * t < lower, s * lower - t, 0.0)
                for th2 in copies:
                    th2 += out

        return land

    def floor_check(self, theta2, bad, t0):
        """The discrete floor check (see ``_rows.run``): of a chunk's
        (count, B, M) theta2 of steps t0 onward, a member's first row up to
        its divergence row in ``bad``, that row included, with an entry
        below its floor puts the SingularGainError (``_below``) in ``bad``."""
        if self.floor is not None and np.any(np.abs(theta2) < self.floor):
            floors = np.atleast_2d(self.floor)
            for b, at in enumerate(bad):
                bad[b] = _below(theta2[:None if at is None else at + 1, b],
                                floors[b], t0) or at

    def ct_guards(self):
        """``(guard, clamp)`` (see ``_rows.run_ct``). ``guard((theta2, g2,
        f2), dz)`` raises SingularGainError at a |theta2| below the floor,
        and returns the rate dz, or a copy of it in which the projection
        nulls theta2's outward rate ``g2`` on the bound (``rate``), that
        correction written into ``f2``, so that the row keeps the raw rate.
        ``clamp(z)`` snaps each copy of theta2 in z = [F, W] that
        integration left a hair inside the bound onto it, None without a
        projection; both None without a floor either."""
        s, lower, floor = self.signs, self.theta2_lower, self.floor
        if s is None and floor is None:
            return None, None
        # theta2's positions in z = [F, W] and in its rate [dF, dW]
        at = self.nF + self.theta2_at.reshape(-1, self.theta2_at.shape[-1])
        flat = forms((floor if s is None else s).shape[:-1]).flat
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
            theta2, g2, f2 = views
            t2 = flat(theta2)
            if any(map(lt, map(abs, t2), floor_l)):
                raise SingularGainError(f"theta2 diagonal {theta2} below "
                                        "the invertibility threshold")
            if s_l and any(map(_nulls, s_l, t2, lower_l, flat(g2))):
                dz = dz.copy()
                f2[...] = out = self.rate(theta2, g2)
                dz[..., at] += out[..., None, :]
            return dz

        return guard, clamp


class _IndirectLaw(Law, Guarded):
    """The indirect gradient law, with its theta2 guards."""


def _carry(law: Guarded, projection: ProjectionConfig | None, floor=None):
    """``projection`` when enabled, else None; ``law`` then carries its
    signs and bounds, with its ``f2`` columns after the row's, and the
    run's ``floor`` (see ``Guarded``)."""
    proj = _active(projection)
    law.floor = floor
    if proj is not None:
        law.signs, law.theta2_lower = proj.signs, proj.theta2_lower
        law.f2 = slice(law.width, law.width + proj.n_inputs)
        law.width = law.f2.stop
    return proj


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
    law = _IndirectLaw(L, G, F, W, M, xi_in_m=M > 1, rho=False)
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
    if match is not None:
        law.value = partial(
            _gradient_V, theta_star=theta_star_indirect(match.K1, match.K2),
            Gamma=gains.Gamma)
        law.gamma0 = gamma1_indirect(gains.Gamma)
    spec = TraceSpec("indirect_gradient", plant.time_domain, horizon, h)
    _carry(law, projection,
           _floor(projection, M, stage=plant.time_domain != DISCRETE))
    return _projected(law, signal, projection, theta0, spec, stream)


def _projected(law, signal, projection, theta0, spec, stream) -> Member:
    """A run of ``law``, which carries ``projection`` (``_carry``), from its
    ``z0`` set up, the one path of both indirect schemes: an enabled
    projection is checked on ``theta0``, and the records add theta2's raw
    rate and its correction (proj_g2, proj_f2: the row's columns, else
    zero). ``spec`` and ``stream`` are as for ``direct._set_up``."""
    M = theta0.shape[1]
    if _active(projection):
        projection.check_start(theta0)
        law.cols["proj_g2"] = np.arange(law.dW.start, law.dW.stop)[law.th2]
        law.cols["proj_f2"] = np.arange(law.f2.start, law.f2.stop)
    return _set_up(law, signal, spec, stream,
                   {name: (M,) for name in ("proj_g2", "proj_f2")
                    if name not in law.cols})


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


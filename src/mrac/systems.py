"""System types, the matching-condition solver, and the fixed-step integrators.

Two families of state-space models live here: the plant ``x+ = A x + B u``
(or ``dx/dt = A x + B u``) whose parameters the controller never sees, and
the reference model ``xm+ = A_m xm + B_m r`` that defines the target
trajectory and doubles as the filter prototype for the regressor banks.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import ModelError, NumericsError

DISCRETE = "discrete"
CONTINUOUS = "continuous"

MATCHING_TOL = 1e-9


def spectral_radius(mat) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ModelError(f"spectral_radius needs a square matrix, got shape {arr.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(arr))))


def is_hurwitz(mat) -> bool:
    """True when every eigenvalue has strictly negative real part."""
    arr = np.asarray(mat, dtype=float)
    return bool(np.max(np.linalg.eigvals(arr).real) < 0.0)


class _Model:
    """A model x+ = A x + B u (or dx/dt = A x + B u) in ``time_domain``,
    its matrices kept under ``names``: A square, n x n with n >= 1, and B
    n x M with M >= 1 (a vector is one column). The one check of a model's
    matrices, shapes and time domain."""

    def __init__(self, A, B, time_domain, names):
        for value, name in zip((A, B), names):
            arr = np.asarray(value, dtype=float)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)
            if arr.ndim != 2:
                raise ModelError(f"{name} must be a matrix, got ndim={arr.ndim}")
            setattr(self, name, arr)
        A, B = (getattr(self, name) for name in names)
        self.time_domain = time_domain
        if time_domain not in (DISCRETE, CONTINUOUS):
            raise ModelError(f"unknown time domain {time_domain!r}")
        n, nc = A.shape
        if n != nc or n < 1:
            raise ModelError(f"{names[0]} must be square with n >= 1, got "
                             f"{A.shape}")
        if B.shape[0] != n or B.shape[1] < 1:
            raise ModelError(f"{names[1]} must be {n} x M with M >= 1, got "
                             f"{B.shape}")
        self.n, self.n_inputs = B.shape


class PlantModel(_Model):
    """Truth system (A, B); unknown to the controller, used by the simulator.

    B must have full column rank so the matching solver has a unique
    least-squares solution.
    """

    def __init__(self, A, B, time_domain: str = DISCRETE):
        super().__init__(A, B, time_domain, ("A", "B"))
        if np.linalg.matrix_rank(self.B) < self.n_inputs:
            raise ModelError("B is rank deficient; matching gains are not unique")


class ReferenceModel(_Model):
    """Stable target system (A_m, B_m).

    Discrete models need spectral radius strictly below one; continuous
    models need a Hurwitz A_m.
    """

    def __init__(self, A_m, B_m, time_domain: str = DISCRETE):
        super().__init__(A_m, B_m, time_domain, ("A_m", "B_m"))
        if time_domain == DISCRETE:
            rho = spectral_radius(self.A_m)
            if rho >= 1.0:
                raise ModelError(
                    f"discrete reference model is unstable: spectral radius {rho:.6g} >= 1"
                )
        elif not is_hurwitz(self.A_m):
            raise ModelError("continuous reference model A_m is not Hurwitz")


class MatchingSolution(namedtuple("MatchingSolution", "K1 K2 residual")):
    """Gains (K1, K2) with A + B K1^T = A_m and B K2 = B_m, plus the defect
    norm; K1 is n x M, K2 M x M."""

    __slots__ = ()

    def matchable(self) -> bool:
        """True when the matching defect is at most MATCHING_TOL."""
        return self.residual <= MATCHING_TOL

    @property
    def k1(self) -> np.ndarray:
        """Single-input gain vector; only meaningful when M = 1."""
        return self.K1[:, 0]

    @property
    def k2(self) -> float:
        """Single-input scalar gain; only meaningful when M = 1."""
        return float(self.K2[0, 0])


# a near-singular B gives gains that overflow; the residual then reads nan
# and the plant counts as not matchable
@np.errstate(over="ignore", invalid="ignore")
def solve_matching(plant: PlantModel, ref: ReferenceModel) -> MatchingSolution:
    """Least-squares gains matching the plant to the reference model.

    Solves B K1^T = A_m - A and B K2 = B_m via the pseudo-inverse of B
    (full column rank is enforced by PlantModel). The residual is the
    Frobenius norm of the combined matching defect; a residual above
    MATCHING_TOL means the plant is not matchable, but the best-fit gains
    are still returned so callers can report the defect.
    """
    if plant.n != ref.n:
        raise ModelError(
            f"state dimensions differ: plant n={plant.n}, reference n={ref.n}"
        )
    if plant.n_inputs != ref.n_inputs:
        raise ModelError(
            f"input dimensions differ: plant M={plant.n_inputs}, reference M={ref.n_inputs}"
        )
    K1T, *_ = np.linalg.lstsq(plant.B, ref.A_m - plant.A, rcond=None)
    K2, *_ = np.linalg.lstsq(plant.B, ref.B_m, rcond=None)
    defect_A = plant.A + plant.B @ K1T - ref.A_m
    defect_B = plant.B @ K2 - ref.B_m
    residual = math.hypot(np.linalg.norm(defect_A), np.linalg.norm(defect_B))
    if abs(np.linalg.det(K2)) < 1e-12:
        raise ModelError("matching gain K2 is singular")
    return MatchingSolution(K1=K1T.T.copy(), K2=K2, residual=float(residual))


# the matching solution a runner solves itself when it is given none
SOLVE = object()


def _matching(plant, ref, match=SOLVE, diagonal=False):
    """A runner's ``match``, or when it is ``SOLVE`` the one solved here,
    if it is matchable and, with ``diagonal``, has the diagonal, invertible
    K2* of a gradient law's rho* = 1/k2*: the solution its V needs; else
    None, as when ``solve_matching`` raises (validation solves itself)."""
    if match is SOLVE:
        try:
            match = solve_matching(plant, ref)
        except ModelError:  # a singular K2
            return None
    if match is None or not match.matchable():
        return None
    K2d = np.diag(match.K2)
    if diagonal and (np.any(np.abs(K2d) < 1e-12)
                     or np.max(np.abs(match.K2 - np.diag(K2d))) > 1e-9):
        return None
    return match


def rk4_step(rhs, t: float, y: np.ndarray, h: float, stage=None) -> np.ndarray:
    """Classical fourth-order step of dy/dt = rhs(t, y).

    ``rhs`` gives k1; ``stage(i, tau, c, k)`` gives k2, k3 and k4 (i = 2, 3,
    4), the rate at time tau of y + c k, and is ``rhs(tau, y + c * k)``
    unless the caller supplies its own. The result is y + (h/6) (k1 + 2 k2 +
    2 k3 + k4), summed in that order.
    """
    if stage is None:
        def stage(i, tau, c, k):
            return rhs(tau, y + c * k)
    c = 0.5 * h
    k1 = rhs(t, y)
    k2 = stage(2, t + c, c, k1)
    k3 = stage(3, t + c, c, k2)
    k4 = stage(4, t + h, h, k3)
    out = k1 + 2.0 * k2
    out += 2.0 * k3
    out += k4
    out *= h / 6.0
    out += y
    return out


def euler_step(rhs, t: float, y: np.ndarray, h: float) -> np.ndarray:
    """Forward-Euler step, kept as a cross-checking option."""
    return y + h * rhs(t, y)


def integrate_ct(rhs, state, h: float, t: float = 0.0, method: str = "rk4",
                 stage=None) -> np.ndarray:
    """Advance a continuous-time system one fixed step; ``stage`` evaluates
    the later RK4 stages (see ``rk4_step``) and Euler has none.

    Aborts with NumericsError when the state or its derivative stops being
    finite; integration cannot continue meaningfully past that point.
    """
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    y = np.asarray(state, dtype=float)
    if method == "rk4":
        out = rk4_step(rhs, t, y, h, stage)
    elif method == "euler":
        out = euler_step(rhs, t, y, h)
    else:
        raise ValueError(f"unknown integration method {method!r}")
    # one count in C: ndarray.all goes through numpy's Python-level
    # _methods, and out.dot(out) warns of an overflow on a finite state
    # past about 1.3e154
    if np.count_nonzero(np.isfinite(out)) != out.size:
        raise NumericsError("non-finite state after integration step")
    return out


class ReferenceSignal(namedtuple(
        "ReferenceSignal", "kind dimension amplitudes frequencies phases level "
        "values", defaults=(None,) * 5)):
    """Bounded reference input r(t) of dimension M.

    Three flavours: a per-channel sum of K sinusoids (amplitudes,
    frequencies and phases, each M x K), a constant level (M,), or a custom
    sample sequence (values, T x M). Discrete runs evaluate at integer step
    indices; continuous runs evaluate at simulation time, with custom
    sequences zero-order-held over unit intervals.
    """

    __slots__ = ()

    @classmethod
    def sinusoids(cls, amplitudes, frequencies, phases=None) -> "ReferenceSignal":
        amp = np.atleast_2d(np.asarray(amplitudes, dtype=float))
        freq = np.atleast_2d(np.asarray(frequencies, dtype=float))
        if phases is None:
            ph = np.zeros_like(amp)
        else:
            ph = np.atleast_2d(np.asarray(phases, dtype=float))
        if not (amp.shape == freq.shape == ph.shape):
            raise ModelError("sinusoid amplitude/frequency/phase shapes must agree")
        if amp.size == 0:
            raise ModelError("a sum of sinusoids needs at least one tone per "
                             "channel")
        return cls(kind="sum_of_sinusoids", dimension=amp.shape[0],
                   amplitudes=amp, frequencies=freq, phases=ph)

    @classmethod
    def constant(cls, level) -> "ReferenceSignal":
        lv = np.atleast_1d(np.asarray(level, dtype=float))
        return cls(kind="constant", dimension=lv.shape[0], level=lv)

    @classmethod
    def from_samples(cls, values) -> "ReferenceSignal":
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.shape[0] < 1:
            raise ModelError("custom signal needs at least one sample")
        return cls(kind="custom", dimension=arr.shape[1], values=arr)

    def at(self, t: float) -> np.ndarray:
        """Signal value at step index (discrete) or time (continuous)."""
        return self.sample([t])[0]

    # frequencies or times near the float range overflow; r then reads NaN
    # and the run reports divergence
    @np.errstate(over="ignore", invalid="ignore")
    def sample(self, times: np.ndarray) -> np.ndarray:
        """Vectorised evaluation; returns an array of shape (len(times), M).
        A custom sequence holds its last sample up to t = inf. A NaN time
        gives a NaN row, whatever the kind."""
        times = np.asarray(times, dtype=float)
        nan = np.isnan(times)
        if self.kind == "sum_of_sinusoids":
            rows = np.sum(
                self.amplitudes[None, :, :]
                * np.sin(self.frequencies[None, :, :] * times[:, None, None]
                         + self.phases[None, :, :]),
                axis=2,
            )
        elif self.kind == "constant":
            rows = np.tile(self.level, (times.shape[0], 1))
        else:
            # clipped before the cast, which has no int64 for NaN or for
            # t >= 2^63
            idx = np.clip(np.floor(np.where(nan, 0.0, times)), 0,
                          self.values.shape[0] - 1)
            rows = self.values[idx.astype(int)]
        rows[nan] = np.nan
        return rows


def random_matchable_instance(n: int, n_inputs: int, seed: int,
                              time_domain: str = DISCRETE):
    """Draw a matchable (plant, reference, K1*, K2*) family for test scenarios.

    K2* is diagonal with entries bounded away from zero, the reference model
    is comfortably stable, and the plant is constructed from the drawn gains
    so the matching equations hold exactly (up to rounding). It needs
    n >= 1 and 1 <= n_inputs <= n, since B has full column rank.
    """
    if not 1 <= n_inputs <= n:
        raise ModelError("random_matchable_instance needs n >= 1 and "
                         f"1 <= n_inputs <= n, got n={n}, n_inputs={n_inputs}")
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n))
    if time_domain == DISCRETE:
        A_m = raw * (0.7 / spectral_radius(raw))
    else:
        # shift a random spectrum into the left half-plane
        A_m = raw - (np.max(np.linalg.eigvals(raw).real) + 1.0) * np.eye(n)
    # orthonormal columns keep every input direction well actuated
    Qb, _ = np.linalg.qr(rng.normal(size=(n, n_inputs)))
    B_m = Qb * rng.uniform(0.8, 1.2, size=n_inputs)
    K1 = rng.normal(scale=0.5, size=(n, n_inputs))
    k2_diag = rng.uniform(0.7, 1.5, size=n_inputs) * rng.choice([-1.0, 1.0], size=n_inputs)
    K2 = np.diag(k2_diag)
    B = B_m @ np.diag(1.0 / k2_diag)
    A = A_m - B @ K1.T
    plant = PlantModel(A=A, B=B, time_domain=time_domain)
    ref = ReferenceModel(A_m=A_m, B_m=B_m, time_domain=time_domain)
    return plant, ref, K1, K2

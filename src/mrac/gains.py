"""What a config builds besides the models and signal of ``systems``: each
scheme's gains, the projection and its theta2 rules, the initial conditions
and the Lyapunov certificate. Loading a config compiles no stepping code:
``member`` and ``holds`` import theirs when called.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import GainError, ModelError, ProjectionError, SingularGainError
from .systems import DISCRETE, is_hurwitz


def _stack_gains(Gamma, M=None) -> np.ndarray:
    """A gradient law's gain ``Gamma`` as a new (M, n_w, n_w) stack of its
    blocks: a 2-D Gamma is every block (one when ``M`` is None), a stack is
    itself. GainError when it does not stack to M square blocks."""
    G = np.array(Gamma, dtype=float)
    if G.ndim == 2:
        G = np.repeat(G[None], 1 if M is None else M, axis=0)
    if G.ndim != 3 or G.shape[1] != G.shape[2] or M not in (None, G.shape[0]):
        raise GainError(f"Gamma must stack to (M, n_w, n_w), got {G.shape}")
    return G


def _entries(value, name, size, spread=False, error=ModelError):
    """``value`` as a vector of ``size`` floats, from any shape of that many
    entries, or with ``spread`` from one entry for all, else ``error``."""
    arr = np.asarray(value, dtype=float)
    if arr.size != size and not (spread and arr.size == 1):
        raise error(f"{name} must have shape ({size},), got {arr.shape}")
    return np.broadcast_to(arr.reshape(-1), (size,)).copy()


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
    A multi-input law keeps K2 diagonal when enforced (``diagonal``).
    """

    def __init__(self, Gamma, gamma, sign_k2, k2_lower,
                 time_domain: str = DISCRETE, enforce_diagonal_k2: bool = True):
        self.time_domain = time_domain
        self.enforce_diagonal_k2 = enforce_diagonal_k2
        self.diagonal = "k2_diag_ok" if enforce_diagonal_k2 else None
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

    def member(self, b, horizon: int, stream=None):
        """The discrete run of a config's built parts ``b``, set up."""
        from . import direct
        return direct._direct_member(b.plant, b.reference, b.signal, self,
                                     b.init, horizon, 1.0, b.match, stream)


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


class ProjectionConfig:
    """Sign priors and the lower bound theta2_lower = 1 / k2_upper, both
    kept as (M,) arrays: signs of entries +-1, positive bounds.

    ``enabled=False`` keeps the raw gradient law; controller recovery then
    raises on sub-threshold estimates instead of being protected. Each
    theta2 rule lives here once: below, in the floors, and in the guards a
    law carries (``_rows.Layout``), which read this class's ``rate``.
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
        from ._rows import row_blocks
        return all(bool(np.all(self.signs * _theta2(theta[lo:hi])
                               >= self.theta2_lower - 1e-12))
                   for lo, hi in row_blocks(theta.shape[0]))

    def rate(self, theta2, g2):
        """The continuous-time correction of theta2's raw rate ``g2``: -g2
        where theta2 is on (or past) the bound, up to 1e-12, and ``g2``
        points outward, else 0."""
        s = self.signs
        return np.where((s * theta2 <= self.theta2_lower + 1e-12)
                        & (s * g2 < 0.0), -g2, 0.0)


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


def _below(theta2, floor, t0: int = 0):
    """The SingularGainError of the first step of ``theta2`` (steps x M, of
    steps t0 onward) with an entry below the invertibility ``floor``
    (``_floor``), else None."""
    low = np.flatnonzero(np.any(np.abs(theta2) < floor, axis=1))
    if low.size:
        return SingularGainError(
            f"theta2 diagonal {theta2[low[0]]} below the invertibility "
            f"threshold at step {t0 + low[0]}")


class IndirectGainConfig:
    """Gain blocks for the indirect law, kept as the (M, n_w, n_w) stack
    Gamma; a single block is the stack of one, M = 1.

    Each Gamma_j must be symmetric positive definite and block diagonal
    with a diagonal trailing M x M block (the structure the projection
    argument needs); discrete time additionally requires every eigenvalue
    below 2. A multi-input law keeps Theta2 diagonal (``diagonal``).
    """

    diagonal = "theta2_diag_ok"

    def __init__(self, Gamma, time_domain: str = DISCRETE):
        self.time_domain = time_domain
        G = _stack_gains(Gamma)
        _check_blocks(G, 2.0 if time_domain == DISCRETE else np.inf,
                      lambda j, lam: (
                          f"Gamma[{j}] violates the spectral bound 2: "
                          f"largest eigenvalue {lam:.6g}"), "trailing block")
        self.Gamma = G

    def shapes(self, n: int, M: int) -> dict:
        """The shape each gain must have on an n-state, M-input plant."""
        return {"Gamma": (M, n + M, n + M)}

    def member(self, b, horizon: int, stream=None):
        """The discrete run of a config's built parts ``b``, set up."""
        from . import indirect
        return indirect._indirect_member(b.plant, b.reference, b.signal,
                                         self, b.projection, b.init, horizon,
                                         1.0, b.match, stream)


def theta_star_indirect(K1, K2) -> np.ndarray:
    """True plant parametrization from matching gains:
    Theta1* = K1 (K2^{-1})^T, Theta2* = K2^{-1}."""
    K1 = np.asarray(K1, dtype=float)
    K2 = np.atleast_2d(np.asarray(K2, dtype=float))
    if K1.ndim == 1:
        K1 = K1.reshape(-1, 1)
    K2inv = np.linalg.inv(K2)
    return stack_controller_gains(K1 @ K2inv.T, K2inv)


# P = P^T > 0 together with the Q it was solved for and the defect norm
LyapunovCertificate = namedtuple("LyapunovCertificate", "P Q residual")


# a barely Hurwitz A_m gives a P that overflows; its residual then reads
# inf or nan and the solve is rejected
@np.errstate(over="ignore", invalid="ignore")
def solve_lyapunov_ct(A_m, Q) -> LyapunovCertificate:
    """Solve P A_m + A_m^T P = -Q by Kronecker vectorization.

    Desk-scale systems make the dense (n^2 x n^2) solve perfectly adequate.
    A_m must be Hurwitz and Q symmetric positive definite.
    """
    A = np.asarray(A_m, dtype=float)
    Qm = np.asarray(Q, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ModelError(f"A_m must be square, got {A.shape}")
    n = A.shape[0]
    if Qm.shape != (n, n):
        raise ModelError(f"Q must be {n} x {n}, got {Qm.shape}")
    _spd_check(Qm, "Q", ModelError)
    if not is_hurwitz(A):
        raise ModelError("A_m is not Hurwitz; the Lyapunov equation has no P > 0")
    eye = np.eye(n)
    coeff = np.kron(A.T, eye) + np.kron(eye, A.T)
    vecP = np.linalg.solve(coeff, -Qm.reshape(-1))
    P = vecP.reshape(n, n)
    P = 0.5 * (P + P.T)
    residual = float(np.linalg.norm(P @ A + A.T @ P + Qm))
    if not residual <= 1e-9:
        raise ModelError(f"Lyapunov solve residual {residual:.3g} above 1e-9")
    if np.min(np.linalg.eigvalsh(P)) <= 0.0:
        raise ModelError("computed P is not positive definite")
    return LyapunovCertificate(P=P, Q=Qm.copy(), residual=residual)


class LyapunovDirectGains:
    """Single-input: (Gamma, gamma, sign_k2). Multi-input: S_p. The matrix
    given is kept as a 2-D array, every other value as given."""

    diagonal = None  # no block of theta is kept diagonal

    def __init__(self, Gamma=None, gamma=None, sign_k2=None, S_p=None):
        self.Gamma, self.gamma, self.sign_k2, self.S_p = Gamma, gamma, sign_k2, S_p
        if S_p is not None:
            self.S_p = np.atleast_2d(np.asarray(S_p, float))
            return
        if Gamma is None or gamma is None or sign_k2 is None:
            raise GainError("need either S_p or the (Gamma, gamma, sign_k2) triple")
        self.Gamma = np.atleast_2d(np.asarray(Gamma, dtype=float))
        _spd_check(self.Gamma, "Gamma")
        if not 0.0 < gamma < np.inf:
            raise GainError("gamma must be positive and finite")
        if abs(sign_k2) != 1.0:
            raise GainError("sign_k2 must be +1 or -1")

    def shapes(self, n: int, M: int) -> dict:
        """The shape each gain must have on an n-state, M-input plant."""
        return {"Gamma": (n, n)} if self.S_p is None else {"S_p": (M, M)}

    def premise(self, M: int, match):
        """(K2* S_p)^-1 on an M-input plant of matching solution ``match``
        (None: none), None without S_p or a matchable plant; GainError
        unless S_p is given when M > 1 and K2* S_p is then SPD."""
        if self.S_p is None:
            if M > 1:
                raise GainError("multi-input direct scheme needs S_p")
            return None
        if match is None or not match.matchable():
            return None
        Ms = match.K2 @ self.S_p
        if not np.allclose(Ms, Ms.T, atol=1e-9, rtol=0.0) or \
                np.min(np.linalg.eigvalsh(0.5 * (Ms + Ms.T))) <= 0.0:
            raise GainError("K2* S_p is not symmetric positive definite")
        return np.linalg.inv(Ms)


class LyapunovIndirectGains:
    """Gamma1 drives the Theta1 law, Gamma2 (diagonal) the Theta2 law, both
    kept as 2-D arrays.

    theta1_law selects between the two stated Theta1 updates: "standard"
    (Gamma1 acts on the state side, n x n) and "transposed" (Gamma1 acts on
    the input side, M x M). A multi-input law keeps Theta2 diagonal
    (``diagonal``).
    """

    diagonal = "theta2_diag_ok"

    def __init__(self, Gamma1, Gamma2, theta1_law: str = "standard"):
        self.Gamma1 = np.atleast_2d(np.asarray(Gamma1, dtype=float))
        self.Gamma2 = G2 = np.atleast_2d(np.asarray(Gamma2, dtype=float))
        self.theta1_law = theta1_law
        if theta1_law not in ("standard", "transposed"):
            raise GainError(f"unknown theta1 law {theta1_law!r}")
        _spd_check(self.Gamma1, "Gamma1")
        if np.any(G2 * (1.0 - np.eye(G2.shape[0]))):
            raise GainError("Gamma2 must be diagonal")
        if np.any(np.diag(G2) <= 0.0):
            raise GainError("Gamma2 diagonal must be positive")

    def shapes(self, n: int, M: int) -> dict:
        """The shape each gain must have on an n-state, M-input plant."""
        side = M if self.theta1_law == "transposed" else n
        return {"Gamma1": (side, side), "Gamma2": (M, M)}

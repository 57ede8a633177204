"""The reference regressor filter bank: the signals zeta, xi and the
normalizer m.

No runner steps this bank: the fused loops (``_rows``) carry its states as
columns of their own rows. It stays as the reference those columns are
checked against, and the acceptance gate certifies its realization.

The reference model's transfer matrix W(z) = (zI - A_m)^{-1} B_m is realized
once per scalar input channel as a shared (A_m, B_m-column) state-space copy:
driving s(t+1) = A_m s(t) + b_j w(t) from rest makes component i of s(t) equal
the scalar transfer output w_ij(z)[w](t). Reading all n outputs from one
state vector avoids building a separate minimal realization for every (i, j)
pair; the result is input-output identical by linearity.

Per step the bank emits

    zeta_ij(t) = w_ij(z)[omega](t)            (vector per output/input pair)
    xi_ij(t)   = theta_j(t)^T zeta_ij(t) - w_ij(z)[theta_j^T omega](t)

from the *current* states, then advances on omega(t) and theta_j(t)^T
omega(t). Outputs at step t therefore depend only on inputs before t
(strict properness), and zeta(0) = xi(0) = 0. The xi signals vanish
identically for frozen parameters: a time-invariant theta commutes with the
filter, so the two terms cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .systems import ReferenceModel


@dataclass
class RegressorFrame:
    """Signals read from a bank at one step.

    zeta has shape (n, M, C) with C the number of filtered scalar channels
    (C = dim omega); xi has shape (n, M). Single-input schemes are the
    M = 1 slice.
    """

    zeta: np.ndarray
    xi: np.ndarray
    m: float


def compute_m(zeta, xi=None, include_xi: bool = True) -> float:
    """Normalizing signal m = sqrt(1 + sum zeta^T zeta [+ sum xi^2]).

    Direct schemes include the xi energy; the single-input indirect scheme
    omits it (pass ``include_xi=False`` or ``xi=None``).
    """
    z = np.asarray(zeta, dtype=float)
    total = 1.0 + float(np.dot(z.ravel(), z.ravel()))
    if include_xi and xi is not None:
        xv = np.asarray(xi, dtype=float)
        total += float(np.dot(xv.ravel(), xv.ravel()))
    if not math.isfinite(total):
        raise ModelError("non-finite filter energy while composing m")
    return math.sqrt(total)


def _theta_cols(theta, n_channels: int, n_inputs: int) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    if th.ndim == 1:
        th = th.reshape(-1, 1)
    if th.shape != (n_channels, n_inputs):
        raise ModelError(
            f"theta must have shape ({n_channels}, {n_inputs}), got {th.shape}"
        )
    return th


class ChannelFilterBank:
    """State-space filter bank over a fixed regressor layout.

    ``n_channels`` is the number of scalar inputs being filtered: n+M for
    the direct regressor [x; r], n+M for the indirect regressor [-x; u].
    All states start at zero.
    """

    def __init__(self, ref: ReferenceModel, n_channels: int):
        if n_channels < 1:
            raise ModelError("bank needs at least one channel")
        self.A_m = ref.A_m
        self.B_m = ref.B_m
        self.n = ref.n
        self.n_inputs = ref.n_inputs
        self.n_channels = n_channels
        # S columns are grouped by input block j: S[:, j*C:(j+1)*C] carries the
        # states filtering omega through B_m column j. q holds the auxiliary
        # scalar-product filter states, one per input block.
        self.S = np.zeros((self.n, self.n_inputs * n_channels))
        self.q = np.zeros((self.n, self.n_inputs))

    def zeta(self) -> np.ndarray:
        """Current zeta as an (n, M, C) array; row [i, j] is zeta_ij(t)."""
        return self.S.reshape(self.n, self.n_inputs, self.n_channels).copy()

    def xi(self, theta) -> np.ndarray:
        """Current xi as an (n, M) array for the given estimate columns."""
        th = _theta_cols(theta, self.n_channels, self.n_inputs)
        z3 = self.S.reshape(self.n, self.n_inputs, self.n_channels)
        return np.einsum("kjc,cj->kj", z3, th) - self.q

    def frame(self, theta, include_xi_in_m: bool = True) -> RegressorFrame:
        """Emit zeta(t), xi(t) and m(t) without touching the states."""
        z = self.zeta()
        x = self.xi(theta)
        return RegressorFrame(zeta=z, xi=x, m=compute_m(z, x, include_xi_in_m))

    def advance(self, omega, theta) -> None:
        """Push omega(t) and theta_j(t)^T omega(t) into the states.

        Call after the current outputs have been read; theta must be the
        estimate that was in force at step t (the one used in the control).
        """
        th = _theta_cols(theta, self.n_channels, self.n_inputs)
        advance_zeta(self, omega)
        v = th.T @ np.asarray(omega, dtype=float).reshape(-1)
        self.q = self.A_m @ self.q + self.B_m * v[None, :]


def advance_zeta(bank: ChannelFilterBank, omega) -> np.ndarray:
    """Emit zeta(t), then advance the zeta states on omega(t).

    Read xi (``bank.xi``) before calling this: xi(t) is formed from the
    same pre-advance states.
    """
    om = np.asarray(omega, dtype=float).reshape(-1)
    if om.shape[0] != bank.n_channels:
        raise ModelError(
            f"omega must have length {bank.n_channels}, got {om.shape[0]}"
        )
    out = bank.zeta()
    drive = (bank.B_m[:, :, None] * om[None, None, :]).reshape(bank.n, -1)
    bank.S = bank.A_m @ bank.S + drive
    return out


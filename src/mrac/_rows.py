"""The row layout both gradient laws share, and the discrete row stepper.

Given u and r, a gradient run is linear: plant, reference model, estimator
and regressor filters all advance with constant coefficients. Only the
estimates move nonlinearly. Each law has one builder (``direct._direct_law``,
``indirect._indirect_law``) whose ``Law`` serves both time domains. A step
works on one flat row

    [eps, Xi_1..Xi_M | F | r | u | m^2 | W | dF | dW]

* F holds the linear states as the columns of an n-row matrix, in
  column-major order: the filter states S_(j,c) first, then q_1..q_M, the
  model and estimator states, and x last. So [Xi, S] (the normalizer's
  terms) and [x, r] (omega) are contiguous, and [F, r, u] is one operand.
* W holds W^T, whose row 0 reads eps and row 1 + j reads Xi_j off F in one
  product, with the estimates in place: theta_j is row 1 + j from column
  jC on. A law may keep further copies of the estimates after W^T.
* dF and dW receive L [F, r, u] and G ab, with ab the gradient of the
  terms ab reads, weighted by -eps / m^2.

In discrete time (``run``) L [F, r, u] lands on the next row as F(t + 1),
and W(t + 1) = W + G ab. In continuous time (``_ctloop.law_field``) the row
is the work row of the field dz/dt = [L [F, r, u], G ab] over z = [F, W].
Rows live in a chunk buffer that the whole run reuses. The views of every
row are made once, and records are copied out chunk by chunk.
"""

from __future__ import annotations

from operator import lt, mul

import numpy as np
from numpy.lib.stride_tricks import as_strided

# rows per chunk: long enough to amortize the per-chunk record copies,
# short enough that the views and the buffer stay small
CHUNK = 128


class Law:
    """One gradient law on the shared layout: ``L`` over [F, r, u], ``G``
    over ab, the initial state ``z0 = [F, W]`` and the record columns
    ``cols`` of a row, keyed by trace field ("m2" holds m^2).

    ``xi_in_m`` and ``xi_in_ab`` add Xi to the normalizer's and to the
    gradient's terms, which are S otherwise. With ``rho``, row 0 of W^T
    carries rho_j at q_j's column and rho_j theta_j, which ``step`` refreshes
    before reading, and u = theta^T omega. Without it, [Theta1^T | I]
    follows W^T and u = Theta2^{-1} (Theta1^T x + r).
    """

    def __init__(self, L, G, F, W, M, xi_in_m, xi_in_ab, rho):
        self.L, self.G = L, G
        self.K, self.n = F.shape
        self.M, self.C = M, self.n + M
        self.xi_in_m, self.xi_in_ab, self.rho = xi_in_m, xi_in_ab, rho
        n, K, C = self.n, self.K, self.C
        self.nK, NW = n * K, W.shape[0]
        self.z0 = np.concatenate([F.ravel(), W])
        self.F0 = n * (M + 1)
        self.F = slice(self.F0, self.F0 + self.nK)
        self.R = slice(self.F.stop, self.F.stop + M)
        self.U = slice(self.R.stop, self.R.stop + M)
        self.m2 = self.U.stop
        self.W = slice(self.m2 + 1, self.m2 + 1 + NW)
        self.dF = slice(self.W.stop, self.W.stop + self.nK)
        self.dW = slice(self.dF.stop, self.dF.stop + NW)
        self.width = self.dW.stop
        W0 = self.W.start
        self.cols = {
            "x": self.F0 + n * (K - 1) + np.arange(n),
            "x_m": self.F0 + n * M * (C + 1) + np.arange(n),
            "u": np.arange(self.U.start, self.U.stop),
            "eps": np.arange(n),
            "m2": self.m2,
            "theta": W0 + np.array([[(1 + j) * K + j * C + c for j in range(M)]
                                    for c in range(C)]),
        }
        # theta2_j in row 1 + j of W^T
        self.th2 = slice(K + n, W.shape[0], K + C + 1)
        self.step = _stepper(L, G, n, (M if xi_in_ab else 0) + M * C)

    def views(self, row, dF):
        """The operands ``step`` takes from ``row``, writing F's image into
        ``dF``."""
        n, M, C, K, F0 = self.n, self.M, self.C, self.K, self.F0
        W = row[self.W]
        # theta_j is row 1 + j of W^T from column jC on
        theta = as_strided(W[K:], (M, C), ((K + C) * W.itemsize, W.itemsize))
        if self.rho:
            refresh = (theta, W[M * C:M * C + M, None],
                       W[:M * C].reshape(M, C))
            gains, th2 = theta, None
        else:
            refresh, th2 = None, W[self.th2]
            gains = W[(M + 1) * K:].reshape(M, C)
        H = row[n if self.xi_in_m else F0:F0 + n * M * C]
        AB = row[n if self.xi_in_ab else F0:F0 + n * M * C]
        return (refresh, gains.dot, row[F0 + n * (K - 1):self.U.start],
                row[self.U], th2, W[:(M + 1) * K].reshape(M + 1, K).dot,
                row[self.F].reshape(K, n), row[:F0].reshape(M + 1, n), H.dot,
                H, row[self.m2:self.m2 + 1], row[:n], AB.reshape(-1, n).dot,
                row[self.dW], row[F0:self.U.stop], dF)


def _stepper(L, G, n, n_ab):
    """One step of a law: u, eps, Xi and m^2 into the row, L [F, r, u] into
    dF and G ab into dW."""
    epsb = np.empty(n)
    ab = np.empty(n_ab)
    # bound .dot methods skip the __array_function__ dispatch of np.dot
    Ldot, Gdot, scale, div = L.dot, G.dot, np.multiply, np.divide

    def step(v):
        (refresh, Kdot, om, u, th2, WTdot, FT, XE, Hdot, H, m2w, eps, ABdot,
         dW, lin, dF) = v
        if refresh is not None:
            scale(*refresh)
        Kdot(om, u)
        if th2 is not None:
            div(u, th2, u)
        WTdot(FT, XE)
        m2 = 1.0 + float(Hdot(H))
        m2w[0] = m2
        scale(eps, -1.0 / m2, epsb)
        ABdot(epsb, ab)
        Gdot(ab, dW)
        Ldot(lin, dF)

    return step


def records(cols, steps: int):
    """Zeroed record arrays for ``cols`` and the ``store(rows, t0)`` that
    copies finished rows into them."""
    rec = {name: np.zeros((steps,) + np.shape(at)) for name, at in cols.items()}

    def store(rows, t0):
        sl = slice(t0, t0 + rows.shape[0])
        for name, at in cols.items():
            rec[name][sl] = rows[:, at]

    return rec, store


class RowBuffer:
    """(CHUNK + 1, width) buffer; row i + 1 receives the step from row i,
    and the last row carries over to row 0 of the next chunk."""

    def __init__(self, width: int, steps: int):
        self.buf = np.zeros((min(CHUNK, steps) + 1, width))
        self.size = self.buf.shape[0] - 1

    def chunks(self, r_all, R):
        """Yield (t0, count) per chunk: rows 0..count-1 hold steps
        t0..t0+count-1. The reference slice ``R`` of every row is filled
        from ``r_all`` before the chunk runs."""
        T1 = r_all.shape[0]
        buf = self.buf
        t0 = 0
        while t0 < T1:
            count = min(self.size, T1 - t0)
            stop = min(t0 + count + 1, T1)
            buf[1:stop - t0, R] = r_all[t0 + 1:stop]
            yield t0, count
            buf[0] = buf[count]
            t0 += count


def run(law: Law, r_all, store, projection=None, f2=None):
    """Step ``law`` in discrete time over the samples ``r_all`` of r.

    ``store(rows, t0)`` receives the finished rows of each chunk. With a
    ``projection``, a theta2 that leaves its signed bound lands on it, in
    every copy ``law.theta2(W)`` names, and step t's correction goes into
    ``f2[t]``. Returns the divergence step: the first whose m^2 + |x|^2 +
    |u|^2 is not finite, or None.
    """
    rows = RowBuffer(law.width, r_all.shape[0])
    buf = rows.buf
    buf[0, law.F] = law.z0[:law.nK]
    buf[0, law.W] = law.z0[law.nK:]
    buf[0, law.R] = r_all[0]
    steps = [(law.views(buf[i], buf[i + 1, law.F]), buf[i, law.W],
              buf[i, law.dW], buf[i + 1, law.W]) for i in range(rows.size)]
    if projection is not None:
        signs, lower = projection.signs, projection.theta2_lower
        signs_l, lower_l = signs.tolist(), lower.tolist()
        landing = [law.theta2(buf[i + 1, law.W]) for i in range(rows.size)]
    probe = law.cols["m2"], law.cols["x"], law.cols["u"]
    step, add = law.step, np.add
    with np.errstate(all="ignore"):
        for t0, count in rows.chunks(r_all, law.R):
            for i in range(count):
                v, W, dW, Wn = steps[i]
                step(v)
                add(W, dW, Wn)
                if projection is not None and any(
                        map(lt, map(mul, signs_l, landing[i][0].tolist()),
                            lower_l)):
                    # land exactly as the gradient-then-correction form
                    cand = landing[i][0].copy()
                    f2[t0 + i] = np.where(signs * cand < lower,
                                          signs * lower - cand, 0.0)
                    for th2 in landing[i]:
                        th2 += f2[t0 + i]
            done = buf[:count]
            store(done, t0)
            bad = first_nonfinite(*(done[:, at] for at in probe))
            if bad is not None:
                return t0 + bad
    return None


def block(T, n, row_col, col_col, mat):
    """Place an n x n block at F-column coordinates (row_col, col_col)."""
    T[row_col * n:(row_col + 1) * n, col_col * n:(col_col + 1) * n] = mat


def first_nonfinite(m2, *blocks):
    """First row where m^2 + |x|^2 + |u|^2 is not finite, or None: the
    runners' divergence probe, evaluated over a chunk of records."""
    probe = m2.copy()
    for b in blocks:
        probe += np.einsum("ij,ij->i", b, b)
    bad = np.flatnonzero(~np.isfinite(probe))
    return int(bad[0]) if bad.size else None

"""The work row every scheme steps on, and the one chunked row runner of
both time domains.

Given u and r, a closed loop is linear: plant, reference model, estimator
and regressor filters advance with constant coefficients, and only the
estimates move nonlinearly. A step works on one flat row (``Layout``)

    [head | F | r | u | mid | W | dF | dW]

whose state z = [F, W] holds the linear states and the estimates, and
whose [dF, dW] receives their image or rate. The gradient laws (``Law``,
one builder each: ``direct._direct_law``, ``indirect._indirect_law``) fill
it as

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

Rows live in a ``RowBuffer`` that the whole run reuses; the views of every
row are made once, and records are copied out chunk by chunk. Both runners
share it and one divergence rule (``first_nonfinite``: the first step at
which an element of x, u or m^2 is not finite). They differ only in how
row i's state reaches row i + 1: in discrete time (``run``) L [F, r, u]
lands there as F(t + 1) and W(t + 1) = W + G ab; in continuous time
(``run_ct``) one call to the runner module's ``integrate_ct`` advances z
along dz/dt = [dF, dW], whose first stage is row i itself.
"""

from __future__ import annotations

from operator import lt, mul

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NumericsError

# rows per chunk: long enough to amortize the per-chunk record copies,
# short enough that the views and the buffer stay small
CHUNK = 128


class Layout:
    """The slices of a work row [head | F | r | u | mid | W | dF | dW] with
    ``nF`` linear states, M inputs and ``NW`` estimate entries; ``head`` and
    ``mid`` are the scheme's own columns."""

    def __init__(self, head, nF, M, mid, NW):
        self.nF = nF
        self.F = slice(head, head + nF)
        self.R = slice(self.F.stop, self.F.stop + M)
        self.U = slice(self.R.stop, self.R.stop + M)
        self.W = slice(self.U.stop + mid, self.U.stop + mid + NW)
        self.dF = slice(self.W.stop, self.W.stop + nF)
        self.dW = slice(self.dF.stop, self.dF.stop + NW)
        self.width = self.dW.stop


class Law(Layout):
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
        self.nK = n * K
        self.z0 = np.concatenate([F.ravel(), W])
        self.F0 = n * (M + 1)
        super().__init__(self.F0, self.nK, M, 1, W.shape[0])
        self.m2 = self.U.stop
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


def first_nonfinite(rows, at):
    """The first of ``rows`` with a non-finite element in the columns
    ``at``, or None: the divergence rule of both runners, over x, u and
    m^2."""
    ok = np.isfinite(rows.take(at, axis=1))
    if np.count_nonzero(ok) == ok.size:
        return None
    return int(np.flatnonzero(~ok.all(axis=1))[0])


class RowBuffer:
    """(CHUNK + 1, width) buffer of ``law``'s rows; row 0 starts from the
    state ``z0 = [F, W]``, row i + 1 receives the state that follows row i,
    and the last row carries over to row 0 of the next chunk. ``probe``
    holds the columns of x, u and m^2 that ``first_nonfinite`` reads."""

    def __init__(self, law, z0, steps: int):
        self.buf = np.zeros((min(CHUNK, steps) + 1, law.width))
        self.size = self.buf.shape[0] - 1
        self.R = law.R
        self.buf[0, law.F] = z0[:law.nF]
        self.buf[0, law.W] = z0[law.nF:]
        self.probe = np.hstack([law.cols[name] for name in ("x", "u", "m2")
                                if name in law.cols])

    def run(self, r_all, store, chunk):
        """Step the rows over the samples ``r_all`` of r, filled into every
        row before its chunk runs: ``chunk(t0, count)`` steps rows
        0..count-1 (steps t0..t0+count-1) and returns how many it finished
        and the row of the divergence step or None, and ``store(rows, t0)``
        receives the finished rows. Returns the divergence step or None."""
        T1 = r_all.shape[0]
        buf, R = self.buf, self.R
        buf[0, R] = r_all[0]
        t0 = 0
        with np.errstate(all="ignore"):
            while t0 < T1:
                count = min(self.size, T1 - t0)
                stop = min(t0 + count + 1, T1)
                buf[1:stop - t0, R] = r_all[t0 + 1:stop]
                reached, bad = chunk(t0, count)
                store(buf[:reached], t0)
                if bad is not None:
                    return t0 + bad
                buf[0] = buf[count]
                t0 += count
        return None


def run(law: Law, r_all, store, projection=None, f2=None):
    """Step ``law`` in discrete time over the samples ``r_all`` of r.

    Row i + 1 receives F(t + 1) = L [F, r, u] and W(t + 1) = W + G ab from
    row i, and ``store(rows, t0)`` the finished rows of each chunk. With a
    ``projection``, a theta2 that leaves its signed bound lands on it, in
    every copy ``law.theta2(W)`` names, and step t's correction goes into
    ``f2[t]``. Nothing in a discrete step raises, so the divergence rule
    runs once per chunk. Returns the divergence step: the first at which an
    element of x, u or m^2 is not finite, or None.
    """
    rows = RowBuffer(law, law.z0, r_all.shape[0])
    buf, probe = rows.buf, rows.probe
    steps = [(law.views(buf[i], buf[i + 1, law.F]), buf[i, law.W],
              buf[i, law.dW], buf[i + 1, law.W]) for i in range(rows.size)]
    if projection is not None:
        signs, lower = projection.signs, projection.theta2_lower
        signs_l, lower_l = signs.tolist(), lower.tolist()
        landing = [law.theta2(buf[i + 1, law.W]) for i in range(rows.size)]
    step, add = law.step, np.add

    def chunk(t0, count):
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
        return count, first_nonfinite(buf[:count], probe)

    return rows.run(r_all, store, chunk)


def run_ct(law, z0, signal, horizon: int, h: float, method: str, integrate,
           store, after_step=None, adjust=None):
    """Step ``law`` in continuous time from the state ``z0`` over
    ``horizon`` steps of size ``h``: one ``integrate`` call (the runner
    module's ``integrate_ct``) per row advances z = [F, W] along the rate
    [dF, dW] that ``law``'s step writes, and the result, after
    ``after_step(z)`` in place, lands in row i + 1. r is sampled once at
    every stage time t_k, t_k + h/2 and t_k + h. Row k is stage 1 of step k
    and its record, and stages 2-4 evaluate on rows of their own; each rate
    reaches ``integrate`` as a view of its row, which ``adjust(dz, row)``
    may refuse by raising or replace by a changed copy. ``store(rows, t0)``
    receives the finished rows of each chunk.

    Each row meets the divergence rule before it is integrated. Returns the
    divergence step: k when an element of x, u or m^2 of step k is not
    finite, k + 1 when ``integrate`` reports a non-finite state after step
    k, else None.
    """
    T1 = horizon + 1
    # a step near the float range overflows the stage times; r then reads
    # NaN and the run diverges
    with np.errstate(over="ignore"):
        t = np.arange(T1) * h
        r_all = signal.sample(np.concatenate([t, t + 0.5 * h, t + h]))
    r0, r_mid, r_end = r_all[:T1], r_all[T1:2 * T1], r_all[2 * T1:]
    times = t.tolist()
    rows = RowBuffer(law, z0, T1)
    buf, probe, nF = rows.buf, rows.probe, law.nF
    dz = slice(law.dF.start, law.dW.stop)
    steps = [(law.views(buf[i], buf[i, law.dF]), buf[i], buf[i, dz],
              buf[i:i + 1], buf[i + 1, law.F], buf[i + 1, law.W])
             for i in range(rows.size)]
    stage_rows = [(law.views(row, row[law.dF]), row, row[dz], row[law.F],
                   row[law.W], row[law.R])
                  for row in np.zeros((3, law.width))]
    step = law.step

    def rate(v, row, d):
        step(v)
        return d if adjust is None else adjust(d, row)

    # the step being integrated: its state and stage-1 rate, the inputs of
    # its later stages at t_k + h/2 and t_k + h, and their rows
    z = z0
    zk = k1 = t_mid = rm = re = stages = None

    def rhs(tau, y):
        if y is zk:
            return k1
        v, row, d, Fw, Ww, rw = next(stages)
        Fw[...] = y[:nF]
        Ww[...] = y[nF:]
        rw[...] = rm if tau == t_mid else re
        return rate(v, row, d)

    def chunk(t0, count):
        nonlocal z, zk, k1, t_mid, rm, re, stages
        for i in range(count):
            k = t0 + i
            v, row, d, one, Fn, Wn = steps[i]
            k1 = rate(v, row, d)
            if first_nonfinite(one, probe) is not None:
                return i, i
            if k == horizon:
                break
            zk, tk, stages = z, times[k], iter(stage_rows)
            t_mid, rm, re = tk + 0.5 * h, r_mid[k], r_end[k]
            try:
                z = integrate(rhs, z, h, t=tk, method=method)
            except NumericsError:
                return i + 1, i + 1
            if after_step is not None:
                after_step(z)
            Fn[...] = z[:nF]
            Wn[...] = z[nF:]
        return count, None

    return rows.run(r0, store, chunk)


def block(T, n, row_col, col_col, mat):
    """Place an n x n block at F-column coordinates (row_col, col_col)."""
    T[row_col * n:(row_col + 1) * n, col_col * n:(col_col + 1) * n] = mat

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
row are made once, r is sampled a block of rows at a time as the rows need
it (``Samples``), and the record columns of each chunk of finished rows go
to each member's store, its sink (``diagnostics.Stream``, which gives them
to the run's consumers a block at a time). Both runners share it and one
divergence rule (``first_nonfinite``: the first step at which an element
of x, u or m^2 is not finite). They differ only in how row i's state
reaches row i + 1: in discrete time (``run``) L [F, r, u] lands there as
F(t + 1) and W(t + 1) = W + G ab; in continuous time (``run_ct``) one call
to the runner module's ``integrate_ct`` advances z along dz/dt = [dF, dW].
Its first stage is row i itself, and its stage evaluator writes each later
stage's state straight into one of three stage rows. A step does only the
RK4 arithmetic, the law's four steps, ``integrate_ct``'s finiteness check
of the new state and the check of u and m^2. A law may carry theta2
guards (``indirect.Guarded``), each one form for a row or a group's block
of rows: ``run`` calls the landing once per step, ``run_ct`` the rate
check on each rate and the clamp on each new state.

Rows always carry a leading member axis: ``run`` steps the set-up runs of
a lockstep group, B discrete laws of one layout, on one ``stack``ed law
with L, G, z0 and the guards' signs and bounds stacked, and a lone run is
a group of one. Each product of a group's step is a stacked ``matmul``,
which makes the same BLAS call per member as the lone ``.dot``, so every
member's rows are byte for byte those of its lone run. A group of one
keeps its own law and so the ``.dot`` step, which runs twice as fast as a
stacked one at B = 1. The divergence rule and the record store run per
member: a member's records stop after the chunk in which it diverged, and
the group runs until every member has diverged or reached the end.
"""

from __future__ import annotations

import copy
import math
from functools import partial

import numpy as np

from .errors import NumericsError, ToolkitError

# rows per chunk: long enough to amortize the per-chunk record copies,
# short enough that the views and the buffer stay small
CHUNK = 128

# rows per block of the work over a run's rows (sampling r, the V series,
# the reductions and checks of the trace), so that its temporaries keep one
# size whatever the horizon
BLOCK = 1024


def row_blocks(steps: int):
    """Yield the (lo, hi) row ranges, in order, of blocks of BLOCK rows
    that cover ``steps`` rows. None holds a single row unless ``steps`` is
    1: a one-row product goes to another BLAS routine (gemv for gemm),
    whose last bits may differ, so a lone last row joins the block before
    it."""
    lo = 0
    while lo < steps:
        hi = min(lo + BLOCK, steps)
        if steps - hi == 1:
            hi = steps
        yield lo, hi
        lo = hi


class Layout:
    """The slices of a work row [head | F | r | u | mid | W | dF | dW] with
    ``nF`` linear states, M inputs and ``NW`` estimate entries; ``head`` and
    ``mid`` are the scheme's own columns."""

    # the signs, bounds and floor of the theta2 guards, none unless the law
    # is an ``indirect.Guarded`` one, with its ``landing`` and ``ct_guards``
    signs = theta2_lower = floor = None

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
        self.n_ab = (M if xi_in_ab else 0) + M * C
        self.step = _stepper(L, G, n, M, self.n_ab)

    def views(self, row, dF):
        """The operands ``step`` takes from ``row``, writing F's image into
        ``dF``. Of a group's (B, width) block of rows, each operand gains
        the leading member axis, vectors become columns and each product a
        batched ``matmul`` (see ``stack``)."""
        n, M, C, K, F0 = self.n, self.M, self.C, self.K, self.F0
        lead = row.shape[:-1]
        W, W1 = row[..., self.W], self.W.start + K
        # theta_j is row 1 + j of W^T from column jC on; the row runs past W
        theta = row[..., W1:W1 + M * (K + C)].reshape(
            lead + (M, K + C))[..., :C]
        if self.rho:
            refresh = (theta, W[..., M * C:M * C + M, None],
                       W[..., :M * C].reshape(lead + (M, C)))
            gains, th2 = theta, None
        else:
            refresh, th2 = None, W[..., self.th2]
            gains = W[..., (M + 1) * K:].reshape(lead + (M, C))
        H = row[..., n if self.xi_in_m else F0:F0 + n * M * C]
        AB = row[..., n if self.xi_in_ab else F0:F0 + n * M * C].reshape(
            lead + (-1, n))
        WT = W[..., :(M + 1) * K].reshape(lead + (M + 1, K))
        FT = row[..., self.F].reshape(lead + (K, n))
        XE = row[..., :F0].reshape(lead + (M + 1, n))
        om, u = row[..., F0 + n * (K - 1):self.U.start], row[..., self.U]
        eps, dW = row[..., :n], row[..., self.dW]
        lin = row[..., F0:self.U.stop]
        if not lead:
            return (refresh, gains.dot, om, u, th2, WT.dot, FT, XE, H.dot, H,
                    row[self.m2:self.m2 + 1], eps, AB.dot, dW, lin, dF)
        # a group's products are stacked matmuls over columns, and m^2 and
        # eps are flat operands of the normalization's vector form
        matmul = np.matmul
        return (refresh, partial(matmul, gains), om[..., None], u[..., None],
                None if th2 is None else th2[..., None], partial(matmul, WT),
                FT, XE, partial(matmul, H[..., None, :]), H[..., None],
                row[..., self.m2], eps, partial(matmul, AB), dW[..., None],
                lin[..., None], dF[..., None])


def _stepper(L, G, n, M, n_ab):
    """One step of a law: u, eps, Xi and m^2 into the row, L [F, r, u] into
    dF and G ab into dW. With L and G stacked on a leading member axis, the
    step of a lockstep group (``_group_stepper``)."""
    if L.ndim == 3:
        return _group_stepper(L, G, n, M, n_ab)
    epsb = np.empty(n)
    ab = np.empty(n_ab)
    # the arrays' .dot methods skip the __array_function__ dispatch of np.dot
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


def _group_stepper(L, G, n, M, n_ab):
    """The step of a lockstep group on (B, width) blocks of rows: the
    operations of the lone step on every member, batched, with m^2 in
    vector form."""
    B = L.shape[0]
    # a stacked matmul makes the same BLAS call per member as .dot
    Ldot, Gdot = partial(np.matmul, L), partial(np.matmul, G)
    scale, div, add = np.multiply, np.divide, np.add
    epsb, ab = np.empty((B, n, 1)), np.empty((B, n_ab, 1))
    # numpy copies an output that may overlap an input first, and a view of
    # one region of a block of rows may overlap a view of any other; the
    # products the rows feed back into go to these arrays instead, then
    # into the rows
    rt, us = np.empty((B, M, n + M)), np.empty((B, M, 1))
    xe = np.empty((B, M + 1, n))
    # H^T H and -1 / m^2, and flat views, which numpy's ufuncs loop over
    # faster
    h2, inv = np.empty((B, 1, 1)), np.empty((B, 1))
    h2_, inv_, epsb_ = h2.reshape(B), inv.reshape(B), epsb.reshape(B, n)

    def step(v):
        (refresh, Kdot, om, u, th2, WTdot, FT, XE, Hdot, H, m2w, eps, ABdot,
         dW, lin, dF) = v
        if refresh is not None:
            scale(refresh[0], refresh[1], rt)
            refresh[2][...] = rt
        Kdot(om, us)
        if th2 is not None:
            div(us, th2, us)
        u[...] = us
        WTdot(FT, xe)
        XE[...] = xe
        Hdot(H, h2)
        add(h2_, 1.0, m2w)
        div(-1.0, m2w, inv_)
        scale(eps, inv, epsb_)
        ABdot(epsb, ab)
        Gdot(ab, dW)
        Ldot(lin, dF)

    return step


def stack(laws):
    """One law that steps ``laws``, which share one layout, in lockstep: a
    copy of the first with their L, G, z0 and the signs, bounds and floors
    of their guards stacked on a leading member axis, whose step and guards
    work on a (B, width) block of rows; the law itself when it is alone."""
    if len(laws) == 1:
        return laws[0]
    law = copy.copy(laws[0])
    law.cols = dict(law.cols)
    for name in ("L", "G", "z0", "signs", "theta2_lower", "floor"):
        if getattr(law, name) is not None:
            setattr(law, name, np.stack([getattr(one, name) for one in laws]))
    law.step = _stepper(law.L, law.G, law.n, law.M, law.n_ab)
    return law


def shapes(cols, **extra):
    """The shape of one row of each record of the columns ``cols`` and of
    the ``extra`` records, keyed by trace field."""
    return {**{name: np.shape(at) for name, at in cols.items()}, **extra}


def records(shapes, steps: int):
    """Zeroed record arrays of ``steps`` rows of ``shapes``, keyed by trace
    field."""
    return {name: np.zeros((steps,) + shape) for name, shape in shapes.items()}


class Samples:
    """r at the rows of a run of ``steps`` rows, sampled by ``sample(lo,
    hi)`` a block of ``row_blocks(steps)`` at a time as the rows ask for
    it: every sample keeps the bits of sampling the whole run by those
    blocks, and only the blocks in use are held. ``rows(lo, hi)`` may start
    one row before the call before it did (a chunk rereads the row it
    carries over), never earlier."""

    def __init__(self, sample, steps: int):
        self.sample, self.blocks = sample, row_blocks(steps)
        self.held = []  # (lo, hi, samples) of each block in use, in order

    def rows(self, lo, hi):
        self.held = [block for block in self.held if block[1] >= lo]
        while not self.held or self.held[-1][1] < hi:
            start, stop = next(self.blocks)
            self.held.append((start, stop, self.sample(start, stop)))
        parts = [values[max(lo, start) - start:min(hi, stop) - start]
                 for start, stop, values in self.held
                 if start < hi and stop > lo]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def first_nonfinite(rows, at):
    """Of a (steps, B, width) block of rows, the first step of each member
    with a non-finite element in the columns ``at``, or None: the
    divergence rule of both runners, over x, u and m^2."""
    ok = np.isfinite(rows.take(at, axis=-1))
    if np.count_nonzero(ok) == ok.size:
        return [None] * rows.shape[1]
    bad = ~ok.all(axis=-1)
    return [int(np.argmax(col)) if col.any() else None for col in bad.T]


class RowBuffer:
    """(CHUNK // B + 1, B, width) buffer of the rows of ``law``, which
    steps the B members whose stores (sinks, see ``store``) are
    ``stores``, B = 1 for a lone run, over ``steps`` rows; row 0 starts
    from the states ``law.z0 = [F, W]``, row i + 1 receives the state that
    follows row i, and the last row carries over to row 0 of the next
    chunk. ``work`` holds the rows ``law``'s step takes: a lone run's
    (width,) rows, a group's (B, width) blocks. ``probe`` holds the columns
    of x, u and m^2 that ``first_nonfinite`` reads."""

    def __init__(self, law, stores, steps: int):
        B = len(stores)
        # a group's buffer keeps a lone one's size. Freeing a buffer of
        # CHUNK rows of four members (0.75 MiB) left the process 3.9 MiB
        # larger: glibc's malloc then serves arrays up to that size, the
        # records among them, from a heap it does not shrink
        rows = max(1, CHUNK // B)
        self.buf = np.zeros((min(rows, steps) + 1, B, law.width))
        self.work = self.buf if law.z0.ndim > 1 else self.buf[:, 0]
        self.size = self.buf.shape[0] - 1
        self.steps = steps
        self.R, self.cols, self.stores = law.R, law.cols, stores
        self.buf[0, :, law.F] = law.z0[..., :law.nF]
        self.buf[0, :, law.W] = law.z0[..., law.nF:]
        self.probe = np.hstack([law.cols[name] for name in ("x", "u", "m2")
                                if name in law.cols])

    def store(self, rows, t0, live, bad, ended):
        """Give the record columns of the finished ``rows`` (steps t0
        onward) of each member in ``live`` to its store, with one gather per
        record for the whole group: ``store(records, t0, stop)``, with the
        rows up to the member's divergence row in ``bad`` (that row
        included; None: none) and ``stop``, the count of them that precede
        it. Sets ``ended`` of a member that diverged to its divergence step,
        and of one whose store raised a ToolkitError to that error."""
        blocks = {name: rows[..., at] for name, at in self.cols.items()}
        for b in live:
            keep = stop = rows.shape[0]
            if bad[b] is not None:
                keep, stop = min(keep, bad[b] + 1), min(keep, bad[b])
                ended[b] = t0 + bad[b]
            try:
                self.stores[b]({name: block[:keep, b]
                                for name, block in blocks.items()}, t0, stop)
            except ToolkitError as exc:
                ended[b] = exc

    def run(self, r, chunk):
        """Step the rows, r filled into every row before its chunk runs:
        ``r(lo, hi)`` gives r at rows lo..hi (rows x B x M), ``chunk(t0,
        count)`` steps rows 0..count-1 (steps t0..t0+count-1) and returns
        how many it finished and, per member, the row of its divergence
        step or None (``first_nonfinite``). ``store`` then receives the
        finished rows of the members that had not ended before the chunk.
        The rows run until every member has ended or reached the end.
        Returns what ended each member: None (it reached the end), its
        divergence step, or the ToolkitError its store raised."""
        T1 = self.steps
        buf, R = self.buf, self.R
        buf[0, :, R] = r(0, 1)[0]
        ended = [None] * buf.shape[1]
        live = list(range(buf.shape[1]))
        t0 = 0
        with np.errstate(all="ignore"):
            while t0 < T1:
                count = min(self.size, T1 - t0)
                stop = min(t0 + count + 1, T1)
                if stop > t0 + 1:
                    buf[1:stop - t0, :, R] = r(t0 + 1, stop)
                reached, bad = chunk(t0, count)
                self.store(buf[:reached], t0, live, bad, ended)
                live = [b for b in live if ended[b] is None]
                if not live:
                    break
                buf[0] = buf[count]
                t0 += count
        return ended


def run(members, steps: int):
    """Step the set-up discrete runs ``members`` (``direct.Member``), whose
    laws share one layout, in lockstep over ``steps`` rows on one
    ``stack``ed law, each member's r sampled by its ``r(lo, hi)``; a lone
    run is a group of one.

    Row i + 1 receives F(t + 1) = L [F, r, u] and W(t + 1) = W + G ab from
    row i; the law's landing, if any, then acts once on the whole group's
    row i + 1, its correction into row i's ``f2`` columns, which each chunk
    zeroes first. Nothing in a discrete step raises, so the divergence rule
    runs once per chunk. Returns what ended each member
    (``RowBuffer.run``): None, its divergence step (the first at which an
    element of its x, u or m^2 is not finite) or its store's error.
    """
    law = stack([m.law for m in members])
    rows = RowBuffer(law, [m.store for m in members], steps)
    buf, work, probe = rows.buf, rows.work, rows.probe
    land = law.signs is not None and law.landing()
    views = [(law.views(work[i], work[i + 1][..., law.F]),
              work[i][..., law.W], work[i][..., law.dW],
              work[i + 1][..., law.W],
              land and law.theta2(work[i + 1][..., law.W]),
              land and work[i][..., law.f2])
             for i in range(rows.size)]
    step, add = law.step, np.add

    def chunk(t0, count):
        if land:
            buf[:count, :, law.f2] = 0.0
        for i in range(count):
            v, W, dW, Wn, copies, f2 = views[i]
            step(v)
            add(W, dW, Wn)
            if land:
                land(copies, f2)
        return count, first_nonfinite(buf[:count], probe)

    samples = Samples(lambda lo, hi: np.stack([m.r(lo, hi) for m in members],
                                              axis=1), steps)
    return rows.run(samples.rows, chunk)


def run_ct(member, horizon: int, h: float, method: str, integrate):
    """Step the set-up run ``member`` (``direct.Member``) in continuous
    time from its law's state ``z0`` over ``horizon`` steps of size ``h``:
    one ``integrate`` call (the runner module's ``integrate_ct``) per row
    advances z = [F, W] along the rate [dF, dW] that the law's step writes,
    and the result, after the law's clamp (``ct_guards``) in place, lands
    in row i + 1. The member's ``r(lo, hi)`` gives r of rows lo..hi at the
    stage times t_k, t_k + h/2 (stages 2 and 3) and t_k + h of every step,
    sampled a block of steps at a time as the rows need it. Row k is stage
    1 of step k and its record. Stages 2-4 evaluate on three rows of their
    own, reused by every step: the ``stage`` evaluator ``integrate`` passes
    to the RK4 step writes y + c k straight into a stage row's F and W,
    with y read off row k, and that row's r is set once per step. The
    law's rate check (``ct_guards``) takes each rate with the row's theta2
    and raw theta2 rate: it returns the rate, or refuses it by raising, or
    replaces it by a changed copy.

    Each row meets the divergence rule before it is integrated: row 0 in
    full, every later row on u and m^2 only, since its x is part of a state
    that ``integrate`` found finite. Returns, as ``run`` does for a group
    of one, the list of what ended the run: k when an element of x, u or
    m^2 of step k is not finite, k + 1 when ``integrate`` reports a
    non-finite state after step k, else None (or its store's error).
    """
    law = member.law
    guard, clamp = (law.ct_guards() if law.signs is not None
                    or law.floor is not None else (None, None))
    T1 = horizon + 1
    # r of stages 1-4 of each step
    samples = Samples(member.r, T1)
    rows = RowBuffer(law, [member.store], T1)
    buf, work, probe, nF = rows.buf, rows.work, rows.probe, law.nF
    dz = slice(law.dF.start, law.dW.stop)
    # m^2, when the law has it, is the column after u
    span = slice(law.U.start, law.U.stop + ("m2" in law.cols))

    def operands(row):
        """The step's views of ``row``, its rate [dF, dW], its state parts F
        and W, and with a rate check its theta2 and theta2's raw rate."""
        return (law.views(row, row[law.dF]), row[dz], row[law.F], row[law.W],
                guard and (row[law.W][law.th2], row[law.dW][law.th2]))

    # each row's operands, its u and m^2, and the state parts of row i + 1
    steps = [(operands(work[i]), work[i, span], work[i + 1, law.F],
              work[i + 1, law.W]) for i in range(rows.size)]
    stage_buf = np.zeros((3, law.width))
    stage_r = stage_buf[:, law.R]
    stage_rows = [operands(row) for row in stage_buf]
    # c k of the stage being evaluated, whole and in its F and W parts
    z = law.z0
    ck = np.empty(z.shape[0])
    ckF, ckW = ck[:nF], ck[nF:]
    step, multiply, add, isfinite = law.step, np.multiply, np.add, math.isfinite

    # the step being integrated: its state z, its rate k1 and the state
    # parts yF, yW of its row
    k1 = yF = yW = None

    def first(tau, y):
        return k1

    def stage(i, tau, c, k):
        v, d, F, W, theta2 = stage_rows[i - 2]
        multiply(k, c, ck)
        add(yF, ckF, F)
        add(yW, ckW, W)
        step(v)
        return guard(theta2, d) if guard else d

    def chunk(t0, count):
        nonlocal z, k1, yF, yW
        r_stages = samples.rows(t0, t0 + count)[:, 1:]
        for i in range(count):
            k = t0 + i
            (v, d, yF, yW, theta2), uspan, Fn, Wn = steps[i]
            step(v)
            k1 = guard(theta2, d) if guard else d
            if (not all(map(isfinite, uspan.tolist())) if k
                    else first_nonfinite(buf[:1], probe)[0] is not None):
                return i, [i]
            if k == horizon:
                break
            stage_r[...] = r_stages[i]
            try:
                z = integrate(first, z, h, t=k * h, method=method,
                              stage=stage)
            except NumericsError:
                return i + 1, [i + 1]
            if clamp:
                clamp(z)
            Fn[...] = z[:nF]
            Wn[...] = z[nF:]
        return count, [None]

    return rows.run(lambda lo, hi: samples.rows(lo, hi)[:, :1], chunk)


def block(T, n, row_col, col_col, mat):
    """Place an n x n block at F-column coordinates (row_col, col_col)."""
    T[row_col * n:(row_col + 1) * n, col_col * n:(col_col + 1) * n] = mat

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

Rows live in a ``RowBuffer`` that the whole run reuses, and which keeps
the run's clock: the rows run a ``row_blocks`` block at a time, each
member's r sampled once per block, and each block is cut into chunks that
end at its end. A member is its set-up run (``diagnostics.Stream``): the
runner steps its law, samples its signal, reads its horizon and step h off
its trace's spec, and gives only the record columns of its finished rows,
in order, to its store. Both runners share the buffer, one divergence rule
(``first_nonfinite``: the first step at which an element of x, u or m^2 is
not finite) and views of the rows their law steps made once per run. In
discrete time (``run``) the law steps the buffer's rows, and L [F, r, u]
lands in row i + 1 as F(t + 1) and W(t + 1) = W + G ab; in continuous
time (``run_ct``) it steps four stage rows, one per stage of the call to
the runner module's ``integrate_ct`` that advances z along dz/dt = [dF,
dW], and row i is a copy of stage 1's. Every theta2 rule is a guard of the
law (``Layout.landing``, ``floor_check`` and ``ct_guards``), one form for
a row or a group's block of rows, which writes a projection's correction
into the row's ``f2`` columns: ``run`` calls the landing once per step
and, for a law with a floor, the floor check once per chunk, ``run_ct``
the rate check on each rate and the clamp on each new state.

Rows always carry a leading member axis: ``run`` steps the set-up runs of
a lockstep group, B discrete laws of one layout, on the law the first one
``stack``s of them all, and a lone run is a group of one. Every law has
one step, which takes the ``views`` of a lone (width,) row or of a group's
(B, width) block, and only ``forms`` knows which it has. A lone row's
products are the arrays' ``.dot`` methods, a block's a stacked ``matmul``,
which makes the same BLAS call per member on a row that starts 16-byte
aligned, as a lone row does (``Layout``), so every member's rows are byte
for byte those of its lone run on every BLAS kernel. A product that feeds
back into the rows it reads goes straight into a lone row, and into a
scratch array that is then copied into a block (numpy would first copy an
output whose extent overlaps an input's). The gradient step's one
statement of each form is m^2, which a lone row forms in Python floats. A
group of one keeps its own law and so the ``.dot`` step, which runs twice
as fast as a stacked one at B = 1. Each member ends on its own, diverged
or failed, and the group runs until every member has ended or reached the
end (``RowBuffer.run``).
"""

from __future__ import annotations

import copy
import math
from collections import namedtuple
from functools import partial
from itertools import chain
from operator import gt, lt, mul

import numpy as np

from .errors import ModelError, NumericsError, SingularGainError, ToolkitError
from .gains import ProjectionConfig, _active, _below

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


# a law's operands of rows of one form (see ``forms``)
Forms = namedtuple("Forms", "dot col into flat")


def _kept():
    """A lone row's landing of a product: the product is in the row."""


def forms(lead):
    """The ``Forms`` of a law's ``views`` of rows of leading shape
    ``lead``: ``dot(a)``, the product by the matrix or vector ``a``;
    ``col(v)``, the vector operand v; ``into(v)``, the target of a product
    that lands in the view v, and its landing, called once the product is
    in the target; and ``flat(v)``, v's entries as one list of floats. A
    lone row's are ``a.dot``, v, (v, a landing that does nothing) and
    ``v.tolist()``; a (B, width) block's a stacked ``matmul`` by a, with a
    vector taken as a row, v's columns, a scratch array that its landing
    copies into v, and v's rows joined."""
    if not lead:
        return Forms(lambda a: a.dot, lambda v: v, lambda v: (v, _kept),
                     np.ndarray.tolist)

    def into(v):
        out = np.empty(v.shape)
        return out, partial(v.__setitem__, Ellipsis, out)

    return Forms(lambda a: partial(np.matmul, a if a.ndim > len(lead) + 1
                                   else a[..., None, :]),
                 lambda v: v[..., None], into,
                 lambda v: list(chain.from_iterable(v.tolist())))


class Layout:
    """The slices of a work row [head | F | r | u | mid | W | dF | dW] with
    ``nF`` linear states, M inputs and ``NW`` estimate entries; ``head`` and
    ``mid`` are the scheme's own columns. A law on it steps a row by
    ``step(views(row, dF))``; each class of the law names in ``stacked``
    the arrays it adds that the step, the state ``z0`` or the guards read,
    and ``form`` is what else the step reads. ``value(rec)`` is the law's V
    of a block of records (None: no matching solution), and ``gamma0`` the
    constant of its bound dV <= -(2 - gamma0) eps^2 / m^2 (NaN: none).

    The width is even, so that every row of a buffer or of a group's block
    starts 16-byte aligned, as a lone row does: some BLAS kernels sum a
    product whose operand is misaligned in another order.

    An indirect law carries its projection and floor (``carry``), which
    the theta2 guards act on: theta2 is ``th2`` of W and of dW, its copies
    ``theta2_at`` of W (copies x M, or M), and an enabled projection's
    correction goes into the ``f2`` columns that close the row. ``signs``
    and ``theta2_lower`` are its signs and bounds, ``floor`` the run's
    invertibility floor, each (M,), or (B, M) in a group's law. Each guard
    takes a row's views or a (B, ...) block's, and tests its rule on
    Python scalars before it acts."""

    form = value = None
    gamma0 = math.nan
    stacked = ("signs", "theta2_lower", "floor")
    signs = theta2_lower = floor = None
    f2 = slice(0)
    rate = ProjectionConfig.rate  # on the law's own signs and bounds

    def __init__(self, head, nF, M, mid, NW):
        self.nF = nF
        self.F = slice(head, head + nF)
        self.R = slice(self.F.stop, self.F.stop + M)
        self.U = slice(self.R.stop, self.R.stop + M)
        self.W = slice(self.U.stop + mid, self.U.stop + mid + NW)
        self.dF = slice(self.W.stop, self.W.stop + nF)
        self.dW = slice(self.dF.stop, self.dF.stop + NW)
        self.width = self.dW.stop + self.dW.stop % 2

    def carry(self, projection, floor=None):
        """Carry ``projection`` and the run's invertibility ``floor`` for
        the theta2 guards. M ``f2`` columns close the row, whose width
        stays even, and the records proj_g2 and proj_f2 read theta2's raw
        rate and those columns; an enabled projection's signs and bounds
        go to ``signs`` and ``theta2_lower``. Without one, nothing writes
        ``f2``, and both records read its zeros."""
        M = self.R.stop - self.R.start
        self.floor, self.f2 = floor, slice(self.width, self.width + M)
        self.width = self.f2.stop + self.f2.stop % 2
        at = np.arange(self.width)
        self.cols["proj_g2"] = self.cols["proj_f2"] = at[self.f2]
        if _active(projection):
            self.signs = projection.signs
            self.theta2_lower = projection.theta2_lower
            self.cols["proj_g2"] = at[self.dW][self.th2]

    def landing(self):
        """``land(copies, f2)`` (see ``run``), if projected: a theta2 that
        step i left outside the bound in ``copies``, those of row i + 1,
        lands on it, gradient then correction, and the correction goes into
        row i's proj_f2 columns ``f2``."""
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
        """The discrete floor check of a law with a floor (see ``run``): of
        a chunk's (count, B, M) theta2 of steps t0 onward, a member's first
        row up to its divergence row in ``bad``, that row included, with an
        entry below its floor puts the SingularGainError (``_below``) in
        ``bad``."""
        if np.any(np.abs(theta2) < self.floor):
            floors = np.atleast_2d(self.floor)
            for b, at in enumerate(bad):
                bad[b] = _below(theta2[:None if at is None else at + 1, b],
                                floors[b], t0) or at

    def ct_guards(self):
        """``(guard, clamp)`` (see ``run_ct``), both None without a
        projection or a floor. ``guard((theta2, g2, f2), dz)`` raises
        SingularGainError at a |theta2| below the floor, and returns the
        rate dz, or a copy of it in which the projection nulls theta2's
        outward rate ``g2`` on the bound (``rate``), that correction
        written into ``f2``, so that the row keeps the raw rate. It returns
        dz after one pass over Python floats when every s theta2 > lower +
        1e-12, off the bound and so above the floor (``gains._floor``), or,
        without a projection, when no |theta2| is below the floor.
        ``clamp(z)`` snaps each copy of theta2 in z = [F, W] that
        integration left a hair inside the bound onto it, None without a
        projection."""
        s, lower, floor = self.signs, self.theta2_lower, self.floor
        if s is None and floor is None:
            return None, None
        # theta2's positions in z = [F, W] and in its rate [dF, dW]
        at = self.nF + self.theta2_at.reshape(-1, self.theta2_at.shape[-1])
        flat = forms((floor if s is None else s).shape[:-1]).flat
        clamp = None
        if s is None:
            floor_l = floor.ravel().tolist()

            def clear(t2):
                return not any(map(lt, map(abs, t2), floor_l))
        else:
            s_l = s.ravel().tolist()
            off_l = (lower + 1e-12).ravel().tolist()
            sc, lc = s[..., None, :], lower[..., None, :]
            at_l = at.ravel()
            # the sign and bound of each entry of z at ``at``
            s_at, lower_at = (np.broadcast_to(v, v.shape[:-2] + at.shape)
                              .ravel().tolist() for v in (sc, lc))

            def clear(t2):
                return all(map(gt, map(mul, s_l, t2), off_l))

            def clamp(z):
                if any(map(lt, map(mul, s_at, flat(z.take(at_l, -1))),
                           lower_at)):
                    t = z[..., at]
                    z[..., at] = np.where(sc * t < lc, sc * lc, t)

        def guard(views, dz):
            theta2, g2, f2 = views
            if clear(flat(theta2)):
                return dz
            if floor is not None and np.any(np.abs(theta2) < floor):
                raise SingularGainError(f"theta2 diagonal {theta2} below "
                                        "the invertibility threshold")
            # only a projected law gets here
            out = self.rate(theta2, g2)
            if out.any():
                dz = dz.copy()
                f2[...] = out
                dz[..., at] += out[..., None, :]
            return dz

        return guard, clamp

    def stack(self, others):
        """One law that steps this law and ``others`` in lockstep: a copy of
        this one with the arrays its classes name in ``stacked`` stacked on
        a leading member axis and its step rebuilt on them; this law itself
        without ``others``. Laws of another class, form, width or set of
        those arrays raise ModelError."""
        if not others:
            return self
        laws = [self, *others]
        names = [name for cls in type(self).__mro__
                 for name in vars(cls).get("stacked", ())]
        if len({(type(law), law.form, law.width,
                 tuple(getattr(law, name) is None for name in names))
                for law in laws}) > 1:
            raise ModelError("laws of different forms do not stack")
        group = copy.copy(self)
        group.cols = dict(self.cols)
        for name in names:
            if getattr(self, name) is not None:
                setattr(group, name,
                        np.stack([getattr(law, name) for law in laws]))
        group.step = group.stepper()
        return group


class Law(Layout):
    """One gradient law on the shared layout: ``L`` over [F, r, u], ``G``
    over ab, the initial state ``z0 = [F, W]`` and the record columns
    ``cols`` of a row, keyed by trace field ("m2" holds m^2).

    ``xi_in_m`` adds Xi to the normalizer's terms, which are S otherwise.
    With ``rho``, Xi joins the gradient's terms too, row 0 of W^T carries
    rho_j at q_j's column and rho_j theta_j, which ``step`` refreshes
    before reading, and u = theta^T omega. Without it, the gradient's terms
    are S, [Theta1^T | I] follows W^T and u = Theta2^{-1} (Theta1^T x + r).
    """

    stacked = ("L", "G", "z0")

    def __init__(self, L, G, F, W, M, xi_in_m, rho):
        self.L, self.G = L, G
        self.K, self.n = F.shape
        self.M, self.C = M, self.n + M
        self.xi_in_m, self.rho = xi_in_m, rho
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
        self.n_ab = (M if rho else 0) + M * C
        self.step = self.stepper()

    def stepper(self):
        """The law's step on its own L and G, or on a group's, stacked on a
        member axis (``stack``): u, eps, Xi and m^2 into the row, L [F, r,
        u] into dF and G ab into dW, of the ``views`` of a row or of a
        block of rows (``forms``)."""
        lead = self.L.shape[:-2]
        dot, col = forms(lead)[:2]
        # the arrays' .dot methods skip the __array_function__ dispatch of
        # np.dot; a stacked matmul makes the same BLAS call per member
        Ldot, Gdot = dot(self.L), dot(self.G)
        scale, div, add = np.multiply, np.divide, np.add
        epsb = np.empty(lead + (self.n,))
        epsc, ab = col(epsb), col(np.empty(lead + (self.n_ab,)))
        # a block's H^T H and -1 / m^2, with flat views, which numpy's
        # ufuncs loop over faster
        h2, inv = np.empty(lead + (1, 1)), np.empty(lead + (1,))
        h2f, invf, lone = h2.reshape(lead), inv.reshape(lead), not lead

        def step(v):
            (refresh, Kdot, om, u, u_land, th2, WTdot, FT, XE, XE_land, Hdot,
             H, m2, eps, ABdot, dW, lin, dF) = v
            if refresh is not None:
                theta, rho, rt, rt_land = refresh
                scale(theta, rho, rt)
                rt_land()
            Kdot(om, u)
            if th2 is not None:
                div(u, th2, u)
            u_land()
            WTdot(FT, XE)
            XE_land()
            if lone:  # Python floats step a lone row 1 us faster
                m = 1.0 + float(Hdot(H))
                m2[()] = m
                m = -1.0 / m
            else:
                Hdot(H, h2)
                add(h2f, 1.0, m2)
                div(-1.0, m2, invf)
                m = inv
            scale(eps, m, epsb)
            ABdot(epsc, ab)
            Gdot(ab, dW)
            Ldot(lin, dF)

        return step

    def views(self, row, dF):
        """The operands ``step`` takes from ``row``, writing F's image into
        ``dF``: of a group's (B, width) block of rows, each operand gains
        the leading member axis, and products, vectors and the targets of
        u, [eps, Xi] and the refresh of rho_j theta_j take their block
        forms (``forms``)."""
        n, M, C, K, F0 = self.n, self.M, self.C, self.K, self.F0
        lead = row.shape[:-1]
        dot, col, into, _ = forms(lead)
        W, W1 = row[..., self.W], self.W.start + K
        # theta_j is row 1 + j of W^T from column jC on; the row runs past W
        theta = row[..., W1:W1 + M * (K + C)].reshape(
            lead + (M, K + C))[..., :C]
        if self.rho:
            refresh = (theta, W[..., M * C:M * C + M, None],
                       *into(W[..., :M * C].reshape(lead + (M, C))))
            gains, th2 = theta, None
        else:
            refresh, th2 = None, col(W[..., self.th2])
            gains = W[..., (M + 1) * K:].reshape(lead + (M, C))
        H = row[..., n if self.xi_in_m else F0:F0 + n * M * C]
        AB = row[..., n if self.rho else F0:F0 + n * M * C].reshape(
            lead + (-1, n))
        WT = W[..., :(M + 1) * K].reshape(lead + (M + 1, K))
        FT = row[..., self.F].reshape(lead + (K, n))
        XE = row[..., :F0].reshape(lead + (M + 1, n))
        om, u = row[..., F0 + n * (K - 1):self.U.start], row[..., self.U]
        lin = row[..., F0:self.U.stop]
        return (refresh, dot(gains), col(om), *into(col(u)), th2, dot(WT),
                FT, *into(XE), dot(H), col(H), row[..., self.m2],
                row[..., :n], dot(AB), col(row[..., self.dW]), col(lin),
                col(dF))


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
        self.cols, self.stores = law.cols, stores
        self.buf[0, :, law.F] = law.z0[..., :law.nF]
        self.buf[0, :, law.W] = law.z0[..., law.nF:]
        self.probe = np.hstack([law.cols[name] for name in ("x", "u", "m2")
                                if name in law.cols])

    def store(self, rows, t0, live, bad, ended):
        """Give the record columns of the finished ``rows`` (steps t0
        onward) of each member in ``live`` to its store, with one gather per
        record for the whole group: ``store(records)``, with the rows before
        the member's divergence row in ``bad`` (None: all of them; a
        ToolkitError: none, the store is not called). Sets ``ended`` of a
        member that diverged to its divergence step, and of one that failed,
        or whose store raised an OSError, to its error."""
        blocks = {name: rows[..., at] for name, at in self.cols.items()}
        for b in live:
            stop = bad[b]
            if isinstance(stop, ToolkitError):
                ended[b] = stop
                continue
            if stop is not None:
                ended[b] = t0 + stop
            try:
                self.stores[b]({name: block[:stop, b]
                                for name, block in blocks.items()})
            except OSError as exc:
                ended[b] = exc

    def run(self, sample, chunk):
        """Step the rows a ``row_blocks`` block at a time: ``sample(lo,
        hi)``, called once per block, gives the samples of r of its rows
        lo..hi, one entry per row, and the block is cut into chunks of at
        most ``size`` rows that end at its end. ``chunk(t0, count, r)``
        fills its rows 0..count-1 (steps t0..t0+count-1) from their samples
        ``r``, steps them and returns how many it finished and, per member,
        how the chunk ended it: the row of its divergence step
        (``first_nonfinite``), the ToolkitError its law's guards found, or
        None. ``store`` then receives the finished rows of the members that
        had not ended before the chunk. The rows run until every member has
        ended or reached the end. Returns what ended each member: None (it
        reached the end), its divergence step, or its error."""
        buf = self.buf
        ended = [None] * buf.shape[1]
        live = list(range(buf.shape[1]))
        with np.errstate(all="ignore"):
            for lo, hi in row_blocks(self.steps):
                r = sample(lo, hi)
                for t0 in range(lo, hi, self.size):
                    count = min(self.size, hi - t0)
                    reached, bad = chunk(t0, count, r[t0 - lo:t0 - lo + count])
                    self.store(buf[:reached], t0, live, bad, ended)
                    live = [b for b in live if ended[b] is None]
                    if not live:
                        return ended
                    buf[0] = buf[count]
        return ended


def run(members):
    """Step the set-up discrete runs ``members`` (``diagnostics.Stream``),
    whose laws share one layout and whose traces one horizon, in lockstep
    over its rows on the law that the first member's law stacks of them
    all (``Layout.stack``), each member's r sampled from its signal at the
    steps of a block of rows at a time; a lone run is a group of one.

    Row i + 1 receives F(t + 1) = L [F, r, u] and W(t + 1) = W + G ab from
    row i; the law's landing, if any, then acts once on the whole group's
    row i + 1, its correction into row i's ``f2`` columns, which each chunk
    zeroes first, as the final row's dW, since no update follows it.
    Nothing in a discrete step raises, so the divergence rule, and then a
    floored law's floor check on each member's rows up to its divergence
    row, run once per chunk. Returns what ended each member
    (``RowBuffer.run``).
    """
    law = members[0].law.stack([m.law for m in members[1:]])
    rows = RowBuffer(law, [m.store for m in members],
                     members[0].spec.horizon + 1)
    buf, work, probe = rows.buf, rows.work, rows.probe
    land, floored = law.landing(), law.floor is not None
    theta2 = floored and buf[..., law.W][..., law.th2]
    views = [(law.views(work[i], work[i + 1][..., law.F]),
              work[i][..., law.W], work[i][..., law.dW],
              work[i + 1][..., law.W],
              land and law.theta2(work[i + 1][..., law.W]),
              work[i][..., law.f2])
             for i in range(rows.size)]
    step, add = law.step, np.add

    def sample(lo, hi):
        t = np.arange(lo, hi, dtype=float)
        return np.stack([m.signal.sample(t) for m in members], axis=1)

    def chunk(t0, count, r):
        buf[:count, :, law.R] = r
        buf[:count, :, law.f2] = 0.0
        for i in range(count):
            v, W, dW, Wn, copies, f2 = views[i]
            step(v)
            add(W, dW, Wn)
            if land:
                land(copies, f2)
        if t0 + count == rows.steps:  # dW and f2 close the row
            buf[count - 1, :, law.dW.start:] = 0.0
        bad = first_nonfinite(buf[:count], probe)
        if floored:
            law.floor_check(theta2[:count], bad, t0)
        return count, bad

    return rows.run(sample, chunk)


def run_ct(member, method: str, integrate):
    """Step the set-up run ``member`` (``diagnostics.Stream``) in continuous
    time from its law's state ``z0`` over the horizon and step h of its
    trace's spec: one ``integrate`` call (the runner module's
    ``integrate_ct``) per step advances z = [F, W] along the rate [dF, dW]
    that the law's step writes, the law's clamp (``ct_guards``) then acting
    on the result in place. The member's signal is sampled a block of steps
    at a time at the stage times t_k, t_k + h/2 (stages 2 and 3) and t_k +
    h of every step k; this is the only code that reads that layout. The
    four stages evaluate on four stage rows, reused by every step, which
    writes z and its four samples of r into them, zeroes row 0's ``f2``
    columns, steps row 0 (stage 1) and copies it into row k as its record;
    the ``stage`` evaluator ``integrate`` passes to the RK4 step writes y +
    c k, y read off row 0, straight into row 1, 2 or 3. The law's rate
    check (``ct_guards``) takes each rate with its row's theta2, raw theta2
    rate and ``f2`` columns, and returns it, or a changed copy, or raises.

    Each record meets the divergence rule before its step is integrated:
    row 0 in full, every later row on u and m^2 only, since its x is part
    of a state that ``integrate`` found finite. Returns, as ``run`` does for
    a group of one, the list of what ended the run: k when an element of x,
    u or m^2 of step k is not finite, k + 1 when ``integrate`` reports a
    non-finite state after step k, the rate check's SingularGainError "at
    step k" when it refused a rate of step k, else None.
    """
    law, horizon, h = member.law, member.spec.horizon, member.spec.dt
    guard, clamp = law.ct_guards()
    rows = RowBuffer(law, [member.store], horizon + 1)
    buf, work, probe, nF = rows.buf, rows.work, rows.probe, law.nF
    dz = slice(law.dF.start, law.dW.stop)
    # the stage rows' step views, rates [dF, dW], F, W, rate check's theta2,
    # raw theta2 rate and f2, and r; row 0's f2, u and m^2 (if any)
    stages = np.zeros((4, law.width))
    ops = [(law.views(row, row[law.dF]), row[dz], row[law.F], row[law.W],
            guard and (row[law.W][law.th2], row[law.dW][law.th2], row[law.f2]))
           for row in stages]
    (v0, d0, yF, yW, theta2_0), row0 = ops[0], stages[0]
    r4, f2_0 = stages[:, law.R], row0[law.f2]
    uspan = row0[law.U.start:law.U.stop + ("m2" in law.cols)]
    # c k of the stage being evaluated, whole and in its F and W parts
    z = law.z0
    ck = np.empty(z.shape[0])
    ckF, ckW = ck[:nF], ck[nF:]
    step, multiply, add, isfinite = law.step, np.multiply, np.add, math.isfinite
    k1 = None  # the rate of the step being integrated

    def first(tau, y):
        return k1

    def stage(i, tau, c, k):
        v, d, F, W, theta2 = ops[i - 1]
        multiply(k, c, ck)
        add(yF, ckF, F)
        add(yW, ckW, W)
        step(v)
        return guard(theta2, d) if guard else d

    def sample(lo, hi):
        """r at the four stage times of each step lo..hi: (steps, 4, M). A
        step near the float range overflows the stage times (``RowBuffer``
        ignores it); r then reads NaN and the run diverges."""
        t = np.arange(lo, hi) * h
        mid = t + 0.5 * h
        times = np.stack([t, mid, mid, t + h], axis=1)
        return member.signal.sample(times.ravel()).reshape(hi - lo, 4, -1)

    def chunk(t0, count, r):
        nonlocal z, k1
        try:
            for i in range(count):
                k = t0 + i
                yF[...] = z[:nF]
                yW[...] = z[nF:]
                r4[...] = r[i]
                f2_0[...] = 0.0
                step(v0)
                k1 = guard(theta2_0, d0) if guard else d0
                work[i] = row0
                if (not all(map(isfinite, uspan.tolist())) if k
                        else first_nonfinite(buf[:1], probe)[0] is not None):
                    return i, [i]
                if k == horizon:
                    break
                try:
                    z = integrate(first, z, h, t=k * h, method=method,
                                  stage=stage)
                except NumericsError:
                    return i + 1, [i + 1]
                if clamp:
                    clamp(z)
        except SingularGainError as exc:
            return i, [SingularGainError(f"{exc} at step {k}")]
        return count, [None]

    return rows.run(sample, chunk)


def block(T, n, row_col, col_col, mat):
    """Place an n x n block at F-column coordinates (row_col, col_col)."""
    T[row_col * n:(row_col + 1) * n, col_col * n:(col_col + 1) * n] = mat

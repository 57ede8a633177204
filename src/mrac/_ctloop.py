"""Fused continuous-time closed loops.

Every continuous-time scheme integrates its whole closed loop (plant,
reference model, estimator, regressor filters and estimates) as one flat
state z. Given r and u, all states but the estimates advance with constant
coefficients, so a scheme's field is a handful of numpy calls on the views
of one work row. The gradient laws share that row with discrete time (see
``_rows``): ``law_field`` copies z = [F, W] and r into it, and the law's
step gives dz/dt = [L [F, r, u], G ab].

``run`` steps a field through ``integrate_ct``:

* r is sampled once, before the loop, at every stage time t_k, t_k + h/2
  and t_k + h;
* the stage-1 evaluation of step k is computed into a row of a chunk
  buffer, next to a copy of z, and doubles as the step's record;
  ``integrate_ct`` gets that derivative back instead of evaluating it again;
* records are copied out chunk by chunk.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError

# rows per chunk, as in the discrete row buffers
CHUNK = 128


class Field:
    """dz/dt of one closed loop: ``f(z, r, v)`` with input r, computed on
    the views ``v = views(row)`` of a work row of ``width`` floats.
    ``probe(v)`` is False when the readout left in ``v`` is not finite."""

    __slots__ = ("f", "views", "width", "probe")

    def __init__(self, f, views, width: int, probe):
        self.f, self.views, self.width, self.probe = f, views, width, probe

    def rhs(self, signal):
        """The field as a plain ``rhs(tau, z)``, with r read at tau."""
        v = self.views(np.zeros(self.width))
        at, f = signal.at, self.f
        return lambda tau, z: f(z, at(tau), v)


def law_field(law, check=None, adjust=None) -> Field:
    """The field dz/dt = [L [F, r, u], G ab] of a gradient law (see
    ``_rows``) over z = [F, W]. ``check(z)`` may refuse a state before the
    step, and ``adjust(dz, z)`` may change its rate after it."""
    nK, step = law.nK, law.step
    x, m2 = law.cols["x"], law.m2

    def views(row):
        return (law.views(row, row[law.dF]), row[law.F], row[law.W],
                row[law.R], row[law.dF.start:law.dW.stop], row[law.U],
                row[m2:m2 + 1], row[x[0]:x[-1] + 1])

    def f(y, r, v):
        if check is not None:
            check(y)
        s, Fw, Ww, rw, D = v[:5]
        Fw[...] = y[:nK]
        Ww[...] = y[nK:]
        rw[...] = r
        step(s)
        dz = D.copy()
        if adjust is not None:
            adjust(dz, y)
        return dz

    def probe(v):
        u, m2w, xw = v[5:]
        return math.isfinite(float(m2w[0]) + float(xw.dot(xw))
                             + float(u.dot(u)))

    return Field(f, views, law.width, probe)


def run(field: Field, z, signal, horizon: int, h: float, method: str,
        integrate, store, after_step=None):
    """Step ``field`` from ``z`` over ``horizon`` steps of size ``h``.

    ``store(rows, t0)`` receives the finished rows of each chunk, the work
    row of steps t0, t0 + 1, ... followed by the state z of that step.
    ``after_step(z)`` may adjust each new state in place. Returns the
    divergence step: k when the readout of step k is not finite, k + 1
    when ``integrate`` reports a non-finite state after step k, else None.
    """
    T1 = horizon + 1
    # a step near the float range overflows the stage times; r then reads
    # NaN and the run reports divergence
    with np.errstate(over="ignore"):
        t = np.arange(T1) * h
        r_all = signal.sample(np.concatenate([t, t + 0.5 * h, t + h]))
    r0, r_mid, r_end = r_all[:T1], r_all[T1:2 * T1], r_all[2 * T1:]
    times = t.tolist()
    size = min(CHUNK, T1)
    width = field.width
    buf = np.empty((size, width + z.shape[0]))
    rows = [field.views(buf[i, :width]) for i in range(size)]
    z_rows = [buf[i, width:] for i in range(size)]
    scratch = field.views(np.zeros(width))
    f, probe, copyto = field.f, field.probe, np.copyto

    # the step being integrated: its state and stage-1 derivative, and the
    # inputs of its later stages, which integrate_ct evaluates at
    # t_k + h/2 and t_k + h
    zk = k1 = t_mid = rm = re = None

    def rhs(tau, y):
        if y is zk:
            return k1
        return f(y, rm if tau == t_mid else re, scratch)

    diverged_at = None
    with np.errstate(all="ignore"):
        for t0 in range(0, T1, size):
            count = min(size, T1 - t0)
            reached = count
            for i in range(count):
                k = t0 + i
                v = rows[i]
                k1 = f(z, r0[k], v)
                if not probe(v):
                    diverged_at, reached = k, i
                    break
                copyto(z_rows[i], z)
                if k == horizon:
                    break
                zk, tk = z, times[k]
                t_mid, rm, re = tk + 0.5 * h, r_mid[k], r_end[k]
                try:
                    z = integrate(rhs, z, h, t=tk, method=method)
                except NumericsError:
                    diverged_at, reached = k + 1, i + 1
                    break
                if after_step is not None:
                    after_step(z)
            store(buf[:reached], t0)
            if diverged_at is not None:
                break
    return diverged_at

"""Fused continuous-time closed loops.

Every continuous-time scheme integrates its whole closed loop (plant,
reference model, estimator, regressor filters and estimates) as one flat
state z. Given r and u, all states but the estimates advance with constant
coefficients, so a scheme's field is a handful of numpy calls on the views
of one work row: one constant matrix gives the derivative of every linear
state, one product gives Xi and eps together, and one gain matrix (sign
priors, structural masks and gains folded in) gives the derivative of the
estimates.

``run`` steps a field through ``integrate_ct``:

* r is sampled once, before the loop, at every stage time t_k, t_k + h/2
  and t_k + h;
* the stage-1 evaluation of step k is computed into a row of a chunk
  buffer, next to a copy of z, and doubles as the step's record;
  ``integrate_ct`` gets that derivative back instead of evaluating it again;
* records are copied out chunk by chunk.
"""

from __future__ import annotations

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

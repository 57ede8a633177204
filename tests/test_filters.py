import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrac import (ChannelFilterBank, ModelError, ReferenceModel,
                  advance_zeta, compute_m, solve_matching)
from conftest import DEN_REF


def tf_impulse(num, den, count):
    """Impulse-response series of num(z)/den(z) by polynomial long division
    (independent of any state-space realization)."""
    d = len(den) - 1
    e = len(num) - 1
    assert e < d, "series needs a strictly proper ratio"
    out = []
    for k in range(count):
        target = 0.0
        j = e - d + k
        if 0 <= j <= e:
            target = num[j]
        acc = target
        for i in range(1, min(k, d) + 1):
            acc -= den[i] * out[k - i]
        out.append(acc / den[0])
    return out


class TestZeta:
    def test_zero_at_start(self, bench_ref):
        bank = ChannelFilterBank(bench_ref, 3)
        assert np.all(bank.zeta() == 0.0)
        assert np.all(bank.xi(np.zeros((3, 1))) == 0.0)

    def test_impulse_unrolls_the_recursion(self, bench_ref):
        bank = ChannelFilterBank(bench_ref, 3)
        z0 = advance_zeta(bank, [1.0, 0.0, 0.0])
        assert np.all(z0 == 0.0)
        z1 = advance_zeta(bank, [0.0, 0.0, 0.0])
        # channel 1 now carries b_m, the other channels stay dark
        assert np.allclose(z1[:, 0, 0], [0.0, 1.0])
        assert np.all(z1[:, 0, 1:] == 0.0)
        z2 = advance_zeta(bank, [0.0, 0.0, 0.0])
        assert np.allclose(z2[:, 0, 0], bench_ref.A_m @ [0.0, 1.0])
        assert np.allclose(z2[:, 0, 0], [-1.0, -1.2])

    def test_impulse_response_matches_long_division(self, bench_ref):
        # realized scalar transfers are -1/(z^2+0.2z-0.15) and (z-1)/(...)
        bank = ChannelFilterBank(bench_ref, 1)
        outputs = []
        drive = 1.0
        for _ in range(20):
            z = advance_zeta(bank, [drive])
            outputs.append(z[:, 0, 0].copy())
            drive = 0.0
        realized = np.array(outputs)
        want_1 = tf_impulse([-1.0], DEN_REF, 20)
        want_2 = tf_impulse([1.0, -1.0], DEN_REF, 20)
        assert np.max(np.abs(realized[:, 0] - want_1)) <= 1e-10
        assert np.max(np.abs(realized[:, 1] - want_2)) <= 1e-10

    def test_dimension_mismatch(self, bench_ref):
        bank = ChannelFilterBank(bench_ref, 3)
        with pytest.raises(ModelError):
            advance_zeta(bank, [1.0, 0.0])


class TestXi:
    def test_two_step_hand_trace(self, bench_ref):
        bank = ChannelFilterBank(bench_ref, 3)
        theta = {0: np.array([1.0, 0.0, 0.0]), 1: np.zeros(3)}
        omega = {0: np.array([1.0, 1.0, 1.0]), 1: np.zeros(3)}
        xi0 = bank.xi(theta[0])
        bank.advance(omega[0], theta[0])
        assert np.all(xi0 == 0.0)
        xi1 = bank.xi(theta[1])
        assert np.allclose(xi1[:, 0], [0.0, -1.0])

    def test_zero_input_gives_zero_xi(self, bench_ref):
        bank = ChannelFilterBank(bench_ref, 3)
        theta = np.array([0.3, -0.2, 1.1])
        for _ in range(40):
            xi = bank.xi(theta)
            bank.advance(np.zeros(3), theta)
            assert np.all(xi == 0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_frozen_theta_makes_xi_vanish(self, seed):
        # a time-invariant estimate commutes with the filters
        rng = np.random.default_rng(seed)
        ref = ReferenceModel(A_m=[[1.0, -1.0], [1.05, -1.2]],
                             B_m=[[0.0], [1.0]])
        bank = ChannelFilterBank(ref, 3)
        theta = rng.normal(size=3)
        for _ in range(200):
            omega = rng.normal(size=3)
            frame = bank.frame(theta)
            bank.advance(omega, theta)
            assert np.max(np.abs(frame.xi)) <= 1e-12


class TestNormalizer:
    def test_all_zero_gives_one(self):
        assert compute_m(np.zeros((2, 1, 3)), np.zeros((2, 1))) == 1.0

    def test_single_zeta(self):
        z = np.array([3.0, 4.0]).reshape(1, 1, 2)
        assert compute_m(z, np.zeros((1, 1))) == pytest.approx(math.sqrt(26.0), abs=0)

    def test_xi_free_variant_is_smaller(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(2, 1, 3))
        xi = rng.normal(size=(2, 1))
        assert compute_m(z, xi, include_xi=False) <= compute_m(z, xi)

    def test_energy_identity(self, bench_ref):
        rng = np.random.default_rng(3)
        bank = ChannelFilterBank(bench_ref, 3)
        theta = rng.normal(size=3)
        for _ in range(30):
            bank.advance(rng.normal(size=3), theta)
        frame = bank.frame(theta)
        s = float(np.sum(frame.zeta**2) + np.sum(frame.xi**2))
        assert abs(frame.m**2 - 1.0 - s) <= 8 * np.finfo(float).eps * (1.0 + s)


class TestEpsilonReconstruction:
    def _run_identity(self, bench_plant, bench_ref, x0, xm0):
        """Drive the closed loop with an arbitrary parameter sequence and
        compare eps = e + rho.xi against its error-model expression
        rho*(theta - theta*)^T zeta + (rho - rho*) xi."""
        sol = solve_matching(bench_plant, bench_ref)
        theta_star = np.array([*sol.k1, sol.k2])
        rho_star = 1.0 / sol.k2
        bank = ChannelFilterBank(bench_ref, 3)
        x, xm = np.array(x0, float), np.array(xm0, float)
        gaps = []
        for t in range(200):
            r = math.sin(0.13 * t)
            # excursions small enough that the frozen closed loop stays
            # stable, keeping signals O(1) so the comparison is meaningful
            theta = theta_star * (1.0 + 0.1 * math.sin(0.05 * t + 0.3))
            rho = rho_star * (1.0 + 0.1 * math.cos(0.08 * t))
            omega = np.array([x[0], x[1], r])
            frame = bank.frame(theta)
            e = x - xm
            eps = e + rho * frame.xi[:, 0]
            predicted = (rho_star * frame.zeta[:, 0, :] @ (theta - theta_star)
                         + (rho - rho_star) * frame.xi[:, 0])
            gaps.append(np.max(np.abs(eps - predicted)))
            u = float(theta @ omega)
            bank.advance(omega, theta)
            x = bench_plant.A @ x + bench_plant.B[:, 0] * u
            xm = bench_ref.A_m @ xm + bench_ref.B_m[:, 0] * r
        return np.array(gaps)

    def test_zero_initial_conditions_exact(self, bench_plant, bench_ref):
        gaps = self._run_identity(bench_plant, bench_ref, [0.0, 0.0], [0.0, 0.0])
        assert gaps.max() <= 1e-10

    def test_transient_decays_at_reference_rate(self, bench_plant, bench_ref):
        gaps = self._run_identity(bench_plant, bench_ref, [1.0, -1.0], [0.0, 0.5])
        assert gaps[0] > 1e-3  # the mismatch is real at the start
        assert gaps[100:].max() <= 1e-10  # and gone after the transient

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mrac import (DirectGainConfig, InitialConditions, ModelError,
                  NumericsError, PlantModel, ReferenceModel, ReferenceSignal,
                  integrate_ct, random_matchable_instance, rk4_step,
                  run_direct_scenario, solve_matching, spectral_radius)
from conftest import A_PLANT, A_REF, K1_TRUE, K2_TRUE


class TestMatching:
    def test_benchmark_gains(self, bench_plant, bench_ref):
        sol = solve_matching(bench_plant, bench_ref)
        assert np.max(np.abs(sol.k1 - K1_TRUE)) <= 1e-12
        assert abs(sol.k2 - K2_TRUE) <= 1e-12
        assert sol.residual <= 1e-12
        assert sol.matchable()

    def test_identity_case(self, bench_ref):
        plant = PlantModel(A=A_REF, B=[[0.0], [1.0]])
        sol = solve_matching(plant, bench_ref)
        assert np.allclose(sol.K1, 0.0, atol=1e-14)
        assert np.allclose(sol.K2, np.eye(1), atol=1e-14)
        assert sol.residual <= 1e-13

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_recovers_construction(self, seed):
        plant, ref, K1, K2 = random_matchable_instance(3, 2, seed)
        sol = solve_matching(plant, ref)
        assert np.max(np.abs(sol.K1 - K1)) <= 1e-10
        assert np.max(np.abs(sol.K2 - K2)) <= 1e-10
        assert sol.residual <= 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_with_full_k2(self, seed):
        # the round-trip guarantee holds for any nonsingular K2*, not just
        # the diagonal family the adaptive schemes assume
        rng = np.random.default_rng(seed)
        n, M = 3, 2
        raw = rng.normal(size=(n, n))
        A_m = raw * (0.6 / spectral_radius(raw))
        Qb, _ = np.linalg.qr(rng.normal(size=(n, M)))
        B_m = Qb
        K1 = rng.normal(size=(n, M))
        K2 = np.eye(M) + 0.3 * rng.normal(size=(M, M))
        B = B_m @ np.linalg.inv(K2)
        A = A_m - B @ K1.T
        sol = solve_matching(PlantModel(A=A, B=B),
                             ReferenceModel(A_m=A_m, B_m=B_m))
        assert np.max(np.abs(sol.K1 - K1)) <= 1e-10
        assert np.max(np.abs(sol.K2 - K2)) <= 1e-10
        assert sol.residual <= 1e-10

    def test_dimension_mismatch(self, bench_plant):
        ref = ReferenceModel(A_m=0.5 * np.eye(3), B_m=np.ones((3, 1)))
        with pytest.raises(ModelError):
            solve_matching(bench_plant, ref)

    def test_rank_deficient_b_rejected(self):
        with pytest.raises(ModelError, match="rank"):
            PlantModel(A=np.eye(2), B=np.zeros((2, 1)))

    def test_unmatchable_still_returns_gains(self):
        # second row of A_m is unreachable through B, K2 stays regular
        plant = PlantModel(A=np.zeros((2, 2)), B=[[1.0], [0.0]])
        ref = ReferenceModel(A_m=A_REF, B_m=[[1.0], [0.0]])
        sol = solve_matching(plant, ref)
        assert not sol.matchable()
        assert sol.residual > 1e-3
        assert abs(sol.k2 - 1.0) <= 1e-12


class TestSpectralRadius:
    def test_benchmark_reference(self):
        # characteristic polynomial z^2 + 0.2 z - 0.15 has roots 0.3, -0.5
        assert abs(spectral_radius(A_REF) - 0.5) <= 1e-9

    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_benchmark_plant(self):
        # z^2 - 2 z + 3 has roots 1 +- sqrt(2) i, magnitude sqrt(3)
        assert abs(spectral_radius(A_PLANT) - math.sqrt(3.0)) <= 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(ModelError):
            spectral_radius(np.ones((2, 3)))

    @pytest.mark.parametrize("seed", range(4))
    def test_accuracy_at_desk_scale(self, seed):
        # known spectrum pushed through a well-conditioned similarity, n = 16
        rng = np.random.default_rng(seed)
        lam = rng.uniform(-0.95, 0.95, size=16)
        T = np.eye(16) + 0.05 * rng.normal(size=(16, 16))
        A = T @ np.diag(lam) @ np.linalg.inv(T)
        assert abs(spectral_radius(A) - np.max(np.abs(lam))) <= 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_similarity_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n, n))
        T = np.eye(n) + 0.1 * rng.normal(size=(n, n))  # well conditioned
        sim = np.linalg.solve(T, A @ T)
        assert abs(spectral_radius(A) - spectral_radius(sim)) <= 1e-7


class TestSteppers:
    """The plant and reference-model steps of a discrete run."""

    @staticmethod
    def step(plant, ref, x0, xm0, r, k2=0.0, signal=None):
        # theta = [0, 0, k2] makes the direct runner apply u = k2 r
        gains = DirectGainConfig(Gamma=0.5 * np.eye(3), gamma=1.0,
                                 sign_k2=1.0, k2_lower=0.5)
        init = InitialConditions(x0=x0, xm0=xm0, theta0=[[0.0], [0.0], [k2]])
        trace = run_direct_scenario(
            plant, ref, signal or ReferenceSignal.constant([r]), gains, init, 1)
        return trace.x[1], trace.x_m[1]

    def test_plant_step(self, bench_plant, bench_ref):
        for x0, k2, want in (([1.0, 0.0], 0.0, [1.0, 2.0]),
                             ([0.0, 0.0], 0.0, [0.0, 0.0]),
                             ([0.0, 0.0], 1.0, [0.0, 2.0])):
            x1, _ = self.step(bench_plant, bench_ref, x0, [0.0, 0.0], 1.0, k2)
            assert np.allclose(x1, want)

    def test_reference_step(self, bench_plant, bench_ref):
        for xm0, r, want in (([1.0, 1.0], 0.0, [0.0, -0.15]),
                             ([0.0, 0.0], 0.0, [0.0, 0.0]),
                             ([0.0, 0.0], 1.0, [0.0, 1.0])):
            _, xm1 = self.step(bench_plant, bench_ref, [0.0, 0.0], xm0, r)
            assert np.allclose(xm1, want)

    def test_dimension_checks(self, bench_plant, bench_ref):
        with pytest.raises(ModelError, match="signal dimension"):
            self.step(bench_plant, bench_ref, [0.0, 0.0], [0.0, 0.0], 0.0,
                      signal=ReferenceSignal.constant([0.0, 0.0]))
        three = ReferenceModel(A_m=0.5 * np.eye(3), B_m=np.ones((3, 1)))
        with pytest.raises(ModelError, match="dimensions differ"):
            self.step(bench_plant, three, [0.0, 0.0], [0.0, 0.0], 0.0)

    def test_unstable_reference_rejected(self):
        with pytest.raises(ModelError, match="unstable"):
            ReferenceModel(A_m=1.1 * np.eye(2), B_m=np.ones((2, 1)))
        with pytest.raises(ModelError, match="Hurwitz"):
            ReferenceModel(A_m=np.eye(2), B_m=np.ones((2, 1)),
                           time_domain="continuous")

    def test_nominal_control_gives_reference_error_recursion(
            self, bench_plant, bench_ref):
        # u = k1*^T x + k2* r makes e(t+1) = A_m e(t) exactly
        rng = np.random.default_rng(1)
        x = np.array([1.0, -2.0])
        xm = np.array([0.5, 0.5])
        e0 = np.linalg.norm(x - xm)
        Am = bench_ref.A_m
        for t in range(200):
            r = math.sin(0.13 * t)
            u = K1_TRUE @ x + K2_TRUE * r
            e = x - xm
            x = bench_plant.A @ x + bench_plant.B[:, 0] * u
            xm = Am @ xm + bench_ref.B_m[:, 0] * r
            assert np.max(np.abs((x - xm) - Am @ e)) <= 1e-12
            assert np.linalg.norm(x - xm) <= 100.0 * 0.5 ** (t + 1) * e0 + 1e-12


class TestIntegrator:
    def test_scalar_exponential(self):
        out = rk4_step(lambda t, y: -y, 0.0, np.array([1.0]), 0.1)
        assert abs(out[0] - math.exp(-0.1)) < 1e-7
        assert out[0] == pytest.approx(0.9048375, abs=1e-7)

    def test_zero_rhs(self):
        y = np.array([3.0, -1.0])
        assert np.allclose(integrate_ct(lambda t, z: np.zeros(2), y, 0.1), y)

    def test_linear_system_per_coordinate(self):
        out = integrate_ct(lambda t, y: -y, np.array([1.0, 1.0]), 0.1)
        assert np.allclose(out, math.exp(-0.1), atol=1e-7)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_matrix_exponential(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        A = rng.normal(size=(n, n))
        A *= min(1.0, 5.0 / np.linalg.norm(A, 2))
        A -= (max(np.max(np.linalg.eigvals(A).real), 0.0) + 0.5) * np.eye(n)
        A *= min(1.0, 5.0 / np.linalg.norm(A, 2))
        x0 = rng.normal(size=n)
        h = 0.01
        exact = scipy.linalg.expm(A * h) @ x0
        out = integrate_ct(lambda t, y: A @ y, x0, h)
        assert np.max(np.abs(out - exact)) <= 1e-6

    def test_euler_option(self):
        out = integrate_ct(lambda t, y: -y, np.array([1.0]), 0.1, method="euler")
        assert out[0] == pytest.approx(0.9, abs=1e-15)

    def test_bad_step_and_method(self):
        with pytest.raises(ValueError):
            integrate_ct(lambda t, y: y, np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            integrate_ct(lambda t, y: y, np.array([1.0]), 0.1, method="verlet")

    def test_nonfinite_abort(self):
        with pytest.raises(NumericsError):
            integrate_ct(lambda t, y: y * np.inf, np.array([1.0]), 0.1)


class TestReferenceSignal:
    def test_sinusoid_matches_formula(self):
        sig = ReferenceSignal.sinusoids(amplitudes=[[1.0, 0.5]],
                                        frequencies=[[0.13, 1.3]])
        for t in (0, 1, 7, 100):
            expected = math.sin(0.13 * t) + 0.5 * math.sin(1.3 * t)
            assert sig.at(t)[0] == pytest.approx(expected, abs=1e-14)
        samples = sig.sample(np.arange(200.0))
        assert samples.shape == (200, 1)
        assert samples[7, 0] == pytest.approx(sig.at(7)[0], abs=0)

    def test_constant(self):
        sig = ReferenceSignal.constant([2.0, -1.0])
        assert sig.dimension == 2
        assert np.allclose(sig.at(123), [2.0, -1.0])

    def test_custom_holds_last_sample(self):
        sig = ReferenceSignal.from_samples([[1.0], [2.0], [3.0]])
        assert sig.at(0)[0] == 1.0
        assert sig.at(2.7)[0] == 3.0
        assert sig.at(50)[0] == 3.0

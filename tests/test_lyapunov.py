import numpy as np
import pytest
import scipy.linalg

from ct_oracle import (lyapunov_direct_derivatives,
                       lyapunov_indirect_derivatives)
from mrac import (GainError, InitialConditions, LyapunovDirectGains,
                  LyapunovIndirectGains, ModelError, ProjectionConfig,
                  ReferenceSignal, integrate_ct, random_matchable_instance,
                  run_lyapunov_scenario, solve_lyapunov_ct, solve_matching,
                  stack_controller_gains, theta_star_indirect)
from mrac.lyapunov import build_lyapunov_loop
from conftest import ct_instance

a = np.array


class TestCertificate:
    def test_negative_identity(self):
        cert = solve_lyapunov_ct(-np.eye(2), 2.0 * np.eye(2))
        assert np.allclose(cert.P, np.eye(2), atol=1e-14)
        assert cert.residual <= 1e-12

    def test_hand_solved_companion_case(self):
        # P A + A^T P = -I for A = [[0,1],[-2,-3]] has the closed form
        # P = [[5/4, 1/4], [1/4, 1/4]]
        A = np.array([[0.0, 1.0], [-2.0, -3.0]])
        cert = solve_lyapunov_ct(A, np.eye(2))
        assert np.allclose(cert.P, [[1.25, 0.25], [0.25, 0.25]], atol=1e-12)
        assert cert.residual <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_random_hurwitz_matches_reference_solver(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(4, 4))
        A -= (np.max(np.linalg.eigvals(A).real) + 0.7) * np.eye(4)
        cert = solve_lyapunov_ct(A, np.eye(4))
        assert np.min(np.linalg.eigvalsh(cert.P)) > 0.0
        assert cert.residual <= 1e-9
        ref = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(4))
        assert np.max(np.abs(cert.P - ref)) <= 1e-9

    def test_rejects_non_hurwitz(self):
        with pytest.raises(ModelError, match="Hurwitz"):
            solve_lyapunov_ct(np.eye(2), np.eye(2))

    def test_rejects_indefinite_q(self):
        with pytest.raises(ModelError, match="positive definite"):
            solve_lyapunov_ct(-np.eye(2), np.diag([1.0, -1.0]))


class TestDirectLaw:
    """The oracle's direct derivatives, by hand."""

    def test_scalar_arithmetic(self):
        # n=1: A_m=-1, Q=2 gives P=1; e=1, x=2, r=3 -> dk1=-2, dk2=-3
        cert = solve_lyapunov_ct(a([[-1.0]]), a([[2.0]]))
        assert cert.P[0, 0] == pytest.approx(1.0, abs=1e-14)
        gains = LyapunovDirectGains(Gamma=[[1.0]], gamma=1.0, sign_k2=1.0)
        dK1, dK2 = lyapunov_direct_derivatives(
            a([1.0]), a([2.0]), a([3.0]), cert.P, a([[1.0]]), gains)
        assert dK1[0, 0] == pytest.approx(-2.0, abs=1e-14)
        assert dK2[0, 0] == pytest.approx(-3.0, abs=1e-14)

    def test_zero_error_is_stationary(self):
        gains = LyapunovDirectGains(Gamma=np.eye(2), gamma=1.0, sign_k2=1.0)
        dK1, dK2 = lyapunov_direct_derivatives(
            np.zeros(2), a([1.0, 2.0]), a([1.0]), np.eye(2), a([[0.0], [1.0]]),
            gains)
        assert np.all(dK1 == 0.0) and np.all(dK2 == 0.0)

    def test_sign_flip_negates_both(self):
        plus = LyapunovDirectGains(Gamma=np.eye(2), gamma=0.7, sign_k2=1.0)
        minus = LyapunovDirectGains(Gamma=np.eye(2), gamma=0.7, sign_k2=-1.0)
        args = (a([0.3, -1.0]), a([1.0, 2.0]), a([0.4]), np.eye(2),
                a([[0.0], [1.0]]))
        d1 = lyapunov_direct_derivatives(*args, plus)
        d2 = lyapunov_direct_derivatives(*args, minus)
        assert np.allclose(d1[0], -d2[0]) and np.allclose(d1[1], -d2[1])

    def test_ms_positivity_check(self):
        K2 = np.diag([0.8, -1.2])
        S_p = np.diag(np.sign(np.diag(K2)) * [1.0, 2.0])
        Ms = K2 @ S_p
        assert np.allclose(Ms, np.diag([0.8, 2.4]))
        assert np.min(np.linalg.eigvalsh(Ms)) > 0.0

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -1.0])
    def test_gamma_must_be_positive_and_finite(self, gamma):
        with pytest.raises(GainError,
                           match="^gamma must be positive and finite$"):
            LyapunovDirectGains(Gamma=np.eye(2), gamma=gamma, sign_k2=1.0)


class TestIndirectLaw:
    """The oracle's indirect derivatives, by hand, and the runner's clamp."""

    def test_scalar_arithmetic(self):
        # P=1: e_x=0.5, x=1, u=2 -> dtheta1=+0.5, dtheta2=-1 (pre-projection)
        gains = LyapunovIndirectGains(Gamma1=[[1.0]], Gamma2=[[1.0]])
        dT1, dT2 = lyapunov_indirect_derivatives(
            a([[1.5]]), a([0.5]), a([1.0]), a([2.0]), np.eye(1), a([[1.0]]),
            gains)
        assert dT1[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert dT2[0, 0] == pytest.approx(-1.0, abs=1e-14)

    def test_zero_error_is_stationary(self):
        gains = LyapunovIndirectGains(Gamma1=np.eye(2), Gamma2=[[1.0]])
        dT1, dT2 = lyapunov_indirect_derivatives(
            a([[1.5]]), np.zeros(2), a([1.0, -1.0]), a([0.7]), np.eye(2),
            a([[0.0], [1.0]]), gains)
        assert np.all(dT1 == 0.0) and np.all(dT2 == 0.0)

    def test_boundary_projection_freezes_theta2(self):
        gains = LyapunovIndirectGains(Gamma1=[[1.0]], Gamma2=[[1.0]])
        proj = ProjectionConfig(theta2_lower=1.5, signs=1.0)
        dT1, dT2 = lyapunov_indirect_derivatives(
            a([[1.5]]), a([0.5]), a([1.0]), a([2.0]), np.eye(1), a([[1.0]]),
            gains, proj)
        assert dT2[0, 0] == 0.0  # outward raw rate -1 is cancelled
        assert dT1[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_one_step_clamps_to_bound(self):
        # the bound sits at |theta2*| = 2 and the start just above it, so
        # the flow presses onto the bound and every step is snapped back
        plant, ref = ct_instance()
        gains = LyapunovIndirectGains(Gamma1=np.eye(2), Gamma2=[[4.0]])
        proj = ProjectionConfig.from_k2_upper(0.5, 1.0)
        init = InitialConditions(theta0=a([[-1.0], [0.2], [2.02]]),
                                 x0=[1.0, -0.5])
        sig = ReferenceSignal.sinusoids(amplitudes=[[1.0]], frequencies=[[0.7]])
        trace = run_lyapunov_scenario(plant, ref, sig, "indirect", gains,
                                      proj, init, 600)
        theta2 = trace.theta[:, 2, 0]
        assert np.all(theta2 >= 2.0)
        assert np.any(theta2 == 2.0)

    def test_gamma2_must_be_diagonal(self):
        with pytest.raises(GainError, match="diagonal"):
            LyapunovIndirectGains(Gamma1=np.eye(2),
                                  Gamma2=[[1.0, 0.2], [0.2, 1.0]])


class TestScenarios:
    def _sig(self):
        return ReferenceSignal.sinusoids(amplitudes=[[1.0]], frequencies=[[0.7]])

    def test_exact_parameters_zero_error(self):
        plant, ref = ct_instance()
        sol = solve_matching(plant, ref)
        gains = LyapunovDirectGains(Gamma=np.eye(2), gamma=1.0, sign_k2=1.0)
        init = InitialConditions(theta0=stack_controller_gains(sol.K1, sol.K2))
        trace = run_lyapunov_scenario(plant, ref, self._sig(), "direct",
                                      gains, None, init, 300, h=0.01)
        assert np.max(np.abs(trace.e)) <= 1e-10

    def test_an_unprojected_indirect_law_carries_no_guards(self):
        # from the true parameters it tracks exactly, as the direct law does
        plant, ref = ct_instance()
        sol = solve_matching(plant, ref)
        gains = LyapunovIndirectGains(Gamma1=np.eye(2), Gamma2=[[1.0]])
        law = build_lyapunov_loop(plant, ref, self._sig(), "indirect", gains)
        assert law.ct_guards() == (None, None) and law.landing() is None
        init = InitialConditions(theta0=theta_star_indirect(sol.K1, sol.K2))
        trace = run_lyapunov_scenario(plant, ref, self._sig(), "indirect",
                                      gains, None, init, 300, h=0.01)
        assert np.max(np.abs(trace.e)) <= 1e-10
        assert not np.any(trace.proj_g2) and not np.any(trace.proj_f2)

    def test_direct_v_nonincreasing_and_certificate(self):
        plant, ref = ct_instance()
        gains = LyapunovDirectGains(Gamma=np.eye(2), gamma=1.0, sign_k2=1.0)
        loop = build_lyapunov_loop(plant, ref, self._sig(), "direct", gains)
        assert loop.ct.residual <= 1e-9
        init = InitialConditions(theta0=np.zeros((3, 1)), x0=[1.0, -0.5])
        trace = run_lyapunov_scenario(plant, ref, self._sig(), "direct",
                                      gains, None, init, 600, h=0.01)
        assert not trace.diverged
        assert np.all(trace.dV[:-1] <= 1e-8)

    def _refinement_ratio(self, mode):
        plant, ref = ct_instance()
        sig = self._sig()
        if mode == "direct":
            gains = LyapunovDirectGains(Gamma=np.eye(2), gamma=1.0, sign_k2=1.0)
            proj = None
            init = InitialConditions(theta0=np.zeros((3, 1)), x0=[1.0, -0.5])
        else:
            sol = solve_matching(plant, ref)
            gains = LyapunovIndirectGains(Gamma1=np.eye(2), Gamma2=[[1.0]])
            proj = ProjectionConfig.from_k2_upper(1.0, 1.0)
            init = InitialConditions(
                theta0=1.3 * theta_star_indirect(sol.K1, sol.K2),
                x0=[1.0, -0.5], xhat0=[0.3, 0.2])
        loop = build_lyapunov_loop(plant, ref, sig, mode, gains, proj)
        trace = run_lyapunov_scenario(plant, ref, sig, mode, gains, proj,
                                      init, 300, h=0.01)
        h = 0.02
        best = None
        for k in (5, 20, 60, 120, 250):
            if mode == "direct":
                z = loop.pack(trace.x[k], trace.x_m[k], trace.theta[k][:2],
                              trace.theta[k][2:].T)
                err = trace.x[k] - trace.x_m[k]
            else:
                z = loop.pack(trace.x[k], trace.x_m[k], trace.theta[k][:2],
                              trace.theta[k][2:].T, trace.x_hat[k])
                err = trace.x_hat[k] - trace.x[k]
            base = float(err @ (loop.ct.Q @ err))
            V0 = loop.V(z)
            c1 = (loop.V(integrate_ct(loop.rhs, z, h, t=trace.t[k])) - V0) + h * base
            c2 = (loop.V(integrate_ct(loop.rhs, z, h / 2, t=trace.t[k])) - V0) + h / 2 * base
            if best is None or abs(c1) > abs(best[0]):
                best = (c1, c2)
        return best[0] / best[1]

    def test_direct_increment_refines_at_second_order(self):
        assert 3.5 <= self._refinement_ratio("direct") <= 4.5

    def test_indirect_increment_refines_at_second_order(self):
        assert 3.5 <= self._refinement_ratio("indirect") <= 4.5

    def test_indirect_estimator_converges_to_reference(self):
        plant, ref = ct_instance()
        sol = solve_matching(plant, ref)
        gains = LyapunovIndirectGains(Gamma1=np.eye(2), Gamma2=[[1.0]])
        proj = ProjectionConfig.from_k2_upper(1.0, 1.0)
        init = InitialConditions(theta0=1.3 * theta_star_indirect(sol.K1, sol.K2),
                                 xhat0=[1.0, 1.0])
        trace = run_lyapunov_scenario(plant, ref, self._sig(), "indirect",
                                      gains, proj, init, 1200, h=0.01)
        gap = np.linalg.norm(trace.x_hat - trace.x_m, axis=1)
        assert gap[0] > 1.0
        assert gap[-1] <= 1e-4  # exponential contraction through A_m
        theta2 = trace.theta[:, 2, 0]
        assert np.all(theta2 >= 1.0 - 1e-12)

    def test_mimo_variants_keep_v_nonincreasing(self):
        plant, ref, K1s, K2s = random_matchable_instance(
            3, 2, 7, time_domain="continuous")
        sig = ReferenceSignal.sinusoids(amplitudes=[[1.0], [0.8]],
                                        frequencies=[[0.5], [0.9]])
        gains = LyapunovDirectGains(S_p=np.diag(np.sign(np.diag(K2s))))
        init = InitialConditions(theta0=0.8 * stack_controller_gains(K1s, K2s))
        tr = run_lyapunov_scenario(plant, ref, sig, "direct", gains, None,
                                   init, 500, h=0.01)
        assert not tr.diverged
        assert np.all(tr.dV[:-1] <= 1e-8)
        proj = ProjectionConfig.from_k2_upper(2.0 * np.abs(np.diag(K2s)),
                                              np.sign(np.diag(K2s)))
        init_i = InitialConditions(theta0=1.2 * theta_star_indirect(K1s, K2s))
        for law in ("standard", "transposed"):
            g1 = np.eye(3) if law == "standard" else np.eye(2)
            gi = LyapunovIndirectGains(Gamma1=g1, Gamma2=np.eye(2),
                                       theta1_law=law)
            tri = run_lyapunov_scenario(plant, ref, sig, "indirect", gi, proj,
                                        init_i, 500, h=0.01)
            assert not tri.diverged
            assert np.all(tri.dV[:-1] <= 1e-8)
            T2blk = tri.theta[:, 3:, :]
            assert np.all(T2blk * (1.0 - np.eye(2))[None] == 0.0)

    def test_requires_continuous_domain(self, bench_plant, bench_ref):
        gains = LyapunovDirectGains(Gamma=np.eye(2), gamma=1.0, sign_k2=1.0)
        with pytest.raises(ModelError):
            build_lyapunov_loop(bench_plant, bench_ref, self._sig(), "direct",
                                gains)

    def test_both_indirect_runners_check_the_projection_dimension(self):
        # a two-input projection on a one-input plant used to run the
        # Lyapunov scheme, with two proj_f2 columns
        from mrac import IndirectGainConfig, run_indirect_scenario
        plant, ref = ct_instance()
        sol = solve_matching(plant, ref)
        proj = ProjectionConfig(theta2_lower=[1.0, 1.0], signs=[1.0, 1.0])
        init = InitialConditions(
            theta0=1.3 * theta_star_indirect(sol.K1, sol.K2))
        lyapunov = LyapunovIndirectGains(Gamma1=np.eye(2), Gamma2=[[1.0]])
        with pytest.raises(ModelError, match="^projection dimension "):
            run_lyapunov_scenario(plant, ref, self._sig(), "indirect",
                                  lyapunov, proj, init, 50)
        gradient = IndirectGainConfig(np.eye(3), time_domain="continuous")
        with pytest.raises(ModelError, match="^projection dimension "):
            run_indirect_scenario(plant, ref, self._sig(), gradient, proj,
                                  init, 50)


class TestStackedLaws:
    """Lyapunov laws of one form stack into a group's law, whose step and
    guards act on a (B, width) block of rows as each member's law acts on
    its own row, byte for byte."""

    FORMS = {"direct-Gamma": (1, "direct"), "direct-S_p": (2, "direct"),
             "indirect-standard": (2, "indirect"),
             "indirect-transposed": (2, "indirect")}

    def _laws(self, form, seeds=range(3), M=None):
        """One law of ``form`` per seed, each of its own n=3 plant, gains
        and projection, from a random state; ``M`` inputs, else the
        form's."""
        M, mode = M or self.FORMS[form][0], self.FORMS[form][1]
        laws = []
        for seed in seeds:
            plant, ref, _, K2s = random_matchable_instance(
                3, M, seed, time_domain="continuous")
            k2, scale, proj = np.diag(K2s), 1.0 + 0.5 * seed, None
            if form == "direct-Gamma":
                gains = LyapunovDirectGains(Gamma=scale * np.eye(3),
                                            gamma=scale,
                                            sign_k2=float(np.sign(k2[0])))
            elif form == "direct-S_p":
                gains = LyapunovDirectGains(S_p=scale * np.diag(1.0 / k2))
            else:
                theta1_law = form.split("-")[1]
                gains = LyapunovIndirectGains(
                    Gamma1=scale * np.eye(3 if theta1_law == "standard"
                                          else M),
                    Gamma2=np.diag(scale + np.arange(M)),
                    theta1_law=theta1_law)
                proj = ProjectionConfig((0.3 + 0.1 * seed) / np.abs(k2),
                                        np.sign(k2))
            law = build_lyapunov_loop(plant, ref, ReferenceSignal.constant(
                np.ones(M)), mode, gains, proj)
            law.z0 = np.random.default_rng(seed).normal(
                size=law.nF + law.W.stop - law.W.start)
            laws.append(law)
        return laws

    @pytest.mark.parametrize("form", FORMS)
    def test_a_block_step_is_each_lone_step(self, form):
        laws = self._laws(form)
        group = laws[0].stack(laws[1:])
        assert group.z0.shape == (3, laws[0].z0.shape[0])
        rows = np.random.default_rng(9).normal(size=(3, group.width))
        block = rows.copy()
        group.step(group.views(block, block[:, group.dF]))
        assert not np.array_equal(block, rows)
        for b, law in enumerate(laws):
            row = rows[b].copy()
            law.step(law.views(row, row[law.dF]))
            assert row.tobytes() == block[b].tobytes()

    @pytest.mark.parametrize("form", ["indirect-standard",
                                      "indirect-transposed"])
    def test_the_guards_act_on_a_block(self, form):
        laws = self._laws(form)
        group = laws[0].stack(laws[1:])
        s, lower = group.signs, group.theta2_lower
        W, dW, th2 = group.W, group.dW, group.th2
        dz = slice(group.dF.start, group.dW.stop)
        rows = np.random.default_rng(5).normal(size=(3, group.width))
        # theta2 on its bound, its rate outward for input 0 only
        rows[:, W][:, th2] = s * lower
        rows[:, dW][:, th2] = s * [-1.0, 1.0]
        guard, clamp = group.ct_guards()
        rates = guard((rows[:, W][:, th2], rows[:, dW][:, th2]), rows[:, dz])
        assert np.any(rates != rows[:, dz])
        # theta2 a hair inside its bound for input 1 only
        z = rows[:, np.r_[group.F, W]]
        z[:, group.nF + group.theta2_at] = s * lower * [1.5, 0.9]
        clamped = z.copy()
        clamp(clamped)
        assert not np.array_equal(clamped, z)
        for b, law in enumerate(laws):
            row = rows[b]
            guard, clamp = law.ct_guards()
            alone = guard((row[W][th2], row[dW][th2]), row[dz])
            assert alone.tobytes() == rates[b].tobytes()
            alone = z[b].copy()
            clamp(alone)
            assert alone.tobytes() == clamped[b].tobytes()

    @pytest.mark.parametrize("forms", [("direct-Gamma", "direct-S_p"),
                                       ("indirect-standard",
                                        "indirect-transposed")])
    def test_laws_of_different_forms_do_not_stack(self, forms):
        # one input: the S_p law has the Gamma law's shapes
        first, other = (self._laws(form, [0], M=1)[0] for form in forms)
        with pytest.raises(ModelError, match="do not stack"):
            first.stack([other])

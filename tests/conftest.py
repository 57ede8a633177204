import numpy as np
import pytest

from mrac import (DirectGainConfig, IndirectGainConfig, InitialConditions,
                  PlantModel, ProjectionConfig, ReferenceModel,
                  ReferenceSignal, random_matchable_instance,
                  stack_controller_gains, theta_star_indirect)

# second-order benchmark instance: unstable plant, stable target model
A_PLANT = [[1.0, -1.0], [2.0, 1.0]]
B_PLANT = [[0.0], [2.0]]
A_REF = [[1.0, -1.0], [1.05, -1.2]]
B_REF = [[0.0], [1.0]]
K1_TRUE = np.array([-0.475, -1.1])
K2_TRUE = 0.5
DEN_REF = [1.0, 0.2, -0.15]  # det(zI - A_m)


@pytest.fixture
def bench_plant():
    return PlantModel(A=A_PLANT, B=B_PLANT)


@pytest.fixture
def bench_ref():
    return ReferenceModel(A_m=A_REF, B_m=B_REF)


@pytest.fixture
def bench_signal():
    return ReferenceSignal.sinusoids(amplitudes=[[1.0]], frequencies=[[0.13]])


@pytest.fixture
def bench_gains():
    return DirectGainConfig(Gamma=0.5 * np.eye(3), gamma=1.5, sign_k2=1.0,
                            k2_lower=0.5, time_domain="discrete")


def ct_instance():
    """Continuous-time pair with the same actuation column: unstable plant
    matched to a Hurwitz reference model by k1* = [-1.5, -1], k2* = 0.5."""
    A_m = np.array([[0.0, 1.0], [-2.0, -3.0]])
    b_m = np.array([[0.0], [1.0]])
    b = np.array([[0.0], [2.0]])
    A = A_m - b @ np.array([[-1.5, -1.0]])
    plant = PlantModel(A=A, B=b, time_domain="continuous")
    ref = ReferenceModel(A_m=A_m, B_m=b_m, time_domain="continuous")
    return plant, ref


def mimo_direct_case(seed):
    """Random matchable n=3, M=2 instance with the gains/signal family used
    by the multi-input verification suite."""
    plant, ref, K1s, K2s = random_matchable_instance(3, 2, seed)
    k2d = np.abs(np.diag(K2s))
    signs = np.sign(np.diag(K2s))
    k2a = 0.5 * k2d
    sig = ReferenceSignal.sinusoids(
        amplitudes=[[1.0, 0.8, 0.6], [1.0, 0.8, 0.6]],
        frequencies=[[0.13, 0.79, 1.9], [0.29, 1.1, 2.3]])
    theta_star = stack_controller_gains(K1s, K2s)
    init = InitialConditions(theta0=1.15 * theta_star,
                             rho0=1.15 / np.diag(K2s))
    gains = DirectGainConfig(
        Gamma=np.stack([0.9 * k2a[j] * np.eye(5) for j in range(2)]),
        gamma=[1.2, 1.2], sign_k2=signs, k2_lower=k2a,
        time_domain="discrete")
    return dict(plant=plant, ref=ref, signal=sig, gains=gains, init=init,
                K1_true=K1s, K2_true=K2s, theta_star=theta_star)


def mimo_indirect_case(seed):
    plant, ref, K1s, K2s = random_matchable_instance(3, 2, seed)
    k2d = np.abs(np.diag(K2s))
    signs = np.sign(np.diag(K2s))
    sig = ReferenceSignal.sinusoids(
        amplitudes=[[1.0, 0.8, 0.6], [1.0, 0.8, 0.6]],
        frequencies=[[0.13, 0.79, 1.9], [0.29, 1.1, 2.3]])
    theta_star = theta_star_indirect(K1s, K2s)
    init = InitialConditions(theta0=1.15 * theta_star)
    gains = IndirectGainConfig(Gamma=np.stack([1.2 * np.eye(5)] * 2),
                               time_domain="discrete")
    proj = ProjectionConfig.from_k2_upper(2.0 * k2d, signs)
    return dict(plant=plant, ref=ref, signal=sig, gains=gains, init=init,
                projection=proj, K1_true=K1s, K2_true=K2s,
                theta_star=theta_star)


def assert_block_step_is_each_lone_step(laws):
    """Stack ``laws`` into a group's law and step a (B, width) block of
    random rows on it: the whole of each row is byte for byte the row its
    member's own law steps alone."""
    group = laws[0].stack(laws[1:])
    assert group.z0.shape == (len(laws), laws[0].z0.shape[0])
    rows = np.random.default_rng(9).normal(size=(len(laws), group.width))
    block = rows.copy()
    group.step(group.views(block, block[:, group.dF]))
    assert not np.array_equal(block, rows)
    for b, law in enumerate(laws):
        row = rows[b].copy()
        law.step(law.views(row, row[law.dF]))
        assert row.tobytes() == block[b].tobytes()

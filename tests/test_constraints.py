import numpy as np
import pytest

from decoyroute import constraints
from decoyroute.constraints import (
    build_constrained_unitary,
    constrained_link_pair,
    controlled_flip_unitary,
    disturbance_floor,
    message_figures,
    random_probe,
    random_unitary,
    round_trip_figures,
    run_verification,
    swap_unitary,
    trace_distance,
    tradeoff_scatter,
)

import oracles


def identity_trip(dim: int) -> list[np.ndarray]:
    return [np.eye(dim)] * 4


def ground(dim: int) -> np.ndarray:
    return np.eye(dim)[0]


def test_identity_attack_is_invisible():
    probe = ground(4)
    disturbance, leakage = message_figures(build_constrained_unitary(np.eye(4)), probe)
    assert disturbance == pytest.approx(0.0, abs=1e-14)
    assert leakage == pytest.approx(0.0, abs=1e-14)
    disturbance, distance = round_trip_figures(identity_trip(4), probe)
    assert disturbance == pytest.approx(0.0, abs=1e-14)
    assert distance == pytest.approx(0.0, abs=1e-14)


def test_controlled_flip_negative_control():
    probe = ground(2)
    disturbance, leakage = message_figures(controlled_flip_unitary(), probe)
    assert disturbance == pytest.approx(0.25, abs=1e-12)
    # The computational-basis pair imprints orthogonal probe states.
    assert leakage == pytest.approx(1.0, abs=1e-12)


def test_swap_negative_control():
    probe = ground(2)
    assert message_figures(swap_unitary(), probe)[0] == pytest.approx(0.5, abs=1e-12)


def test_probe_space_validation():
    U = build_constrained_unitary(np.eye(2))
    for kernel, attack in ((message_figures, U), (round_trip_figures, identity_trip(2))):
        with pytest.raises(ValueError, match="unit norm"):
            kernel(attack, np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="shape"):
            kernel(attack, np.eye(2))


def test_joint_unitary_validation():
    probe = ground(2)
    with pytest.raises(ValueError, match="not unitary"):
        message_figures(np.ones((4, 4), dtype=complex), probe)
    with pytest.raises(ValueError, match="square"):
        message_figures(np.eye(4)[:, :2], probe)
    with pytest.raises(ValueError, match="2d x 2d"):
        message_figures(np.eye(3), probe)
    with pytest.raises(ValueError, match="not unitary"):
        build_constrained_unitary(np.ones((2, 2)))


def test_link_pair_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="idle_second is not unitary"):
        round_trip_figures([eye, eye, eye, 2 * eye], ground(2))
    with pytest.raises(ValueError, match="leg_out must be a square"):
        round_trip_figures([eye[:1], eye, eye, eye], ground(2))


def test_dimension_mismatch_rejected():
    U = build_constrained_unitary(np.eye(2))
    with pytest.raises(ValueError, match="dimension"):
        message_figures(U, ground(3))
    with pytest.raises(ValueError, match="dimension"):
        round_trip_figures(identity_trip(2), ground(3))


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_constrained_message_unitaries_are_silent(dim):
    rng = np.random.default_rng(dim)
    for _ in range(30):
        U = build_constrained_unitary(random_unitary(dim, rng))
        disturbance, leakage = message_figures(U, random_probe(dim, rng))
        assert disturbance <= 1e-10
        assert leakage <= 1e-10


def test_diagonal_phase_rotations_are_silent():
    rng = np.random.default_rng(17)
    phases = np.exp(2j * np.pi * rng.random(4))
    U = build_constrained_unitary(np.diag(phases))
    disturbance, leakage = message_figures(U, random_probe(4, rng))
    assert disturbance <= 1e-12
    assert leakage <= 1e-12


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_constrained_link_pairs_are_silent(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(30):
        disturbance, distance = round_trip_figures(
            constrained_link_pair(dim, rng), random_probe(dim, rng)
        )
        assert disturbance <= 1e-10
        assert distance <= 1e-10


def test_which_path_marking_attack():
    # Rotating the probe to an orthogonal state on the outbound leg marks
    # the path completely: coin-flip readout, fully distinguishable.
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    disturbance, distance = round_trip_figures([flip, eye, eye, eye], ground(2))
    assert disturbance == pytest.approx(0.5, abs=1e-12)
    assert distance == pytest.approx(1.0, abs=1e-12)


def test_no_leak_without_disturbance_inequality():
    points = tradeoff_scatter(1000, 4, seed=3)
    assert len(points) == 1000
    for disturbance, distance in points:
        assert disturbance >= disturbance_floor(distance) - 1e-9
        assert -1e-9 <= disturbance <= 1.0 + 1e-9
        assert -1e-9 <= distance <= 1.0 + 1e-9


def test_scatter_checks_its_haar_samples(monkeypatch):
    def doubled(real, imag):
        return 2 * np.broadcast_to(np.eye(real.shape[-1]), real.shape)

    monkeypatch.setattr(constraints, "_haar_unitaries", doubled)
    with pytest.raises(ValueError, match="Haar sample is not unitary"):
        tradeoff_scatter(3, 2, seed=0)


def test_scatter_is_seeded():
    assert tradeoff_scatter(10, 3, seed=5) == tradeoff_scatter(10, 3, seed=5)


def test_scatter_matches_the_per_sample_loop():
    for samples, d in ((50, 2), (50, 3), (50, 4), (50, 8), (1030, 2)):
        expected = oracles.scalar_tradeoff_scatter(samples, d, seed=d)
        assert tradeoff_scatter(samples, d, seed=d) == expected, (samples, d)


@pytest.mark.parametrize("chunk", [7, 256, 1024])
def test_scatter_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # 1030 samples leave a partial last chunk at every size.
    expected = tradeoff_scatter(1030, 3, seed=4)
    monkeypatch.setattr(constraints, "_SCATTER_CHUNK", chunk)
    assert tradeoff_scatter(1030, 3, seed=4) == expected


def test_trace_distance_basics():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(rho, sigma) == pytest.approx(1.0, abs=1e-14)


def test_run_verification_all_pass():
    checks, scatter = run_verification(dim=3, samples=25, scatter_samples=50, seed=1)
    assert all(check.passed for check in checks)
    assert len(scatter) == 50


def test_run_verification_negative_control_fails():
    checks, _ = run_verification(
        dim=3, samples=10, scatter_samples=10, seed=1, enforce_return_constraint=False
    )
    by_name = {check.name: check.passed for check in checks}
    assert not by_name["constrained_link_zero_disturbance"]
    assert not by_name["constrained_link_zero_indistinguishability"]
    assert by_name["constrained_message_zero_disturbance"]


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for dim in (2, 5, 9):
        U = random_unitary(dim, rng)
        assert np.abs(U.conj().T @ U - np.eye(dim)).max() < 1e-12


@pytest.mark.parametrize("name", ["dim", "samples", "scatter_samples"])
def test_run_verification_names_the_bad_argument(name):
    with pytest.raises(ValueError, match=f"^{name} must be at least"):
        run_verification(**{name: 0})


def test_run_verification_bounds_the_dimension():
    # Memory grows as dim^2 per scatter sample, so dim stops at MAX_DIM = 32.
    with pytest.raises(ValueError, match="^dim must be at most 32, got 33$"):
        run_verification(dim=33, samples=1, scatter_samples=1)
    checks, scatter = run_verification(dim=32, samples=1, scatter_samples=1, seed=0)
    assert all(check.passed for check in checks) and len(scatter) == 1

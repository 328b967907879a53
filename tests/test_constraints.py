import tracemalloc

import numpy as np
import pytest

from decoyroute import constraints
from decoyroute.constraints import (
    build_constrained_unitary,
    controlled_flip_unitary,
    disturbance_floor,
    haar_chunks,
    message_figures,
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


def draws(seed: int, samples: int, k: int, dim: int):
    """The sampler's draws one sample at a time: (k unitaries, probe)."""
    for unitaries, probes in haar_chunks(np.random.default_rng(seed), samples, k, dim):
        yield from zip(unitaries, probes)


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
    for (W,), probe in draws(dim, 30, 1, dim):
        disturbance, leakage = message_figures(build_constrained_unitary(W), probe)
        assert disturbance <= 1e-10
        assert leakage <= 1e-10


def test_diagonal_phase_rotations_are_silent():
    rng = np.random.default_rng(17)
    phases = np.exp(2j * np.pi * rng.random(4))
    U = build_constrained_unitary(np.diag(phases))
    [(_, probe)] = draws(18, 1, 1, 4)
    disturbance, leakage = message_figures(U, probe)
    assert disturbance <= 1e-12
    assert leakage <= 1e-12


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_constrained_link_pairs_are_silent(dim):
    for (idle_first, idle_second, leg_out), probe in draws(100 + dim, 30, 3, dim):
        leg_back = idle_second @ idle_first @ leg_out.conj().T
        disturbance, distance = round_trip_figures(
            (leg_out, leg_back, idle_first, idle_second), probe
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
    def doubled(normals):
        return 2 * np.broadcast_to(np.eye(normals.shape[-1]), normals[..., 0, :, :].shape)

    monkeypatch.setattr(constraints, "random_unitary", doubled)
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
    monkeypatch.setattr(constraints, "_CHUNK_ENTRIES", chunk * 4 * 3 * 3)
    assert tradeoff_scatter(1030, 3, seed=4) == expected


def test_stacked_kernels_match_the_one_sample_figures():
    # Each sample of a stack scores bitwise as it does alone.
    rng = np.random.default_rng(7)
    for dim in (2, 3, 8):
        probes = rng.normal(size=(20, dim)) + 1j * rng.normal(size=(20, dim))
        probes /= np.linalg.norm(probes, axis=-1, keepdims=True)
        attacks = random_unitary(rng.normal(size=(20, 2, 2 * dim, 2 * dim)))
        stacked = zip(*(figure.tolist() for figure in constraints._message(attacks, probes)))
        assert list(stacked) == [message_figures(U, p) for U, p in zip(attacks, probes)]
        trips = random_unitary(rng.normal(size=(4, 20, 2, dim, dim)))
        stacked = zip(*(figure.tolist() for figure in constraints._round_trip(*trips, probes)))
        expected = [round_trip_figures(trip, p) for trip, p in zip(zip(*trips), probes)]
        assert list(stacked) == expected


def test_message_figures_match_the_density_matrix_oracle():
    rng = np.random.default_rng(8)
    for dim in (2, 3, 5):
        for U in random_unitary(rng.normal(size=(10, 2, 2 * dim, 2 * dim))):
            probe = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            probe /= np.linalg.norm(probe)
            expected = oracles.message_figures_by_density_matrix(U, probe)
            assert message_figures(U, probe) == pytest.approx(expected, abs=1e-12)


SAMPLED_CHECKS = [
    ("_message", 0, "constrained_message_zero_disturbance"),
    ("_message", 1, "constrained_message_zero_leakage"),
    ("_round_trip", 0, "constrained_link_zero_disturbance"),
    ("_round_trip", 1, "constrained_link_zero_indistinguishability"),
]


@pytest.mark.parametrize("kernel, figure, name", SAMPLED_CHECKS)
def test_a_bad_sample_in_the_last_partial_chunk_fails_its_check(monkeypatch, kernel, figure, name):
    # At d = 2 a chunk of 144 entries holds 3 message samples (40 entries each)
    # or 4 link samples (36 each), so 25 samples end in a one-sample chunk; its
    # sample is scored bad.
    samples, scored, planted = 25, 0, []
    score = getattr(constraints, kernel)

    def with_a_bad_last_sample(*args):
        nonlocal scored
        figures = score(*args)
        scored += len(figures[0])
        if scored == samples:  # the sampled family's last chunk; later calls count past it
            planted.append(len(figures[0]))
            figures[figure][-1] = 0.5
        return figures

    monkeypatch.setattr(constraints, "_CHUNK_ENTRIES", 144)
    monkeypatch.setattr(constraints, kernel, with_a_bad_last_sample)
    checks, _ = run_verification(dim=2, samples=samples, scatter_samples=3, seed=2)
    assert planted == [1]
    assert [check.name for check in checks if not check.passed] == [name]


def _verification_peaks(sizes) -> list[int]:
    """The tracemalloc peak of ``run_verification(dim=8, scatter_samples=1)`` per sample count."""
    run_verification(dim=8, samples=2, scatter_samples=1)
    peaks = []
    for samples in sizes:
        tracemalloc.start()
        try:
            run_verification(dim=8, samples=samples, scatter_samples=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_run_verification_chunks_hold_their_budget():
    # At the default budget a message chunk holds 102 samples at d = 8 and a
    # link chunk 113, so 256 samples span three chunks of each and 2560 many more.
    small, large = _verification_peaks((256, 2560))
    assert large - small <= 1 << 20, (small, large)


@pytest.mark.parametrize("samples, d", [(1000, 8), (64, 32)])
def test_tradeoff_scatter_chunks_hold_their_budget(samples, d):
    # A chunk's budget is 65,536 complex entries, 1 MB, counted at the sample's peak (the
    # QR and the round-trip check); counted by its unitaries alone it peaked at 6.4-6.6 MB.
    tradeoff_scatter(2, d, 1)
    tracemalloc.start()
    try:
        tradeoff_scatter(samples, d, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20, peak


def test_run_verification_memory_is_flat_in_samples(monkeypatch):
    # 64 message samples a chunk at d = 8, so both sizes span several chunks;
    # keeping each sample's figures would add 40 KB at 2560 samples.
    monkeypatch.setattr(constraints, "_CHUNK_ENTRIES", 64 * 10 * 8 * 8)
    peaks = _verification_peaks((256, 2560))
    assert peaks[1] <= 1.01 * peaks[0], peaks


def test_trace_distance_basics():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(rho, sigma) == pytest.approx(1.0, abs=1e-14)


def test_run_verification_all_pass():
    checks, scatter = run_verification(dim=3, samples=25, scatter_samples=50, seed=1)
    assert all(check.passed is True for check in checks)
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
        U = random_unitary(rng.normal(size=(2, dim, dim)))
        assert np.abs(U.conj().T @ U - np.eye(dim)).max() < 1e-12
        stack = random_unitary(rng.normal(size=(3, 2, 2, dim, dim)))
        assert stack.shape == (3, 2, dim, dim)
        assert np.abs(np.swapaxes(stack.conj(), -1, -2) @ stack - np.eye(dim)).max() < 1e-12


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

import zlib

import numpy as np
import pytest

from decoyroute.channel import ChannelModel
from decoyroute.protocol import run_simulation
from decoyroute.quantum import interfere_path_packet, measure_qubit, prepare_path_packet

import oracles

ALL_PREPS = [("Z", 0), ("Z", 1), ("X", 0), ("X", 1)]


def basis_id(value):
    """Name a basis case ``Basis.Z``/``Basis.X``, as when bases were an enum."""
    return f"Basis.{value}" if isinstance(value, str) else None


@pytest.mark.parametrize(("basis", "bit"), ALL_PREPS, ids=basis_id)
def test_same_basis_noiseless_is_error_free(basis, bit):
    u = np.random.default_rng(0).random(200)
    z = basis == "Z"
    assert np.all(measure_qubit(bit, z, z, 0.0, u, u) == bit)


def test_cross_basis_outcome_is_uniform():
    n = 100_000
    rng = np.random.default_rng(1)
    ones = np.count_nonzero(measure_qubit(0, True, False, 0.0, *rng.random((2, n))))
    assert ones / n == pytest.approx(0.5, abs=oracles.binomial_tolerance(0.5, n))


def test_same_basis_flip_probability():
    n = 100_000
    u = np.random.default_rng(2).random(n)
    wrong = np.count_nonzero(measure_qubit(1, False, False, 0.01, u, u) != 1)
    assert wrong / n == pytest.approx(0.01, abs=oracles.binomial_tolerance(0.01, n, 3))


@pytest.mark.parametrize(("basis", "bit"), ALL_PREPS, ids=basis_id)
@pytest.mark.parametrize("meas_basis", ["Z", "X"], ids=basis_id)
def test_measurement_error_matches_born_oracle(basis, bit, meas_basis):
    n = 20_000
    # A fixed per-case seed: hash() of a str changes from one process to the next.
    rng = np.random.default_rng(zlib.crc32(f"{basis}{bit}{meas_basis}".encode()))
    expected = oracles.measurement_error_probability((basis, bit), meas_basis, 0.0)
    z, meas_z = basis == "Z", meas_basis == "Z"
    wrong = np.count_nonzero(measure_qubit(bit, z, meas_z, 0.0, *rng.random((2, n))) != bit)
    tol = oracles.binomial_tolerance(max(expected, 1e-9), n) if 0 < expected < 1 else 0.0
    assert wrong / n == pytest.approx(expected, abs=max(tol, 1e-12))


def test_measure_qubit_rejects_bad_flip_prob():
    # The flip probability is the channel's mu, checked once when the channel is built.
    with pytest.raises(ValueError, match="mu"):
        ChannelModel(mu=1.5)


def test_measurement_is_deterministic_given_seed():
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        runs.append([measure_qubit(0, True, False, 0.3, rng.random(), rng.random()) for _ in range(500)])
    assert runs[0] == runs[1]


def test_path_packet_field_passthrough():
    # Sign, then the dummy's basis, then its bit: one uniform each.
    for draws in np.random.default_rng(3).random((20, 3)).tolist():
        sign, (bit, z) = prepare_path_packet(*draws)
        assert sign == (1 if draws[0] < 0.5 else -1)
        assert z is (draws[1] < 0.5)
        assert bit == (draws[2] < 0.5)


def test_path_packet_rejects_local_loop():
    # A path packet needs a remote leg: a pair with sender == receiver never gets a schedule.
    with pytest.raises(ValueError, match="sender == receiver"):
        run_simulation(
            K=10, node_pairs=[(4, 4)], h2_per_pair=0, h3_per_pair=1,
            channel=ChannelModel(), seed=0,
        )


def test_path_packet_sign_and_dummy_are_uniform():
    n = 100_000
    sign, (_, z) = prepare_path_packet(*np.random.default_rng(4).random((3, n)))
    plus = np.count_nonzero(sign == 1)
    z_basis = np.count_nonzero(z)
    tol = oracles.binomial_tolerance(0.5, n)
    assert plus / n == pytest.approx(0.5, abs=tol)
    assert z_basis / n == pytest.approx(0.5, abs=tol)


def test_interfere_intact_noiseless_is_exact():
    u = np.random.default_rng(5).random(200)
    assert np.all(interfere_path_packet(1, True, 0.0, u) == 1)


@pytest.mark.parametrize(
    ("survived", "collapsed", "gamma"),
    [
        (True, False, 0.0),
        (True, False, 0.05),
        (True, True, 0.0),
        (True, True, 0.05),
        (False, False, 0.05),
        (False, True, 0.0),
    ],
)
def test_interfere_error_rate_table(survived, collapsed, gamma):
    # Error probability is gamma for an intact delivered packet, else 1/2.
    n = 50_000
    u = np.random.default_rng(hash((survived, collapsed, gamma)) % 2**32).random(n)
    intact = survived and not collapsed
    expected = gamma if intact else 0.5
    wrong = np.count_nonzero(interfere_path_packet(-1, intact, gamma, u) != -1)
    tol = oracles.binomial_tolerance(expected, n) if expected else 0.0
    assert wrong / n == pytest.approx(expected, abs=max(tol, 1e-12))


def test_collapsed_packet_matches_dephased_oracle():
    # A collapsed packet that survived both legs is read out as not intact.
    n = 100_000
    u = np.random.default_rng(6).random(n)
    expected = oracles.dephased_port_flip_probability()
    wrong = np.count_nonzero(interfere_path_packet(1, False, 0.0, u) != 1)
    assert expected == pytest.approx(0.5, abs=1e-15)
    assert wrong / n == pytest.approx(expected, abs=oracles.binomial_tolerance(expected, n))


def test_lost_packet_gives_uniform_result():
    n = 50_000
    u = np.random.default_rng(7).random(n)
    minus = np.count_nonzero(interfere_path_packet(-1, False, 0.3, u) == -1)
    assert minus / n == pytest.approx(0.5, abs=oracles.binomial_tolerance(0.5, n))


def test_interfere_rejects_bad_visibility():
    # The visibility error is the channel's gamma, checked once when the channel is built.
    with pytest.raises(ValueError, match="gamma"):
        ChannelModel(gamma=-0.1)

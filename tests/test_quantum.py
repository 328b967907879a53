import numpy as np
import pytest

from decoyroute import (
    Basis,
    PathPacket,
    QubitPreparation,
    interfere_path_packet,
    measure_qubit,
    prepare_path_packet,
)

import oracles

ALL_PREPS = [(Basis.Z, 0), (Basis.Z, 1), (Basis.X, 0), (Basis.X, 1)]


def test_qubit_preparation_rejects_non_binary():
    with pytest.raises(ValueError):
        QubitPreparation(Basis.Z, 2)


@pytest.mark.parametrize(("basis", "bit"), ALL_PREPS)
def test_same_basis_noiseless_is_error_free(basis, bit):
    rng = np.random.default_rng(0)
    prep = QubitPreparation(basis, bit)
    assert all(measure_qubit(prep, basis, 0.0, rng) == bit for _ in range(200))


def test_cross_basis_outcome_is_uniform():
    n = 100_000
    rng = np.random.default_rng(1)
    prep = QubitPreparation(Basis.Z, 0)
    ones = sum(measure_qubit(prep, Basis.X, 0.0, rng) for _ in range(n))
    assert ones / n == pytest.approx(0.5, abs=oracles.binomial_tolerance(0.5, n))


def test_same_basis_flip_probability():
    n = 100_000
    rng = np.random.default_rng(2)
    prep = QubitPreparation(Basis.X, 1)
    wrong = sum(measure_qubit(prep, Basis.X, 0.01, rng) != 1 for _ in range(n))
    assert wrong / n == pytest.approx(0.01, abs=oracles.binomial_tolerance(0.01, n, 3))


@pytest.mark.parametrize(("basis", "bit"), ALL_PREPS)
@pytest.mark.parametrize("meas_basis", [Basis.Z, Basis.X])
def test_measurement_error_matches_born_oracle(basis, bit, meas_basis):
    n = 20_000
    rng = np.random.default_rng(hash((basis.value, bit, meas_basis.value)) % 2**32)
    prep = QubitPreparation(basis, bit)
    expected = oracles.measurement_error_probability((basis.value, bit), meas_basis.value, 0.0)
    wrong = sum(measure_qubit(prep, meas_basis, 0.0, rng) != bit for _ in range(n))
    tol = oracles.binomial_tolerance(max(expected, 1e-9), n) if 0 < expected < 1 else 0.0
    assert wrong / n == pytest.approx(expected, abs=max(tol, 1e-12))


def test_measure_qubit_rejects_bad_flip_prob():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        measure_qubit(QubitPreparation(Basis.Z, 0), Basis.Z, 1.5, rng)


def test_measurement_is_deterministic_given_seed():
    prep = QubitPreparation(Basis.Z, 0)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        runs.append([measure_qubit(prep, Basis.X, 0.3, rng) for _ in range(500)])
    assert runs[0] == runs[1]


def test_path_packet_field_passthrough():
    packet = prepare_path_packet(1, 2, 7, np.random.default_rng(3))
    assert (packet.origin, packet.partner, packet.cycle) == (1, 2, 7)
    assert packet.sign in (-1, 1)
    assert packet.collapsed is False


def test_path_packet_rejects_local_loop():
    with pytest.raises(ValueError):
        prepare_path_packet(4, 4, 0, np.random.default_rng(0))


def test_path_packet_sign_and_dummy_are_uniform():
    n = 100_000
    rng = np.random.default_rng(4)
    plus = z_basis = 0
    for _ in range(n):
        packet = prepare_path_packet(0, 1, 0, rng)
        plus += packet.sign == 1
        z_basis += packet.dummy.basis is Basis.Z
    tol = oracles.binomial_tolerance(0.5, n)
    assert plus / n == pytest.approx(0.5, abs=tol)
    assert z_basis / n == pytest.approx(0.5, abs=tol)


def _fresh_packet(sign: int, collapsed: bool) -> PathPacket:
    return PathPacket(0, 1, 0, sign, collapsed, QubitPreparation(Basis.Z, 0))


def test_interfere_intact_noiseless_is_exact():
    rng = np.random.default_rng(5)
    packet = _fresh_packet(+1, collapsed=False)
    assert all(interfere_path_packet(packet, True, 0.0, rng) == 1 for _ in range(200))


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
    rng = np.random.default_rng(hash((survived, collapsed, gamma)) % 2**32)
    packet = _fresh_packet(-1, collapsed)
    expected = gamma if survived and not collapsed else 0.5
    wrong = sum(interfere_path_packet(packet, survived, gamma, rng) != -1 for _ in range(n))
    tol = oracles.binomial_tolerance(expected, n) if expected else 0.0
    assert wrong / n == pytest.approx(expected, abs=max(tol, 1e-12))


def test_collapsed_packet_matches_dephased_oracle():
    n = 100_000
    rng = np.random.default_rng(6)
    packet = _fresh_packet(+1, collapsed=True)
    expected = oracles.dephased_port_flip_probability()
    wrong = sum(interfere_path_packet(packet, True, 0.0, rng) != 1 for _ in range(n))
    assert expected == pytest.approx(0.5, abs=1e-15)
    assert wrong / n == pytest.approx(expected, abs=oracles.binomial_tolerance(expected, n))


def test_lost_packet_gives_uniform_result():
    n = 50_000
    rng = np.random.default_rng(7)
    packet = _fresh_packet(-1, collapsed=False)
    minus = sum(interfere_path_packet(packet, False, 0.3, rng) == -1 for _ in range(n))
    assert minus / n == pytest.approx(0.5, abs=oracles.binomial_tolerance(0.5, n))


def test_interfere_rejects_bad_visibility():
    with pytest.raises(ValueError):
        interfere_path_packet(_fresh_packet(1, False), True, -0.1, np.random.default_rng(0))


def test_sign_is_frozen_in_transit():
    packet = _fresh_packet(+1, collapsed=False)
    with pytest.raises(AttributeError):
        packet.sign = -1
    assert packet.collapse().collapsed and not packet.collapsed

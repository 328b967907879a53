import numpy as np
import pytest

from decoyroute.adversary import (
    AttackConfig,
    Eavesdropper,
    EveLedger,
    Rows,
    decide_intercept,
    intercept_message,
    intercept_path,
    learned_traffic_fraction,
)
from decoyroute.channel import ChannelModel
from decoyroute.config import RunConfig
from decoyroute.quantum import interfere_path_packet, measure_qubit, prepare_path_packet

import oracles


def test_decide_intercept_extremes():
    u = np.random.default_rng(0).random(1000)
    assert not np.any(decide_intercept(0.0, u))
    assert np.all(decide_intercept(1.0, u))


def test_decide_intercept_rate():
    n = 100_000
    hits = np.count_nonzero(decide_intercept(0.3, np.random.default_rng(1).random(n)))
    assert hits / n == pytest.approx(0.3, abs=oracles.binomial_tolerance(0.3, n))


def test_decide_intercept_rejects_bad_rate():
    # Rates are checked once, when the attack is configured.
    for rate in (1.1, -0.1):
        with pytest.raises(ValueError, match="eta_path"):
            AttackConfig(eta_path=rate)
        with pytest.raises(ValueError, match="eta_msg"):
            AttackConfig(eta_msg=rate)


def test_matching_basis_interception_is_transparent():
    rng = np.random.default_rng(2)
    for _ in range(400):
        eve_bit, eve_z = oracles.intercept_by_draws(0, True, rng.random)
        if eve_z:
            assert eve_bit == 0


def test_cross_basis_interception_randomizes():
    rng = np.random.default_rng(3)
    cross_bits = [
        bit
        for _ in range(20_000)
        for bit, z in [oracles.intercept_by_draws(0, True, rng.random)]
        if not z
    ]
    assert len(cross_bits) > 9000
    frequency = sum(cross_bits) / len(cross_bits)
    assert frequency == pytest.approx(0.5, abs=oracles.binomial_tolerance(0.5, len(cross_bits)))


def test_intercept_message_is_elementwise():
    rng = np.random.default_rng(6)
    bit, z = rng.random(200) < 0.5, rng.random(200) < 0.5
    basis_u, coin, flip = rng.random((3, 200))
    eve_bit, eve_z = intercept_message(bit, z, basis_u, coin, flip)
    for i in range(200):
        one = intercept_message(bit[i], z[i], basis_u[i], coin[i], flip[i])
        assert one == (eve_bit[i], eve_z[i])


def test_downstream_error_rate_matches_enumeration_oracle():
    # Receiver re-measures the resent state in the original basis, no other noise.
    expected = oracles.intercept_resend_error_rate()
    assert expected == pytest.approx(0.25, abs=1e-15)

    n = 100_000
    rng = np.random.default_rng(4)
    errors = 0
    for i in range(n):
        z = bool(i % 2)
        bit = (i // 2) % 2
        resent = oracles.intercept_by_draws(bit, z, rng.random)
        errors += measure_qubit(*resent, z, 0.0, rng.random(), rng.random()) != bit
    assert errors / n == pytest.approx(expected, abs=oracles.binomial_tolerance(expected, n))


def test_path_interception_collapses_superposition():
    rng = np.random.default_rng(5)
    sign, _ = prepare_path_packet(*rng.random(3))
    ledger = EveLedger()
    intercept_path(ledger, 3, 0, 1)
    assert list(ledger.learned_endpoints) == [(3, 0, 1)]
    # The slot runner reads a packet whose mode Eve measured as not intact.
    n = 50_000
    wrong = np.count_nonzero(interfere_path_packet(sign, False, 0.0, rng.random(n)) != sign)
    assert wrong / n == pytest.approx(0.5, abs=oracles.binomial_tolerance(0.5, n))


def test_learned_traffic_fraction():
    assert learned_traffic_fraction(0, 10) == 0.0
    assert learned_traffic_fraction(10, 10) == 1.0
    assert learned_traffic_fraction(2, 10) == 0.2
    with pytest.raises(ValueError):
        learned_traffic_fraction(0, 0)
    with pytest.raises(ValueError):
        learned_traffic_fraction(11, 10)


def test_attack_config_rates():
    # An attack name enables its kinds' rates and zeroes the others.
    for attack, rates in (
        ("none", (0.0, 0.0)), ("path", (0.7, 0.0)), ("message", (0.0, 0.2)), ("both", (0.7, 0.2)),
    ):
        config = RunConfig(attack=attack, eta_path=0.7, eta_msg=0.2).attack_config()
        assert config == AttackConfig(*rates), attack
    assert AttackConfig() == AttackConfig(eta_path=0.0, eta_msg=0.0)
    with pytest.raises(ValueError):
        AttackConfig(eta_path=1.2)


def test_ledger_records_endpoints_and_bits():
    eve = Eavesdropper(AttackConfig(eta_path=1.0, eta_msg=1.0))
    oracles.type1_slot_reference(4, 0, 1, 1, ChannelModel(), eve, oracles.Streams.from_seed(0))
    assert list(eve.ledger.learned_endpoints) == [(4, 0, 1)]
    [(cycle, bit, z)] = eve.ledger.learned_bits
    # A Z-basis measurement of the Z-basis payload reads its bit.
    assert cycle == 4 and z in (0, 1) and (bit == 1 or not z)


def test_rows_are_packed_and_read_as_int_tuples():
    rows = Rows()
    rows.append(np.array([7, 9]), 0, np.array([True, False]))
    rows.append(np.empty(0, dtype=np.int64), 1, 1)  # no rows: nothing is stored
    rows.append(11, 2, 3)
    assert len(rows) == 3 and len(rows._blocks) == 2
    assert list(rows) == [(7, 0, 1), (9, 0, 0), (11, 2, 3)]
    assert all(type(cell) is int for row in rows for cell in row)
    assert sum(block.nbytes for block in rows._blocks) == 24 * len(rows)
    same = Rows()
    same.append(np.array([7, 9, 11]), np.array([0, 0, 2]), np.array([1, 0, 3]))
    assert list(rows) == list(same) and list(Rows()) == []


def test_rows_refuse_to_compare():
    # Identity would answer False for two equal tables: == raises, so a ledger
    # or an eavesdropper compared as a whole fails loudly instead.
    rows, same = Rows(), Rows()
    for table in (rows, same):
        table.append(np.array([7, 9]), 0, 1)
    with pytest.raises(TypeError, match=r"list\(rows\)"):
        rows == same
    with pytest.raises(TypeError, match=r"list\(rows\)"):
        rows != same
    with pytest.raises(TypeError, match=r"list\(rows\)"):
        rows == [(7, 0, 1), (9, 0, 1)]
    with pytest.raises(TypeError):
        EveLedger() == EveLedger()
    with pytest.raises(TypeError):
        Eavesdropper() == Eavesdropper()
    assert list(rows) == list(same)

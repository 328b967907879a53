import numpy as np
import pytest

from decoyroute.adversary import (
    AttackConfig,
    AttackMode,
    Eavesdropper,
    EveLedger,
    decide_intercept,
    intercept_message,
    intercept_path,
    learned_traffic_fraction,
)
from decoyroute.channel import ChannelModel
from decoyroute.protocol import Streams, run_type1_slot
from decoyroute.quantum import interfere_path_packet, measure_qubit, prepare_path_packet

import oracles


def test_decide_intercept_extremes():
    rng = np.random.default_rng(0)
    assert not any(decide_intercept(0.0, rng) for _ in range(1000))
    assert all(decide_intercept(1.0, rng) for _ in range(1000))


def test_decide_intercept_rate():
    n = 100_000
    rng = np.random.default_rng(1)
    hits = sum(decide_intercept(0.3, rng) for _ in range(n))
    assert hits / n == pytest.approx(0.3, abs=oracles.binomial_tolerance(0.3, n))


def test_decide_intercept_rejects_bad_rate():
    # Rates are checked once, when the attack is configured.
    for rate in (1.1, -0.1):
        with pytest.raises(ValueError, match="eta_path"):
            AttackConfig(mode=AttackMode.PATH, eta_path=rate)
        with pytest.raises(ValueError, match="eta_msg"):
            AttackConfig(mode=AttackMode.MESSAGE, eta_msg=rate)


def test_matching_basis_interception_is_transparent():
    rng = np.random.default_rng(2)
    for _ in range(400):
        eve_bit, eve_z = intercept_message(0, True, rng)
        if eve_z:
            assert eve_bit == 0


def test_cross_basis_interception_randomizes():
    rng = np.random.default_rng(3)
    cross_bits = [
        bit for _ in range(20_000) for bit, z in [intercept_message(0, True, rng)] if not z
    ]
    assert len(cross_bits) > 9000
    frequency = sum(cross_bits) / len(cross_bits)
    assert frequency == pytest.approx(0.5, abs=oracles.binomial_tolerance(0.5, len(cross_bits)))


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
        resent = intercept_message(bit, z, rng)
        errors += measure_qubit(*resent, z, 0.0, rng) != bit
    assert errors / n == pytest.approx(expected, abs=oracles.binomial_tolerance(expected, n))


def test_path_interception_collapses_superposition():
    rng = np.random.default_rng(5)
    sign, _ = prepare_path_packet(rng)
    ledger = EveLedger()
    intercept_path(ledger, 3, 0, 1)
    assert ledger.learned_endpoints == [(3, 0, 1)]
    # The slot runner reads a packet whose mode Eve measured as not intact.
    n = 50_000
    wrong = sum(interfere_path_packet(sign, False, 0.0, rng) != sign for _ in range(n))
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
    config = AttackConfig(mode=AttackMode.NONE, eta_path=0.7, eta_msg=0.2)
    assert config.path_rate == 0.0 and config.message_rate == 0.0
    config = AttackConfig(mode=AttackMode.PATH, eta_path=0.7, eta_msg=0.2)
    assert config.path_rate == 0.7 and config.message_rate == 0.0
    config = AttackConfig(mode=AttackMode.BOTH, eta_path=0.7, eta_msg=0.2)
    assert config.path_rate == 0.7 and config.message_rate == 0.2
    with pytest.raises(ValueError):
        AttackConfig(eta_path=1.2)


def test_attack_config_rejects_a_string_mode():
    # A bare string would match no AttackMode member and silently disable the attack.
    with pytest.raises(ValueError, match="mode"):
        AttackConfig(mode="path", eta_path=1.0)


def test_ledger_records_endpoints_and_bits():
    eve = Eavesdropper(AttackConfig(mode=AttackMode.BOTH, eta_path=1.0, eta_msg=1.0))
    run_type1_slot(4, 0, 1, 1, ChannelModel(), eve, Streams.from_seed(0))
    assert eve.ledger.learned_endpoints == [(4, 0, 1)]
    [(cycle, bit, z)] = eve.ledger.learned_bits
    # A Z-basis measurement of the Z-basis payload reads its bit.
    assert cycle == 4 and isinstance(z, bool) and (bit == 1 or not z)

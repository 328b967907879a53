import numpy as np
import pytest

from decoyroute import (
    AttackConfig,
    AttackMode,
    Basis,
    EveLedger,
    QubitPreparation,
    decide_intercept,
    intercept_message,
    intercept_path,
    learned_traffic_fraction,
    prepare_path_packet,
    interfere_path_packet,
)

import oracles


def test_decide_intercept_extremes():
    rng = np.random.default_rng(0)
    assert not any(decide_intercept(c, 0.0, rng) for c in range(1000))
    assert all(decide_intercept(c, 1.0, rng) for c in range(1000))


def test_decide_intercept_rate():
    n = 100_000
    rng = np.random.default_rng(1)
    hits = sum(decide_intercept(c, 0.3, rng) for c in range(n))
    assert hits / n == pytest.approx(0.3, abs=oracles.binomial_tolerance(0.3, n))


def test_decide_intercept_rejects_bad_rate():
    with pytest.raises(ValueError):
        decide_intercept(0, 1.1, np.random.default_rng(0))


def test_matching_basis_interception_is_transparent():
    rng = np.random.default_rng(2)
    prep = QubitPreparation(Basis.Z, 0)
    for _ in range(400):
        resent, eve_bit, eve_basis = intercept_message(prep, rng)
        if eve_basis is prep.basis:
            assert resent == prep and eve_bit == 0


def test_cross_basis_interception_randomizes():
    rng = np.random.default_rng(3)
    prep = QubitPreparation(Basis.Z, 0)
    cross_bits = [
        bit
        for _ in range(20_000)
        for resent, bit, basis in [intercept_message(prep, rng)]
        if basis is Basis.X
    ]
    assert len(cross_bits) > 9000
    frequency = sum(cross_bits) / len(cross_bits)
    assert frequency == pytest.approx(0.5, abs=oracles.binomial_tolerance(0.5, len(cross_bits)))


def test_downstream_error_rate_matches_enumeration_oracle():
    # Receiver re-measures the resent state in the original basis, no other noise.
    from decoyroute import measure_qubit

    expected = oracles.intercept_resend_error_rate()
    assert expected == pytest.approx(0.25, abs=1e-15)

    n = 100_000
    rng = np.random.default_rng(4)
    errors = 0
    for i in range(n):
        basis = Basis.Z if i % 2 else Basis.X
        bit = (i // 2) % 2
        prep = QubitPreparation(basis, bit)
        resent, _, _ = intercept_message(prep, rng)
        errors += measure_qubit(resent, basis, 0.0, rng) != bit
    assert errors / n == pytest.approx(expected, abs=oracles.binomial_tolerance(expected, n))


def test_path_interception_collapses_superposition():
    rng = np.random.default_rng(5)
    packet = prepare_path_packet(0, 1, 3, rng)
    collapsed, learned = intercept_path(packet)
    assert collapsed.collapsed and not packet.collapsed
    assert learned == (0, 1, 3)
    n = 50_000
    wrong = sum(
        interfere_path_packet(collapsed, True, 0.0, rng) != collapsed.sign for _ in range(n)
    )
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


def test_ledger_records_endpoints_and_bits():
    ledger = EveLedger()
    ledger.record_endpoints(4, 0, 1)
    ledger.record_bit(9, 1, Basis.Z)
    assert ledger.learned_endpoints == [(4, 0, 1)]
    assert ledger.learned_bits == [(9, 1, Basis.Z)]

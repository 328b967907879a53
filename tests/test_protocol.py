import numpy as np
import pytest

from decoyroute import protocol, seeding
from decoyroute.adversary import AttackConfig, Eavesdropper
from decoyroute.analysis import baseline_disturbance
from decoyroute.channel import ChannelModel
from decoyroute.config import RunConfig
from decoyroute.protocol import (
    DisturbanceStats,
    PairSchedule,
    generate_schedule,
    run_simulation,
    run_type1_slot,
)

import oracles

NO_LOSS = ChannelModel(T=1.0, gamma=0.0, mu=0.0)
NO_DECOYS = PairSchedule(np.empty(0, dtype=np.int64), *[np.empty(0, dtype=bool)] * 2)


def run_decoy_slots(type2, channel, attack, n, seed):
    """``n`` decoys of one type on cycles 0, 2, 4, ..., through the engine.

    Type 2 decoys alternate X and Z.  The pair reads the streams of
    ``seed``; returns the tallies and Eve's ledger.
    """
    eve = Eavesdropper(attack)
    odd = np.arange(n) % 2 == 1
    decoys = PairSchedule(2 * np.arange(n), np.full(n, type2), odd & type2)
    stats = protocol._run_pair_by_chunk(2 * n, 0, 1, decoys, channel, eve, seed, 0, "silent")[0]
    return stats, eve.ledger


class TestGenerateSchedule:
    def test_counts_and_free_cycles(self):
        schedule = generate_schedule(10, [(0, 1)], 2, 3, shared_seed=5)
        decoys = schedule.for_pair(0, 1)
        assert np.count_nonzero(decoys.type2) == 2
        assert np.count_nonzero(~decoys.type2) == 3
        assert schedule.K - len(decoys.cycle) == 5

    def test_deterministic_in_shared_seed(self):
        first = generate_schedule(50, [(0, 1), (2, 3)], 4, 4, shared_seed=9)
        second = generate_schedule(50, [(0, 1), (2, 3)], 4, 4, shared_seed=9)
        assert oracles.same_schedule(first, second)
        other = generate_schedule(50, [(0, 1), (2, 3)], 4, 4, shared_seed=10)
        assert not any(
            oracles.same_decoys(decoys, other.assignments[pair])
            for pair, decoys in first.assignments.items()
        )

    @pytest.mark.parametrize(
        "K, node_pairs, h2, h3",
        [
            (10, [(0, 1)], 2, 3),
            (21, [(0, 1), (1, 0), (2, 1)], 5, 6),
            (1000, [(0, i) for i in range(1, 9)], 120, 130),
            (9, [(3, 4), (4, 3)], 0, 5),
            (7, [(0, 1)], 4, 0),
            (1, [(0, 1)], 0, 0),
        ],
    )
    def test_matches_scalar_draw_oracle(self, K, node_pairs, h2, h3):
        for seed in (0, 7, 12345):
            schedule = generate_schedule(K, node_pairs, h2, h3, shared_seed=seed)
            rows = []
            for (sender, receiver), decoys in schedule.assignments.items():
                assert np.all(np.diff(decoys.cycle) > 0)
                assert not np.any(decoys.z_basis & ~decoys.type2)
                for cycle, is_type2, z_basis in zip(
                    decoys.cycle.tolist(), decoys.type2.tolist(), decoys.z_basis.tolist()
                ):
                    basis = ("Z" if z_basis else "X") if is_type2 else None
                    kind = "type2" if is_type2 else "type3"
                    rows.append((cycle, sender, receiver, kind, basis))
            rows.sort(key=lambda row: row[:3])
            assert rows == oracles.scalar_schedule(K, node_pairs, h2, h3, seed)

    def test_pair_schedule_equality_is_exact(self):
        # The tests' schedule comparison sees every array's values and dtype.
        decoys = generate_schedule(40, [(0, 1)], 5, 5, shared_seed=1).for_pair(0, 1)
        flipped = decoys.z_basis.copy()
        flipped[0] = not flipped[0]
        copied = PairSchedule(decoys.cycle.copy(), decoys.type2.copy(), decoys.z_basis.copy())
        assert oracles.same_decoys(decoys, copied)
        assert not oracles.same_decoys(decoys, PairSchedule(decoys.cycle, decoys.type2, flipped))
        narrowed = PairSchedule(decoys.cycle.astype(np.int32), decoys.type2, decoys.z_basis)
        assert not oracles.same_decoys(decoys, narrowed)

    def test_over_subscription_rejected(self):
        with pytest.raises(ValueError, match="over-subscribed"):
            generate_schedule(4, [(0, 1)], 3, 2, shared_seed=0)

    def test_return_cycle_budget_rejected(self):
        # 4 decoys need 4 return cycles; only 3 non-adjacent slots fit in K=6.
        with pytest.raises(ValueError, match="return cycles"):
            generate_schedule(6, [(0, 1)], 2, 2, shared_seed=0)

    def test_no_decoy_on_anothers_return_cycle(self):
        for seed in range(20):
            schedule = generate_schedule(40, [(0, 1)], 5, 5, shared_seed=seed)
            cycles = np.sort(schedule.for_pair(0, 1).cycle)
            assert np.all(np.diff(cycles) >= 2)

    def test_distinct_seeds_give_distinct_cycle_sets(self):
        differing = 0
        for seed in range(100):
            first = generate_schedule(500, [(0, 1)], 10, 10, shared_seed=seed)
            second = generate_schedule(500, [(0, 1)], 10, 10, shared_seed=seed + 10_000)
            differing += set(first.for_pair(0, 1).cycle.tolist()) != set(
                second.for_pair(0, 1).cycle.tolist()
            )
        assert differing == 100

    def test_type2_basis_uniform(self):
        schedule = generate_schedule(4000, [(0, 1)], 1000, 0, shared_seed=3)
        decoys = schedule.for_pair(0, 1)
        z_count = int(np.count_nonzero(decoys.z_basis[decoys.type2]))
        assert z_count / 1000 == pytest.approx(0.5, abs=oracles.binomial_tolerance(0.5, 1000))

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError, match="sender == receiver"):
            generate_schedule(10, [(2, 2)], 1, 1, shared_seed=0)

    def test_rejects_repeated_pair(self):
        with pytest.raises(ValueError, match="repeats the pair 0-1"):
            generate_schedule(20, [(0, 1), (2, 1), (0, 1)], 2, 2, shared_seed=0)
        schedule = generate_schedule(20, [(0, 1), (1, 0)], 2, 2, shared_seed=0)
        assert list(schedule.assignments) == [(0, 1), (1, 0)]
        assert sum(np.count_nonzero(p.type2) for p in schedule.assignments.values()) == 4


def run_payloads(n, channel, attack, seed):
    """``n`` payloads on cycles 0, 2, 4, ... and no decoy, through the engine."""
    result = run_simulation(
        K=2 * n, h2_per_pair=0, h3_per_pair=0, channel=channel, attack=attack, seed=seed
    )
    return result.pairs[0], result.eavesdropper.ledger


class TestType1Slot:
    def test_no_loss_no_eve(self):
        pair, _ = run_payloads(1, NO_LOSS, AttackConfig(), 0)
        delivered, learned = pair.type1_delivered, pair.eve_learned_type1
        assert delivered and not learned

    def test_full_path_attack_reads_every_slot(self):
        attack = AttackConfig(eta_path=1.0)
        pair, ledger = run_payloads(100, NO_LOSS, attack, 1)
        assert pair.eve_learned_type1 == pair.type1_slots == 100
        assert list(ledger.learned_endpoints) == [(cycle, 0, 1) for cycle in range(0, 200, 2)]

    def test_delivery_frequency_matches_transmissivity(self):
        channel = ChannelModel(T=0.6457, gamma=0.0, mu=0.0)
        n = 100_000
        delivered = run_payloads(n, channel, AttackConfig(), 2)[0].type1_delivered
        assert delivered / n == pytest.approx(0.6457, abs=oracles.binomial_tolerance(0.6457, n))


class TestType2Slot:
    def run_many(self, channel, attack, n=100_000, seed=0):
        return run_decoy_slots(True, channel, attack, n, seed)[0]

    def test_noiseless_no_eve_error_free(self):
        stats = self.run_many(NO_LOSS, AttackConfig(), n=5000)
        assert stats.d2_hat == 0.0

    def test_full_message_attack_gives_quarter(self):
        stats = self.run_many(
            NO_LOSS, AttackConfig(eta_msg=1.0), seed=7
        )
        expected = oracles.intercept_resend_error_rate()
        tol = oracles.binomial_tolerance(expected, stats.type2_trials, 3)
        assert stats.d2_hat == pytest.approx(expected, abs=tol)

    def test_half_loss_gives_quarter(self):
        stats = self.run_many(ChannelModel(T=0.5), AttackConfig(), seed=8)
        tol = oracles.binomial_tolerance(0.25, stats.type2_trials, 3)
        assert stats.d2_hat == pytest.approx(0.25, abs=tol)

    def test_partial_message_attack_rate(self):
        stats = self.run_many(
            NO_LOSS, AttackConfig(eta_msg=0.4), n=50_000, seed=9
        )
        tol = oracles.binomial_tolerance(0.1, stats.type2_trials)
        assert stats.d2_hat == pytest.approx(0.4 / 4.0, abs=tol)


class TestType3Slot:
    def run_many(self, channel, attack, n=50_000, seed=0):
        return run_decoy_slots(False, channel, attack, n, seed)[0]

    def test_noiseless_no_eve_error_free(self):
        stats = self.run_many(NO_LOSS, AttackConfig(), n=5000)
        assert stats.d3_hat == 0.0

    def test_full_path_attack_gives_half(self):
        stats = self.run_many(NO_LOSS, AttackConfig(eta_path=1.0), seed=4)
        tol = oracles.binomial_tolerance(0.5, stats.type3_trials, 3)
        assert stats.d3_hat == pytest.approx(0.5, abs=tol)

    def test_visibility_error_alone(self):
        stats = self.run_many(ChannelModel(T=1.0, gamma=0.01), AttackConfig(), seed=5)
        tol = oracles.binomial_tolerance(0.01, stats.type3_trials, 3)
        assert stats.d3_hat == pytest.approx(0.01, abs=tol)

    @pytest.mark.parametrize("T", [1.0, 0.8, 0.6457, 0.5])
    @pytest.mark.parametrize("gamma", [0.0, 0.05])
    def test_baseline_grid(self, T, gamma):
        stats = self.run_many(
            ChannelModel(T=T, gamma=gamma), AttackConfig(), n=30_000,
            seed=hash((T, gamma)) % 2**32,
        )
        expected = baseline_disturbance(gamma, T)
        tol = oracles.binomial_tolerance(expected, stats.type3_trials)
        assert stats.d3_hat == pytest.approx(expected, abs=max(tol, 1e-12))

    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 1.0])
    def test_combined_attack_and_baseline_law(self, eta):
        channel = ChannelModel(T=0.8, gamma=0.05)
        stats = self.run_many(
            channel,
            AttackConfig(eta_path=eta),
            n=30_000,
            seed=int(eta * 100) + 13,
        )
        base = baseline_disturbance(channel.gamma, channel.T)
        expected = eta / 2.0 + (1.0 - eta) * base
        tol = oracles.binomial_tolerance(expected, stats.type3_trials)
        assert stats.d3_hat == pytest.approx(expected, abs=tol)

    def test_message_attack_leaves_path_decoys_quiet(self):
        stats = self.run_many(
            NO_LOSS, AttackConfig(eta_msg=1.0), n=5000, seed=6
        )
        assert stats.d3_hat == 0.0


def test_estimate_disturbance():
    for stats, expected in (
        (DisturbanceStats(100, 0, 100, 0), (0.0, 0.0)),
        (DisturbanceStats(1000, 250, 10, 5), (0.25, 0.5)),
        (DisturbanceStats(), (None, None)),
    ):
        assert (stats.d2_hat, stats.d3_hat) == expected


def test_detect_eavesdropper_table(monkeypatch):
    # A pair is flagged when a defined estimate is strictly over its threshold.
    path = AttackConfig(eta_path=1.0)
    message = AttackConfig(eta_msg=1.0)
    for decoys, attack, thresholds, expected in (
        (40, AttackConfig(), (0.05, 0.05), [False, False]),
        (40, AttackConfig(), (0.0, 0.0), [False, False]),  # 0 is not over 0
        (40, path, (0.05, 0.05), [False, True]),
        (40, message, (0.05, 0.05), [True, False]),
        (40, message, (0.5, 0.05), [False, False]),
        (0, path, (0.0, 0.0), [False, False]),  # (None, None)
    ):
        result = run_simulation(
            K=400, h2_per_pair=decoys, h3_per_pair=decoys, channel=NO_LOSS, attack=attack,
            seed=25, threshold2=thresholds[0], threshold3=thresholds[1],
        )
        estimates = (result.pairs[0].stats.d2_hat, result.pairs[0].stats.d3_hat)
        assert (estimates == (None, None)) == (decoys == 0)
        over = [d is not None and d > t for d, t in zip(estimates, thresholds)]
        assert over == expected, (attack, estimates)
        assert result.pairs[0].detected is result.detected is any(over)
    # Thresholds are checked once, when the run starts, before the schedule is drawn.
    def no_schedule(*args):
        raise AssertionError("schedule drawn before the thresholds were checked")

    monkeypatch.setattr(protocol, "generate_schedule", no_schedule)
    for threshold2, threshold3 in ((0.7, 0.05), (0.05, -0.1), (None, 0.6)):
        with pytest.raises(ValueError, match="threshold"):
            run_simulation(
                K=100, h2_per_pair=1, h3_per_pair=1, channel=NO_LOSS, seed=0,
                threshold2=threshold2, threshold3=threshold3,
            )


def test_run_simulation_clean_network():
    result = run_simulation(
        K=400, h2_per_pair=40, h3_per_pair=40, channel=NO_LOSS,
        attack=AttackConfig(), seed=21,
    )
    pair = result.pairs[0]
    assert pair.stats.d2_hat == 0.0 and pair.stats.d3_hat == 0.0
    assert not result.detected
    assert result.inferred_eta == 0.0
    assert result.actual_learned_fraction == 0.0


def test_run_simulation_detects_path_attack():
    result = run_simulation(
        K=4000, h2_per_pair=200, h3_per_pair=400, channel=NO_LOSS,
        attack=AttackConfig(eta_path=0.5), seed=22,
    )
    pair = result.pairs[0]
    tol = oracles.binomial_tolerance(0.25, pair.stats.type3_trials)
    assert pair.stats.d3_hat == pytest.approx(0.25, abs=tol)
    assert result.detected
    assert result.leaked_fraction_bound >= result.actual_learned_fraction


def test_run_simulation_deterministic():
    kwargs = dict(
        K=800, h2_per_pair=50, h3_per_pair=50,
        channel=ChannelModel(T=0.9, gamma=0.01, mu=0.01),
        attack=AttackConfig(eta_path=0.3, eta_msg=0.3),
        seed=23,
    )
    first = run_simulation(**kwargs)
    second = run_simulation(**kwargs)
    assert first.pairs == second.pairs
    assert oracles.ledger_rows(first.eavesdropper.ledger) == oracles.ledger_rows(
        second.eavesdropper.ledger
    )
    assert oracles.same_schedule(first.schedule, second.schedule)


def test_run_simulation_attack_mode_does_not_shift_channel_noise():
    # Same seed, same schedule: the loss pattern seen by the decoys is
    # identical whether or not Eve taps their content, so with gamma = 0
    # the purely loss-driven path-decoy error pattern is unchanged.
    kwargs = dict(
        K=2000, h2_per_pair=0, h3_per_pair=200,
        channel=ChannelModel(T=0.7), seed=24, traffic="silent",
    )
    quiet = run_simulation(attack=AttackConfig(), **kwargs)
    noisy = run_simulation(
        attack=AttackConfig(eta_msg=1.0), **kwargs
    )
    assert quiet.pairs[0].stats.type3_errors == noisy.pairs[0].stats.type3_errors


def test_stream_ids_are_pinned_and_distinct():
    # Changing an id re-rolls every seeded output that reads its stream.
    assert seeding.STREAM_IDS == {
        "schedule": 0, "channel": 1, "eve": 2, "measurement": 3, "receiver": 5,
    }
    assert len(set(seeding.STREAM_IDS.values())) == len(seeding.STREAM_IDS)


# A pair reads every stream but the schedule's, which is drawn once per run.
STREAM_NAMES = tuple(name for name in seeding.STREAM_IDS if name != "schedule")


@pytest.mark.parametrize("pair_index", [0, 5])
@pytest.mark.parametrize("name", STREAM_NAMES)
def test_block_draws_equal_scalar_draws(name, pair_index):
    # The per-slot oracle's block draws are the stream's scalar draws.
    n = 3 * oracles.DRAW_BLOCK + 17
    source = getattr(oracles.Streams.from_seed(31, pair_index), name)
    drawn = [source.random() for _ in range(n)]
    assert drawn == seeding.stream_rng(31, name, pair_index).random(n).tolist()


def raw_streams(seed: int) -> oracles.Streams:
    return oracles.Streams(**{name: seeding.stream_rng(seed, name) for name in STREAM_NAMES})


# Which of the two rates an attack keeps, by the attack's CLI name.
RATE_MASKS = {"none": (0, 0), "path": (1, 0), "message": (0, 1), "both": (1, 1)}


@pytest.mark.parametrize("block_draws", [True, False], ids=["from_seed", "raw"])
@pytest.mark.parametrize("T", [1.0, 0.8])
@pytest.mark.parametrize("eta_path, eta_msg", [(0.4, 0.3), (1.0, 1.0)])
@pytest.mark.parametrize("mask", RATE_MASKS.values(), ids=RATE_MASKS)
def test_inline_payload_runner_draws_what_the_kernels_draw(
    mask, eta_path, eta_msg, T, block_draws
):
    # 3000 payloads through the engine, whose walk steps by run_type1_slot,
    # against the slot kernels composed one payload at a time.
    channel = ChannelModel(T=T, gamma=0.05, mu=0.03)
    attack = AttackConfig(eta_path=mask[0] * eta_path, eta_msg=mask[1] * eta_msg)
    n = 3000
    pair, ledger = run_payloads(n, channel, attack, 43)
    draws = {name: seeding.stream_rng(43, name).random(5 * n + 3) for name in STREAM_NAMES}
    at = 0
    for _ in range(n):
        at = run_type1_slot(at, draws["eve"], attack.eta_msg)
    # Payloads read no receiver uniform.
    reads = {"channel": 2 * n, "measurement": 3 * n, "eve": at, "receiver": 0}
    next_draws = {name: draws[name][reads[name]] for name in STREAM_NAMES}
    tally = (pair.type1_slots, pair.type1_delivered, pair.eve_learned_type1)
    runs = [(tally, oracles.ledger_rows(ledger), next_draws)]

    streams = oracles.Streams.from_seed(43) if block_draws else raw_streams(43)
    eve = Eavesdropper(attack)
    tally = oracles.run_pair_by_slot(2 * n, 0, 1, NO_DECOYS, channel, eve, 43, 0, "full", streams)
    next_draws = {name: getattr(streams, name).random() for name in STREAM_NAMES}
    runs.append((tally[1:], oracles.ledger_rows(eve.ledger), next_draws))
    assert runs[0] == runs[1]
    assert bool(ledger.learned_endpoints) == bool(mask[0])
    assert bool(ledger.learned_bits) == bool(mask[1])


@pytest.mark.parametrize("slot_type", [1, 2, 3])
def test_runners_on_block_draws_match_raw_generators(slot_type):
    # The engine against the per-slot loop reading raw generators, one slot type at a time.
    channel = ChannelModel(T=0.8, gamma=0.05, mu=0.03)
    attack = AttackConfig(eta_path=0.4, eta_msg=0.3)
    n = 3000
    decoys = NO_DECOYS
    if slot_type != 1:
        odd = np.arange(n) % 2 == 1
        decoys = PairSchedule(2 * np.arange(n), np.full(n, slot_type == 2), odd & (slot_type == 2))
    traffic = "full" if slot_type == 1 else "silent"
    runs = []
    for run_pair, kwargs in (
        (protocol._run_pair_by_chunk, {}),
        (oracles.run_pair_by_slot, {"streams": raw_streams(41)}),
    ):
        eve = Eavesdropper(attack)
        tally = run_pair(2 * n, 0, 1, decoys, channel, eve, 41, 0, traffic, **kwargs)
        runs.append((tally, oracles.ledger_rows(eve.ledger)))
    assert runs[0] == runs[1]
    (stats, slots, delivered, learned), (endpoints, bits) = runs[0]
    # Losses, noise and both attack kinds all fired, so every draw mattered.
    assert 0 < delivered < slots or 0 < stats.type2_errors + stats.type3_errors < n
    assert endpoints and bits


def test_no_attack_leaves_ledger_empty():
    result = run_simulation(
        K=2000, h2_per_pair=100, h3_per_pair=100,
        channel=ChannelModel(T=0.8, gamma=0.01, mu=0.01),
        attack=RunConfig(attack="none", eta_path=0.9, eta_msg=0.9).attack_config(),
        seed=28,
    )
    ledger = result.eavesdropper.ledger
    assert not ledger.learned_endpoints
    assert not ledger.learned_bits


def test_run_simulation_silent_traffic_has_no_type1():
    result = run_simulation(
        K=400, h2_per_pair=20, h3_per_pair=20, channel=NO_LOSS,
        attack=AttackConfig(), seed=25, traffic="silent",
    )
    assert result.pairs[0].type1_slots == 0
    assert result.actual_learned_fraction is None


def test_run_simulation_learned_fraction_tracks_rate():
    result = run_simulation(
        K=20_000, h2_per_pair=0, h3_per_pair=1000, channel=NO_LOSS,
        attack=AttackConfig(eta_path=0.4), seed=26,
    )
    pair = result.pairs[0]
    assert pair.type1_slots > 5000
    tol = oracles.binomial_tolerance(0.4, pair.type1_slots)
    assert pair.eve_learned_fraction == pytest.approx(0.4, abs=tol)


@pytest.mark.parametrize("eta", [0.1, 0.25, 0.5, 1.0])
def test_leak_bound_is_conservative_with_baseline_noise(eta):
    # With a nonzero baseline, worst-case attribution over-counts: the
    # inferred leak strictly dominates what the ledger actually holds.
    result = run_simulation(
        K=80_000, h2_per_pair=2000, h3_per_pair=20_000,
        channel=ChannelModel(T=0.9, gamma=0.01, mu=0.01),
        attack=AttackConfig(eta_path=eta),
        seed=int(eta * 1000) + 31,
    )
    assert result.leaked_fraction_bound >= result.actual_learned_fraction


def test_run_simulation_multiple_pairs():
    result = run_simulation(
        K=1000, node_pairs=[(0, 1), (2, 3), (1, 0)], h2_per_pair=30, h3_per_pair=30,
        channel=NO_LOSS, attack=AttackConfig(), seed=27,
    )
    assert len(result.pairs) == 3
    for pair in result.pairs:
        assert pair.stats.type2_trials == 30
        assert pair.stats.type3_trials == 30
        assert pair.stats.d2_hat == 0.0 and pair.stats.d3_hat == 0.0


@pytest.mark.parametrize("seed", [41, 42])
def test_payload_packing_and_learned_fraction_match_greedy_oracle(seed):
    node_pairs = [(0, 1), (1, 0), (2, 3)]
    result = run_simulation(
        K=3000, node_pairs=node_pairs, h2_per_pair=150, h3_per_pair=250,
        channel=ChannelModel(T=0.9, gamma=0.01, mu=0.01),
        attack=AttackConfig(eta_path=0.5, eta_msg=0.3),
        seed=seed,
    )
    endpoints = result.eavesdropper.ledger.learned_endpoints
    payload_keys = set()
    scheduled = set()
    for pair in result.pairs:
        decoys = result.schedule.for_pair(pair.sender, pair.receiver).cycle.tolist()
        payloads = oracles.greedy_payload_cycles(3000, decoys)
        assert pair.type1_slots == len(payloads)
        keys = {(cycle, pair.sender, pair.receiver) for cycle in payloads}
        payload_keys |= keys
        scheduled |= keys | {(cycle, pair.sender, pair.receiver) for cycle in decoys}
    learned = sum(pair.eve_learned_type1 for pair in result.pairs)
    total = sum(pair.type1_slots for pair in result.pairs)
    assert len(set(endpoints) & payload_keys) == learned > 0
    assert result.actual_learned_fraction == learned / total
    assert len(set(endpoints)) == len(endpoints)
    assert set(endpoints) <= scheduled
    # Path hits on decoys are recorded too.
    assert len(endpoints) > learned


def test_type3_errors_only_ever_increment_trials_once():
    # One path decoy, without and with a message attack.
    for eta_msg in (0.0, 0.5):
        result = run_simulation(
            K=2, h2_per_pair=0, h3_per_pair=1, channel=NO_LOSS, seed=0,
            attack=AttackConfig(eta_msg=eta_msg),
        )
        stats = result.pairs[0].stats
        assert (stats.type3_trials, stats.type2_trials) == (1, 0)

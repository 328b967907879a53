"""The clocked five-step protocol: schedule, slot runners, disturbance checks.

A run works through K global clock cycles per node pair.  A pre-shared
schedule (derived deterministically from a shared secret seed) reserves
some cycles as message-integrity decoys (Type 2: a BB84 qubit in a
scheduled basis, measured at the far end in the same basis) and some as
path-integrity decoys (Type 3: a path packet sent out and interfered on
return).  Every transaction, payload or decoy, occupies two cycles: the
forward packet at cycle n and a return packet at cycle n + 1, so an
outside observer sees the same two-cycle rhythm whatever the slot type.
Unreserved cycles are available for payload traffic (Type 1).

After the run, each pair turns its decoy tallies into disturbance
estimates and compares them against thresholds; exceeding either one
flags an eavesdropper.

The decoy runners are composed of the kernels in :mod:`~decoyroute.quantum`,
:mod:`~decoyroute.channel` and :mod:`~decoyroute.adversary`.  The payload
runner, which serves most slots, reads its stream draws inline, but it
draws exactly what those kernels would; ``tests/oracles.py`` keeps the
composed payload slot and the tests pin the two to equal draws and results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import seeding
from .adversary import (
    AttackConfig,
    Eavesdropper,
    decide_intercept,
    intercept_message,
    intercept_path,
    learned_traffic_fraction,
)
from .analysis import baseline_disturbance, inferred_eta, leaked_fraction, message_error
from .channel import ChannelModel, transmit
from .quantum import interfere_path_packet, measure_qubit, prepare_path_packet


@dataclass(frozen=True, eq=False)
class PairSchedule:
    """One node pair's decoys as parallel arrays sorted by cycle.

    ``type2`` marks message-integrity decoys (the rest are Type 3);
    ``z_basis`` marks the Type 2 decoys scheduled in the Z basis.
    """

    cycle: np.ndarray
    type2: np.ndarray
    z_basis: np.ndarray

    def __len__(self) -> int:
        return len(self.cycle)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairSchedule):
            return NotImplemented
        return all(
            mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
            for mine, theirs in (
                (self.cycle, other.cycle),
                (self.type2, other.type2),
                (self.z_basis, other.z_basis),
            )
        )


@dataclass(frozen=True)
class Schedule:
    """The pre-shared assignment of clock cycles to decoy slots, per node pair."""

    K: int
    assignments: dict[tuple[int, int], PairSchedule]
    shared_seed: int

    def for_pair(self, sender: int, receiver: int) -> PairSchedule:
        return self.assignments[(sender, receiver)]


@dataclass
class DisturbanceStats:
    """Trial and error counters for one node pair's decoy slots."""

    type2_trials: int = 0
    type2_errors: int = 0
    type3_trials: int = 0
    type3_errors: int = 0

    @property
    def d2_hat(self) -> float | None:
        if self.type2_trials == 0:
            return None
        return self.type2_errors / self.type2_trials

    @property
    def d3_hat(self) -> float | None:
        if self.type3_trials == 0:
            return None
        return self.type3_errors / self.type3_trials


DRAW_BLOCK = 1024  # doubles per refill: about 32 KB of Python floats per stream


class BlockDraws:
    """Serves ``generator.random()`` values in order, from blocks of ``DRAW_BLOCK``."""

    __slots__ = ("random",)

    def __init__(self, generator: np.random.Generator) -> None:
        blocks = iter(lambda: generator.random(DRAW_BLOCK).tolist(), None)
        self.random = itertools.chain.from_iterable(blocks).__next__


@dataclass
class Streams:
    """Per-subsystem draw sources for one simulated pair.

    The slot runners call only ``random()`` on each field, so a field may
    be a raw ``np.random.Generator`` or the :class:`BlockDraws` that
    :meth:`from_seed` wraps around it.  Both give the same values in the
    same order: PCG64 yields one double per 64-bit output, so block draws
    equal scalar draws.  A block source reads ahead of the run by up to
    one block, which nothing observes because its generator is never read
    again after the run.
    """

    channel: BlockDraws | np.random.Generator
    measurement: BlockDraws | np.random.Generator
    eve: BlockDraws | np.random.Generator

    @classmethod
    def from_seed(cls, root_seed: int, pair_index: int = 0) -> "Streams":
        return cls(
            channel=BlockDraws(seeding.stream_rng(root_seed, "channel", pair_index)),
            measurement=BlockDraws(seeding.stream_rng(root_seed, "measurement", pair_index)),
            eve=BlockDraws(seeding.stream_rng(root_seed, "eve", pair_index)),
        )


def max_decoys_per_pair(K: int) -> int:
    # Each decoy occupies its cycle plus the next (return packet), so a
    # pair's reserved cycles must be pairwise non-adjacent.
    return (K + 1) // 2


def _draw_spaced_cycles(rng: np.random.Generator, K: int, count: int) -> np.ndarray:
    """Uniform draw of ``count`` pairwise non-adjacent cycles in [0, K)."""
    if count == 0:
        return np.empty(0, dtype=np.int64)
    # Bijection between k-subsets of [0, K-k] and non-adjacent k-subsets of
    # [0, K): spread a sorted plain draw by its rank.
    base = np.sort(rng.choice(K - count + 1, size=count, replace=False))
    return base + np.arange(count)


def generate_schedule(
    K: int,
    node_pairs: list[tuple[int, int]],
    h2_per_pair: int,
    h3_per_pair: int,
    shared_seed: int,
) -> Schedule:
    """Draw the pre-shared schedule; a pure function of ``shared_seed``.

    Per pair, the decoy cycles are drawn uniformly over the conflict-free
    subsets of [0, K) (no decoy may sit on the return cycle of another),
    then split between Type 2 (with a uniform basis each) and Type 3.
    Each pair may appear once; ``(a, b)`` and ``(b, a)`` are distinct pairs.
    """
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    if h2_per_pair < 0 or h3_per_pair < 0:
        raise ValueError("slot counts must be non-negative")
    total = h2_per_pair + h3_per_pair
    if total > max_decoys_per_pair(K):
        raise ValueError(
            f"over-subscribed schedule: {total} decoy slots need return cycles, "
            f"at most {max_decoys_per_pair(K)} fit in K = {K}"
        )

    assignments: dict[tuple[int, int], PairSchedule] = {}
    for pair_index, (sender, receiver) in enumerate(node_pairs):
        if sender == receiver:
            raise ValueError(f"pair {pair_index} has sender == receiver == {sender}")
        if (sender, receiver) in assignments:
            raise ValueError(f"pair {pair_index} repeats the pair {sender}-{receiver}")
        rng = np.random.default_rng(np.random.SeedSequence((shared_seed, pair_index)))
        cycles = rng.permutation(_draw_spaced_cycles(rng, K, total))
        type2 = np.arange(total) < h2_per_pair
        z_basis = np.zeros(total, dtype=bool)
        z_basis[:h2_per_pair] = rng.random(h2_per_pair) < 0.5
        order = np.argsort(cycles)
        assignments[(sender, receiver)] = PairSchedule(
            cycles[order], type2[order], z_basis[order]
        )
    return Schedule(K=K, assignments=assignments, shared_seed=shared_seed)


def _eve_taps(
    cycle: int,
    sender: int,
    receiver: int,
    qubit: tuple[int, bool],
    eve: Eavesdropper,
    rng: np.random.Generator,
) -> tuple[bool, tuple[int, bool]]:
    """Eve's interceptions of one round trip carrying ``qubit``.

    Returns whether she measured the propagation mode, and the qubit as it
    travels on: her resend if she measured the content, else ``qubit``.
    """
    # Both decisions are drawn every transaction so the eavesdropper
    # stream stays aligned across attack modes.
    path_hit = decide_intercept(eve.config.path_rate, rng)
    msg_hit = decide_intercept(eve.config.message_rate, rng)
    if path_hit:
        intercept_path(eve.ledger, cycle, sender, receiver)
    if msg_hit:
        qubit = intercept_message(*qubit, rng)
        eve.ledger.learned_bits.append((cycle, *qubit))
    return path_hit, qubit


def run_type1_slot(
    cycle: int,
    sender: int,
    receiver: int,
    payload_bit: int,
    channel: ChannelModel,
    eve: Eavesdropper,
    streams: Streams,
) -> tuple[bool, bool]:
    """One payload round trip: a Z-basis qubit out, dummy back.

    Returns whether the payload was delivered and whether Eve learned its
    endpoints.  Payloads are most of a run's slots, so this runner reads
    its draws inline instead of calling the slot kernels, but it draws
    exactly what they would, in the same order and from the same streams;
    ``tests/oracles.py::type1_slot_reference`` composes the kernels and
    the tests hold the two equal.
    """
    eve_draw = streams.eve.random
    path_hit = eve_draw() < eve.config.path_rate
    if eve_draw() < eve.config.message_rate:
        # intercept_message: Eve's basis, her outcome on a basis mismatch,
        # then measure_qubit's flip draw, which never flips at flip_prob 0.
        eve_z = eve_draw() < 0.5
        bit = payload_bit if eve_z else int(eve_draw() < 0.5)
        eve_draw()
        eve.ledger.learned_bits.append((cycle, bit, eve_z))
    if path_hit:
        eve.ledger.learned_endpoints.append((cycle, sender, receiver))
    channel_draw = streams.channel.random
    delivered = channel_draw() < channel.T
    # The dummy return: its basis and bit, then its transmission.
    streams.measurement.random()
    streams.measurement.random()
    channel_draw()
    return delivered, path_hit


def run_type2_slot(
    cycle: int,
    sender: int,
    receiver: int,
    z: bool,
    channel: ChannelModel,
    eve: Eavesdropper,
    streams: Streams,
    stats: DisturbanceStats,
) -> bool:
    """One message-integrity decoy in the Z basis if ``z``, else X.

    Returns whether it counted an error.
    """
    sent_bit = int(streams.measurement.random() < 0.5)
    _, qubit = _eve_taps(cycle, sender, receiver, (sent_bit, z), eve, streams.eve)
    if transmit(channel.T, streams.channel):
        measured = measure_qubit(*qubit, z, channel.mu, streams.measurement)
    else:
        measured = int(streams.measurement.random() < 0.5)
    error = measured != sent_bit

    # Dummy return.  Content is discarded; drawing its basis and bit and
    # transmitting it keeps the wire pattern and the stream consumption
    # identical across slot types.
    streams.measurement.random()
    streams.measurement.random()
    transmit(channel.T, streams.channel)
    stats.type2_trials += 1
    stats.type2_errors += int(error)
    return error


def run_type3_slot(
    cycle: int,
    sender: int,
    receiver: int,
    channel: ChannelModel,
    eve: Eavesdropper,
    streams: Streams,
    stats: DisturbanceStats,
) -> bool:
    """One path-integrity decoy; returns whether it counted an error."""
    sign, dummy = prepare_path_packet(streams.measurement)
    # A content tap touches only the dummy payload, not the mode.
    path_hit, _ = _eve_taps(cycle, sender, receiver, dummy, eve, streams.eve)

    # Ideal resend hardware: interception leaves survival untouched, but a
    # mode measurement destroys the superposition.
    out_leg = transmit(channel.T, streams.channel)
    back_leg = transmit(channel.T, streams.channel)
    intact = out_leg and back_leg and not path_hit
    error = interfere_path_packet(sign, intact, channel.gamma, streams.measurement) != sign
    stats.type3_trials += 1
    stats.type3_errors += int(error)
    return error


def detect_eavesdropper(
    d2_hat: float | None,
    d3_hat: float | None,
    threshold2: float,
    threshold3: float,
) -> bool:
    """Flag an eavesdropper when either defined disturbance exceeds its threshold.

    The thresholds are taken unchecked; :func:`run_simulation` checks them
    once, on entry.
    """
    exceeded2 = d2_hat is not None and d2_hat > threshold2
    exceeded3 = d3_hat is not None and d3_hat > threshold3
    return bool(exceeded2 or exceeded3)


def default_thresholds(
    channel: ChannelModel, type2_trials: int, type3_trials: int, n_sigma: float = 5.0
) -> tuple[float, float]:
    """Baseline expectation plus ``n_sigma`` binomial standard errors, capped at 0.5."""
    e = message_error(channel.mu, channel.T)
    d = baseline_disturbance(channel.gamma, channel.T)
    th2 = e
    if type2_trials > 0:
        th2 += n_sigma * math.sqrt(e * (1.0 - e) / type2_trials)
    th3 = d
    if type3_trials > 0:
        th3 += n_sigma * math.sqrt(d * (1.0 - d) / type3_trials)
    return min(0.5, th2), min(0.5, th3)


@dataclass
class PairResult:
    """Per-pair outcome of a run."""

    sender: int
    receiver: int
    stats: DisturbanceStats
    type1_slots: int
    type1_delivered: int
    eve_learned_type1: int
    detected: bool

    @property
    def eve_learned_fraction(self) -> float | None:
        if self.type1_slots == 0:
            return None
        return learned_traffic_fraction(self.eve_learned_type1, self.type1_slots)


@dataclass
class SimulationResult:
    """All pairs plus the run-level summary."""

    schedule: Schedule
    pairs: list[PairResult]
    eavesdropper: Eavesdropper
    detected: bool
    inferred_eta: float | None
    leaked_fraction_bound: float | None
    actual_learned_fraction: float | None


def run_simulation(
    *,
    K: int,
    node_pairs: list[tuple[int, int]] | None = None,
    h2_per_pair: int,
    h3_per_pair: int,
    channel: ChannelModel,
    attack: AttackConfig | None = None,
    seed: int,
    traffic: str = "full",
    threshold2: float | None = None,
    threshold3: float | None = None,
) -> SimulationResult:
    """Drive the full protocol once and aggregate the detection summary.

    ``traffic`` selects the payload workload: ``"full"`` starts a payload
    round trip in every cycle not blocked by a decoy or a pending return,
    ``"silent"`` sends no payload at all.  The summary attributes all
    pooled path disturbance to interception (inferred eta, leak bound) and
    reports the fraction of payload endpoints actually present in the
    eavesdropper's ledger for comparison.
    """
    if traffic not in ("full", "silent"):
        raise ValueError(f"traffic must be 'full' or 'silent', got {traffic}")
    for name, threshold in (("threshold2", threshold2), ("threshold3", threshold3)):
        if threshold is not None and not 0.0 <= threshold <= 0.5:
            raise ValueError(f"{name} must be in [0, 0.5], got {threshold}")
    if node_pairs is None:
        node_pairs = [(0, 1)]
    attack = attack or AttackConfig()

    shared_seed = seeding.child_seed(seed, "schedule")
    schedule = generate_schedule(K, node_pairs, h2_per_pair, h3_per_pair, shared_seed)
    eve = Eavesdropper(config=attack)

    if threshold2 is None or threshold3 is None:
        auto2, auto3 = default_thresholds(channel, h2_per_pair, h3_per_pair)
        threshold2 = auto2 if threshold2 is None else threshold2
        threshold3 = auto3 if threshold3 is None else threshold3

    pair_results: list[PairResult] = []
    for pair_index, (sender, receiver) in enumerate(node_pairs):
        streams = Streams.from_seed(seed, pair_index)
        decoys = schedule.for_pair(sender, receiver)
        stats = DisturbanceStats()
        type1_slots = 0
        type1_delivered = 0
        learned_type1 = 0

        def run_payloads(stop: int) -> None:
            # Greedy payload round trips from the first free cycle, one
            # every two cycles, each forward cycle before ``stop``.
            nonlocal type1_slots, type1_delivered, learned_type1
            cycles = range(free, stop, 2)
            draw_bit = streams.measurement.random
            run_slot = run_type1_slot  # read per gap, so a wrapped global is seen
            delivered_sum = learned_sum = 0
            for cycle in cycles:
                delivered, learned = run_slot(
                    cycle, sender, receiver, int(draw_bit() < 0.5), channel, eve, streams
                )
                delivered_sum += delivered
                learned_sum += learned
            type1_slots += len(cycles)
            type1_delivered += delivered_sum
            learned_type1 += learned_sum

        free = 0
        for cycle, is_type2, z_basis in zip(
            decoys.cycle.tolist(), decoys.type2.tolist(), decoys.z_basis.tolist()
        ):
            if traffic == "full":
                # A payload's return may not land on the decoy's cycle.
                run_payloads(cycle - 1)
            if is_type2:
                run_type2_slot(cycle, sender, receiver, z_basis, channel, eve, streams, stats)
            else:
                run_type3_slot(cycle, sender, receiver, channel, eve, streams, stats)
            free = cycle + 2
        if traffic == "full":
            # The last payload's return may fall on cycle K.
            run_payloads(K)

        detected = detect_eavesdropper(stats.d2_hat, stats.d3_hat, threshold2, threshold3)
        pair_results.append(
            PairResult(
                sender=sender,
                receiver=receiver,
                stats=stats,
                type1_slots=type1_slots,
                type1_delivered=type1_delivered,
                eve_learned_type1=learned_type1,
                detected=detected,
            )
        )

    pooled2_trials = sum(p.stats.type2_trials for p in pair_results)
    pooled2_errors = sum(p.stats.type2_errors for p in pair_results)
    pooled3_trials = sum(p.stats.type3_trials for p in pair_results)
    pooled3_errors = sum(p.stats.type3_errors for p in pair_results)

    inferred: float | None = None
    leak_bound: float | None = None
    if pooled3_trials > 0:
        d3_pooled = min(0.5, pooled3_errors / pooled3_trials)
        inferred = inferred_eta(d3_pooled)
        if pooled2_trials > 0:
            e_meas = pooled2_errors / pooled2_trials
        else:
            e_meas = message_error(channel.mu, channel.T)
        leak_bound = leaked_fraction(d3_pooled, min(0.5, e_meas))

    total_type1 = sum(p.type1_slots for p in pair_results)
    actual: float | None = None
    if total_type1 > 0:
        learned = sum(p.eve_learned_type1 for p in pair_results)
        actual = learned_traffic_fraction(learned, total_type1)

    return SimulationResult(
        schedule=schedule,
        pairs=pair_results,
        eavesdropper=eve,
        detected=any(p.detected for p in pair_results),
        inferred_eta=inferred,
        leaked_fraction_bound=leak_bound,
        actual_learned_fraction=actual,
    )

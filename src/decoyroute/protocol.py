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
:mod:`~decoyroute.channel` and :mod:`~decoyroute.adversary`, which take
the uniforms they consume and work elementwise on floats or arrays.

A pair's slots run on one of two engines, chosen by the attack alone.
Without a message attack (effective ``message_rate`` 0) every slot reads
a fixed number of uniforms from each stream, so the chunk engine
(:func:`_run_pair_by_chunk`) draws a block per stream for up to
``SLOT_CHUNK`` slots and calls the decoy runners once per chunk on arrays.
A message attack makes the draw counts depend on the data (Eve's extra
uniforms per tap, the receiver's extra coin after a mismatched resend), so
those runs keep the per-slot loop (:func:`_run_pair_by_slot`), which calls
the same runners with floats; moving them to chunks needs a fixed draw
layout per slot (ROADMAP item 2), which changes every seeded output, and
a benchmark that does not count per-slot runner calls (item 1).  Both
engines give the same results, ledger and CSV bytes for the same run.  The
payload runner of the per-slot loop reads its stream draws inline, but it
draws exactly what the kernels would; ``tests/oracles.py`` keeps the
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
from .errors import InputError, check_at_least, check_cycles, check_in
from .quantum import interfere_path_packet, measure_qubit, prepare_path_packet, where


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


class ColumnDraws:
    """Serves one draw for each of many slots per call.

    The k-th ``random()`` returns ``block[first + k]``: the k-th uniform
    of every slot whose first uniform sits at ``first`` in ``block``.
    """

    __slots__ = ("random",)

    def __init__(self, block: np.ndarray, first: np.ndarray) -> None:
        self.random = (block.take(first + k) for k in itertools.count()).__next__


@dataclass
class Streams:
    """Per-subsystem draw sources for one simulated pair, or for a batch of slots.

    The slot runners call only ``random()`` on each field, so a field may
    be a raw ``np.random.Generator`` or the :class:`BlockDraws` that
    :meth:`from_seed` wraps around it; both give the same values in the
    same order, since PCG64 yields one double per 64-bit output.  A block
    source reads ahead of the run by up to one block, which nothing
    observes because its generator is never read again after the run.  The
    chunk engine passes :class:`ColumnDraws` instead, one column per call.
    """

    channel: BlockDraws | ColumnDraws | np.random.Generator
    measurement: BlockDraws | ColumnDraws | np.random.Generator
    eve: BlockDraws | ColumnDraws | np.random.Generator

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


def check_schedule(
    K: int, node_pairs: list[tuple[int, int]], h2_per_pair: int, h3_per_pair: int
) -> None:
    """The rules of :func:`generate_schedule`'s arguments, checked before any draw."""
    check_cycles(K, 1)
    check_at_least("h2_per_pair", h2_per_pair, 0)
    check_at_least("h3_per_pair", h3_per_pair, 0)
    total, fit = h2_per_pair + h3_per_pair, max_decoys_per_pair(K)
    if total > fit:
        raise InputError("K", f"is over-subscribed: {total} decoys need return cycles, {fit} fit")
    seen: set[tuple[int, int]] = set()
    for sender, receiver in node_pairs:
        if sender == receiver:
            raise InputError("node_pairs", f"has sender == receiver == {sender}")
        if (sender, receiver) in seen:
            raise InputError("node_pairs", f"repeats the pair {sender}-{receiver}")
        seen.add((sender, receiver))


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
    then a uniform ``h2_per_pair`` of them become Type 2 (with a uniform
    basis each) and the rest Type 3.  Each pair may appear once; ``(a, b)``
    and ``(b, a)`` are distinct pairs.
    """
    check_schedule(K, node_pairs, h2_per_pair, h3_per_pair)
    total = h2_per_pair + h3_per_pair
    assignments: dict[tuple[int, int], PairSchedule] = {}
    for pair_index, pair in enumerate(node_pairs):
        rng = np.random.default_rng(np.random.SeedSequence((shared_seed, pair_index)))
        cycles = _draw_spaced_cycles(rng, K, total)
        # A uniform h2-subset of the decoys: the first h2 entries of a permutation.
        chosen = rng.permutation(total)[:h2_per_pair]
        type2 = np.zeros(total, dtype=bool)
        type2[chosen] = True
        z_basis = np.zeros(total, dtype=bool)
        z_basis[chosen] = rng.random(h2_per_pair) < 0.5
        assignments[pair] = PairSchedule(cycles, type2, z_basis)
    return Schedule(K=K, assignments=assignments, shared_seed=shared_seed)


def _tap_message(cycle, qubit, eve: Eavesdropper, draws):
    """Eve's content decision for one round trip; returns the qubit as it travels on.

    Its uniform is drawn every transaction, so the eavesdropper stream
    stays aligned across attack modes.  Without a message attack nothing
    is tapped, which lets arrays of slots through unchanged.
    """
    u = draws.random()
    if eve.config.message_rate > 0 and decide_intercept(eve.config.message_rate, u):
        qubit = intercept_message(*qubit, draws.random)
        eve.ledger.learned_bits.append((cycle, *qubit))
    return qubit


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


def run_type2_slot(cycle, z, channel: ChannelModel, eve: Eavesdropper, streams: Streams):
    """One message-integrity decoy in the Z basis where ``z``, else X; returns whether it erred.

    Eve's mode decision for the round trip is the caller's: it leaves the
    qubit alone.  Without a message attack the runner is elementwise, so
    ``cycle`` and ``z`` may be arrays of decoys drawn from
    :class:`ColumnDraws`.
    """
    measurement = streams.measurement.random
    sent_bit = measurement() < 0.5
    bit, qubit_z = _tap_message(cycle, (sent_bit, z), eve, streams.eve)
    transmitted = transmit(channel.T, streams.channel.random())
    # The uniform u is a lost photon's coin or a delivered one's flip draw.  A
    # photon Eve resent in the other basis reads u as the coin and one more
    # uniform as the flip draw; only a message attack does that, and it runs
    # one slot at a time.
    u = measurement()
    mismatched = eve.config.message_rate > 0 and transmitted and qubit_z != z
    flip = measurement() if mismatched else u
    measured = where(transmitted, measure_qubit(bit, qubit_z, z, channel.mu, u, flip), u < 0.5)

    # Dummy return.  Content is discarded; drawing its basis and bit and
    # transmitting it keeps the wire pattern and the stream consumption
    # identical across slot types.
    measurement()
    measurement()
    transmit(channel.T, streams.channel.random())
    return measured != sent_bit


def run_type3_slot(cycle, path_hit, channel: ChannelModel, eve: Eavesdropper, streams: Streams):
    """One path-integrity decoy; returns whether it erred.

    ``path_hit`` is Eve's mode decision for the round trip, made by the
    caller.  Elementwise like :func:`run_type2_slot`.
    """
    measurement = streams.measurement.random
    sign, dummy = prepare_path_packet(measurement(), measurement(), measurement())
    # A content tap touches only the dummy payload, not the mode.
    _tap_message(cycle, dummy, eve, streams.eve)

    # Ideal resend hardware: interception leaves survival untouched, but a
    # mode measurement destroys the superposition.
    out_leg = transmit(channel.T, streams.channel.random())
    back_leg = transmit(channel.T, streams.channel.random())
    intact = out_leg & back_leg & (path_hit ^ True)  # ^ True: not, elementwise
    return interfere_path_packet(sign, intact, channel.gamma, measurement()) != sign


def detect_eavesdropper(
    d2_hat: float | None,
    d3_hat: float | None,
    threshold2: float,
    threshold3: float,
) -> bool:
    """Flag an eavesdropper when either defined disturbance exceeds its threshold.

    The thresholds are taken unchecked; :func:`check_simulation` checks
    them once, when the run starts.
    """
    exceeded2 = d2_hat is not None and d2_hat > threshold2
    exceeded3 = d3_hat is not None and d3_hat > threshold3
    return bool(exceeded2 or exceeded3)


THRESHOLD_SIGMAS = 5.0  # binomial standard errors above the baseline


def default_thresholds(
    channel: ChannelModel, type2_trials: int, type3_trials: int
) -> tuple[float, float]:
    """Baseline expectation plus ``THRESHOLD_SIGMAS`` binomial standard errors, capped at 0.5."""
    e = message_error(channel.mu, channel.T)
    d = baseline_disturbance(channel.gamma, channel.T)
    th2 = e
    if type2_trials > 0:
        th2 += THRESHOLD_SIGMAS * math.sqrt(e * (1.0 - e) / type2_trials)
    th3 = d
    if type3_trials > 0:
        th3 += THRESHOLD_SIGMAS * math.sqrt(d * (1.0 - d) / type3_trials)
    return min(0.5, th2), min(0.5, th3)


PairTally = tuple[DisturbanceStats, int, int, int]
"""A pair's decoy counters, payload slots, delivered payloads and payloads Eve traced."""


def _run_pair_by_slot(
    K: int,
    sender: int,
    receiver: int,
    decoys: PairSchedule,
    channel: ChannelModel,
    eve: Eavesdropper,
    seed: int,
    pair_index: int,
    traffic: str,
) -> PairTally:
    """Run one pair's slots in cycle order, one runner call per slot."""
    streams = Streams.from_seed(seed, pair_index)
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
    path_rate, eve_draw = eve.config.path_rate, streams.eve.random
    for cycle, is_type2, z_basis in zip(
        decoys.cycle.tolist(), decoys.type2.tolist(), decoys.z_basis.tolist()
    ):
        if traffic == "full":
            # A payload's return may not land on the decoy's cycle.
            run_payloads(cycle - 1)
        # Eve decides on a round trip before its slot type shows.
        path_hit = decide_intercept(path_rate, eve_draw())
        if path_hit:
            intercept_path(eve.ledger, cycle, sender, receiver)
        if is_type2:
            stats.type2_trials += 1
            stats.type2_errors += run_type2_slot(cycle, z_basis, channel, eve, streams)
        else:
            stats.type3_trials += 1
            stats.type3_errors += run_type3_slot(cycle, path_hit, channel, eve, streams)
        free = cycle + 2
    if traffic == "full":
        # The last payload's return may fall on cycle K.
        run_payloads(K)
    return stats, type1_slots, type1_delivered, learned_type1


SLOT_CHUNK = 1 << 13  # slots per chunk: at most 512 KB of uniforms


def _run_pair_by_chunk(
    K: int,
    sender: int,
    receiver: int,
    decoys: PairSchedule,
    channel: ChannelModel,
    eve: Eavesdropper,
    seed: int,
    pair_index: int,
    traffic: str,
) -> PairTally:
    """:func:`_run_pair_by_slot`'s tally for a run without a message attack, by chunks of slots.

    Without a message attack every slot reads 2 channel and 2 eve
    uniforms, and 3 measurement uniforms for a payload or 4 for a decoy,
    so a slot's offset in each stream is a running count over the slots
    before it.  ``Generator.random(n)`` returns the same values as n
    scalar draws, so each chunk of up to ``SLOT_CHUNK`` slots draws one
    block per stream and applies the Type 1/2/3 rules to arrays.  Memory
    is O(SLOT_CHUNK + decoys) whatever K is.
    """
    cycles = decoys.cycle
    ordinal = np.arange(len(cycles))  # each decoy's slot
    tail = 0
    if traffic == "full":
        # Greedy packing: the payloads before each decoy, then those after the last.
        free = np.concatenate(([0], cycles + 2))
        ordinal += np.cumsum((cycles - free[:-1]) // 2)
        tail = max(0, (K - int(free[-1]) + 1) // 2)
    slots = (int(ordinal[-1]) + 1 if len(ordinal) else 0) + tail

    channel_rng, measurement_rng, eve_rng = (
        seeding.stream_rng(seed, name, pair_index) for name in ("channel", "measurement", "eve")
    )
    stats = DisturbanceStats()
    type1_slots = type1_delivered = learned_type1 = 0
    for start in range(0, slots, SLOT_CHUNK):
        size = min(SLOT_CHUNK, slots - start)
        lo, hi = np.searchsorted(ordinal, (start, start + size)).tolist()
        at = ordinal[lo:hi] - start  # the chunk's decoys, by position in the chunk
        chan = channel_rng.random(2 * size)
        eve_u = eve_rng.random(2 * size)
        meas = measurement_rng.random(3 * size + hi - lo)

        # Eve decides on every round trip before its slot type shows.
        path_hit = decide_intercept(eve.config.path_rate, eve_u[::2])
        if path_hit.any():
            # A slot's cycle follows from the last decoy at or before it, or
            # from a decoy before the first at cycle -2: payloads come every
            # two cycles after it.
            hit = start + np.flatnonzero(path_hit)
            last = np.searchsorted(ordinal, hit, side="right")
            anchor_cycle = np.concatenate(([-2], cycles)).take(last)
            anchor_ordinal = np.concatenate(([-1], ordinal)).take(last)
            hit_cycles = anchor_cycle + 2 * (hit - anchor_ordinal)
            # The entries intercept_path records, one per tapped round trip.
            eve.ledger.learned_endpoints.extend(
                zip(hit_cycles.tolist(), itertools.repeat(sender), itertools.repeat(receiver))
            )

        payload = np.ones(size, dtype=bool)
        payload[at] = False
        type1_slots += size - (hi - lo)
        type1_delivered += int(np.count_nonzero(transmit(channel.T, chan[::2][payload])))
        learned_type1 += int(np.count_nonzero(path_hit[payload]))

        # A decoy's measurement uniforms follow 3 per payload and 4 per decoy before it.
        first_meas = 3 * at + np.arange(hi - lo)

        def columns(kind: np.ndarray) -> Streams:
            rows = at.take(kind)
            return Streams(
                channel=ColumnDraws(chan, 2 * rows),
                measurement=ColumnDraws(meas, first_meas.take(kind)),
                eve=ColumnDraws(eve_u, 2 * rows + 1),  # the message decision's uniform
            )

        type2 = decoys.type2[lo:hi]
        kind = np.flatnonzero(type2)
        z = decoys.z_basis[lo:hi].take(kind)
        errors = run_type2_slot(cycles[lo:hi].take(kind), z, channel, eve, columns(kind))
        stats.type2_trials += len(kind)
        stats.type2_errors += int(np.count_nonzero(errors))
        kind = np.flatnonzero(~type2)
        tapped = path_hit.take(at.take(kind))
        errors = run_type3_slot(cycles[lo:hi].take(kind), tapped, channel, eve, columns(kind))
        stats.type3_trials += len(kind)
        stats.type3_errors += int(np.count_nonzero(errors))
    return stats, type1_slots, type1_delivered, learned_type1


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


def check_simulation(
    K: int, node_pairs: list[tuple[int, int]], h2_per_pair: int, h3_per_pair: int,
    traffic: str, threshold2: float | None, threshold3: float | None,
) -> None:
    """The rules of :func:`run_simulation`'s arguments; channel and attack check their own."""
    check_schedule(K, node_pairs, h2_per_pair, h3_per_pair)
    if traffic not in ("full", "silent"):
        raise InputError("traffic", f"must be 'full' or 'silent', got {traffic!r}")
    for name, threshold in (("threshold2", threshold2), ("threshold3", threshold3)):
        if threshold is not None:
            check_in(name, threshold, 0, 0.5)


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
    if node_pairs is None:
        node_pairs = [(0, 1)]
    check_simulation(K, node_pairs, h2_per_pair, h3_per_pair, traffic, threshold2, threshold3)
    attack = attack or AttackConfig()

    shared_seed = seeding.child_seed(seed, "schedule")
    schedule = generate_schedule(K, node_pairs, h2_per_pair, h3_per_pair, shared_seed)
    eve = Eavesdropper(config=attack)

    if threshold2 is None or threshold3 is None:
        auto2, auto3 = default_thresholds(channel, h2_per_pair, h3_per_pair)
        threshold2 = auto2 if threshold2 is None else threshold2
        threshold3 = auto3 if threshold3 is None else threshold3

    # The message rate alone picks the engine; both give the same bytes.
    run_pair = _run_pair_by_slot if attack.message_rate > 0 else _run_pair_by_chunk
    pair_results: list[PairResult] = []
    for pair_index, (sender, receiver) in enumerate(node_pairs):
        tally = run_pair(
            K, sender, receiver, schedule.for_pair(sender, receiver),
            channel, eve, seed, pair_index, traffic,
        )
        stats = tally[0]
        detected = detect_eavesdropper(stats.d2_hat, stats.d3_hat, threshold2, threshold3)
        # The tally holds PairResult's fields between the endpoints and the verdict.
        pair_results.append(PairResult(sender, receiver, *tally, detected))

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

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
flags an eavesdropper.  The run's summary reads the same estimates off the
pairs' tallies summed into one.

The slot runners are composed of the kernels in :mod:`~decoyroute.quantum`,
:mod:`~decoyroute.channel` and :mod:`~decoyroute.adversary`, which take
the uniforms they consume and work elementwise on floats or arrays.  The
attack is its two rates (:class:`~decoyroute.adversary.AttackConfig`); a
rate of 0 is no attack of that kind.

One engine runs every pair (:func:`_run_pair_by_chunk`).  A pair reads
its streams in slot order, and each chunk of up to ``SLOT_CHUNK`` slots
draws one block per stream and scores its slots on arrays.  A slot reads 2
channel uniforms and 3 measurement uniforms for a payload or 4 for a
decoy, in every run, so its measurement offset is a running count over the
slots before.  It reads 2 of Eve's uniforms, plus 2 or 3 for a message
tap, as her basis matches the qubit's or not.  Under a message attack each
Type 2 decoy also reads one uniform of the receiver stream, at its Type 2
ordinal: the receiver's flip draw when Eve resent the decoy in the other
basis.  Eve's offsets alone depend on her draws, so under a message attack
the engine first walks her block slot by slot (:func:`_walk_eve`, whose
payload step is :func:`run_type1_slot`) to find where each slot's uniforms
start; the walk reads only her uniforms and the decoys' qubit bases, never
a cycle.  It then scores the chunk on arrays all the same, and the cycles
the ledger records follow from the slot ordinals.
``tests/oracles.py`` keeps the scalar per-slot loop that reads every
uniform in turn; the tests hold the engine to it in every result, ledger
row and CSV byte.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import astuple, dataclass

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
from .quantum import interfere_path_packet, measure_qubit, prepare_path_packet


@dataclass(frozen=True)
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


def run_type1_slot(at: int, eve_u: Sequence[float], eta_msg: float) -> int:
    """Eve's step over one payload round trip: where the next slot's uniforms start.

    The round trip's uniforms start at ``at`` in ``eve_u``: her path and
    message decisions, then, when she taps the Z-basis payload qubit, her
    basis and one more uniform, or two if she measures in X (see
    :func:`~decoyroute.adversary.intercept_message`).  Eve's draws alone
    set the step; the engine scores the payloads on arrays after the walk.
    """
    if eve_u[at + 1] < eta_msg:
        return at + (4 if eve_u[at + 2] < 0.5 else 5)
    return at + 2


def run_type2_slot(sent_bit, z, qubit, channel: ChannelModel, link_u, coin, flip):
    """Message-integrity decoys; returns which erred.

    The sender prepared ``sent_bit`` in the Z basis where ``z``, else X, and
    ``qubit`` is what crosses the link: Eve's resend where she tapped it,
    else the sent qubit.  The uniform ``link_u`` decides its transmission.
    The receiver measures in the scheduled basis: ``coin`` is a lost
    photon's coin, or an arrived one's outcome coin, and ``flip`` its flip
    draw, which is ``coin`` itself unless the qubit arrived in the other
    basis.  Elementwise, like the kernels.
    """
    transmitted = transmit(channel.T, link_u)
    measured = np.where(transmitted, measure_qubit(*qubit, z, channel.mu, coin, flip), coin < 0.5)
    return measured != sent_bit


def run_type3_slot(sign, path_hit, channel: ChannelModel, out_u, back_u, readout_u):
    """Path-integrity decoys sent with ``sign``; returns which erred.

    ``path_hit`` is Eve's mode decision for each round trip.  A content
    tap touches only the dummy payload, not the mode.  The uniforms decide
    the two legs' transmissions and the interference readout.
    """
    # Ideal resend hardware: interception leaves survival untouched, but a
    # mode measurement destroys the superposition.
    out_leg = transmit(channel.T, out_u)
    back_leg = transmit(channel.T, back_u)
    intact = out_leg & back_leg & (path_hit ^ True)  # ^ True: not, elementwise
    return interfere_path_packet(sign, intact, channel.gamma, readout_u) != sign


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


SLOT_CHUNK = 1 << 13  # slots per chunk: at most 5 * SLOT_CHUNK uniforms per block


def _refill(generator: np.random.Generator, rest: np.ndarray, size: int) -> np.ndarray:
    """Eve's next uniforms from ``rest`` on, topped up from ``generator`` to ``size``.

    ``Generator.random(n)`` returns the same values as n scalar draws, so a
    block may end past what a chunk reads; the next chunk starts at ``rest``.
    """
    short = size - len(rest)
    if short <= 0:
        return rest
    fresh = generator.random(short)
    return np.concatenate((rest, fresh)) if len(rest) else fresh


def _walk_eve(eve_u, at, z_basis, size, rate):
    """Where each slot of a chunk starts in Eve's block ``eve_u``: ``size + 1`` offsets.

    The last offset is past the chunk.  A payload steps by
    :func:`run_type1_slot`, and a decoy at position ``at`` by the same rule
    with its qubit's basis ``z_basis``: a Type 2 decoy's scheduled one, or
    a Type 3 decoy's dummy basis.
    """
    u = memoryview(eve_u)  # single floats, no block conversion
    starts: list[int] = []
    mark = starts.append
    step = run_type1_slot  # read per chunk, so a wrapped global is seen
    e = slot = 0
    for q, z in zip(at.tolist(), z_basis.tolist()):
        for _ in range(slot, q):
            mark(e)
            e = step(e, u, rate)
        mark(e)
        e += 4 + ((u[e + 2] < 0.5) != z) if u[e + 1] < rate else 2
        slot = q + 1
    for _ in range(slot, size):
        mark(e)
        e = step(e, u, rate)
    mark(e)
    return np.array(starts)


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
) -> tuple[DisturbanceStats, int, int, int]:
    """One pair's decoy counters, payload slots, delivered payloads and payloads Eve traced,
    by chunks of up to ``SLOT_CHUNK`` slots in cycle order.

    Each chunk draws a block per stream, walks Eve's block when there is a
    message attack (:func:`_walk_eve`), and then runs every slot type's
    rules on arrays.  Memory is O(SLOT_CHUNK + decoys) whatever K is, plus
    the ledger rows.
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
    # A slot's cycle follows from the last decoy at or before it, or from a
    # decoy before the first at cycle -2: payloads come every two cycles after it.
    anchor_cycle = np.concatenate(([-2], cycles))
    anchor_ordinal = np.concatenate(([-1], ordinal))

    def cycle_of(slot):
        last = np.searchsorted(ordinal, slot, side="right")
        return anchor_cycle.take(last) + 2 * (slot - anchor_ordinal.take(last))

    channel_rng, measurement_rng, eve_rng = (
        seeding.stream_rng(seed, name, pair_index) for name in ("channel", "measurement", "eve")
    )
    rate = eve.config.eta_msg
    receiver_rng = seeding.stream_rng(seed, "receiver", pair_index) if rate else None
    eve_u = np.empty(0)
    stats = DisturbanceStats()
    type1_slots = type1_delivered = learned_type1 = 0
    for start in range(0, slots, SLOT_CHUNK):
        size = min(SLOT_CHUNK, slots - start)
        lo, hi = np.searchsorted(ordinal, (start, start + size)).tolist()
        at = ordinal[lo:hi] - start  # the chunk's decoys, by position in the chunk
        type2 = decoys.type2[lo:hi]
        chan = channel_rng.random(2 * size)
        meas = measurement_rng.random(3 * size + hi - lo)
        eve_u = _refill(eve_rng, eve_u, (5 if rate else 2) * size)
        m = 3 * at + np.arange(hi - lo)  # a decoy's first measurement uniform

        # The qubit each decoy sends: a Type 2 decoy's bit in its scheduled
        # basis, a Type 3 decoy's dummy riding on its path packet.
        kind2, kind3 = np.flatnonzero(type2), np.flatnonzero(~type2)
        m3 = m[kind3]
        sign, (dummy_bit, dummy_z) = prepare_path_packet(meas[m3], meas[m3 + 1], meas[m3 + 2])
        sent = meas[m[kind2]] < 0.5
        z = decoys.z_basis[lo:hi][kind2]
        qubit = (sent, z)
        flip = coin = meas[m[kind2] + 1]
        if rate:
            # Every slot's qubit, for Eve's content taps: a payload sends its
            # bit in Z, from its first measurement uniform.
            bits = meas[3 * np.arange(size) + np.searchsorted(at, np.arange(size))] < 0.5
            bases = np.ones(size, dtype=bool)
            bases[at[kind2]] = z
            bits[at[kind3]], bases[at[kind3]] = dummy_bit, dummy_z
            starts = _walk_eve(eve_u, at, bases[at], size, rate)
            tapped = np.flatnonzero(np.diff(starts) > 2)
            first = starts[tapped] + 2  # her basis uniform; the flip is the tap's last
            bits[tapped], bases[tapped] = intercept_message(
                bits[tapped], bases[tapped], eve_u[first], eve_u[first + 1],
                eve_u[starts[tapped + 1] - 1],
            )
            eve.ledger.learned_bits.append(cycle_of(start + tapped), bits[tapped], bases[tapped])
            qubit = (bits[at[kind2]], bases[at[kind2]])
            # A decoy Eve resent in the other basis reads the receiver's own flip draw.
            flip = np.where(qubit[1] != z, receiver_rng.random(len(kind2)), coin)
        else:
            starts = np.arange(0, 2 * size + 1, 2)

        # Eve decides on every round trip before its slot type shows.
        path_hit = decide_intercept(eve.config.eta_path, eve_u[starts[:-1]])
        if path_hit.any():
            hit_cycles = cycle_of(start + np.flatnonzero(path_hit))
            intercept_path(eve.ledger, hit_cycles, sender, receiver)
        payload = np.ones(size, dtype=bool)
        payload[at] = False
        type1_slots += size - (hi - lo)
        # A payload is delivered when its forward leg survives.
        type1_delivered += int(np.count_nonzero(transmit(channel.T, chan[::2][payload])))
        learned_type1 += int(np.count_nonzero(path_hit[payload]))

        errors = run_type2_slot(sent, z, qubit, channel, chan[2 * at[kind2]], coin, flip)
        stats.type2_trials += len(kind2)
        stats.type2_errors += int(np.count_nonzero(errors))
        at3 = at[kind3]
        errors = run_type3_slot(
            sign, path_hit[at3], channel, chan[2 * at3], chan[2 * at3 + 1], meas[m3 + 3]
        )
        stats.type3_trials += len(kind3)
        stats.type3_errors += int(np.count_nonzero(errors))
        eve_u = eve_u[starts[-1]:]
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

    pair_results: list[PairResult] = []
    for pair_index, (sender, receiver) in enumerate(node_pairs):
        stats, slots, delivered, learned = _run_pair_by_chunk(
            K, sender, receiver, schedule.for_pair(sender, receiver),
            channel, eve, seed, pair_index, traffic,
        )
        # An estimate over its threshold flags Eve; None (no trials) reads 0, over no threshold.
        detected = (stats.d2_hat or 0.0) > threshold2 or (stats.d3_hat or 0.0) > threshold3
        pair_results.append(
            PairResult(sender, receiver, stats, slots, delivered, learned, detected)
        )

    pooled = DisturbanceStats(*map(sum, zip(*(astuple(p.stats) for p in pair_results))))
    inferred: float | None = None
    leak_bound: float | None = None
    if pooled.d3_hat is not None:
        d3_pooled = min(0.5, pooled.d3_hat)
        inferred = inferred_eta(d3_pooled)
        e_meas = pooled.d2_hat
        if e_meas is None:
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

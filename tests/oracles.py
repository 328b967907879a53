"""Independent oracles the tests freeze expected values against.

Everything here is computed from first principles (amplitude tables,
exhaustive enumeration, density matrices, grid scans) without touching the
code paths under test.  Four exceptions check only what is built around
the library's kernels.  ``overlap_weights_over_every_overlap`` sums the
library's overlap-weight recurrence over every overlap rather than a
window, so it checks only the window.  ``overlap_counts_by_search`` bins
the library's own overlap weights by a plain search, so it checks only the
binning.  ``scalar_tradeoff_scatter`` draws its own
unitaries and probes one sample at a time, and then calls the library's
per-sample kernels, so it checks only the batching around them.
``run_pair_by_slot`` runs a pair one slot at a time, reading every uniform
in turn and scoring it with the library's kernels and slot runners on
floats, so it checks the chunk engine's offsets, walk and chunking.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from decoyroute import overhead, seeding
from decoyroute.adversary import decide_intercept, intercept_message, intercept_path
from decoyroute.channel import transmit
from decoyroute.protocol import DisturbanceStats, run_type2_slot, run_type3_slot
from decoyroute.quantum import prepare_path_packet

SQRT_HALF = 1.0 / math.sqrt(2.0)

# Amplitudes of the four preparations in the computational basis.
AMPLITUDES = {
    ("Z", 0): np.array([1.0, 0.0]),
    ("Z", 1): np.array([0.0, 1.0]),
    ("X", 0): np.array([SQRT_HALF, SQRT_HALF]),
    ("X", 1): np.array([SQRT_HALF, -SQRT_HALF]),
}


def outcome_probability(prep: tuple[str, int], meas_basis: str, outcome: int) -> float:
    """Born rule from the 2x2 overlap table."""
    state = AMPLITUDES[prep]
    eigenstate = AMPLITUDES[(meas_basis, outcome)]
    return float(abs(np.dot(eigenstate, state)) ** 2)


def measurement_error_probability(
    prep: tuple[str, int], meas_basis: str, flip_prob: float
) -> float:
    """Probability the measured bit differs from the prepared bit, flip included."""
    _, bit = prep
    p_wrong = outcome_probability(prep, meas_basis, bit ^ 1)
    return p_wrong * (1.0 - flip_prob) + (1.0 - p_wrong) * flip_prob


def intercept_resend_error_rate() -> float:
    """Receiver error rate under a full intercept-resend of every message decoy.

    Exhaustive enumeration: four preparations, Eve's two equiprobable bases,
    her Born-rule outcome, then the receiver's same-basis measurement of the
    resent eigenstate (no loss, no flip noise).
    """
    total = 0.0
    cases = 0
    for prep_basis, bit in AMPLITUDES:
        cases += 1
        for eve_basis in ("Z", "X"):
            for eve_outcome in (0, 1):
                p_eve = outcome_probability((prep_basis, bit), eve_basis, eve_outcome)
                if p_eve == 0.0:
                    continue
                p_error = outcome_probability((eve_basis, eve_outcome), prep_basis, bit ^ 1)
                total += 0.5 * p_eve * p_error
    return total / cases


def dephased_port_flip_probability() -> float:
    """Wrong-port probability for a which-path-measured packet.

    The path qubit (home mode vs channel mode) starts in (|a> + |b>)/sqrt(2);
    the which-path measurement leaves the equal classical mixture, and the
    interferometer ports project onto (|a> +/- |b>)/sqrt(2).
    """
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    rho = 0.5 * (np.outer(a, a) + np.outer(b, b))
    wrong_port = (a - b) * SQRT_HALF
    return float(wrong_port @ rho @ wrong_port)


def brute_force_escape(K: int, H3: int, m: int) -> float:
    """Exact escape probability by enumerating every intercepted subset.

    By symmetry the decoy set can be fixed to the first H3 slots; the
    average over uniform m-subsets is exact rational arithmetic.
    """
    decoys = set(range(H3))
    total = Fraction(0)
    count = 0
    for subset in itertools.combinations(range(K), m):
        hits = len(decoys.intersection(subset))
        total += Fraction(1, 2**hits)
        count += 1
    return float(total / count)


def exact_escape_fraction(K: int, H3: int, m: int) -> Fraction:
    """Exact escape probability as a rational, for any K.

    The overlap law is symmetric in H3 and m, so take a = min(H3, m) draws
    from K slots of which b = max(H3, m) are marked.  The first overlap
    j_lo = max(0, a + b - K) has probability
    P(j_lo) = prod_{i < a} (K - b - i)/(K - i) when j_lo = 0, and
    P(j_lo) = prod_{i < K - b} (a - i)/(K - i) otherwise: at most a
    factors either way.  Each later term follows from the ratio
    P(j + 1)/P(j) = (a - j)(b - j) / ((j + 1)(K - a - b + j + 1)).
    """
    a, b = sorted((H3, m))
    j_lo = max(0, a + b - K)
    if j_lo == 0:
        term = math.prod((Fraction(K - b - i, K - i) for i in range(a)), start=Fraction(1))
    else:
        term = math.prod((Fraction(a - i, K - i) for i in range(K - b)), start=Fraction(1))
    total = Fraction(0)
    for j in range(j_lo, a + 1):
        total += term / 2**j
        term *= Fraction((a - j) * (b - j), (j + 1) * (K - a - b + j + 1))
    return total


def bernoulli_escape(H3: int, eta: float) -> float:
    """Escape probability when Eve taps each round trip independently with probability eta.

    The simulator's attacker: each of the H3 path decoys is tapped with
    probability eta and a tapped decoy then errs with probability 1/2, so
    a decoy errs with probability eta/2, independently of the others, and
    the attack escapes with probability (1 - eta/2)^H3.  ``overhead``
    models a different attacker, who taps a fixed subset of m slots.
    """
    return (1.0 - eta / 2.0) ** H3


def bernstein_halfwidth(n: int, p: float, alpha: float) -> float:
    """Smallest t with P(|p_hat - p| >= t) <= alpha for the mean of n Bernoulli(p) draws.

    The Bernstein inequality, which needs no normal approximation:
    solves n t^2 = L (2 p (1 - p) + 2 t / 3) with L = ln(2 / alpha).
    """
    L = math.log(2.0 / alpha)
    b = 2.0 * L / 3.0
    return (b + math.sqrt(b * b + 8.0 * n * L * p * (1.0 - p))) / (2.0 * n)


def subset_escape_montecarlo(
    K: int, H3: int, m: int, trials: int, seed: int
) -> tuple[float, float]:
    """Escape probability (mean, standard error) by drawing whole slot subsets.

    One decoy subset is fixed, as a schedule would fix it; each trial takes
    the m slots with the smallest of K uniform scores as the intercepted
    subset and scores (1/2)^overlap.  Costs trials * K draws.
    """
    if H3 == 0 or m == 0:
        return 1.0, 0.0
    rng = np.random.default_rng(seed)
    is_decoy = np.zeros(K, dtype=bool)
    is_decoy[rng.choice(K, size=H3, replace=False)] = True
    values = np.empty(trials)
    chunk = max(1, min(trials, 1_000_000 // K))
    for done in range(0, trials, chunk):
        n = min(chunk, trials - done)
        if m < K:
            picks = np.argpartition(rng.random((n, K)), m, axis=1)[:, :m]
            overlap = is_decoy[picks].sum(axis=1)
        else:
            overlap = np.full(n, H3)
        values[done : done + n] = 0.5**overlap
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(values.mean()), stderr


def overlap_weights_over_every_overlap(K: int, H3: int, m: int) -> tuple[int, np.ndarray]:
    """``overhead._overlap_weights`` with the ratios summed over every overlap, not a window.

    The mode has weight 1; the others follow outward from it by cumulative
    sums of log(p(j + 1) / p(j)) over all of j_lo..n, in the same order as
    the library's, and the weights that underflow to 0 are dropped.
    """
    n, big = min(H3, m), max(H3, m)
    j_lo = max(0, n - (K - big))
    split = (n + 1) * (big + 1) // (K + 2) - j_lo
    j = np.arange(j_lo, n, dtype=float)
    log_ratio = np.log((n - j) * (big - j) / ((j + 1) * (K - big - n + 1 + j)))
    log_w = np.zeros(n - j_lo + 1)
    np.cumsum(log_ratio[split:], out=log_w[split + 1 :])
    log_w[:split] = -np.cumsum(log_ratio[:split][::-1])[::-1]
    weights = np.exp(log_w)
    kept = np.flatnonzero(weights)
    return j_lo + int(kept[0]), weights[kept[0] : kept[-1] + 1]


def overlap_counts_by_search(K: int, H3: int, m: int, trials: int, seed: int) -> np.ndarray:
    """How many of ``trials`` overlap draws fell on each j = 0..min(H3, m), by search alone.

    Reads the same uniforms as ``overhead._overlap_counts``: one
    ``Generator.random`` draw per trial, in chunks of ``overhead._CHUNK``.
    Each, scaled by the total weight, lands in the bin whose cumulative
    weight first exceeds it; searching the inner edges only keeps a
    uniform that rounds up to the total in the last bin.
    """
    start, weights = overhead._overlap_weights(K, H3, m)
    cdf = np.cumsum(weights)
    rng = np.random.default_rng(seed)
    counts = np.zeros(min(H3, m) + 1, dtype=np.int64)
    support = counts[start : start + len(cdf)]
    for done in range(0, trials, overhead._CHUNK):
        u = rng.random(min(overhead._CHUNK, trials - done))
        u *= cdf[-1]
        support += np.bincount(np.searchsorted(cdf[:-1], u, side="right"), minlength=len(cdf))
    return counts


def scalar_tradeoff_scatter(samples: int, d: int, seed: int) -> list[tuple[float, float]]:
    """The trade-off scatter drawn one sample at a time.

    Per sample: four unitaries, each the QR of (real + i imag)/sqrt(2) with
    R's diagonal phases moved into Q, then a normalised complex Gaussian
    probe; scored by the library's per-sample round-trip kernel.
    """
    from decoyroute.constraints import round_trip_figures

    def unitary(rng: np.random.Generator) -> np.ndarray:
        z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        return q * (diag / np.abs(diag))

    rng = np.random.default_rng(seed)
    points = []
    for _ in range(samples):
        trip = (unitary(rng), unitary(rng), unitary(rng), unitary(rng))
        state = rng.normal(size=d) + 1j * rng.normal(size=d)
        points.append(round_trip_figures(trip, state / np.linalg.norm(state)))
    return points


def message_figures_by_density_matrix(U: np.ndarray, probe: np.ndarray) -> tuple[float, float]:
    """A message attack's (disturbance, leakage) from the joint density matrix.

    For each preparation, U acts on |qubit> (x) |probe>; the error is the
    weight on the orthogonal same-basis state, and the probe's state is the
    partial trace over the qubit.  The leakage is the larger trace distance
    of a same-basis pair, from the eigenvalues of the difference.
    """
    d = len(probe)
    errors, probes = [], []
    for basis, bit in (("Z", 0), ("Z", 1), ("X", 0), ("X", 1)):
        joint = U @ np.kron(AMPLITUDES[(basis, bit)], probe)
        rho = np.outer(joint, joint.conj()).reshape(2, d, 2, d)
        wrong = AMPLITUDES[(basis, 1 - bit)]
        errors.append(float(np.einsum("a,aibi,b->", wrong, rho, wrong).real))
        probes.append(np.einsum("aiaj->ij", rho))
    leakage = max(
        float(np.abs(np.linalg.eigvalsh(probes[i] - probes[i + 1])).sum() / 2) for i in (0, 2)
    )
    return sum(errors) / 4, leakage


def leak_threshold_by_scan(gamma: float, mu: float, step: float = 1e-4) -> float:
    """First loss (dB) where the uncapped leak reaches one, by dense grid scan."""
    loss = 0.0
    while True:
        T = 10.0 ** (-loss / 10.0)
        D = gamma * T * T + (1.0 - T * T) / 2.0
        e = mu * T + (1.0 - T) / 2.0
        if e in (0.0, 1.0):
            h = 0.0
        else:
            h = -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)
        if 2.0 * D * (1.0 + h) >= 1.0:
            return loss
        loss += step
        if loss > 100.0:
            raise RuntimeError("threshold scan ran away")


def scalar_schedule(
    K: int,
    node_pairs: list[tuple[int, int]],
    h2_per_pair: int,
    h3_per_pair: int,
    shared_seed: int,
) -> list[tuple[int, int, int, str, str | None]]:
    """The decoy schedule drawn one assignment at a time.

    Same per-pair stream and draw order as the library (spaced cycles, a
    permutation, then one scalar basis draw per Type 2 decoy), with every
    pair's ``(cycle, sender, receiver, slot type, basis)`` rows merged by
    one global sort on ``(cycle, sender, receiver)``.
    """
    total = h2_per_pair + h3_per_pair
    rows = []
    for pair_index, (sender, receiver) in enumerate(node_pairs):
        rng = np.random.default_rng(np.random.SeedSequence((shared_seed, pair_index)))
        cycles = []
        if total:
            base = np.sort(rng.choice(K - total + 1, size=total, replace=False))
            cycles = rng.permutation(base + np.arange(total))
        for cycle in cycles[:h2_per_pair]:
            basis = "Z" if rng.random() < 0.5 else "X"
            rows.append((int(cycle), sender, receiver, "type2", basis))
        for cycle in cycles[h2_per_pair:]:
            rows.append((int(cycle), sender, receiver, "type3", None))
    rows.sort(key=lambda row: row[:3])
    return rows


def greedy_payload_cycles(K: int, decoy_cycles) -> list[int]:
    """Forward cycles of one pair's payloads under greedy full traffic.

    Walks the clock one cycle at a time: a decoy holds its cycle and the
    next (its return); a cycle right before a decoy stays idle, since a
    payload's return may not land on it; any other cycle starts a payload
    round trip, whose return may fall on cycle K.
    """
    decoys = set(decoy_cycles)
    payloads = []
    cycle = 0
    while cycle < K:
        if cycle in decoys:
            cycle += 2
        elif cycle + 1 in decoys:
            cycle += 1
        else:
            payloads.append(cycle)
            cycle += 2
    return payloads


def binomial_tolerance(p: float, n: int, n_sigma: float = 4.0) -> float:
    """n_sigma binomial standard errors around probability p."""
    return n_sigma * math.sqrt(p * (1.0 - p) / n)


def ledger_rows(ledger) -> tuple[list, list]:
    """Eve's two ledger tables as lists of int tuples, to compare two runs' ledgers."""
    return list(ledger.learned_endpoints), list(ledger.learned_bits)


def same_decoys(mine, theirs) -> bool:
    """Whether two ``PairSchedule``s hold equal arrays of equal dtypes, field by field."""
    return all(
        a.dtype == b.dtype and np.array_equal(a, b)
        for a, b in zip(vars(mine).values(), vars(theirs).values())
    )


def same_schedule(mine, theirs) -> bool:
    """Whether two ``Schedule``s have the same K, seed and pairs in order, and same decoys."""
    sizes = [(s.K, s.shared_seed, list(s.assignments)) for s in (mine, theirs)]
    return sizes[0] == sizes[1] and all(
        same_decoys(decoys, theirs.assignments[pair]) for pair, decoys in mine.assignments.items()
    )


DRAW_BLOCK = 1024  # doubles per refill


class BlockDraws:
    """Serves ``generator.random()`` values in order, from blocks of ``DRAW_BLOCK``."""

    __slots__ = ("random",)

    def __init__(self, generator: np.random.Generator) -> None:
        blocks = iter(lambda: generator.random(DRAW_BLOCK).tolist(), None)
        self.random = itertools.chain.from_iterable(blocks).__next__


@dataclass
class Streams:
    """A pair's draw sources, one per pair stream; each field needs only ``random()``.

    A field is a raw ``np.random.Generator`` or the :class:`BlockDraws`
    that :meth:`from_seed` wraps around one: both give the same values in
    the same order, since PCG64 yields one double per 64-bit output.
    """

    channel: BlockDraws | np.random.Generator
    measurement: BlockDraws | np.random.Generator
    eve: BlockDraws | np.random.Generator
    receiver: BlockDraws | np.random.Generator

    @classmethod
    def from_seed(cls, root_seed: int, pair_index: int = 0) -> "Streams":
        return cls(**{
            field.name: BlockDraws(seeding.stream_rng(root_seed, field.name, pair_index))
            for field in fields(cls)
        })


def intercept_by_draws(bit, z, draw):
    """``intercept_message`` on Eve's next uniforms: her basis, a coin, and a flip if the bases
    differ."""
    basis_u, coin = draw(), draw()
    flip = draw() if (basis_u < 0.5) != z else coin
    return intercept_message(bit, z, basis_u, coin, flip)


def tap_reference(cycle, qubit, eve, draws):
    """Eve's content decision for one round trip and her tap; returns the qubit that travels on."""
    if decide_intercept(eve.config.eta_msg, draws.random()):
        qubit = intercept_by_draws(*qubit, draws.random)
        eve.ledger.learned_bits.append(cycle, *qubit)
    return qubit


def type1_slot_reference(cycle, sender, receiver, payload_bit, channel, eve, streams):
    """One payload round trip: Eve's decisions and tap, the payload's transmission, the return.

    Returns whether the payload was delivered and whether Eve learned its
    endpoints.  The dummy return draws its basis and bit from the
    measurement stream and its transmission from the channel stream.
    """
    path_hit = decide_intercept(eve.config.eta_path, streams.eve.random())
    tap_reference(cycle, (payload_bit, True), eve, streams.eve)
    if path_hit:
        intercept_path(eve.ledger, cycle, sender, receiver)
    delivered = transmit(channel.T, streams.channel.random())
    streams.measurement.random()
    streams.measurement.random()
    transmit(channel.T, streams.channel.random())
    return delivered, path_hit


def type2_slot_reference(cycle, z, channel, eve, streams):
    """One message-integrity decoy after Eve's mode decision; returns whether it erred.

    The decoy reads one receiver uniform, the flip of a photon Eve resent in
    the other basis that arrives.
    """
    measurement = streams.measurement.random
    sent_bit = measurement() < 0.5
    qubit = tap_reference(cycle, (sent_bit, z), eve, streams.eve)
    link_u = streams.channel.random()
    coin = measurement()
    resent_flip = streams.receiver.random()
    flip = resent_flip if transmit(channel.T, link_u) and qubit[1] != z else coin
    error = bool(run_type2_slot(sent_bit, z, qubit, channel, link_u, coin, flip))
    # The dummy return: its basis and bit, then its transmission.
    measurement()
    measurement()
    transmit(channel.T, streams.channel.random())
    return error


def type3_slot_reference(cycle, path_hit, channel, eve, streams):
    """One path-integrity decoy after Eve's mode decision ``path_hit``; returns if it erred."""
    measurement = streams.measurement.random
    sign, dummy = prepare_path_packet(measurement(), measurement(), measurement())
    tap_reference(cycle, dummy, eve, streams.eve)
    out_u, back_u = streams.channel.random(), streams.channel.random()
    return bool(run_type3_slot(sign, path_hit, channel, out_u, back_u, measurement()))


def run_pair_by_slot(K, sender, receiver, decoys, channel, eve, seed, pair_index, traffic,
                     streams=None):
    """``protocol._run_pair_by_chunk``'s tally, one slot at a time in cycle order.

    Reads ``Streams.from_seed(seed, pair_index)`` unless ``streams`` is given.
    """
    streams = streams or Streams.from_seed(seed, pair_index)
    stats = DisturbanceStats()
    type1_slots = type1_delivered = learned_type1 = 0
    free = 0

    def run_payloads(stop):
        # Greedy payload round trips from the first free cycle, one every
        # two cycles, each forward cycle before ``stop``.
        nonlocal type1_slots, type1_delivered, learned_type1
        for cycle in range(free, stop, 2):
            payload_bit = int(streams.measurement.random() < 0.5)
            delivered, learned = type1_slot_reference(
                cycle, sender, receiver, payload_bit, channel, eve, streams
            )
            type1_slots += 1
            type1_delivered += delivered
            learned_type1 += learned

    for cycle, is_type2, z_basis in zip(
        decoys.cycle.tolist(), decoys.type2.tolist(), decoys.z_basis.tolist()
    ):
        if traffic == "full":
            # A payload's return may not land on the decoy's cycle.
            run_payloads(cycle - 1)
        # Eve decides on a round trip before its slot type shows.
        path_hit = decide_intercept(eve.config.eta_path, streams.eve.random())
        if path_hit:
            intercept_path(eve.ledger, cycle, sender, receiver)
        if is_type2:
            stats.type2_trials += 1
            stats.type2_errors += type2_slot_reference(cycle, z_basis, channel, eve, streams)
        else:
            stats.type3_trials += 1
            stats.type3_errors += type3_slot_reference(cycle, path_hit, channel, eve, streams)
        free = cycle + 2
    if traffic == "full":
        # The last payload's return may fall on cycle K.
        run_payloads(K)
    return stats, type1_slots, type1_delivered, learned_type1

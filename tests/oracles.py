"""Independent oracles the tests freeze expected values against.

Everything here is computed from first principles (amplitude tables,
exhaustive enumeration, density matrices, grid scans) without touching the
code paths under test.  The one exception is ``scalar_tradeoff_scatter``:
it draws its own unitaries and probes one sample at a time, and then calls
the library's per-sample kernels, so it checks only the batching around
them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

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

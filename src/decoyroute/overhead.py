"""Scheduling overhead accounting and decoy-escape probabilities.

The pre-shared schedule costs bits: each decoy slot index takes
ceil(log2 K) bits, each message decoy one extra basis bit, each decoy one
qubit in flight and one reconciliation bit afterwards.  Summing the four
components makes the total overhead affine in log2 K with slope H2 + H3.

An interceptor who measures the propagation mode of m out of K slots trips
each path decoy she happens to hit with probability 1/2, so her escape
probability is a hypergeometric average of (1/2)^hits.  This module
computes that quantity exactly (in log space, as falling factorials of
length min(H3, m), so in time and memory that do not grow with K; the
length stops at 1e6), via the closed-form upper bound
((K - H3)/K + H3 / (2(1 - eta)K))^(eta K), and by Monte Carlo, which
draws each trial's overlap by inversion of one ``Generator.random``
uniform through a cell table; and it sizes the decoy counts needed to
push the escape probability below a target.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_at_least, check_cycles, check_in

_LOG_HALF = math.log(0.5)
_CHUNK = 1 << 16  # Monte-Carlo trials, or log-factorial entries, per step
MAX_OVERLAP = 10**6  # largest min(H3, m): the exact sum needs about 64 B per unit of it

_log_fact_table = np.zeros(1)
_log_fact_lock = threading.Lock()


def _log_factorials(n: int) -> np.ndarray:
    """Cached table of log(k!) for k = 0..n, grown chunk by chunk with no n-sized temporary.

    Entry k is the float sum log 1 + ... + log k in order, whatever was built before.
    One caller at a time reads or grows it, so the shared table only ever gets longer."""
    global _log_fact_table
    with _log_fact_lock:
        table = _log_fact_table
        old = len(table)
        if old <= n:
            grown = np.empty(n + 1)
            grown[:old] = table
            for start in range(old, n + 1, _CHUNK):
                chunk = grown[start : start + _CHUNK]
                chunk[:] = np.arange(start, start + len(chunk))
                np.log(chunk, out=chunk)
                chunk[0] += grown[start - 1]
                np.cumsum(chunk, out=chunk)
            _log_fact_table = table = grown
    return table


def h1_bits(H2: int, H3: int, K: int) -> int:
    """Pre-shared scheduling bits: H2 * (ceil(log2 K) + 1) + H3 * ceil(log2 K)."""
    _check_sizes(H2, H3, K)
    width = (K - 1).bit_length()
    return H2 * (width + 1) + H3 * width


def h4_bits(H2: int, H3: int) -> int:
    """Post-run reconciliation bits: one measurement outcome per decoy slot."""
    _check_sizes(H2, H3)
    return H2 + H3


def total_overhead(H2: int, H3: int, K: int) -> int:
    """All four overhead components: scheduling + decoy qubits + reconciliation."""
    return h1_bits(H2, H3, K) + H2 + H3 + h4_bits(H2, H3)


def exact_escape_prob(K: int, H3: int, m_intercepted: int) -> float:
    """Exact probability that m intercepted slots trip no path decoy.

    The overlap between the interceptor's m-subset and the H3 decoy slots
    is hypergeometric; each overlapping decoy independently escapes with
    probability 1/2.  The law is symmetric in H3 and m, so with
    n = min(H3, m) and big = max(H3, m), and x^(i) the falling factorial,

        P(j) = C(n, j) * big^(j) * (K - big)^(n-j) / K^(n) * 2^-j.

    Writing K^(n) = K^(j) * (K - j)^(n-j) pairs each factor of the two
    numerators with one of the denominator, so each log term is the log of
    a ratio in (0, 1] and no two sums of size n log K cancel.  Work and
    memory are O(n) whatever K is; the relative error against the exact
    rational is below 1e-13 up to K = 1e12 at n = 93.
    """
    check_escape(K, H3, m_intercepted)
    if H3 == 0 or m_intercepted == 0:
        return 1.0
    n, big = min(H3, m_intercepted), max(H3, m_intercepted)
    j_lo = max(0, n - (K - big))
    t = np.arange(n, dtype=float)
    # hits[j] = log(big^(j) / K^(j)); misses[i] = log((K - big)^(i) / (K - n + i)^(i)).
    hits = np.zeros(n + 1)
    np.cumsum(np.log1p(-(K - big) / (K - t)), out=hits[1:])
    t = t[: n - j_lo]
    misses = np.zeros(n - j_lo + 1)
    np.cumsum(np.log((K - big - t) / (K - n + 1 + t)), out=misses[1:])
    lf = _log_factorials(n)
    j = np.arange(j_lo, n + 1)
    log_terms = lf[n] - lf[j] - lf[n - j] + hits[j] + misses[n - j] + j * _LOG_HALF
    shift = log_terms.max()
    return float(np.exp(shift) * np.exp(log_terms - shift).sum())


def bound_escape_prob(K: int, H3: int, eta: float) -> float:
    """Closed-form upper bound on the escape probability at interception rate eta.

    May exceed 1 for eta >= 1/2 (the bound goes vacuous there) and is
    reported as-is, as ``math.inf`` once it overflows a float.
    """
    _check_rate("eta", eta)
    check_escape(K, H3, 0)
    base = (K - H3) / K + H3 / (2.0 * (1.0 - eta) * K)
    try:
        return base ** (eta * K)
    except OverflowError:
        return math.inf


def alpha_for(epsilon: float, eta_max: float) -> int:
    """Path-decoy count pushing the relaxed escape limit exp(-eta H3 / 2) below epsilon.

    The relaxed limit lies below the S8 limit, so this count is
    conservative against the true escape probability, not against S8: at
    epsilon = 0.01 and eta = 0.1 it gives 93 decoys, where the S8 limit
    needs 104.
    """
    return math.ceil(_check_sizing(epsilon, eta_max, 2.0))


def beta_for(epsilon: float, eta_max: float, *, bb84_detection: bool = False) -> int:
    """Message-decoy count, sized like the path decoys by default.

    With ``bb84_detection=True`` the per-hit detection probability 1/4 of
    an intercept-resend on a message decoy replaces the path decoys' 1/2,
    doubling the required count.
    """
    return math.ceil(_check_sizing(epsilon, eta_max, 4.0 if bb84_detection else 2.0))


@dataclass(frozen=True)
class OverheadReport:
    """Decoy sizing for (epsilon, eta_max) and the resulting overhead at K.

    The affine form H = g1 * log2(K) + g0 admits two constant terms:
    ``g0_component_sum`` follows from summing the four accounted
    components with H2 = beta, H3 = alpha (giving 2*alpha + 3*beta), while
    ``g0_affine`` is the tighter constant alpha + 2*beta of the target
    affine form.  Both are reported; the slope g1 is the same either way.
    """

    K: int
    epsilon: float
    eta_max: float
    alpha: int
    beta: int
    g1: int
    g0_component_sum: int
    g0_affine: int
    h_total: int


def required_overhead(K: int, epsilon: float, eta_max: float) -> OverheadReport:
    """Size the decoy counts and report the total overhead and its decomposition."""
    check_overhead(K, epsilon, eta_max)
    alpha = alpha_for(epsilon, eta_max)
    beta = beta_for(epsilon, eta_max)
    return OverheadReport(
        K=K,
        epsilon=epsilon,
        eta_max=eta_max,
        alpha=alpha,
        beta=beta,
        g1=alpha + beta,
        g0_component_sum=2 * alpha + 3 * beta,
        g0_affine=alpha + 2 * beta,
        h_total=total_overhead(H2=beta, H3=alpha, K=K),
    )


def montecarlo_escape(
    K: int, H3: int, m_intercepted: int, trials: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate (mean, standard error) of the escape probability.

    The overlap of a uniform m-subset of the K slots with the H3 decoys is
    Hypergeometric(H3, K - H3, m) whichever subset the decoys hold, so each
    trial draws that overlap by inversion, from one ``Generator.random``
    uniform and the law's weights (:func:`_overlap_weights`), and scores
    (1/2)^overlap.  The weights come from a ratio recurrence, not from the
    exact sum's terms, so the estimate stays an independent check of
    :func:`exact_escape_prob`.  Trials run in fixed chunks: time is
    O(trials + n) and memory O(chunk + sqrt(n log n)), n = min(H3, m), for every K.
    """
    check_escape(K, H3, m_intercepted, trials)
    if H3 == 0 or m_intercepted == 0:
        return 1.0, 0.0

    start, counts = _overlap_counts(K, H3, m_intercepted, trials, seed)
    scores = 0.5 ** np.arange(start, start + len(counts))
    estimate = float(counts @ scores / trials)
    variance = float(counts @ (scores - estimate) ** 2) / max(1, trials - 1)  # 0 at one trial
    return estimate, math.sqrt(variance / trials)


def _overlap_weights(K: int, H3: int, m_intercepted: int) -> tuple[int, np.ndarray]:
    """Unnormalised Hypergeometric(H3, K - H3, m) weights, as (first overlap, weights).

    With n = min(H3, m) and big = max(H3, m), the mode has weight 1 and the
    others follow outward from it by the ratio
    p(j + 1) / p(j) = (n - j)(big - j) / ((j + 1)(K - big - n + j + 1)),
    summed as logs.  Weights that underflow to 0 are dropped; the law is
    log-concave, so the rest are the overlaps from the first one on.  Past
    ``reach`` from the mode a weight is below (n + 1) exp(-2 t^2 / n) < exp(-760)
    at t from the mean (Hoeffding 1963), so those are never summed.
    """
    n, big = min(H3, m_intercepted), max(H3, m_intercepted)
    mode = (n + 1) * (big + 1) // (K + 2)
    reach = 2 + math.ceil(math.sqrt(n / 2 * (760 + math.log(n + 1))))
    j_lo = max(0, n - (K - big), mode - reach)
    j = np.arange(j_lo, min(n, mode + reach), dtype=float)
    log_ratio = np.log((n - j) * (big - j) / ((j + 1) * (K - big - n + 1 + j)))
    log_w = np.zeros(len(j) + 1)
    split = mode - j_lo
    np.cumsum(log_ratio[split:], out=log_w[split + 1 :])
    log_w[:split] = -np.cumsum(log_ratio[:split][::-1])[::-1]
    weights = np.exp(log_w, out=log_w)
    kept = np.flatnonzero(weights)
    return j_lo + int(kept[0]), weights[kept[0] : kept[-1] + 1]


def _overlap_counts(K: int, H3: int, m: int, trials: int, seed: int) -> tuple[int, np.ndarray]:
    """How many of ``trials`` overlap draws fell on each overlap, as (first overlap, counts).

    Each uniform u, scaled by the total weight, lands in the bin whose
    cumulative weight first exceeds it, or the last bin if it rounds up to
    the total.  A cell table (Chen & Asau 1974) skips most searches: u and
    each edge x fall in cell floor(x * scale), a monotone map, so a cell that
    holds no edge lies in one bin, the count of edges in earlier cells.  Only
    the uniforms in cells that hold an edge are searched: the counts are exact.
    """
    start, weights = _overlap_weights(K, H3, m)
    cdf = np.cumsum(weights)
    cells = min(_CHUNK, 64 * len(cdf))  # u * scale may round up to cells itself
    scale = cells / cdf[-1]
    edge_cells = (cdf[:-1] * scale).astype(np.intp)
    mixed = np.bincount(edge_cells, minlength=cells + 1) > 0
    counts, per_cell = np.zeros(len(cdf), np.int64), np.zeros(cells + 1, np.int64)
    rng = np.random.default_rng(seed)
    for done in range(0, trials, _CHUNK):
        u = rng.random(min(_CHUNK, trials - done))
        u *= cdf[-1]
        cell = np.multiply(u, scale, out=np.empty(len(u), np.intp), casting="unsafe")  # floor
        per_cell += np.bincount(cell, minlength=cells + 1)
        counts += np.bincount(cdf[:-1].searchsorted(u[mixed[cell]], "right"), minlength=len(cdf))
    np.add.at(counts, np.searchsorted(edge_cells, np.flatnonzero(~mixed)), per_cell[~mixed])
    return start, counts


def check_escape(K: int, H3: int, m_intercepted: int, trials: int | None = None) -> None:
    """The escape functions' rules: ``1 <= K < 2**63``, ``H3`` and ``m_intercepted`` in [0, K],
    the smaller at most ``MAX_OVERLAP``; with ``trials``, :func:`montecarlo_escape`'s: a trial
    at least."""
    check_cycles(K, 1)
    check_in("H3", H3, 0, K)
    check_in("m_intercepted", m_intercepted, 0, K)
    n = min(H3, m_intercepted)
    if n > MAX_OVERLAP:
        name = "H3" if H3 == n else "m_intercepted"
        raise InputError(name, f"must be at most {MAX_OVERLAP} as the smaller of H3 and m, got {n}")
    if trials is not None:
        check_at_least("trials", trials, 1)


def check_overhead(K: int, epsilon: float, eta_max: float) -> None:
    """The rules of :func:`required_overhead`: ``2 <= K < 2**63`` and a finite decoy count."""
    _check_sizes(K=K)
    _check_sizing(epsilon, eta_max, 2.0)


def _check_sizes(H2: int = 0, H3: int = 0, K: int = 2) -> None:
    check_at_least("H2", H2, 0)
    check_at_least("H3", H3, 0)
    check_cycles(K, 2)  # a scheduled cycle costs ceil(log2 K) bits


def _check_rate(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise InputError(name, f"must be strictly inside (0, 1), got {value}")


def _check_sizing(epsilon: float, eta_max: float, factor: float) -> float:
    """The unrounded decoy count (factor / eta_max) ln(1 / epsilon), once its inputs pass.

    An ``epsilon`` or ``eta_max`` so small that the count is not a finite
    float is rejected by name, before it can overflow the rounding.
    """
    _check_rate("epsilon", epsilon)
    _check_rate("eta_max", eta_max)
    log_term = math.log(1.0 / epsilon)
    if not math.isfinite(log_term):
        raise InputError("epsilon", f"is too small: the decoy count overflows, got {epsilon}")
    count = (factor / eta_max) * log_term
    if not math.isfinite(count):
        raise InputError("eta_max", f"is too small: the decoy count overflows, got {eta_max}")
    return count

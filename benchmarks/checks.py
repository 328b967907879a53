"""Output checks for the benchmark workloads, written as closed forms.

Nothing here imports the package under test.  A check raises ``ValueError``,
``IndexError`` or ``KeyError`` on output it cannot parse.

A statistical check fails a correct op with probability at most
``FALSE_FAILURE``, split evenly over the estimates in one output
(Bonferroni), whatever random draws the program makes.  Binomial estimates
use the Bernstein inequality, which needs no normal approximation; the
Monte-Carlo escape estimate, a mean of 1e6 trials, uses a normal tolerance.
Deterministic values must match their closed forms to ``REL_TOL``, the
precision of the CSV's 9 significant digits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from statistics import NormalDist

FALSE_FAILURE = 1e-6
# Relative error allowed on a deterministic value printed with 9 digits.
REL_TOL = 1e-7


def bernstein_halfwidth(n: int, p: float, alpha: float) -> float:
    """Smallest t with P(|p_hat - p| >= t) <= alpha for a Binomial(n, p) mean.

    Solves n t^2 = L (2 p (1 - p) + 2 t / 3) with L = ln(2 / alpha).
    """
    L = math.log(2.0 / alpha)
    b = 2.0 * L / 3.0
    return (b + math.sqrt(b * b + 8.0 * n * L * p * (1.0 - p))) / (2.0 * n)


def binary_entropy(e: float) -> float:
    if e <= 0.0 or e >= 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def _tables(csv: str) -> list[list[list[str]]]:
    """Split a CSV made of blank-line separated tables into rows of cells."""
    return [
        [line.split(",") for line in block.splitlines()]
        for block in csv.strip("\n").split("\n\n")
    ]


def _close(got: str, want: float, rel_tol: float = REL_TOL) -> bool:
    return math.isclose(float(got), want, rel_tol=rel_tol, abs_tol=1e-12)


def check_simulate(
    csv: str,
    *,
    K: int,
    H2: int,
    H3: int,
    T: float,
    gamma: float,
    mu: float,
    eta_path: float,
    eta_msg: float,
    pairs: int,
    traffic: str,
) -> list[str]:
    """Problems found in one ``simulate`` output; empty when it is correct.

    Expected disturbances under intercept-resend at rates eta_path, eta_msg:
    D3 = eta_path/2 + (1 - eta_path)(gamma T^2 + (1 - T^2)/2) and
    D2 = T (eta_msg (1/4 + mu/2) + (1 - eta_msg) mu) + (1 - T)/2; each payload
    round trip has its endpoints learned with probability eta_path.
    """
    per_pair, summary = _tables(csv)
    header, rows = per_pair[0], per_pair[1:]
    cols = {name: i for i, name in enumerate(header)}
    total = dict(zip(summary[0], summary[1]))
    if len(rows) != pairs or len(summary) != 2:
        return [f"unexpected simulate layout: {csv[:200]!r}"]
    problems: list[str] = []

    full = traffic == "full"
    d3 = eta_path / 2 + (1 - eta_path) * (gamma * T * T + (1 - T * T) / 2)
    d2 = T * (eta_msg * (0.25 + mu / 2) + (1 - eta_msg) * mu) + (1 - T) / 2
    estimates = pairs * (3 if full else 2) + (1 if full else 0)
    alpha = FALSE_FAILURE / estimates
    # Each decoy blocks its cycle and the next, and a gap of g free cycles
    # holds at least floor(g / 2) payloads, so a pair has at least this many.
    decoys = H2 + H3
    payloads_min = max(1, (K - 3 * decoys - 1) // 2)
    tol2 = bernstein_halfwidth(H2, d2, alpha)
    tol3 = bernstein_halfwidth(H3, d3, alpha)
    tol_eve = bernstein_halfwidth(payloads_min, eta_path, alpha)

    def near(label: str, got: str, want: float, tol: float) -> None:
        if not abs(float(got) - want) <= tol:
            problems.append(f"{label} = {got}, expected {want:.6f} +- {tol:.6f}")

    sums = [0, 0, 0, 0]
    for row in rows:
        cell = {name: row[i] for name, i in cols.items()}
        pair = cell["pair"]
        trials2, errors2 = int(cell["type2_trials"]), int(cell["type2_errors"])
        trials3, errors3 = int(cell["type3_trials"]), int(cell["type3_errors"])
        if (trials2, trials3) != (H2, H3):
            problems.append(f"{pair}: trials {trials2}/{trials3}, expected {H2}/{H3}")
            continue
        for name, errors, trials in (("D2_hat", errors2, trials2), ("D3_hat", errors3, trials3)):
            if not _close(cell[name], errors / trials):
                problems.append(f"{pair}: {name} = {cell[name]} != {errors}/{trials}")
        near(f"{pair} D2_hat", cell["D2_hat"], d2, tol2)
        near(f"{pair} D3_hat", cell["D3_hat"], d3, tol3)
        if full:
            near(f"{pair} eve_learned_fraction", cell["eve_learned_fraction"], eta_path, tol_eve)
        elif cell["eve_learned_fraction"] != "nan":
            problems.append(f"{pair}: eve_learned_fraction set without payload")
        sums = [sums[0] + trials2, sums[1] + errors2, sums[2] + trials3, sums[3] + errors3]

    if not problems:
        d3_pooled = min(0.5, sums[3] / sums[2])
        e_pooled = min(0.5, sums[1] / sums[0])
        if not _close(total["inferred_eta"], min(1.0, 2 * d3_pooled)):
            problems.append(f"inferred_eta = {total['inferred_eta']} != min(1, 2 D3)")
        leak = min(1.0, 2 * d3_pooled * (1 + binary_entropy(e_pooled)))
        if not _close(total["leaked_fraction_bound"], leak):
            got = total["leaked_fraction_bound"]
            problems.append(f"leaked_fraction_bound = {got} != {leak:.9g}")
    if full:
        near("actual_learned_fraction", total["actual_learned_fraction"], eta_path, tol_eve)
    elif total["actual_learned_fraction"] != "nan":
        problems.append("actual_learned_fraction reported without payload")
    detected = [row[cols["detected"]] for row in rows]
    if total["detected"] != ("true" if "true" in detected else "false"):
        problems.append(f"run detected = {total['detected']} disagrees with pairs {detected}")
    if eta_path >= 0.25 and "false" in detected:
        problems.append("an eavesdropper on a quarter or more of round trips went undetected")
    return problems


def check_figure2(
    csv: str, *, gamma: float, mu: float, lo: float, hi: float, steps: int
) -> list[str]:
    """The leak curve g = min(1, 2 D (1 + h(e))) row by row."""
    (table,) = _tables(csv)
    if table[0] != ["loss_db", "T", "D", "e", "h_e", "g"] or len(table) != steps + 1:
        return [f"unexpected figure2 layout: {csv[:200]!r}"]
    problems = []
    for i, row in enumerate(table[1:]):
        loss = lo + (hi - lo) * i / (steps - 1)
        T = 10.0 ** (-loss / 10.0)
        D = gamma * T * T + (1 - T * T) / 2
        e = mu * T + (1 - T) / 2
        h = binary_entropy(e)
        want = (loss, T, D, e, h, min(1.0, 2 * D * (1 + h)))
        if not all(_close(got, value) for got, value in zip(row, want)):
            problems.append(f"figure2 row {i} = {row}, expected {want}")
    return problems


def exact_escape(K: int, H3: int, m: int) -> float:
    """E[2^-X] for X ~ Hypergeometric(K, H3, m), in exact rational arithmetic.

    P(X = j) = C(H3, j) m^(j) (K - m)^(H3 - j) / K^(H3) with falling factorials.
    """
    def falling(n: int, k: int) -> int:
        return math.prod(range(n - k + 1, n + 1))

    total = sum(
        Fraction(math.comb(H3, j) * falling(m, j) * falling(K - m, H3 - j), 2**j)
        for j in range(H3 + 1)
    )
    return float(total / falling(K, H3))


def check_overhead(
    csv: str, *, K: int, H3: int, m: int, trials: int, epsilon: float, eta_max: float
) -> list[str]:
    """Exact escape, the S8 bound, the Monte-Carlo estimate and decoy sizing."""
    escape, sizing = _tables(csv)
    row = dict(zip(escape[0], escape[1]))
    size = dict(zip(sizing[0], sizing[1]))
    problems = []
    exact = exact_escape(K, H3, m)
    eta = m / K
    bound = ((K - H3) / K + H3 / (2 * (1 - eta) * K)) ** (eta * K)
    if (int(row["K"]), int(row["H3"]), int(row["m"])) != (K, H3, m):
        problems.append(f"overhead echoed {row}, expected K={K} H3={H3} m={m}")
    # Log-space sums over a K-entry table lose about 1e-8 of relative accuracy at K = 1e7.
    if not _close(row["exact"], exact, rel_tol=1e-6):
        problems.append(f"exact = {row['exact']}, expected {exact:.9g}")
    if not _close(row["bound_S8"], bound):
        problems.append(f"bound_S8 = {row['bound_S8']}, expected {bound:.9g}")
    if not float(row["exact"]) <= float(row["bound_S8"]):
        problems.append("exact escape exceeds the S8 bound")
    estimate, stderr = float(row["mc_estimate"]), float(row["mc_stderr"])
    if trials > 1:
        # Scores lie in [0, 1], so the standard error is at most 1/(2 sqrt(trials - 1)).
        z = NormalDist().inv_cdf(1 - FALSE_FAILURE / 2)
        if not 0 < stderr <= 0.5 / math.sqrt(trials - 1):
            problems.append(f"mc_stderr = {stderr} out of range")
        elif not abs(estimate - exact) <= z * stderr:
            sigmas = abs(estimate - exact) / stderr
            problems.append(f"mc_estimate = {estimate} is {sigmas:.1f} stderr from exact")
    elif stderr != 0 or not any(_close(row["mc_estimate"], 0.5**j) for j in range(H3 + 1)):
        problems.append(f"one trial must score 2^-j with zero stderr, got {estimate}, {stderr}")

    alpha = math.ceil(2 / eta_max * math.log(1 / epsilon))
    width = (K - 1).bit_length()
    want = {
        "alpha": alpha,
        "beta": alpha,
        "g1": 2 * alpha,
        "H_sum": alpha * (2 * width + 1) + 4 * alpha,
        "H_paper_constant": 3 * alpha,
    }
    got = {key: int(size[key]) for key in want}
    if got != want:
        problems.append(f"decoy sizing {got}, expected {want}")
    return problems


def check_verify(csv: str, *, scatter_samples: int) -> list[str]:
    """Every constraint check passes and no scatter point beats the disturbance floor."""
    checks, scatter = _tables(csv)
    problems = [f"check {name} = {verdict}" for name, verdict in checks[1:] if verdict != "pass"]
    if len(checks) < 2:
        problems.append("verify reported no checks")
    points = [(float(d), float(x)) for d, x in scatter[1:]]
    if len(points) != scatter_samples:
        problems.append(f"{len(points)} scatter points, expected {scatter_samples}")
    for d, x in points:
        floor = (1 - math.sqrt(max(0.0, 1 - x * x))) / 2
        if not (0 <= d <= 1 and 0 <= x <= 1 and d >= floor - 1e-8):
            problems.append(f"scatter point ({d}, {x}) breaks the disturbance floor {floor}")
            break
    return problems

"""Fixed reference work that an op times while it runs, to track the host's speed.

The host is a few shared cores whose speed drifts by up to 2x, over seconds
and over minutes.  Each op process times one of these functions just before
``cli.main``, every ``PERIOD_S`` during it (from a ``SIGALRM`` handler, so on
the same thread and CPU as the program) and just after it.  The op's times
are then scaled by ``NOMINAL_S`` over ``typical(timings)``: seconds on a host
where the reference takes ``NOMINAL_S``.  The work is the benchmark's own, so
a change to the program moves the scaled times as it moves real time.

Each function is shaped like the work of the workloads that use it, so that
a slow spell of the host slows both about equally.
"""

from __future__ import annotations

import statistics

import numpy as np

# Time each function takes on the nominal host (about a 2-vCPU shared host's median).
NOMINAL_S = 0.001
PERIOD_S = 0.05


def scalar() -> None:
    """Like the simulator's per-cycle loop: scalar draws, a growing ledger, small arrays."""
    rng = np.random.default_rng(0)
    counts: dict[int, int] = {}
    seen: set[int] = set()
    ledger: list[tuple[int, int, int]] = []
    acc = np.zeros(64)
    for i in range(700):
        key = i % 97
        if rng.random() < 0.5:
            counts[key] = counts.get(key, 0) + 1
            seen.add(i)
            ledger.append((i, key, i & 1))
        if i % 64 == 0:
            acc += rng.standard_normal(64)


def array() -> None:
    """Like the theory commands: bulk draws and partitions, a cumsum of logs, 8x8 QRs."""
    rng = np.random.default_rng(0)
    np.argpartition(rng.random((40, 100)), 20, axis=1)[:, :20].sum()
    np.cumsum(np.log(np.arange(1.0, 40_001.0))).sum()
    for _ in range(8):
        np.linalg.qr(rng.standard_normal((8, 8)))


def typical(timings: list[float]) -> float:
    """Mean reference timing, leaving out runs over 3x the median (interrupted by other work).

    The mean, not the median: the host switches between a fast and a slow
    state, and the program's time follows the share of time spent in each.
    """
    cap = 3 * statistics.median(timings)
    return statistics.mean(t for t in timings if t <= cap)

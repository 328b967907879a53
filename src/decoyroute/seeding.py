"""Deterministic derivation of per-subsystem random streams from one root seed.

Every stochastic subsystem (schedule drawing, channel loss, eavesdropper
decisions, node-local preparation/measurement noise) owns an independent
stream derived from the root seed and a fixed stream id.  Changing the
attack configuration therefore never perturbs the channel noise sequence,
and repeated runs with the same root seed are bit-for-bit identical.
"""

from __future__ import annotations

import numpy as np

from .errors import check_at_least

STREAM_IDS = {
    "schedule": 0,
    "channel": 1,
    "eve": 2,
    "measurement": 3,
}


def _sequence(root_seed: int, stream: str, index: int) -> np.random.SeedSequence:
    check_at_least("root_seed", root_seed, 0)
    return np.random.SeedSequence((root_seed, STREAM_IDS[stream], index))


def child_seed(root_seed: int, stream: str, index: int = 0) -> int:
    """Derive a stable 64-bit child seed for a named stream (and sub-index)."""
    words = _sequence(root_seed, stream, index).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


def stream_rng(root_seed: int, stream: str, index: int = 0) -> np.random.Generator:
    """Generator for the given subsystem stream of ``root_seed``."""
    return np.random.default_rng(_sequence(root_seed, stream, index))

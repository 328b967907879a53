"""Minimal quantum primitives at the outcome-probability level.

Two kinds of packets circulate in the network:

* plain qubits prepared in one of the four BB84 states (two conjugate
  bases, one bit each), measured either in the matching basis or a
  mismatched one;
* path packets, a single photon split into an equal superposition of a
  "stayed home" mode and a "sent to the partner" mode, carrying a sign
  that an interferometric measurement at the origin recovers.

Qubits are represented symbolically as (basis, bit) records rather than
amplitude vectors: the intercept-and-resend attack model only ever needs
outcome probabilities, and those follow from the 2x2 overlap table
(same basis: deterministic; conjugate bases: uniform).  The full-matrix
treatment of general attacks lives in :mod:`decoyroute.constraints`.

All functions are pure given the caller's random generator; callers own
their streams (see :mod:`decoyroute.seeding`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np


class Basis(enum.Enum):
    """Preparation/measurement basis: computational (Z) or conjugate (X)."""

    Z = "Z"
    X = "X"


@dataclass(frozen=True)
class QubitPreparation:
    """A qubit prepared as one of the four BB84 states."""

    basis: Basis
    bit: int

    def __post_init__(self) -> None:
        if self.bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {self.bit}")


@dataclass(frozen=True)
class PathPacket:
    """Photon in an equal superposition of staying home and visiting a partner.

    ``sign`` (+1/-1) selects the relative phase of the two modes and is
    fixed at preparation; ``collapsed`` records that a which-path
    measurement destroyed the superposition in transit.  The ``dummy``
    qubit rides along as packet payload but is never measured by either
    node.
    """

    origin: int
    partner: int
    cycle: int
    sign: int
    collapsed: bool
    dummy: QubitPreparation

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    def collapse(self) -> "PathPacket":
        """Copy of this packet with the superposition destroyed."""
        return replace(self, collapsed=True)


def _uniform_bit(rng: np.random.Generator) -> int:
    return int(rng.random() < 0.5)


def measure_qubit(
    prep: QubitPreparation,
    meas_basis: Basis,
    flip_prob: float,
    rng: np.random.Generator,
) -> int:
    """Measure a prepared qubit, returning the observed bit.

    Matching bases reproduce the prepared bit up to a flip with
    probability ``flip_prob`` (the channel's baseline measurement error).
    Mismatched conjugate bases yield a uniform bit; the flip is applied
    afterwards, which leaves the distribution uniform.
    """
    if not 0.0 <= flip_prob <= 1.0:
        raise ValueError(f"flip_prob must be in [0, 1], got {flip_prob}")
    bit = prep.bit if meas_basis is prep.basis else _uniform_bit(rng)
    if rng.random() < flip_prob:
        bit ^= 1
    return bit


def prepare_path_packet(
    origin: int, partner: int, cycle: int, rng: np.random.Generator
) -> PathPacket:
    """Prepare a fresh path packet with a uniform sign and a random dummy payload."""
    if origin == partner:
        raise ValueError(f"path packet needs a remote leg, got origin == partner == {origin}")
    sign = 1 if rng.random() < 0.5 else -1
    dummy = QubitPreparation(Basis.Z if rng.random() < 0.5 else Basis.X, _uniform_bit(rng))
    return PathPacket(origin, partner, cycle, sign, collapsed=False, dummy=dummy)


def interfere_path_packet(
    packet: PathPacket,
    survived: bool,
    visibility_error: float,
    rng: np.random.Generator,
) -> int:
    """Interferometric sign readout at the origin node; returns +1 or -1.

    A missing packet forces the node to fabricate a uniform result, and a
    collapsed superposition makes the two output ports equiprobable, so
    both cases return a fair coin.  An intact packet reproduces its sign
    except with probability ``visibility_error`` (finite interferometer
    visibility).
    """
    if not 0.0 <= visibility_error <= 1.0:
        raise ValueError(f"visibility_error must be in [0, 1], got {visibility_error}")
    if not survived or packet.collapsed:
        return 1 if rng.random() < 0.5 else -1
    if rng.random() < visibility_error:
        return -packet.sign
    return packet.sign

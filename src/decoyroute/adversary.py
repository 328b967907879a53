"""Intercept-and-resend eavesdropper models and the ledger of what Eve learns.

Eve sits on every link and can measure either the propagation mode of a
packet (learning who talks to whom) or its qubit content (learning message
bits), or both.  She cannot tell payload, message-decoy, and path-decoy
slots apart, so her decision to intercept is made before the slot type has
any observable consequence for her.  One decision covers a full round trip
(forward packet plus the next-cycle return), since the return leg carries
no endpoint information she did not already get from the forward leg.

Mode measurements read the classical label of a single-mode packet without
disturbing it, but destroy the superposition of a path packet, which is
what the path-decoy slots detect.  Content measurements act only on the
qubit riding in the packet and leave the propagation mode untouched; on a
message-decoy slot they disturb the bit exactly as an intercept-resend does
in BB84.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .quantum import Basis, PathPacket, QubitPreparation, measure_qubit


class AttackMode(enum.Enum):
    NONE = "none"
    PATH = "path"
    MESSAGE = "message"
    BOTH = "both"


@dataclass(frozen=True)
class AttackConfig:
    """Interception rates per attack kind.

    ``eta_path`` is the fraction of round trips whose propagation mode Eve
    measures, ``eta_msg`` the fraction whose qubit content she measures.
    A rate only takes effect when ``mode`` enables that attack kind;
    ``mode = NONE`` forces both effective rates to zero.  The effective
    rates are computed once per config, since every transaction reads them.
    """

    mode: AttackMode = AttackMode.NONE
    eta_path: float = 0.0
    eta_msg: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eta_path", "eta_msg"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @cached_property
    def path_rate(self) -> float:
        return self.eta_path if self.mode in (AttackMode.PATH, AttackMode.BOTH) else 0.0

    @cached_property
    def message_rate(self) -> float:
        return self.eta_msg if self.mode in (AttackMode.MESSAGE, AttackMode.BOTH) else 0.0


@dataclass
class EveLedger:
    """Append-only record of Eve's interceptions within one run."""

    learned_endpoints: list[tuple[int, int, int]] = field(default_factory=list)
    learned_bits: list[tuple[int, int, Basis]] = field(default_factory=list)

    def record_endpoints(self, cycle: int, sender: int, receiver: int) -> None:
        self.learned_endpoints.append((cycle, sender, receiver))

    def record_bit(self, cycle: int, bit: int, basis: Basis) -> None:
        self.learned_bits.append((cycle, bit, basis))


@dataclass
class Eavesdropper:
    """Attack configuration plus the knowledge ledger for one simulation run."""

    config: AttackConfig = field(default_factory=AttackConfig)
    ledger: EveLedger = field(default_factory=EveLedger)


def decide_intercept(cycle: int, rate: float, rng: np.random.Generator) -> bool:
    """Bernoulli interception decision for one round trip, independent per cycle."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    return bool(rng.random() < rate)


def intercept_message(
    prep: QubitPreparation, rng: np.random.Generator
) -> tuple[QubitPreparation, int, Basis]:
    """Measure a qubit's content in a uniformly chosen basis and resend the outcome.

    Returns the resent preparation (the eigenstate Eve observed), the bit
    she recorded, and the basis she used.  With a matching basis the
    resend is transparent; with the conjugate basis the resent state is
    uncorrelated with the original, which is what trips the message-decoy
    check downstream.
    """
    eve_basis = Basis.Z if rng.random() < 0.5 else Basis.X
    eve_bit = measure_qubit(prep, eve_basis, 0.0, rng)
    return QubitPreparation(eve_basis, eve_bit), eve_bit, eve_basis


def intercept_path(packet: PathPacket) -> tuple[PathPacket, tuple[int, int, int]]:
    """Measure a path packet's propagation mode, learning sender, receiver and cycle.

    The measurement acquires which-path information and returns the packet
    collapsed; the later interference readout at the origin then turns
    into a coin flip.  (A single-mode packet's label is classical: the
    slot runners record it without touching the packet.)
    """
    return packet.collapse(), (packet.origin, packet.partner, packet.cycle)


def learned_traffic_fraction(learned: int, total: int) -> float:
    """Fraction of ``total`` payload round trips whose endpoints Eve learned."""
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    if not 0 <= learned <= total:
        raise ValueError(f"learned must be in [0, {total}], got {learned}")
    return learned / total

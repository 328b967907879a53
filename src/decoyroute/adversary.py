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

Qubits are plain ``(bit, z)`` pairs, as in :mod:`decoyroute.quantum`.  The
kernels here take the uniforms they consume, and their rates unchecked:
:class:`AttackConfig` checks them once, when the run is configured.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

from .quantum import measure_qubit


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
        if not isinstance(self.mode, AttackMode):
            raise ValueError(f"mode must be an AttackMode, got {self.mode!r}")
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
    """Append-only record of Eve's interceptions within one run.

    ``learned_endpoints`` holds ``(cycle, sender, receiver)`` per mode
    measurement, ``learned_bits`` holds ``(cycle, bit, z)`` per content
    measurement: the bit she observed and whether she measured in Z.
    """

    learned_endpoints: list[tuple[int, int, int]] = field(default_factory=list)
    learned_bits: list[tuple[int, int, bool]] = field(default_factory=list)


@dataclass
class Eavesdropper:
    """Attack configuration plus the knowledge ledger for one simulation run."""

    config: AttackConfig = field(default_factory=AttackConfig)
    ledger: EveLedger = field(default_factory=EveLedger)


def decide_intercept(rate: float, u):
    """Bernoulli interception decision for one round trip, independent per cycle.

    The uniform ``u`` decides; elementwise over an array of uniforms.
    """
    return u < rate


def intercept_message(bit: int, z: bool, draw: Callable[[], float]) -> tuple[int, bool]:
    """Measure the qubit ``(bit, z)`` in a uniformly chosen basis and resend the outcome.

    Returns the eigenstate Eve observed, ``(eve_bit, eve_z)``: both what she
    records and the qubit she resends.  With a matching basis the resend is
    transparent; with the conjugate basis the resent state is uncorrelated
    with the original, which is what trips the message-decoy check
    downstream.  ``draw`` returns Eve's next uniform: one for her basis,
    then one for a matched measurement or two for a mismatched one, so a
    tap reads 2 or 3 uniforms.  Only a message attack taps, one slot at a
    time.
    """
    eve_z = draw() < 0.5
    coin = draw()
    flip = draw() if eve_z != z else coin
    return int(measure_qubit(bit, z, eve_z, 0.0, coin, flip)), eve_z


def intercept_path(ledger: EveLedger, cycle: int, sender: int, receiver: int) -> None:
    """Measure a round trip's propagation mode, recording its cycle and endpoints.

    A single-mode packet's label is classical, so reading it leaves the
    packet undisturbed.  A path packet's superposition is destroyed: the
    later interference readout at the origin then turns into a coin flip.
    """
    ledger.learned_endpoints.append((cycle, sender, receiver))


def learned_traffic_fraction(learned: int, total: int) -> float:
    """Fraction of ``total`` payload round trips whose endpoints Eve learned."""
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    if not 0 <= learned <= total:
        raise ValueError(f"learned must be in [0, {total}], got {learned}")
    return learned / total

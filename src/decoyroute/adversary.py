"""Intercept-and-resend eavesdropper models and the ledger of what Eve learns.

Eve sits on every link and can measure either the propagation mode of a
packet (learning who talks to whom) or its qubit content (learning message
bits), or both, each on its own fraction of round trips
(:class:`AttackConfig`).  She cannot tell payload, message-decoy, and
path-decoy slots apart, so her decision to intercept is made before the
slot type has any observable consequence for her.  One decision covers a
full round trip (forward packet plus the next-cycle return), since the
return leg carries no endpoint information she did not already get from
the forward leg.

Mode measurements read the classical label of a single-mode packet without
disturbing it, but destroy the superposition of a path packet, which is
what the path-decoy slots detect.  Content measurements act only on the
qubit riding in the packet and leave the propagation mode untouched; on a
message-decoy slot they disturb the bit exactly as an intercept-resend does
in BB84.

Qubits are plain ``(bit, z)`` pairs, as in :mod:`decoyroute.quantum`.  The
kernels here take the uniforms they consume and work elementwise, and take
their rates unchecked: :class:`AttackConfig` checks them once, when the run
is configured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import check_at_least, check_in
from .quantum import measure_qubit


@dataclass(frozen=True)
class AttackConfig:
    """Interception rates per attack kind; a zero rate means no attack of that kind.

    ``eta_path`` is the fraction of round trips whose propagation mode Eve
    measures, ``eta_msg`` the fraction whose qubit content she measures.
    """

    eta_path: float = 0.0
    eta_msg: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eta_path", "eta_msg"):
            check_in(name, getattr(self, name), 0, 1)


class Rows:
    """An append-only table of int64 rows, packed a block per append: 8 bytes a cell.

    It reads as a sequence of tuples of Python ints: ``len`` and iteration.
    Comparing two tables raises: compare ``list(rows)`` instead.
    """

    __slots__ = ("_blocks", "_count")

    def __init__(self) -> None:
        self._blocks: list[np.ndarray] = []
        self._count = 0

    def append(self, *columns) -> None:
        """Add rows whose i-th cells are ``columns[i]``; a scalar column repeats down the rows."""
        block = np.stack(np.broadcast_arrays(*map(np.atleast_1d, columns)), axis=1)
        if len(block):
            self._blocks.append(block.astype(np.int64, copy=False))
            self._count += len(block)

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        for block in self._blocks:
            yield from map(tuple, block.tolist())

    def __eq__(self, other):
        raise TypeError("Rows do not compare: compare list(rows) instead")


@dataclass
class EveLedger:
    """Append-only record of Eve's interceptions within one run.

    ``learned_endpoints`` holds ``(cycle, sender, receiver)`` per mode
    measurement, ``learned_bits`` holds ``(cycle, bit, z)`` per content
    measurement: the bit she observed and whether she measured in Z (1 or 0).
    """

    learned_endpoints: Rows = field(default_factory=Rows)
    learned_bits: Rows = field(default_factory=Rows)


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


def intercept_message(bit, z, basis_u, coin, flip):
    """Measure the qubit ``(bit, z)`` in a uniformly chosen basis and resend the outcome.

    Returns the eigenstate Eve observed, ``(eve_bit, eve_z)``: both what she
    records and the qubit she resends.  With a matching basis the resend is
    transparent; with the conjugate basis the resent state is uncorrelated
    with the original, which is what trips the message-decoy check
    downstream.  The uniform ``basis_u`` picks her basis (Z below 1/2).  A
    matched measurement then reads one uniform, which its caller passes as
    both ``coin`` and ``flip``; a mismatched one reads two, so a tap reads 2
    or 3 uniforms in all.
    """
    eve_z = basis_u < 0.5
    return measure_qubit(bit, z, eve_z, 0.0, coin, flip), eve_z


def intercept_path(ledger: EveLedger, cycle, sender: int, receiver: int) -> None:
    """Measure a round trip's propagation mode, recording its cycle and endpoints.

    A single-mode packet's label is classical, so reading it leaves the
    packet undisturbed.  A path packet's superposition is destroyed: the
    later interference readout at the origin then turns into a coin flip.
    ``cycle`` may be an array of round trips, recorded in its order.
    """
    ledger.learned_endpoints.append(cycle, sender, receiver)


def learned_traffic_fraction(learned: int, total: int) -> float:
    """Fraction of ``total`` payload round trips whose endpoints Eve learned."""
    check_at_least("total", total, 1)
    check_in("learned", learned, 0, total)
    return learned / total

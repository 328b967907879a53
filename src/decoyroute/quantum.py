"""Minimal quantum primitives at the outcome-probability level.

Two kinds of packets circulate in the network:

* plain qubits prepared in one of the four BB84 states (two conjugate
  bases, one bit each), measured either in the matching basis or a
  mismatched one;
* path packets, a single photon split into an equal superposition of a
  "stayed home" mode and a "sent to the partner" mode, carrying a sign
  that an interferometric measurement at the origin recovers.

A qubit is the plain pair ``(bit, z)``: its bit and whether it was
prepared in the computational (Z) basis rather than the conjugate (X)
one, the same bool a schedule's ``z_basis`` stores.  A path packet is its
sign plus a dummy ``(bit, z)`` payload.  The intercept-and-resend attack
model only ever needs outcome probabilities, and those follow from the
2x2 overlap table (same basis: deterministic; conjugate bases: uniform).
The full-matrix treatment of general attacks lives in
:mod:`decoyroute.constraints`.

All functions are pure given the caller's random source; callers own
their streams (see :mod:`decoyroute.seeding`) and check the rates they
pass once, when they build their :class:`~decoyroute.channel.ChannelModel`.
"""

from __future__ import annotations

import numpy as np


def measure_qubit(
    bit: int, z: bool, meas_z: bool, flip_prob: float, rng: np.random.Generator
) -> int:
    """Measure the qubit ``(bit, z)`` in the basis ``meas_z``, returning the observed bit.

    Matching bases reproduce the prepared bit up to a flip with
    probability ``flip_prob`` (the channel's baseline measurement error).
    Mismatched conjugate bases yield a uniform bit; the flip is applied
    afterwards, which leaves the distribution uniform.
    """
    if meas_z != z:
        bit = int(rng.random() < 0.5)
    if rng.random() < flip_prob:
        bit ^= 1
    return bit


def prepare_path_packet(rng: np.random.Generator) -> tuple[int, tuple[int, bool]]:
    """A fresh path packet: a uniform sign (+1/-1) and a random dummy ``(bit, z)``.

    The dummy qubit rides along as packet payload but is never measured by
    either node.
    """
    sign = 1 if rng.random() < 0.5 else -1
    z = rng.random() < 0.5
    return sign, (int(rng.random() < 0.5), z)


def interfere_path_packet(
    sign: int, intact: bool, visibility_error: float, rng: np.random.Generator
) -> int:
    """Interferometric sign readout at the origin node; returns +1 or -1.

    A packet that is not ``intact`` (lost on either leg, or with its
    superposition destroyed by a which-path measurement in transit) makes
    the two output ports equiprobable, so the result is a fair coin.  An
    intact packet reproduces its ``sign`` except with probability
    ``visibility_error`` (finite interferometer visibility).
    """
    if not intact:
        return 1 if rng.random() < 0.5 else -1
    if rng.random() < visibility_error:
        return -sign
    return sign

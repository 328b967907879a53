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

Every function here is pure: it takes the uniforms it consumes instead
of a random source, and works elementwise, on floats for one slot or on
arrays for many slots at once.  A kernel that picks between two outcomes
does so with ``np.where``, so it returns a numpy value even on floats.
Callers own their streams (see :mod:`decoyroute.seeding`) and check the
rates they pass once, when they build their
:class:`~decoyroute.channel.ChannelModel`.
"""

from __future__ import annotations

import numpy as np


def measure_qubit(bit, z, meas_z, flip_prob: float, coin, flip):
    """Measure the qubit ``(bit, z)`` in the basis ``meas_z``, returning the observed bit.

    Matching bases reproduce the prepared bit up to a flip with
    probability ``flip_prob`` (the channel's baseline measurement error),
    decided by the uniform ``flip``.  Mismatched conjugate bases yield a
    uniform bit, decided by the uniform ``coin``; the flip is applied
    afterwards, which leaves the distribution uniform.  A matched
    measurement ignores ``coin``: it reads one uniform, which its caller
    passes as both.
    """
    # A mismatched basis swaps the bit for the coin's: bit ^ (bit ^ coin bit).
    observed = bit ^ ((meas_z != z) & (bit ^ (coin < 0.5)))
    return observed ^ (flip < flip_prob)


def prepare_path_packet(sign_u, z_u, bit_u):
    """A fresh path packet: a uniform sign (+1/-1) and a random dummy ``(bit, z)``.

    Each of the three uniforms decides the quantity it is named after.
    The dummy qubit rides along as packet payload but is never measured by
    either node.
    """
    return 1 - 2 * (sign_u >= 0.5), (bit_u < 0.5, z_u < 0.5)  # the sign is +1 below 1/2


def interfere_path_packet(sign, intact, visibility_error: float, u):
    """Interferometric sign readout at the origin node; returns +1 or -1.

    A packet that is not ``intact`` (lost on either leg, or with its
    superposition destroyed by a which-path measurement in transit) makes
    the two output ports equiprobable, so the result is a fair coin.  An
    intact packet reproduces its ``sign`` except with probability
    ``visibility_error`` (finite interferometer visibility).  The uniform
    ``u`` decides either case.
    """
    # 1 - 2 * flag is +1 where the flag is False and -1 where it is True.
    return np.where(intact, sign * (1 - 2 * (u < visibility_error)), 1 - 2 * (u >= 0.5))

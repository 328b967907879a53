"""Point-to-point link model: photon survival plus the per-link noise figures."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import check_at_least, check_in


@dataclass(frozen=True)
class ChannelModel:
    """Per-link parameters.

    ``T`` is the one-way photon survival probability (both directions of a
    link share it, so a round trip survives with probability T^2),
    ``gamma`` the baseline wrong-port probability of the interferometric
    measurement, and ``mu`` the baseline bit-flip probability of a
    same-basis message measurement.
    """

    T: float = 1.0
    gamma: float = 0.0
    mu: float = 0.0

    def __post_init__(self) -> None:
        check_link(self.T, self.gamma, self.mu)


def check_link(T: float = 1.0, gamma: float = 0.0, mu: float = 0.0) -> None:
    """The rule of every link parameter: each of ``T``, ``gamma`` and ``mu`` lies in [0, 1]."""
    for name, value in (("T", T), ("gamma", gamma), ("mu", mu)):
        check_in(name, value, 0, 1)


def loss_db_to_T(loss_db: float) -> float:
    """Convert a channel loss in dB to a survival probability T = 10^(-dB/10)."""
    check_at_least("loss_db", loss_db, 0)
    return 10.0 ** (-loss_db / 10.0)


def transmit(T: float, u):
    """One photon transmission: survives with probability T, decided by the uniform ``u``.

    Elementwise over an array of uniforms.  ``T`` is taken unchecked;
    :class:`ChannelModel` checks it once.
    """
    return u < T

"""Point-to-point link model: photon survival plus the per-link noise figures."""

from __future__ import annotations

from dataclasses import dataclass


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
        for name in ("T", "gamma", "mu"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @classmethod
    def from_loss_db(cls, loss_db: float, gamma: float = 0.0, mu: float = 0.0) -> "ChannelModel":
        return cls(T=loss_db_to_T(loss_db), gamma=gamma, mu=mu)


def loss_db_to_T(loss_db: float) -> float:
    """Convert a channel loss in dB to a survival probability T = 10^(-dB/10)."""
    if loss_db < 0:
        raise ValueError(f"loss_db must be non-negative, got {loss_db}")
    return 10.0 ** (-loss_db / 10.0)


def transmit(T: float, u):
    """One photon transmission: survives with probability T, decided by the uniform ``u``.

    Elementwise over an array of uniforms.  ``T`` is taken unchecked;
    :class:`ChannelModel` checks it once.
    """
    return u < T

"""Closed-form security analysis: disturbance baselines, entropy, leak curve.

The worst case attributes every observed path disturbance to interception,
so a measured disturbance D implies an intercepted fraction of up to 2D.
Each learned payload additionally exposes the error-correction expansion of
the message, a factor 1 + h(e) at the Shannon limit, giving the leaked
traffic fraction g = 2D(1 + h(e)), capped at one.  Loss feeds both D and e,
which is why the leak grows with channel loss even without an attacker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import check_link, loss_db_to_T
from .errors import InputError, check_at_least, check_in


class AlreadySaturatedError(ValueError):
    """The leak curve is already at one for a lossless channel."""


@dataclass(frozen=True)
class SecurityPoint:
    """One point of the leak-vs-loss curve."""

    loss_db: float
    T: float
    D: float
    e: float
    h_e: float
    g: float


def binary_entropy(e: float) -> float:
    """Binary entropy in bits, with h(0) = h(1) = 0 by continuity."""
    check_in("e", e, 0, 1)
    if e == 0.0 or e == 1.0:
        return 0.0
    return -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)


def baseline_disturbance(gamma: float, T: float) -> float:
    """Expected path-decoy disturbance with no attacker: gamma*T^2 + (1 - T^2)/2."""
    check_link(T=T, gamma=gamma)
    t2 = T * T
    return gamma * t2 + (1.0 - t2) / 2.0


def message_error(mu: float, T: float) -> float:
    """Expected message error with no attacker: mu*T + (1 - T)/2."""
    check_link(T=T, mu=mu)
    return mu * T + (1.0 - T) / 2.0


def leaked_fraction(D: float, e: float) -> float:
    """Worst-case leaked traffic fraction min{1, 2D(1 + h(e))}."""
    check_in("D", D, 0, 0.5)
    check_in("e", e, 0, 0.5)
    return min(1.0, _leak(D, e))


def _leak(D: float, e: float) -> float:
    # Unchecked: the loss curves reach D > 0.5 when gamma > 0.5.
    return 2.0 * D * (1.0 + binary_entropy(e))


def _uncapped_point(gamma: float, mu: float, loss_db: float) -> SecurityPoint:
    T = loss_db_to_T(loss_db)
    D = baseline_disturbance(gamma, T)
    e = message_error(mu, T)
    return SecurityPoint(loss_db, T, D, e, binary_entropy(e), _leak(D, e))


def inferred_eta(D3_hat: float) -> float:
    """Intercepted fraction implied by a path disturbance: min{1, 2*D3_hat}."""
    check_in("D3_hat", D3_hat, 0, 0.5)
    return min(1.0, 2.0 * D3_hat)


def check_curve(
    gamma: float, mu: float, loss_min_db: float, loss_max_db: float, steps: int
) -> None:
    """The rules of :func:`security_curve`'s arguments, checked before any point is computed."""
    check_link(gamma=gamma, mu=mu)
    if not 0 <= loss_min_db < math.inf:
        raise InputError("loss_min_db", f"must be finite and >= 0, got {loss_min_db}")
    if not loss_min_db <= loss_max_db < math.inf:
        raise InputError("loss_max_db", f"must be finite and >= {loss_min_db}, got {loss_max_db}")
    check_at_least("steps", steps, 2)


def security_curve(
    gamma: float,
    mu: float,
    loss_min_db: float,
    loss_max_db: float,
    steps: int,
) -> list[SecurityPoint]:
    """Leak curve over an evenly spaced loss grid (capped g per point)."""
    check_curve(gamma, mu, loss_min_db, loss_max_db, steps)
    points = []
    for loss_db in np.linspace(loss_min_db, loss_max_db, steps):
        point = _uncapped_point(gamma, mu, float(loss_db))
        points.append(replace(point, g=min(1.0, point.g)))
    return points


def loss_threshold(gamma: float, mu: float, tol: float = 0.01) -> float:
    """Channel loss (dB) at which the uncapped leak expression reaches one.

    Found by bisection on the uncapped expression, so the root is
    well-defined even though the reported curve is capped.  Raises
    :class:`AlreadySaturatedError` when the leak is already >= 1 with no
    loss at all (that needs gamma >= ~0.5).
    """
    if not tol > 0:
        raise InputError("tol", f"must be positive, got {tol}")

    def uncapped(loss_db: float) -> float:
        return _uncapped_point(gamma, mu, loss_db).g

    if uncapped(0.0) >= 1.0:
        raise AlreadySaturatedError(
            "already saturated: leak is >= 1 at zero loss for these parameters"
        )
    # Every gamma, mu leaks at least what gamma = mu = 0 does, which reaches one at
    # 1.96 dB, so hi stops by 2.
    lo, hi = 0.0, 1.0
    while uncapped(hi) < 1.0:
        lo, hi = hi, hi * 2.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if uncapped(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


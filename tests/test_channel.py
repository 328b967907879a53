import numpy as np
import pytest

from decoyroute.channel import ChannelModel, loss_db_to_T, transmit

import oracles


def test_zero_loss_is_lossless():
    assert loss_db_to_T(0.0) == 1.0


def test_three_db_halves():
    assert loss_db_to_T(3.0103) == pytest.approx(0.5, abs=1e-6)


def test_threshold_point_transmissivity():
    assert loss_db_to_T(1.9) == pytest.approx(0.6457, abs=1e-4)


def test_negative_loss_rejected():
    with pytest.raises(ValueError):
        loss_db_to_T(-0.1)


@pytest.mark.parametrize("a", [0.0, 0.3, 1.9, 7.5])
@pytest.mark.parametrize("b", [0.1, 2.0, 11.0])
def test_losses_compose_multiplicatively(a, b):
    assert loss_db_to_T(a) * loss_db_to_T(b) == pytest.approx(loss_db_to_T(a + b), abs=1e-12)


def test_loss_curve_is_strictly_decreasing():
    grid = np.linspace(0.0, 30.0, 200)
    values = [loss_db_to_T(x) for x in grid]
    assert all(u > v for u, v in zip(values, values[1:]))


def test_transmit_extremes():
    u = np.random.default_rng(0).random(1000)
    assert np.all(transmit(1.0, u))
    assert not np.any(transmit(0.0, u))


def test_transmit_matches_bernoulli_mean():
    n = 100_000
    survived = np.count_nonzero(transmit(0.7, np.random.default_rng(1).random(n)))
    assert survived / n == pytest.approx(0.7, abs=oracles.binomial_tolerance(0.7, n))


def test_transmit_rejects_bad_probability():
    # T is checked once, when the channel is built.
    for T in (1.2, -0.1):
        with pytest.raises(ValueError, match="T must be"):
            ChannelModel(T=T)


def test_channel_model_validation_and_round_trip():
    channel = ChannelModel(T=0.8, gamma=0.01, mu=0.02)
    assert (channel.T, channel.gamma, channel.mu) == (0.8, 0.01, 0.02)
    with pytest.raises(ValueError):
        ChannelModel(T=1.5)
    with pytest.raises(ValueError):
        ChannelModel(gamma=-0.1)


def test_channel_model_from_loss_db():
    channel = ChannelModel(T=loss_db_to_T(3.0103), gamma=0.01, mu=0.01)
    assert channel.T == pytest.approx(0.5, abs=1e-6)
    assert channel.gamma == 0.01

import warnings

import pytest
from scipy import stats

from decoyroute.analysis import (
    AlreadySaturatedError,
    baseline_disturbance,
    binary_entropy,
    inferred_eta,
    leaked_fraction,
    loss_threshold,
    message_error,
    security_curve,
)
from decoyroute.channel import loss_db_to_T
from decoyroute.errors import InputError

import oracles


def scipy_entropy(e: float) -> float:
    return float(stats.entropy([e, 1.0 - e], base=2))


def test_entropy_trivials():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_entropy_at_threshold_error_rate():
    assert binary_entropy(0.18361) == pytest.approx(0.6880, abs=1e-3)
    assert binary_entropy(0.18361) == pytest.approx(scipy_entropy(0.18361), abs=1e-12)


def test_entropy_symmetry_on_grid():
    for i in range(1, 100):
        e = i / 100.0
        assert binary_entropy(e) == pytest.approx(binary_entropy(1.0 - e), abs=1e-12)
        assert binary_entropy(e) == pytest.approx(scipy_entropy(e), abs=1e-12)


def test_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_baseline_disturbance_values():
    assert baseline_disturbance(0.01, 1.0) == pytest.approx(0.01)
    assert baseline_disturbance(0.37, 0.0) == 0.5
    assert baseline_disturbance(0.01, 0.6457) == pytest.approx(0.2957, abs=5e-4)


def test_message_error_values():
    assert message_error(0.01, 1.0) == pytest.approx(0.01)
    assert message_error(0.0, 0.5) == 0.25
    assert message_error(0.01, 0.6457) == pytest.approx(0.1836, abs=5e-4)


def test_leaked_fraction_values():
    assert leaked_fraction(0.0, 0.3) == 0.0
    assert leaked_fraction(0.01, 0.01) == pytest.approx(0.02162, abs=1e-4)
    # At the threshold point the leak sits just below the cap.
    assert leaked_fraction(0.2957, 0.1836) == pytest.approx(0.998, abs=2e-3)
    assert leaked_fraction(0.2957, 0.1836) < 1.0
    assert leaked_fraction(0.5, 0.5) == 1.0


def test_leaked_fraction_rejects_out_of_range():
    with pytest.raises(ValueError):
        leaked_fraction(0.6, 0.1)


def test_inferred_eta():
    assert inferred_eta(0.0) == 0.0
    assert inferred_eta(0.25) == 0.5
    assert inferred_eta(0.5) == 1.0


def test_curve_zero_loss_point():
    points = security_curve(0.01, 0.01, 0.0, 3.0, 61)
    assert len(points) == 61
    assert points[0].g == pytest.approx(0.0216, abs=1e-3)
    assert points[0].T == 1.0


def test_curve_is_monotone_until_cap():
    points = security_curve(0.01, 0.01, 0.0, 3.0, 61)
    for prev, here in zip(points, points[1:]):
        assert here.g >= prev.g - 1e-15


def test_curve_first_saturated_point_near_threshold():
    points = security_curve(0.01, 0.01, 0.0, 3.0, 61)
    saturated = [p.loss_db for p in points if p.g >= 1.0]
    assert saturated, "curve never saturates on [0, 3] dB"
    assert 1.85 - 1e-9 <= saturated[0] <= 1.95 + 1e-9


def test_curve_validates_grid():
    with pytest.raises(ValueError):
        security_curve(0.01, 0.01, 2.0, 1.0, 10)
    with pytest.raises(ValueError):
        security_curve(0.01, 0.01, 0.0, 1.0, 1)


@pytest.mark.parametrize("bound", [float("inf"), float("-inf"), float("nan")])
def test_curve_rejects_non_finite_loss_bounds(bound):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^loss_max_db must be finite"):
            security_curve(0.01, 0.01, 0.0, bound, 5)
        with pytest.raises(ValueError, match="^loss_min_db must be finite"):
            security_curve(0.01, 0.01, bound, 3.0, 5)


def test_loss_threshold_matches_quoted_value():
    assert loss_threshold(0.01, 0.01, 0.01) == pytest.approx(1.90, abs=0.05)


def test_loss_threshold_matches_grid_scan_oracle():
    for gamma, mu in [(0.01, 0.01), (0.0, 0.0), (0.02, 0.005)]:
        scanned = oracles.leak_threshold_by_scan(gamma, mu)
        assert loss_threshold(gamma, mu, 1e-4) == pytest.approx(scanned, abs=3e-4)


def test_loss_threshold_saturated_case():
    # gamma > 0.5 puts D above 0.5, outside leaked_fraction's range.
    for gamma in (0.5, 0.6):
        with pytest.raises(AlreadySaturatedError, match="already saturated"):
            loss_threshold(gamma, 0.01)


def test_loss_threshold_stays_below_two_db_on_a_grid():
    # At every T, D grows with gamma and |e - 1/2| = T|mu - 1/2| is largest at
    # mu = 0, so gamma = mu = 0 leaks least and reaches one last, near 1.96 dB.
    grid = [i / 20 for i in range(21)]
    thresholds = {}
    for gamma in grid:
        for mu in grid:
            try:
                thresholds[gamma, mu] = loss_threshold(gamma, mu)
            except AlreadySaturatedError:  # at zero loss D = gamma and e = mu
                assert 2 * gamma * (1 + binary_entropy(mu)) >= 1
    assert max(thresholds.values()) == thresholds[0.0, 0.0] <= 1.96


def test_loss_threshold_rejects_a_tol_that_is_not_positive():
    for tol in (0.0, -0.01, float("nan")):
        with pytest.raises(InputError, match="^tol must be positive") as caught:
            loss_threshold(0.01, 0.01, tol)
        assert caught.value.name == "tol"


def test_cross_check_threshold_transmissivity():
    # The transmissivity at the solved threshold reproduces the leak = 1 condition.  The
    # bisection's bracket is 1e-4 dB wide, so 1e-4 dB less loss leaves the leak below the cap.
    loss = loss_threshold(0.01, 0.01, 1e-4)
    T = loss_db_to_T(loss - 1e-4)
    g = leaked_fraction(baseline_disturbance(0.01, T), message_error(0.01, T))
    assert g < 1.0
    assert g == pytest.approx(1.0, abs=1e-3)

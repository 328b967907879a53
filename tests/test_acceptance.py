"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Statistical criteria use fixed seeds, so the whole
module is deterministic.
"""

import functools
import io
import time
from statistics import NormalDist

import pytest

from decoyroute import (
    AttackConfig,
    ChannelModel,
    alpha_for,
    exact_escape_prob,
    loss_threshold,
    run_simulation,
    security_curve,
)
from decoyroute.cli import main as cli_main
from decoyroute.constraints import (
    build_constrained_unitary,
    controlled_flip_unitary,
    disturbance_floor,
    haar_chunks,
    message_figures,
    round_trip_figures,
    swap_unitary,
    tradeoff_scatter,
)
from decoyroute.overhead import (
    bound_escape_prob,
    montecarlo_escape,
    required_overhead,
    total_overhead,
)

import numpy as np

import oracles


def criterion(name: str, budget_seconds: float):
    """Print the per-criterion verdict and enforce the runtime budget."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {name}: FAIL")
                raise
            elapsed = time.monotonic() - start
            print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")
            assert elapsed < budget_seconds, f"{name} took {elapsed:.1f}s > {budget_seconds}s"

        return inner

    return wrap


@criterion("criterion 1: leak curve and loss threshold", budget_seconds=1.0)
def test_criterion_1_leak_curve():
    assert loss_threshold(0.01, 0.01, tol=0.01) == pytest.approx(1.90, abs=0.05)
    points = security_curve(0.01, 0.01, 0.0, 3.0, 61)
    assert points[0].g == pytest.approx(0.0216, abs=1e-3)
    for prev, here in zip(points, points[1:]):
        assert here.g >= prev.g - 1e-15


@criterion("criterion 2: path-attack information-disturbance tradeoff", budget_seconds=30.0)
def test_criterion_2_path_tradeoff():
    n = 100_000
    for index, eta in enumerate((0.1, 0.25, 0.5, 1.0)):
        result = run_simulation(
            K=4 * n,
            h2_per_pair=0,
            h3_per_pair=n,
            channel=ChannelModel(T=1.0, gamma=0.0, mu=0.0),
            attack=AttackConfig(eta_path=eta),
            seed=1000 + index,
            traffic="full",
        )
        pair = result.pairs[0]
        assert pair.stats.type3_trials == n
        d_expected = eta / 2.0
        d_tol = oracles.binomial_tolerance(d_expected, n)
        assert pair.stats.d3_hat == pytest.approx(d_expected, abs=d_tol), f"eta={eta}"
        learn_tol = oracles.binomial_tolerance(eta, n)
        assert pair.type1_slots > 50_000
        assert pair.eve_learned_fraction == pytest.approx(eta, abs=max(learn_tol, 1e-12)), (
            f"eta={eta}"
        )
        # With zero baseline the bound 2*D3 equals eta only in expectation,
        # so compare up to the combined sampling tolerance.
        slack = 2.0 * d_tol + learn_tol
        assert result.leaked_fraction_bound >= result.actual_learned_fraction - slack


@criterion("criterion 3: no-attack baseline formulas", budget_seconds=60.0)
def test_criterion_3_baselines():
    n = 100_000
    t_grid = (1.0, 0.8, 0.6457, 0.5)
    noise_grid = (0.0, 0.01, 0.05)
    for t_index, T in enumerate(t_grid):
        for n_index, noise in enumerate(noise_grid):
            channel = ChannelModel(T=T, gamma=noise, mu=noise)
            result = run_simulation(
                K=4 * n,
                h2_per_pair=n,
                h3_per_pair=n,
                channel=channel,
                attack=AttackConfig(),
                seed=2000 + 10 * t_index + n_index,
                traffic="silent",
            )
            pair = result.pairs[0]
            d3_expected = noise * T * T + (1.0 - T * T) / 2.0
            d3_tol = oracles.binomial_tolerance(d3_expected, n, 3)
            assert pair.stats.d3_hat == pytest.approx(d3_expected, abs=max(d3_tol, 1e-12)), (T, noise)
            d2_expected = noise * T + (1.0 - T) / 2.0
            d2_tol = oracles.binomial_tolerance(d2_expected, n, 3)
            assert pair.stats.d2_hat == pytest.approx(d2_expected, abs=max(d2_tol, 1e-12)), (T, noise)


@criterion("criterion 4: message intercept-resend disturbance", budget_seconds=10.0)
def test_criterion_4_message_attack():
    n = 100_000
    expected = oracles.intercept_resend_error_rate()
    assert expected == pytest.approx(0.25, abs=1e-15)
    result = run_simulation(
        K=2 * n + 2,
        h2_per_pair=n,
        h3_per_pair=0,
        channel=ChannelModel(T=1.0, gamma=0.0, mu=0.0),
        attack=AttackConfig(eta_msg=1.0),
        seed=3000,
        traffic="silent",
    )
    pair = result.pairs[0]
    tol = oracles.binomial_tolerance(expected, n, 3)
    assert pair.stats.d2_hat == pytest.approx(expected, abs=tol)


@criterion("criterion 5: escape probability exactness and bounds", budget_seconds=60.0)
def test_criterion_5_escape_probabilities():
    # Exactness against full enumeration for every small case.
    for K in range(1, 13):
        for H3 in range(K + 1):
            for m in range(K + 1):
                expected = oracles.brute_force_escape(K, H3, m)
                assert exact_escape_prob(K, H3, m) == pytest.approx(expected, rel=1e-10), (
                    K,
                    H3,
                    m,
                )

    # Exact never exceeds the closed-form bound on the declared grid.
    for K in (10, 50, 100, 500):
        for fraction in (0.05, 0.1, 0.2):
            H3 = max(1, round(K * fraction))
            for eta in (0.1, 0.2, 0.4):
                m = round(eta * K)
                assert exact_escape_prob(K, H3, m) <= bound_escape_prob(K, H3, eta) + 1e-12

    # Monte Carlo agrees with the exact sum at a family-wise false-failure
    # probability of 1e-6 over two two-sided checks (z ~ 5.03); at 1e7 trials
    # the absolute tolerance is 0.53x that of the earlier 3 stderr at 1e6.
    z = NormalDist().inv_cdf(1 - 1e-6 / 4)
    for K, H3, m in ((2, 1, 1), (100, 20, 20)):
        exact = exact_escape_prob(K, H3, m)
        estimate, stderr = montecarlo_escape(K, H3, m, trials=10_000_000, seed=41)
        assert abs(estimate - exact) <= z * stderr, (K, H3, m)

    # Intercepting more slots never helps: exhaustive monotonicity check.
    for K in range(1, 101):
        for H3 in range(K + 1):
            previous = 1.0
            for m in range(K + 1):
                value = exact_escape_prob(K, H3, m)
                assert value <= previous + 1e-13, (K, H3, m)
                previous = value

    # The sized decoy count meets its escape target at production scale.
    alpha = alpha_for(0.01, 0.1)
    assert alpha == 93
    assert exact_escape_prob(100_000, alpha, 10_000) < 0.01


@criterion("criterion 6: logarithmic overhead scaling", budget_seconds=1.0)
def test_criterion_6_logarithmic_overhead():
    for H2, H3 in ((4, 6), (93, 93), (1, 0)):
        slope = total_overhead(H2, H3, 2**20) - total_overhead(H2, H3, 2**10)
        assert slope == (H2 + H3) * 10
    report = required_overhead(2**10, 0.01, 0.1)
    assert report.g1 == report.alpha + report.beta == 186
    assert report.g0_affine == report.alpha + 2 * report.beta
    assert report.g0_component_sum == 2 * report.alpha + 3 * report.beta
    assert report.h_total == report.g1 * 10 + report.g0_component_sum


@criterion("criterion 7: attack-unitary constraint verification", budget_seconds=30.0)
def test_criterion_7_constraint_verification():
    for dim in (2, 4, 8):
        for unitaries, probes in haar_chunks(np.random.default_rng(5000 + dim), 100, 4, dim):
            for (W, idle_first, idle_second, leg_out), probe in zip(unitaries, probes):
                U = build_constrained_unitary(W)
                disturbance, leakage = message_figures(U, probe)
                assert disturbance < 1e-10
                assert leakage < 1e-10
                # The return leg that satisfies leg_back @ leg_out == idle_second @ idle_first.
                leg_back = idle_second @ idle_first @ leg_out.conj().T
                trip = (leg_out, leg_back, idle_first, idle_second)
                disturbance, distance = round_trip_figures(trip, probe)
                assert disturbance < 1e-10
                assert distance < 1e-10

    for disturbance, distance in tradeoff_scatter(1000, 4, seed=51):
        assert disturbance >= disturbance_floor(distance) - 1e-9

    probe2 = np.eye(2)[0]
    assert message_figures(controlled_flip_unitary(), probe2)[0] == pytest.approx(
        0.25, abs=1e-12
    )
    assert message_figures(swap_unitary(), probe2)[0] == pytest.approx(0.5, abs=1e-12)


@criterion("criterion 8: byte-identical reruns per subcommand", budget_seconds=5.0)
def test_criterion_8_determinism():
    invocations = [
        ["figure2", "--seed", "9"],
        [
            "simulate", "--seed", "9", "--K", "2000", "--H2", "50", "--H3", "50",
            "--loss-db", "1.0", "--gamma", "0.01", "--mu", "0.01",
            "--attack", "both", "--eta-path", "0.4", "--eta-msg", "0.4",
        ],
        ["overhead", "--seed", "9", "--K", "60", "--H3", "12", "--m", "12",
         "--trials", "20000"],
        ["verify", "--seed", "9", "--dim", "3", "--samples", "25",
         "--scatter-samples", "30"],
    ]
    for argv in invocations:
        outputs = []
        for _ in range(2):
            buffer = io.StringIO()
            code = cli_main(list(argv), stdout=buffer)
            assert code == 0, argv
            outputs.append(buffer.getvalue().encode())
        assert outputs[0] == outputs[1], argv
        assert len(outputs[0]) > 0

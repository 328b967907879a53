import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoyroute import overhead
from decoyroute.errors import InputError
from decoyroute.overhead import (
    alpha_for,
    beta_for,
    bound_escape_prob,
    exact_escape_prob,
    h1_bits,
    h4_bits,
    montecarlo_escape,
    required_overhead,
    total_overhead,
)

import oracles


def test_h1_bits_examples():
    assert h1_bits(4, 6, 1024) == 4 * 11 + 6 * 10
    assert h1_bits(0, 0, 1024) == 0
    assert h1_bits(1, 0, 2) == 2


def test_h4_bits_examples():
    assert h4_bits(4, 6) == 10
    assert h4_bits(0, 0) == 0
    assert h4_bits(1, 1) == 2


def test_total_overhead_examples():
    assert total_overhead(4, 6, 1024) == 104 + 4 + 6 + 10
    assert total_overhead(0, 0, 1024) == 0


def test_total_overhead_log_slope():
    assert total_overhead(4, 6, 2**20) - total_overhead(4, 6, 2**10) == (4 + 6) * 10


def test_exact_escape_trivials():
    assert exact_escape_prob(2, 1, 1) == pytest.approx(0.75, abs=1e-12)
    assert exact_escape_prob(50, 0, 17) == 1.0
    assert exact_escape_prob(10, 10, 10) == pytest.approx(2**-10, rel=1e-12)


def test_exact_escape_matches_brute_force_small():
    for K in (2, 4, 7):
        for H3 in range(K + 1):
            for m in range(K + 1):
                expected = oracles.brute_force_escape(K, H3, m)
                assert exact_escape_prob(K, H3, m) == pytest.approx(expected, rel=1e-10), (
                    K,
                    H3,
                    m,
                )


# Relative error of the falling-factorial sum against the exact rational,
# measured: at most 3.5e-14 on every case below and at K = 1e12.  Each case
# asserts 1e-11; ``table_rel`` is the looser tolerance the earlier
# log(k!) table form met, kept only so the case ids stay the same.
@pytest.mark.parametrize(
    "K, H3, m, table_rel",
    [
        (1_000, 93, 100, 1e-10),
        (1_000, 990, 15, 1e-10),  # the overlap starts at j = 5
        (10_000, 93, 1_000, 1e-10),
        (10_000, 100, 9_950, 1e-10),  # the overlap starts at j = 50
        (100_000, 93, 10_000, 1e-7),
        (100_000, 93, 99_950, 1e-7),
        (1_000_000, 93, 100_000, 1e-7),
        (10_000_000, 93, 1_000_000, 1e-7),
        (10_000_000, 9_999_990, 20, 1e-7),
    ],
)
def test_exact_escape_matches_the_rational_oracle(K, H3, m, table_rel):
    expected = float(oracles.exact_escape_fraction(K, H3, m))
    assert exact_escape_prob(K, H3, m) == pytest.approx(expected, rel=1e-11, abs=0.0)


def test_exact_escape_memory_does_not_grow_with_K(monkeypatch):
    # Work and memory depend on min(H3, m) = 93 only, so K = 1e12 costs a few KB.
    K, H3, m = 10**12, 93, 10**11
    expected = float(oracles.exact_escape_fraction(K, H3, m))
    monkeypatch.setattr(overhead, "_log_fact_table", np.zeros(1))
    tracemalloc.start()
    try:
        escape = exact_escape_prob(K, H3, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert escape == pytest.approx(expected, rel=1e-11, abs=0.0)
    assert peak < 64 * 2**10, peak


@st.composite
def escape_cases(draw):
    K = draw(st.integers(1, 60))
    return K, draw(st.integers(0, K)), draw(st.integers(0, K))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(escape_cases())
def test_exact_escape_property_against_the_rational_oracle(case):
    expected = float(oracles.exact_escape_fraction(*case))
    assert exact_escape_prob(*case) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_log_factorial_table_does_not_depend_on_its_history(monkeypatch):
    # A regrown table once added the old last entry to a fresh cumsum, so the
    # 9-digit escape cell at K = 1e7 changed after an earlier K = 1e6 call.
    monkeypatch.setattr(overhead, "_log_fact_table", np.zeros(1))
    one_shot = overhead._log_factorials(10_000_000)
    escape = exact_escape_prob(10_000_000, 93, 1_000_000)
    overhead._log_fact_table = np.zeros(1)
    for n in (1_000_000, 3_000_001, 10_000_000):
        grown = overhead._log_factorials(n)
    assert np.array_equal(grown, one_shot)
    assert exact_escape_prob(10_000_000, 93, 1_000_000) == escape


def test_log_factorial_table_is_safe_to_grow_from_threads(monkeypatch):
    # Each caller reads the shared table once: a caller whose read straddled
    # another's growth once got a shape error or a table too short for its n.
    sizes = [70_000 * (i + 1) + i for i in range(8)]
    monkeypatch.setattr(overhead, "_log_fact_table", np.zeros(1))
    serial = overhead._log_factorials(max(sizes))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so the reads interleave
    try:
        with ThreadPoolExecutor(len(sizes)) as pool:
            for _ in range(40):
                overhead._log_fact_table = np.zeros(1)
                start = threading.Barrier(len(sizes), timeout=30)

                def grow(n):
                    start.wait()
                    return overhead._log_factorials(n)

                for n, table in zip(sizes, pool.map(grow, sizes, timeout=60)):
                    assert np.array_equal(table[: n + 1], serial[: n + 1]), n
    finally:
        sys.setswitchinterval(interval)


def test_log_factorial_growth_allocates_only_the_table(monkeypatch):
    monkeypatch.setattr(overhead, "_log_fact_table", np.zeros(1))
    n = 2_000_000
    tracemalloc.start()
    try:
        overhead._log_factorials(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n + 1) + 2**20, peak


def test_exact_escape_validates_inputs():
    with pytest.raises(ValueError):
        exact_escape_prob(10, 11, 5)
    with pytest.raises(ValueError):
        exact_escape_prob(10, 5, 11)


def test_escape_functions_cap_the_overlap_and_name_the_smaller_count(monkeypatch):
    # Memory grows with n = min(H3, m), about 64 B a unit, so n stops at 1e6.
    monkeypatch.setattr(overhead, "_log_factorials", None)  # the exact sum may not start
    n = overhead.MAX_OVERLAP + 1
    for K, H3, m, name in ((4 * n, n, 2 * n, "H3"), (4 * n, 2 * n, n, "m_intercepted"),
                           (2 * n, n, n, "H3")):
        for call in (
            lambda: exact_escape_prob(K, H3, m),
            lambda: montecarlo_escape(K, H3, m, trials=1, seed=0),
        ):
            with pytest.raises(InputError, match=f"^{name} must be at most 1000000 ") as error:
                call()
            assert error.value.name == name
    overhead.check_escape(4 * n, n - 1, 3 * n)  # at the cap
    overhead.check_escape(4 * n, 0, 4 * n)  # H3 = 0 leaves no overlap


def test_bound_escape_value():
    assert bound_escape_prob(100, 20, 0.2) == pytest.approx(0.925**20, rel=1e-10)
    assert bound_escape_prob(100, 20, 0.2) == pytest.approx(0.2103, abs=1e-4)


def test_bound_escape_vacuous_cases():
    assert bound_escape_prob(2, 1, 0.5) == pytest.approx(1.0, rel=1e-12)
    assert exact_escape_prob(2, 1, 1) <= bound_escape_prob(2, 1, 0.5)
    assert bound_escape_prob(123, 0, 0.3) == 1.0


def test_vacuous_bound_that_overflows_a_float_is_inf():
    # At eta >= 1/2 the base exceeds 1, and base ** (eta K) overflows at large K.
    assert bound_escape_prob(10**6, 10**5, 0.9) == math.inf
    assert 1.0 < bound_escape_prob(1000, 100, 0.9) < math.inf


@pytest.mark.parametrize(
    "call",
    [
        lambda K: exact_escape_prob(K, 0, 0),
        lambda K: montecarlo_escape(K, 0, 0, trials=1, seed=0),
        lambda K: bound_escape_prob(K, 0, 0.5),
        lambda K: required_overhead(K, 0.01, 0.1),
        lambda K: h1_bits(1, 1, K),
    ],
    ids=["exact", "montecarlo", "bound", "overhead", "h1_bits"],
)
def test_every_k_is_below_2_to_the_63(call):
    # One bound for every slot count, as the schedule has: a K that a float
    # cannot hold never reaches the arithmetic.
    call(2**63 - 1)
    for K in (2**63, 10**400):
        with pytest.raises(ValueError, match=r"^K must be below 2\*\*63"):
            call(K)


def test_bound_escape_rejects_degenerate_rates():
    with pytest.raises(ValueError):
        bound_escape_prob(100, 20, 0.0)
    with pytest.raises(ValueError):
        bound_escape_prob(100, 20, 1.0)


def test_exact_below_bound_on_grid():
    for K in (10, 50, 100, 500):
        for fraction in (0.05, 0.1, 0.2):
            H3 = max(1, round(K * fraction))
            for eta in (0.1, 0.2, 0.4):
                m = round(eta * K)
                assert exact_escape_prob(K, H3, m) <= bound_escape_prob(K, H3, eta) + 1e-12


def test_monotone_in_intercepted_count():
    for K in (10, 37, 100):
        for H3 in (0, 1, K // 4, K // 2, K):
            values = [exact_escape_prob(K, H3, m) for m in range(K + 1)]
            assert all(u >= v - 1e-13 for u, v in zip(values, values[1:]))


def test_asymptotic_values():
    # The relaxed limit exp(-eta H3 / 2) that alpha_for sizes by: at eta = 0.1, 92 path
    # decoys leave it just above 0.01 and the 93 that alpha_for gives just below.
    assert math.exp(-0.1 * 92 / 2) == pytest.approx(0.01005, abs=1e-5)
    assert math.exp(-0.1 * 93 / 2) < 0.01 and alpha_for(0.01, 0.1) == 93
    # At eta = 1/2 the bound's base is 1, so the bound and its large-K limit are 1.
    assert bound_escape_prob(10**6, 57, 0.5) == pytest.approx(1.0, rel=1e-9)


def test_finite_k_bound_approaches_limit():
    eta, H3 = 0.1, 92
    limit = math.exp(-eta * H3 * (1 - 2 * eta) / (2 * (1 - eta)))  # the bound as K -> infinity
    assert bound_escape_prob(10**6, H3, eta) == pytest.approx(limit, rel=0.01)


def test_alpha_examples():
    assert alpha_for(0.01, 0.1) == 93
    assert alpha_for(0.001, 0.1) == 139
    raw = (2.0 / 0.999) * math.log(1.0 / math.exp(-1.0))
    assert raw == pytest.approx(2.0, abs=0.01)
    assert alpha_for(math.exp(-1.0), 0.999) in (2, 3)


def test_alpha_validates():
    with pytest.raises(ValueError):
        alpha_for(0.0, 0.1)
    with pytest.raises(ValueError):
        alpha_for(0.01, 1.0)


@pytest.mark.parametrize(
    "size, argument",
    [
        (lambda: alpha_for(0.01, 1e-308), "eta_max"),
        (lambda: alpha_for(5e-324, 0.1), "epsilon"),
        (lambda: beta_for(5e-324, 0.1), "epsilon"),
        (lambda: required_overhead(1000, 5e-324, 0.1), "epsilon"),
        (lambda: required_overhead(1000, 0.01, 1e-308), "eta_max"),
        # The factor 4 of BB84 detection overflows where the factor 2 does not.
        (lambda: beta_for(1e-26, 1e-306, bb84_detection=True), "eta_max"),
    ],
    ids=["alpha-eta", "alpha-epsilon", "beta-epsilon", "report-epsilon", "report-eta",
         "beta-bb84-eta"],
)
def test_sizing_rejects_an_overflowing_count_by_name(size, argument):
    with pytest.raises(ValueError, match=f"^{argument} is too small"):
        size()


def test_sizing_at_the_edge_of_overflow_stays_finite():
    # beta_for(1e-26, 1e-306, bb84_detection=True) overflows; its factor-2 count does not.
    assert beta_for(1e-26, 1e-306) == alpha_for(1e-26, 1e-306) > 10**308


def test_beta_variants():
    assert beta_for(0.01, 0.1) == alpha_for(0.01, 0.1)
    assert beta_for(0.01, 0.1, bb84_detection=True) == math.ceil(40.0 * math.log(100.0))


def test_required_overhead_decomposition():
    report = required_overhead(1024, 0.01, 0.1)
    assert report.alpha == 93 and report.beta == 93
    assert report.g1 == 186
    assert report.g0_component_sum == 2 * 93 + 3 * 93
    assert report.g0_affine == 93 + 2 * 93
    assert report.h_total == total_overhead(93, 93, 1024)


def test_overhead_slope_when_k_doubles():
    report = required_overhead(2**12, 0.01, 0.1)
    low = total_overhead(report.beta, report.alpha, 2**12)
    high = total_overhead(report.beta, report.alpha, 2**13)
    assert high - low == report.g1


def test_overhead_fraction_vanishes():
    report = required_overhead(2**30, 0.01, 0.1)
    assert report.h_total / 2**30 < 1e-4


def test_montecarlo_agrees_with_exact():
    # Family-wise false-failure probability 1e-6 over three two-sided checks
    # (z ~ 5.10).  At 1e7 trials the absolute tolerance is 0.24x that of the
    # earlier 3 stderr at 2e5 trials.
    z = NormalDist().inv_cdf(1 - 1e-6 / 6)
    for K, H3, m in [(2, 1, 1), (20, 5, 8), (100, 20, 20)]:
        exact = exact_escape_prob(K, H3, m)
        estimate, stderr = montecarlo_escape(K, H3, m, trials=10_000_000, seed=11)
        assert abs(estimate - exact) <= z * stderr, (K, H3, m, estimate, exact, stderr)


# Includes m = 0, m = K and H3 = K, where the overlap is fixed and the
# standard error is zero.
ESCAPE_GRID = [
    (1, 1, 0), (1, 1, 1), (6, 2, 0), (6, 2, 3), (6, 2, 6),
    (12, 5, 1), (12, 5, 4), (12, 5, 12), (12, 12, 7), (20, 5, 8),
]


def test_overlap_and_subset_montecarlo_agree_with_exact_and_each_other():
    # Three two-sided checks per cell, family-wise false-failure probability
    # 1e-6.  The 1e-12 covers the rounding of the exact sum where stderr is 0.
    z = NormalDist().inv_cdf(1 - 1e-6 / (2 * 3 * len(ESCAPE_GRID)))
    for K, H3, m in ESCAPE_GRID:
        exact = exact_escape_prob(K, H3, m)
        overlap, overlap_se = montecarlo_escape(K, H3, m, trials=200_000, seed=21)
        subset, subset_se = oracles.subset_escape_montecarlo(K, H3, m, trials=200_000, seed=22)
        case = (K, H3, m, exact, overlap, overlap_se, subset, subset_se)
        assert abs(overlap - exact) <= z * overlap_se + 1e-12, case
        assert abs(subset - exact) <= z * subset_se + 1e-12, case
        assert abs(overlap - subset) <= z * math.hypot(overlap_se, subset_se) + 1e-12, case


def test_montecarlo_memory_does_not_grow_with_K():
    tracemalloc.start()
    try:
        montecarlo_escape(10**8, 93, 10**7, 10**6, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_montecarlo_single_trial_scores_a_power_of_half():
    estimate, stderr = montecarlo_escape(10**7, 93, 10**6, trials=1, seed=5)
    assert stderr == 0.0
    assert estimate in [0.5**j for j in range(94)]


def test_montecarlo_rejects_populations_numpy_cannot_draw():
    # numpy draws a hypergeometric only while both populations stay below 1e9.
    for K, H3 in ((10**9 + 93, 93), (2 * 10**9, 10**9), (10**9, 10**9)):
        with pytest.raises(ValueError, match=r"\bK\b"):
            montecarlo_escape(K, H3, 10, trials=1, seed=0)
    assert montecarlo_escape(10**9 + 92, 93, 10, trials=1, seed=0)[1] == 0.0


def test_montecarlo_no_decoys_is_exactly_one():
    estimate, stderr = montecarlo_escape(50, 0, 20, trials=100, seed=0)
    assert estimate == 1.0 and stderr == 0.0


def test_montecarlo_is_seeded():
    first = montecarlo_escape(30, 6, 9, trials=5000, seed=3)
    second = montecarlo_escape(30, 6, 9, trials=5000, seed=3)
    assert first == second


def test_sizing_pushes_escape_below_target():
    alpha = alpha_for(0.01, 0.1)
    assert exact_escape_prob(100_000, alpha, 10_000) < 0.01

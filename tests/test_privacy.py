from __future__ import annotations

import math
import random

import pytest

from agentmesh.privacy import (
    BudgetExhausted,
    DpParams,
    PrivacyBudget,
    dp_count,
    laplace_mechanism,
    laplace_noise,
)


def test_dp_params_validation():
    params = DpParams(epsilon=2.0, sensitivity=4.0)
    assert params.noise_scale == 2.0
    assert params.delta == 0.0
    for bad in (
        dict(epsilon=0.0),
        dict(epsilon=float("inf")),
        dict(epsilon=1.0, delta=1.0),
        dict(epsilon=1.0, delta=-0.1),
        dict(epsilon=1.0, sensitivity=0.0),
    ):
        with pytest.raises(ValueError):
            DpParams(**bad)


def test_huge_epsilon_means_negligible_noise():
    rng = random.Random(0)
    for _ in range(100):
        assert abs(laplace_mechanism(42.0, 1.0, 1e9, rng) - 42.0) < 1e-3


def test_laplace_variance_matches_2b_squared():
    rng = random.Random(123)
    n = 10**5
    draws = [laplace_noise(1.0, rng) for _ in range(n)]
    mean = sum(draws) / n
    var = sum((d - mean) ** 2 for d in draws) / n
    assert abs(var - 2.0) / 2.0 < 0.05
    assert abs(mean) < 0.02


def test_scale_follows_sensitivity_over_epsilon():
    rng = random.Random(7)
    n = 20_000
    draws = [laplace_mechanism(0.0, 2.0, 0.5, rng) for _ in range(n)]  # b = 4
    var = sum(d * d for d in draws) / n
    assert abs(var - 32.0) / 32.0 < 0.1  # 2 * 4^2


def test_parameter_validation():
    rng = random.Random(0)
    with pytest.raises(ValueError):
        laplace_mechanism(0.0, 1.0, 0.0, rng)
    with pytest.raises(ValueError):
        laplace_mechanism(0.0, 1.0, -1.0, rng)
    with pytest.raises(ValueError):
        laplace_mechanism(0.0, 0.0, 1.0, rng)


def test_dp_count_empty_and_full():
    rng = random.Random(1)
    assert abs(dp_count([], lambda _r: True, 1e9, rng)) < 1e-3
    records = list(range(50))
    assert abs(dp_count(records, lambda _r: True, 1e9, rng) - 50.0) < 1e-3
    assert abs(dp_count(records, lambda r: r < 10, 1e9, rng) - 10.0) < 1e-3


def test_budget_accounting_additive():
    budget = PrivacyBudget(total=4.0)
    rng = random.Random(2)
    for _ in range(3):
        dp_count([1, 2, 3], lambda _r: True, 0.5, rng, budget=budget)
    assert budget.spent == pytest.approx(1.5)
    assert budget.remaining == pytest.approx(2.5)


def test_budget_refuses_overspend():
    budget = PrivacyBudget(total=1.0)
    rng = random.Random(3)
    dp_count([1], lambda _r: True, 0.8, rng, budget=budget)
    with pytest.raises(BudgetExhausted):
        dp_count([1], lambda _r: True, 0.3, rng, budget=budget)
    assert budget.spent == pytest.approx(0.8)  # refused query charges nothing
    with pytest.raises(ValueError):
        PrivacyBudget(total=0.0)


def test_deterministic_under_seed():
    a = [laplace_noise(1.0, random.Random(9)) for _ in range(10)]
    b = [laplace_noise(1.0, random.Random(9)) for _ in range(10)]
    assert a == b


def test_neighbor_histogram_ratio_small():
    # Scaled-down version of the acceptance check: counts 100 vs 101,
    # epsilon 1, width-1 bins, occupied = at least 1% of samples on each side.
    n = 20_000
    epsilon = 1.0

    def histogram(value: float, seed: int) -> dict[int, int]:
        rng = random.Random(seed)
        h: dict[int, int] = {}
        for _ in range(n):
            bucket = math.floor(laplace_mechanism(value, 1.0, epsilon, rng))
            h[bucket] = h.get(bucket, 0) + 1
        return h

    h_a, h_b = histogram(100.0, 7), histogram(101.0, 8)
    floor = n // 100
    bound = math.e**epsilon * 1.1
    checked = 0
    for bucket in set(h_a) & set(h_b):
        if h_a[bucket] >= floor and h_b[bucket] >= floor:
            checked += 1
            assert h_a[bucket] / h_b[bucket] <= bound
            assert h_b[bucket] / h_a[bucket] <= bound
    assert checked >= 3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_budget_and_charges_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError):
        PrivacyBudget(total=bad)
    budget = PrivacyBudget(total=4.0)
    with pytest.raises(ValueError):
        budget.charge(bad)
    with pytest.raises(ValueError):
        dp_count([1, 2, 3], lambda _r: True, bad, random.Random(0), budget=budget)
    assert budget.spent == 0.0
    with pytest.raises(ValueError):
        laplace_mechanism(0.0, 1.0, bad, random.Random(0))
    with pytest.raises(ValueError):
        laplace_mechanism(0.0, bad, 1.0, random.Random(0))


def test_nan_query_does_not_disable_the_budget():
    budget = PrivacyBudget(total=4.0)
    with pytest.raises(ValueError):
        dp_count([1], lambda _r: True, math.nan, random.Random(0), budget=budget)
    with pytest.raises(BudgetExhausted):
        dp_count([1], lambda _r: True, 100.0, random.Random(0), budget=budget)
    assert budget.remaining == 4.0

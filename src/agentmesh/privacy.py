"""Differentially private publication of registry aggregates.

Pure-epsilon Laplace mechanism (inverse-CDF sampling over a seeded uniform
stream, so draws are deterministic under a seed) plus additive budget
accounting.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterable, TypeVar

__all__ = [
    "BudgetExhausted",
    "PrivacyBudget",
    "laplace_noise",
    "laplace_scale",
    "laplace_mechanism",
    "dp_count",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 4.0

T = TypeVar("T")


def _require_finite_positive(value: float, what: str) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{what} must be finite and positive, got {value!r}")


class BudgetExhausted(RuntimeError):
    """Query refused: it would push spend past the configured budget."""


class PrivacyBudget:
    """Additive epsilon accounting; refuses queries past the limit."""

    def __init__(self, total: float = DEFAULT_BUDGET) -> None:
        _require_finite_positive(total, "budget")
        self.total = total
        self.spent = 0.0

    @property
    def remaining(self) -> float:
        return self.total - self.spent

    def charge(self, epsilon: float) -> None:
        _require_finite_positive(epsilon, "epsilon")
        if self.spent + epsilon > self.total + 1e-12:
            raise BudgetExhausted(f"spend {self.spent} + {epsilon} exceeds budget {self.total}")
        self.spent += epsilon


def laplace_noise(scale: float, rng: random.Random) -> float:
    """Inverse-CDF Laplace draw: X = -b*sgn(u)*ln(1-2|u|), u ~ U(-1/2,1/2)."""
    while True:
        u = rng.random() - 0.5
        inner = 1.0 - 2.0 * abs(u)
        if inner > 0.0:
            return -scale * math.copysign(math.log(inner), u)


def laplace_scale(sensitivity: float, epsilon: float) -> float:
    """The noise scale sensitivity / epsilon, refused unless it is finite."""
    _require_finite_positive(epsilon, "epsilon")
    _require_finite_positive(sensitivity, "sensitivity")
    scale = sensitivity / epsilon
    if not math.isfinite(scale):
        raise ValueError(f"epsilon {epsilon!r} is too small: the noise scale sensitivity / epsilon overflows")
    return scale


def laplace_mechanism(true_value: float, sensitivity: float, epsilon: float, rng: random.Random) -> float:
    return true_value + laplace_noise(laplace_scale(sensitivity, epsilon), rng)


def dp_count(
    records: Iterable[T],
    predicate: Callable[[T], bool],
    epsilon: float,
    rng: random.Random,
    budget: PrivacyBudget | None = None,
) -> float:
    """Noisy count of records matching the predicate (sensitivity 1). When a
    budget is supplied the query charges it first and is refused once spent."""
    if budget is not None:
        budget.charge(epsilon)
    exact = sum(1 for r in records if predicate(r))
    return laplace_mechanism(float(exact), 1.0, epsilon, rng)

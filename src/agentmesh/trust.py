"""Computable trust: local edge scores, damped fixed-point propagation over
the trust graph, context-weighted signal fusion, and adaptive verification
tiers.

The propagation fixed point is T = alpha*M*T + (1-alpha)*e where M is the
row-stochastic trust matrix (LITERAL orientation, exactly as the local score
recurrence is written) or its transpose (TRANSPOSE, reputation flows toward
trusted nodes; the default for scoring). Rows without out-edges are replaced
by the normalized base vector. With LITERAL orientation the solution is a
convex combination of base-vector entries, so values stay inside
[min(e), max(e)] and the residual contracts by at least alpha per power
iteration; TRANSPOSE carries no such infinity-norm guarantee and is checked
against the direct linear solve instead.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "TrustGraph",
    "TrustVector",
    "TrustSignals",
    "ContextWeights",
    "VerificationTier",
    "Direction",
    "Orientation",
    "NonConvergentError",
    "local_trust_score",
    "row_stochastic",
    "propagate_trust",
    "solve_trust_exact",
    "fuse_signals",
    "verification_tier",
    "behavior_score",
    "attestation_score",
    "DEFAULT_THRESHOLDS",
]

DEFAULT_THRESHOLDS = (0.8, 0.5, 0.3)
_SIMPLEX_TOL = 1e-12


class Direction(enum.Enum):
    FORMULA_LITERAL = "formula_literal"  # mean over node i's out-edge weights
    INCOMING = "incoming"  # mean over weights of edges pointing at i


class Orientation(enum.Enum):
    LITERAL = "literal"
    TRANSPOSE = "transpose"


class NonConvergentError(RuntimeError):
    """Power iteration failed to reach the residual tolerance."""


@dataclass
class TrustGraph:
    """Weighted directed trust graph; weights in [0,1], no self-edges, at
    most one edge per ordered pair."""

    nodes: list[str]
    edges: list[tuple[int, int, float]]

    def __post_init__(self) -> None:
        n = len(self.nodes)
        seen: set[tuple[int, int]] = set()
        for i, j, w in self.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for {n} nodes")
            if i == j:
                raise ValueError(f"self-edge at node {i}")
            if not (0.0 <= w <= 1.0):
                raise ValueError(f"edge weight {w} outside [0,1]")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))

    @property
    def n(self) -> int:
        return len(self.nodes)

    def out_edges(self, i: int) -> list[tuple[int, float]]:
        return [(j, w) for a, j, w in self.edges if a == i]

    def in_edges(self, i: int) -> list[tuple[int, float]]:
        return [(a, w) for a, j, w in self.edges if j == i]


@dataclass
class TrustVector:
    values: np.ndarray
    alpha: float
    base: np.ndarray
    orientation: Orientation
    iterations: int
    residual: float
    residual_trace: tuple[float, ...] | None = None


def local_trust_score(graph: TrustGraph, i: int, direction: Direction = Direction.INCOMING) -> float | None:
    """Mean edge weight around node i; None when the edge set is empty.

    FORMULA_LITERAL averages i's outgoing weights (the recurrence as
    written); INCOMING averages the weights of edges pointing at i (the
    reputation reading). Both are exposed deliberately.
    """
    if not (0 <= i < graph.n):
        raise IndexError(f"node {i} out of range")
    if direction is Direction.FORMULA_LITERAL:
        weights = [w for _j, w in graph.out_edges(i)]
    else:
        weights = [w for _j, w in graph.in_edges(i)]
    if not weights:
        return None
    return math.fsum(weights) / len(weights)


def _validate_base(base: np.ndarray, n: int) -> np.ndarray:
    base = np.asarray(base, dtype=float)
    if base.shape != (n,):
        raise ValueError(f"base vector must have shape ({n},)")
    if np.any(base < 0.0) or np.any(base > 1.0):
        raise ValueError("base vector entries must lie in [0,1]")
    if float(base.sum()) <= 0.0:
        raise ValueError("base vector must have positive mass")
    return base


def default_base(n: int, orientation: Orientation) -> np.ndarray:
    """Uniform priors: 1/n under LITERAL (mass semantics), 0.5 under
    TRANSPOSE (score semantics)."""
    if orientation is Orientation.LITERAL:
        return np.full(n, 1.0 / n)
    return np.full(n, 0.5)


def row_stochastic(graph: TrustGraph, base: np.ndarray | None = None) -> np.ndarray:
    """Normalize out-edge weights row-wise; rows with no (or all-zero)
    out-edges become the normalized base vector."""
    n = graph.n
    if base is None:
        base = np.full(n, 1.0 / n) if n else np.zeros(0)
    base = _validate_base(base, n)
    teleport = base / base.sum()
    W = np.zeros((n, n))
    for i, j, w in graph.edges:
        W[i, j] = w
    sums = W.sum(axis=1)
    for i in range(n):
        if sums[i] > 0.0:
            W[i, :] /= sums[i]
        else:
            W[i, :] = teleport
    return W


def propagate_trust(
    graph: TrustGraph,
    alpha: float = 0.85,
    base: np.ndarray | None = None,
    orientation: Orientation = Orientation.TRANSPOSE,
    tol: float = 1e-9,
    max_iters: int | None = None,
    start: np.ndarray | None = None,
    keep_trace: bool = False,
) -> TrustVector:
    """Power-iterate T <- alpha*M*T + (1-alpha)*e until the fixed-point
    residual drops below tol."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0,1)")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    n = graph.n
    if n == 0:
        raise ValueError("empty graph")
    base_vec = _validate_base(base if base is not None else default_base(n, orientation), n)
    W = row_stochastic(graph, base_vec)
    M = W if orientation is Orientation.LITERAL else W.T
    if max_iters is None:
        max_iters = math.ceil(100.0 * math.log(max(n, 2)) / (-math.log(alpha)))
    T = np.array(base_vec if start is None else np.asarray(start, dtype=float), copy=True)
    if T.shape != (n,):
        raise ValueError(f"start vector must have shape ({n},)")
    hold = (1.0 - alpha) * base_vec
    trace: list[float] = []
    residual = float(np.max(np.abs(T - alpha * (M @ T) - hold)))
    if keep_trace:
        trace.append(residual)
    iterations = 0
    while residual >= tol:
        if iterations >= max_iters:
            raise NonConvergentError(f"residual {residual} after {iterations} iterations")
        T = alpha * (M @ T) + hold
        iterations += 1
        residual = float(np.max(np.abs(T - alpha * (M @ T) - hold)))
        if keep_trace:
            trace.append(residual)
    return TrustVector(
        values=T,
        alpha=alpha,
        base=base_vec,
        orientation=orientation,
        iterations=iterations,
        residual=residual,
        residual_trace=tuple(trace) if keep_trace else None,
    )


def solve_trust_exact(
    graph: TrustGraph,
    alpha: float = 0.85,
    base: np.ndarray | None = None,
    orientation: Orientation = Orientation.TRANSPOSE,
) -> np.ndarray:
    """Direct dense solve of (I - alpha*M) T = (1-alpha)*e; the independent
    route the power iteration is checked against."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0,1)")
    n = graph.n
    base_vec = _validate_base(base if base is not None else default_base(n, orientation), n)
    W = row_stochastic(graph, base_vec)
    M = W if orientation is Orientation.LITERAL else W.T
    return np.linalg.solve(np.eye(n) - alpha * M, (1.0 - alpha) * base_vec)


# ---------------------------------------------------------------------------
# Signal fusion and tiers
# ---------------------------------------------------------------------------


class ContextKind(enum.Enum):
    FINANCIAL = "financial"
    ANALYTICAL = "analytical"
    DEFAULT = "default"


@dataclass(frozen=True)
class ContextWeights:
    context: ContextKind
    w_policy: float
    w_behavior: float
    w_attest: float

    def __post_init__(self) -> None:
        for w in (self.w_policy, self.w_behavior, self.w_attest):
            if w < 0.0:
                raise ValueError("weights must be nonnegative")
        if abs((self.w_policy + self.w_behavior + self.w_attest) - 1.0) > _SIMPLEX_TOL:
            raise ValueError("weights must sum to 1")

    @classmethod
    def for_context(cls, context: ContextKind) -> "ContextWeights":
        if context is ContextKind.FINANCIAL:
            return cls(context, 0.2, 0.2, 0.6)
        if context is ContextKind.ANALYTICAL:
            return cls(context, 0.2, 0.6, 0.2)
        return cls(context, 1.0 / 3.0, 1.0 / 3.0, 1.0 - 2.0 / 3.0)


@dataclass(frozen=True)
class TrustSignals:
    policy_pass_rate: float
    anomaly_score: float  # 1.0 = fully normal
    attestation_score: float

    def __post_init__(self) -> None:
        for name, value in (
            ("policy_pass_rate", self.policy_pass_rate),
            ("anomaly_score", self.anomaly_score),
            ("attestation_score", self.attestation_score),
        ):
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} {value} outside [0,1]")


class VerificationTier(enum.Enum):
    STREAMLINED = "Streamlined"
    STANDARD = "Standard"
    ENHANCED = "Enhanced"
    QUARANTINE = "Quarantine"


def fuse_signals(signals: TrustSignals, weights: ContextWeights, propagated: float) -> float:
    """Propagated trust multiplicatively gates the weighted signal blend, so
    one good signal cannot buy a high score without earned reputation."""
    if not (0.0 <= propagated <= 1.0):
        raise ValueError(f"propagated trust {propagated} outside [0,1]")
    blended = (
        weights.w_policy * signals.policy_pass_rate
        + weights.w_behavior * signals.anomaly_score
        + weights.w_attest * signals.attestation_score
    )
    return propagated * blended


def verification_tier(score: float, thresholds: tuple[float, float, float] = DEFAULT_THRESHOLDS) -> VerificationTier:
    t_stream, t_standard, t_enhanced = thresholds
    if not (t_stream > t_standard > t_enhanced):
        raise ValueError("thresholds must be strictly decreasing")
    if score >= t_stream:
        return VerificationTier.STREAMLINED
    if score >= t_standard:
        return VerificationTier.STANDARD
    if score >= t_enhanced:
        return VerificationTier.ENHANCED
    return VerificationTier.QUARANTINE


def behavior_score(event_counts: Sequence[float], population: Sequence[Sequence[float]]) -> float:
    """Anomaly-derived score exp(-max |z|) against population feature stats.

    Zero-variance features are skipped; no usable evidence (empty vector or a
    single-agent population) scores 1.0.
    """
    if len(event_counts) == 0 or len(population) < 2:
        return 1.0
    data = np.asarray(population, dtype=float)
    if data.shape[1] != len(event_counts):
        raise ValueError("event vector length does not match population features")
    mean = data.mean(axis=0)
    std = data.std(axis=0)
    worst = 0.0
    for f, x in enumerate(event_counts):
        if std[f] == 0.0:
            continue
        worst = max(worst, abs((x - mean[f]) / std[f]))
    return math.exp(-worst)


def attestation_score(verified_count: int) -> float:
    """Diminishing-returns mapping from verified attestation count."""
    if verified_count < 0:
        raise ValueError("count must be nonnegative")
    return 1.0 - math.exp(-verified_count / 5.0)

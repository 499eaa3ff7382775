"""Computable trust: local edge scores, damped fixed-point propagation over
the trust graph, context-weighted signal fusion, and adaptive verification
tiers. Fusion policy is data: a table of context weights (CONTEXT_WEIGHTS),
a table of tiers, and trust_breakdown, the one function that checks the
signals and fuses them.

The propagation fixed point is T = alpha*M*T + (1-alpha)*e where M is the
row-stochastic trust matrix (LITERAL orientation, exactly as the local score
recurrence is written) or its transpose (TRANSPOSE, reputation flows toward
trusted nodes; the default for scoring). Rows without out-edges are replaced
by the normalized base vector. With LITERAL orientation the solution is a
convex combination of base-vector entries, so values stay inside
[min(e), max(e)] and the residual contracts by at least alpha per power
iteration; TRANSPOSE carries no such infinity-norm guarantee and is checked
against the direct linear solve instead.

Cost: a graph is validated and held as three edge arrays (src, dst, weight),
so building it and every local score is O(E) array work. The engine is dense:
W is filled in a 64-byte-aligned n x n buffer, zeroed, with the edges
scattered in and its row sums taken, O(n^2) memory and time, then normalised
with one division per edge, O(E). Power iterates run in blocks of at most
_BLOCK: each iterate is one O(n^2) matvec over W and two elementwise O(n)
calls, and each block takes its residuals in one pass over O(_BLOCK*n)
buffers. Each block after the first runs only to the iterate where the
residuals' mean decay per iterate says the residual first falls below tol;
the iterates computed past the one that converges are thrown away, at most
_BLOCK - 1 matvecs per call, and at most 3 on the Sybil scenario's n = 200
graphs of seeds 1 to 200. The exact solve turns W's buffer into
I - alpha*M in place, O(n^2), and LAPACK solves a copy of it, O(n^3).
propagate_trust and solve_trust_exact each build their own W; fixed_points
builds each graph's W once for both, in one buffer for the whole list, so
the n x n allocation and its page faults are paid once per list.
"""

from __future__ import annotations

import enum
import math
from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "TrustGraph",
    "TrustVector",
    "Direction",
    "Orientation",
    "NonConvergentError",
    "local_trust_score",
    "row_stochastic",
    "propagate_trust",
    "solve_trust_exact",
    "fixed_points",
    "CONTEXT_WEIGHTS",
    "trust_breakdown",
    "verification_tier",
    "behavior_scores",
    "attestation_score",
]

_ALIGN = 64  # bytes: a cache line
_BLOCK = 16  # power iterates between residual passes


class Direction(enum.Enum):
    FORMULA_LITERAL = "formula_literal"  # mean over node i's out-edge weights
    INCOMING = "incoming"  # mean over weights of edges pointing at i


class Orientation(enum.Enum):
    LITERAL = "literal"
    TRANSPOSE = "transpose"


class NonConvergentError(RuntimeError):
    """Power iteration failed to reach the residual tolerance."""


@dataclass(frozen=True, eq=False)
class TrustGraph:
    """Weighted directed trust graph; weights in [0,1], no self-edges, at
    most one edge per ordered pair.

    Built from (i, j, w) triples, as a sequence or an (E, 3) array, and held
    as the read-only arrays src, dst and weight in the given order. A refused
    edge list raises ValueError naming its first bad edge."""

    nodes: tuple[str, ...]
    edges: InitVar[Sequence[tuple[int, int, float]] | np.ndarray]
    src: np.ndarray = field(init=False)
    dst: np.ndarray = field(init=False)
    weight: np.ndarray = field(init=False)

    def __post_init__(self, edges) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        n = len(self.nodes)
        table = np.array(edges)
        if table.size == 0:
            table = np.zeros((0, 3))
        if table.ndim != 2 or table.shape[1] != 3 or table.dtype.kind not in "biufO":
            raise ValueError("edges must be numeric (i, j, w) triples")
        # Integer tables compare exactly; so do object tables, which hold the
        # Python ints too large for a float.
        i, j, w = table.T
        with np.errstate(invalid="ignore"):
            # An index in range is an integer exactly when it is its own floor,
            # which numpy computes far faster than a float remainder; Python
            # ints have no floor loop, so an object table takes the remainder.
            if table.dtype.kind == "O":
                integral = (i % 1 == 0) & (j % 1 == 0)
            else:
                integral = (np.floor(i) == i) & (np.floor(j) == j)
            # One mask per rule, in the order that names a refused edge.
            rules = (
                ((0 <= i) & (i < n) & (0 <= j) & (j < n), "edge ({i},{j}) out of range for {n} nodes"),
                (i != j, "self-edge at node {i}"),
                ((0.0 <= w) & (w <= 1.0), "edge weight {w} outside [0,1]"),
                (integral, "edge ({i},{j}) has a non-integer index"),
            )
        ok = np.logical_and.reduce([mask for mask, _message in rules])
        refused = int(np.argmin(ok)) if not ok.all() else len(table)
        # Every edge before the first bad one is valid on its own, so an
        # edge there is refused only as a repeat of an earlier pair.
        src, dst = i[:refused].astype(np.intp), j[:refused].astype(np.intp)
        # A sort finds whether any pair repeats; only then is the first
        # repeat located, by the stable sort inside np.unique.
        keys = src * n + dst
        ordered = np.sort(keys)
        if (ordered[1:] == ordered[:-1]).any():
            _keys, first = np.unique(keys, return_index=True)
            repeat = np.ones(refused, dtype=bool)
            repeat[first] = False
            refused = int(np.argmax(repeat))
        if refused < len(table):
            # An edge that passes every mask is refused as a repeat.
            message = next((m for mask, m in rules if not mask[refused]), "duplicate edge ({i},{j})")
            raise ValueError(message.format(**dict(zip("ijw", edges[refused])), n=n))
        for name, values in (("src", src), ("dst", dst), ("weight", w.astype(np.float64))):
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    @property
    def n(self) -> int:
        return len(self.nodes)


@dataclass
class TrustVector:
    values: np.ndarray
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
    ends = graph.src if direction is Direction.FORMULA_LITERAL else graph.dst
    weights = graph.weight[ends == i]
    if weights.size == 0:
        return None
    return math.fsum(weights) / weights.size


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


def _aligned_empty(n: int) -> np.ndarray:
    """An n x n float64 matrix whose data starts on a 64-byte boundary.
    numpy guarantees 16-byte alignment only, and OpenBLAS's gemv, which the
    power loop calls as np.dot(M, T_t, out=step_t) with M = W or W.T, gives
    the same bits from any address but runs about 1.5x slower from one that
    is not 64-byte aligned."""
    nbytes = n * n * 8
    raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start : start + nbytes].view(np.float64).reshape(n, n)


def _fill(W: np.ndarray, graph: TrustGraph, base: np.ndarray) -> None:
    """Write the row-stochastic matrix of `graph` into the n x n buffer W,
    whatever W held: out-edge weights normalised row-wise, and rows with no
    (or all-zero) out-edges set to the normalised base vector."""
    W.fill(0.0)
    W[graph.src, graph.dst] = graph.weight
    sums = W.sum(axis=1)
    live = sums > 0.0
    # One division per edge on a live row: every other cell of a live row is
    # 0.0, which a division by its row sum would leave 0.0.
    on = live[graph.src]
    src = graph.src[on]
    W[src, graph.dst[on]] = graph.weight[on] / sums[src]
    W[~live] = base / base.sum()


def row_stochastic(graph: TrustGraph, base: np.ndarray) -> np.ndarray:
    """Normalize out-edge weights row-wise; rows with no (or all-zero)
    out-edges become the normalized base vector."""
    base = _validate_base(base, graph.n)
    W = _aligned_empty(graph.n)
    _fill(W, graph, base)
    return W


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0,1)")


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _base_vector(n: int, base: np.ndarray | None, orientation: Orientation) -> np.ndarray:
    """The base vector e of the fixed point, unvalidated; refuses an empty
    graph, which has no fixed point."""
    if n == 0:
        raise ValueError("empty graph")
    return np.asarray(base if base is not None else default_base(n, orientation), dtype=float)


def _operator(graph: TrustGraph, base: np.ndarray | None, orientation: Orientation) -> tuple[np.ndarray, np.ndarray]:
    """The base vector e and the matrix M of the fixed point
    T = alpha*M*T + (1-alpha)*e; `row_stochastic` validates e."""
    base_vec = _base_vector(graph.n, base, orientation)
    W = row_stochastic(graph, base_vec)
    return base_vec, W if orientation is Orientation.LITERAL else W.T


def _power(M: np.ndarray, base: np.ndarray, alpha: float, tol: float, T: np.ndarray, keep_trace: bool) -> TrustVector:
    """Power-iterate T <- alpha*M*T + (1-alpha)*base from T until the
    residual drops below tol; NonConvergentError past the iteration cap.
    Reads M and T, writes neither. The first block runs _BLOCK iterates;
    the residual decay sets the length of each later one."""
    n = len(base)
    max_iters = math.ceil(100.0 * math.log(max(n, 2)) / (-math.log(alpha)))
    scale = np.float64(alpha)
    hold = (1.0 - alpha) * base
    trace: list[float] = []
    # Iterates run in blocks of at most _BLOCK. Row t of `Ts` holds T_t and
    # row t of `steps` holds step_t = alpha*(M@T_t), which serves both T_{t+1}
    # = step_t + hold and the residual max|T_t - step_t - hold| of T_t. Each
    # iterate is three calls on row views built once; each block then takes
    # all its residuals in one pass, with the same elementwise operations in
    # the same order as one iterate at a time, and scans them in order.
    Ts = np.empty((_BLOCK + 1, n))
    steps = np.empty((_BLOCK, n))
    Ts[0] = T
    rows = list(zip(Ts[:-1], steps, Ts[1:]))
    dot, multiply, add = np.dot, np.multiply, np.add
    log_tol = math.log(tol)
    length, ratio = _BLOCK, math.nan
    iterations = 0
    while True:
        for T_t, step_t, T_next in rows[:length]:
            dot(M, T_t, step_t)
            multiply(step_t, scale, step_t)
            add(step_t, hold, T_next)
        block = steps[:length]
        np.subtract(Ts[:length], block, out=block)
        np.subtract(block, hold, out=block)
        np.abs(block, out=block)
        residuals = np.maximum.reduce(block, axis=1).tolist()
        for t, residual in enumerate(residuals):
            if keep_trace:
                trace.append(residual)
            if residual < tol:
                return TrustVector(
                    values=Ts[t].copy(),
                    iterations=iterations,
                    residual=residual,
                    residual_trace=tuple(trace) if keep_trace else None,
                )
            if iterations >= max_iters:
                raise NonConvergentError(f"residual {residual} after {iterations} iterations")
            iterations += 1
        Ts[0] = Ts[length]
        # The next block runs to the iterate where the mean decay per iterate
        # first takes the last residual below tol. Every residual here is at
        # least tol, or NaN. A block of one iterate, or one whose decay is NaN,
        # not below 1 or underflowed to 0, keeps the last estimate; with none
        # yet, a full block runs.
        last = residuals[-1]
        if length > 1:
            decay = (last / residuals[0]) ** (1.0 / (length - 1))
            if 0.0 < decay < 1.0:
                ratio = decay
        length = _BLOCK
        if ratio < 1.0:
            need = (log_tol - math.log(last)) / math.log(ratio)
            if need < _BLOCK:
                length = int(need) + 1


def _solve(M: np.ndarray, base: np.ndarray, alpha: float) -> np.ndarray:
    """Solve (I - alpha*M) T = (1-alpha)*base, turning M into I - alpha*M in
    its own buffer with the bits of np.eye(n) - alpha*M: off the diagonal
    0.0 - a keeps the +0.0, and on it (0.0 - a) + 1.0 == 1.0 - a. solve
    copies its operand into Fortran order whichever way M is laid out."""
    np.multiply(M, alpha, out=M)
    np.subtract(0.0, M, out=M)
    M.flat[:: len(base) + 1] += 1.0
    return np.linalg.solve(M, (1.0 - alpha) * base)


def propagate_trust(
    graph: TrustGraph,
    alpha: float = 0.85,
    base: np.ndarray | None = None,
    orientation: Orientation = Orientation.TRANSPOSE,
    tol: float = 1e-9,
    start: np.ndarray | None = None,
    keep_trace: bool = False,
) -> TrustVector:
    """Power-iterate T <- alpha*M*T + (1-alpha)*e until the fixed-point
    residual drops below tol; NonConvergentError past the iteration cap.

    Iterates run in blocks of at most _BLOCK, then the block's residuals are
    scanned in order, so the result, `iterations` (the iterates accepted,
    not the matvecs run), the residual and the trace are bit for bit those
    of one iterate at a time. Each block's length is guessed from the
    residual decay of the blocks before it, so a few iterates past the
    converged one, and never _BLOCK or more, are computed and thrown away."""
    _check_alpha(alpha)
    _check_tol(tol)
    base_vec, M = _operator(graph, base, orientation)
    T = base_vec if start is None else np.asarray(start, dtype=float)
    if T.shape != (graph.n,):
        raise ValueError(f"start vector must have shape ({graph.n},)")
    return _power(M, base_vec, alpha, tol, T, keep_trace)


def solve_trust_exact(
    graph: TrustGraph,
    alpha: float = 0.85,
    base: np.ndarray | None = None,
    orientation: Orientation = Orientation.TRANSPOSE,
) -> np.ndarray:
    """Direct dense solve of (I - alpha*M) T = (1-alpha)*e; the independent
    route the power iteration is checked against."""
    _check_alpha(alpha)
    base_vec, M = _operator(graph, base, orientation)
    return _solve(M, base_vec, alpha)


def fixed_points(
    graphs: Sequence[TrustGraph],
    alpha: float = 0.85,
    base: np.ndarray | None = None,
    orientation: Orientation = Orientation.TRANSPOSE,
    tol: float = 1e-9,
) -> list[tuple[TrustVector, np.ndarray]]:
    """(propagate_trust(g, ...), solve_trust_exact(g, ...)) for each graph g
    of a list on one node count, bit for bit, from one n x n buffer: each
    graph's W is built in it once, power-iterated from the base, then turned
    into I - alpha*M in place and solved. Graphs whose node counts differ
    are refused with ValueError before any work."""
    _check_alpha(alpha)
    _check_tol(tol)
    counts = sorted({graph.n for graph in graphs})
    if len(counts) > 1:
        raise ValueError(f"graphs must share one node count, got {counts}")
    if not graphs:
        return []
    (n,) = counts
    base_vec = _validate_base(_base_vector(n, base, orientation), n)
    W = _aligned_empty(n)
    M = W if orientation is Orientation.LITERAL else W.T
    results = []
    for graph in graphs:
        _fill(W, graph, base_vec)
        vector = _power(M, base_vec, alpha, tol, base_vec, False)
        results.append((vector, _solve(M, base_vec, alpha)))
    return results


# ---------------------------------------------------------------------------
# Signal fusion and tiers
# ---------------------------------------------------------------------------


# Per context, the (policy, behaviour, attestation) weights of the fused
# score; each triple is non-negative and sums to 1.
CONTEXT_WEIGHTS = {
    "financial": (0.2, 0.2, 0.6),
    "analytical": (0.2, 0.6, 0.2),
    "default": (1.0 / 3.0, 1.0 / 3.0, 1.0 - 2.0 / 3.0),
}
# The lowest score of each tier, highest first; below the last is Quarantine.
_TIERS = ((0.8, "Streamlined"), (0.5, "Standard"), (0.3, "Enhanced"))


def trust_breakdown(*, policy: float, behavior: float, attest: float, propagated: float, context: str) -> dict:
    """One agent's trust row: its propagated trust, each signal, the fused
    score and the verification tier that score earns. Every input must lie
    in [0,1]. Propagated trust multiplicatively gates the blend of the
    signals under the context's weights, so one good signal cannot buy a
    high score without earned reputation."""
    for name, value in (
        ("policy_pass_rate", policy),
        ("anomaly_score", behavior),
        ("attestation_score", attest),
        ("propagated trust", propagated),
    ):
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"{name} {value} outside [0,1]")
    w_policy, w_behavior, w_attest = CONTEXT_WEIGHTS[context]
    fused = propagated * (w_policy * policy + w_behavior * behavior + w_attest * attest)
    return {
        "propagated": propagated,
        "policy": policy,
        "behavior": behavior,
        "attest": attest,
        "fused": fused,
        "tier": verification_tier(fused),
    }


def verification_tier(score: float) -> str:
    """The name of the highest tier whose lowest score `score` reaches."""
    for lowest, name in _TIERS:
        if score >= lowest:
            return name
    return "Quarantine"


def behavior_scores(features: np.ndarray) -> list[float]:
    """Anomaly-derived scores exp(-max |z|), one per row of an (agents,
    features) array, each against the population's feature mean and std.

    Zero-variance features are skipped; with no features, or fewer than two
    agents, there is no usable evidence and every score is 1.0.
    """
    # C order: numpy sums a column that is contiguous in memory pairwise, and
    # one that is not row by row, so the mean and std would otherwise depend
    # on the caller's layout.
    data = np.ascontiguousarray(features, dtype=float)
    if data.shape[1] == 0 or len(data) < 2:
        return [1.0] * len(data)
    mean = data.mean(axis=0)
    std = data.std(axis=0)
    z = np.zeros_like(data)
    np.divide(np.abs(data - mean), std, out=z, where=std > 0.0)
    # math.exp, not np.exp: the two can differ in the last bit.
    return [math.exp(-worst) for worst in z.max(axis=1).tolist()]


def attestation_score(verified_count: int) -> float:
    """Diminishing-returns mapping from verified attestation count."""
    if verified_count < 0:
        raise ValueError("count must be nonnegative")
    return 1.0 - math.exp(-verified_count / 5.0)

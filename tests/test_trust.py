from __future__ import annotations

import math
import random

import numpy as np
import pytest

from agentmesh.trust import (
    ContextKind,
    ContextWeights,
    Direction,
    Orientation,
    TrustGraph,
    TrustSignals,
    VerificationTier,
    attestation_score,
    behavior_score,
    default_base,
    fuse_signals,
    local_trust_score,
    propagate_trust,
    row_stochastic,
    solve_trust_exact,
    verification_tier,
)


def _random_graph(rng: random.Random, n_max: int = 30, density: float = 0.25) -> TrustGraph:
    n = rng.randrange(2, n_max)
    edges = [
        (i, j, rng.random())
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < density
    ]
    return TrustGraph(nodes=[str(i) for i in range(n)], edges=edges)


# -- local scores (three fixed graphs, hand-computed) ------------------------


def test_local_score_single_out_edge():
    g = TrustGraph(nodes=["a", "b"], edges=[(0, 1, 0.8)])
    assert local_trust_score(g, 0, Direction.FORMULA_LITERAL) == 0.8
    assert local_trust_score(g, 1, Direction.INCOMING) == 0.8
    assert local_trust_score(g, 0, Direction.INCOMING) is None
    assert local_trust_score(g, 1, Direction.FORMULA_LITERAL) is None


def test_local_score_mean_of_out_edges():
    g = TrustGraph(nodes=list("abcd"), edges=[(0, 1, 0.2), (0, 2, 0.4), (0, 3, 0.6), (1, 0, 1.0)])
    assert local_trust_score(g, 0, Direction.FORMULA_LITERAL) == pytest.approx(0.4, abs=1e-12)
    assert local_trust_score(g, 0, Direction.INCOMING) == pytest.approx(1.0, abs=1e-12)
    assert local_trust_score(g, 1, Direction.INCOMING) == pytest.approx(0.2, abs=1e-12)
    assert local_trust_score(g, 2, Direction.FORMULA_LITERAL) is None


def test_local_score_isolated_node_undefined():
    g = TrustGraph(nodes=list("abc"), edges=[(0, 1, 0.5), (1, 0, 0.3)])
    assert local_trust_score(g, 2, Direction.FORMULA_LITERAL) is None
    assert local_trust_score(g, 2, Direction.INCOMING) is None
    assert local_trust_score(g, 0, Direction.INCOMING) == pytest.approx(0.3)
    with pytest.raises(IndexError):
        local_trust_score(g, 5)


def test_graph_validation():
    with pytest.raises(ValueError):
        TrustGraph(nodes=["a"], edges=[(0, 0, 0.5)])  # self edge
    with pytest.raises(ValueError):
        TrustGraph(nodes=["a", "b"], edges=[(0, 1, 1.5)])  # weight out of range
    with pytest.raises(ValueError):
        TrustGraph(nodes=["a", "b"], edges=[(0, 1, 0.5), (0, 1, 0.6)])  # duplicate


# -- row-stochastic matrix ----------------------------------------------------


def test_row_stochastic_examples():
    g = TrustGraph(nodes=list("ab"), edges=[(0, 1, 0.5), (1, 0, 0.5)])
    W = row_stochastic(g)
    assert W[0, 1] == 1.0 and W[1, 0] == 1.0

    g2 = TrustGraph(nodes=list("abc"), edges=[(0, 1, 0.2), (0, 2, 0.6)])
    W2 = row_stochastic(g2)
    assert W2[0, 1] == pytest.approx(0.25)
    assert W2[0, 2] == pytest.approx(0.75)

    g3 = TrustGraph(nodes=list("abcd"), edges=[(1, 0, 1.0)])
    W3 = row_stochastic(g3)  # rows 0, 2, 3 dangling, uniform base
    for row in (0, 2, 3):
        assert np.allclose(W3[row], 0.25)


def test_all_zero_weight_row_treated_as_dangling():
    g = TrustGraph(nodes=list("abc"), edges=[(0, 1, 0.0), (0, 2, 0.0), (1, 2, 1.0)])
    W = row_stochastic(g)
    assert np.allclose(W[0], 1.0 / 3.0)


# -- propagation ---------------------------------------------------------------


def test_alpha_to_zero_returns_base():
    g = TrustGraph(nodes=list("abc"), edges=[(0, 1, 1.0), (1, 2, 0.5), (2, 0, 0.5)])
    e = np.array([0.2, 0.3, 0.5])
    tv = propagate_trust(g, alpha=1e-12, base=e, orientation=Orientation.LITERAL)
    assert np.max(np.abs(tv.values - e)) < 1e-9


def test_two_node_symmetric_cycle_fixed_point():
    g = TrustGraph(nodes=["a", "b"], edges=[(0, 1, 1.0), (1, 0, 1.0)])
    tv = propagate_trust(g, alpha=0.5, base=np.array([0.5, 0.5]), orientation=Orientation.LITERAL)
    assert np.allclose(tv.values, [0.5, 0.5], atol=1e-12)


def test_power_iteration_matches_direct_solve_both_orientations():
    rng = random.Random(101)
    for _ in range(30):
        g = _random_graph(rng, n_max=11)
        for orientation in (Orientation.LITERAL, Orientation.TRANSPOSE):
            tv = propagate_trust(g, alpha=0.85, orientation=orientation, tol=1e-12)
            exact = solve_trust_exact(g, alpha=0.85, orientation=orientation)
            assert float(np.max(np.abs(tv.values - exact))) < 1e-9


def test_bounds_and_contraction_literal():
    rng = random.Random(202)
    for _ in range(100):
        g = _random_graph(rng)
        e = np.array([rng.uniform(0.1, 0.9) for _ in range(g.n)])
        tv = propagate_trust(g, alpha=0.85, base=e, orientation=Orientation.LITERAL, tol=1e-10, keep_trace=True)
        assert tv.values.min() >= e.min() - 1e-12
        assert tv.values.max() <= e.max() + 1e-12
        trace = tv.residual_trace
        # contraction by alpha per step, with a float-noise allowance on the
        # residual evaluation itself
        for before, after in zip(trace, trace[1:]):
            assert after <= before * (0.85 + 1e-12) + 1e-13


def test_fixed_point_unique_across_starts():
    rng = random.Random(303)
    g = _random_graph(rng)
    tol = 1e-10
    a = propagate_trust(g, alpha=0.85, orientation=Orientation.TRANSPOSE, tol=tol)
    start = np.array([rng.random() for _ in range(g.n)])
    b = propagate_trust(g, alpha=0.85, orientation=Orientation.TRANSPOSE, tol=tol, start=start)
    assert float(np.max(np.abs(a.values - b.values))) < 10 * tol


def _two_matvec_reference(graph, alpha, orientation, tol, start=None):
    """Verbatim copy of the power iteration that evaluated M @ T twice per T."""
    base = default_base(graph.n, orientation)
    W = row_stochastic(graph, base)
    M = W if orientation is Orientation.LITERAL else W.T
    T = np.array(base if start is None else start, dtype=float, copy=True)
    hold = (1.0 - alpha) * base
    trace = [float(np.max(np.abs(T - alpha * (M @ T) - hold)))]
    while trace[-1] >= tol:
        T = alpha * (M @ T) + hold
        trace.append(float(np.max(np.abs(T - alpha * (M @ T) - hold))))
    return T, trace


def test_one_matvec_iteration_bit_identical_to_two_matvec_loop():
    rng = random.Random(404)
    for _ in range(40):
        g = _random_graph(rng)
        start = np.array([rng.random() for _ in range(g.n)]) if rng.random() < 0.5 else None
        for orientation in (Orientation.LITERAL, Orientation.TRANSPOSE):
            alpha = rng.uniform(0.1, 0.95)
            tv = propagate_trust(g, alpha=alpha, orientation=orientation, tol=1e-11, start=start, keep_trace=True)
            T, trace = _two_matvec_reference(g, alpha, orientation, 1e-11, start)
            assert tv.values.tobytes() == T.tobytes()
            assert tv.residual_trace == tuple(trace)
            assert tv.residual == trace[-1]
            assert tv.iterations == len(trace) - 1


def test_propagate_validates_inputs():
    g = TrustGraph(nodes=["a", "b"], edges=[(0, 1, 1.0)])
    with pytest.raises(ValueError):
        propagate_trust(g, alpha=1.0)
    with pytest.raises(ValueError):
        propagate_trust(g, alpha=0.5, base=np.array([2.0, 0.5]))
    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError):
            propagate_trust(g, alpha=0.5, tol=tol)


def test_default_base_by_orientation():
    assert np.allclose(default_base(4, Orientation.LITERAL), 0.25)
    assert np.allclose(default_base(4, Orientation.TRANSPOSE), 0.5)


# -- Sybil structure -----------------------------------------------------------


def _sybil_case(internal_weight: float, honest_to_sybil: bool = False) -> TrustGraph:
    # 6 honest in a ring plus 3-node Sybil clique with no honest inflow
    n, s = 6, 3
    edges = [(i, (i + 1) % n, 0.7) for i in range(n)]
    edges += [(i, (i + 2) % n, 0.4) for i in range(n)]
    for a in range(s):
        for b in range(s):
            if a != b:
                edges.append((n + a, n + b, internal_weight))
    if honest_to_sybil:
        edges.append((0, n, 1.0))
    return TrustGraph(nodes=[f"v{i}" for i in range(n + s)], edges=edges)


def test_sybil_mass_equals_base_mass_and_ignores_internal_weights():
    masses = []
    for w in (0.1, 0.9):
        g = _sybil_case(w)
        solved = solve_trust_exact(g, alpha=0.85, base=np.full(9, 0.5), orientation=Orientation.TRANSPOSE)
        masses.append(float(solved[6:].sum()))
    assert abs(masses[0] - masses[1]) <= 1e-9
    assert masses[0] == pytest.approx(0.5 * 3, abs=1e-9)  # exactly the Sybils' base mass


def test_single_honest_edge_strictly_increases_sybil_mass():
    base = np.full(9, 0.5)
    without = solve_trust_exact(_sybil_case(0.9), alpha=0.85, base=base, orientation=Orientation.TRANSPOSE)
    with_edge = solve_trust_exact(
        _sybil_case(0.9, honest_to_sybil=True), alpha=0.85, base=base, orientation=Orientation.TRANSPOSE
    )
    assert float(with_edge[6:].sum()) > float(without[6:].sum()) + 1e-9


# -- fusion, tiers, signals ----------------------------------------------------


def test_fuse_examples():
    w = ContextWeights.for_context(ContextKind.DEFAULT)
    assert fuse_signals(TrustSignals(1.0, 1.0, 1.0), w, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert fuse_signals(TrustSignals(0.0, 0.0, 0.0), w, 1.0) == 0.0
    assert fuse_signals(TrustSignals(1.0, 0.0, 0.0), w, 0.9) == pytest.approx(0.3, abs=1e-12)


def test_fuse_validates_ranges():
    w = ContextWeights.for_context(ContextKind.DEFAULT)
    with pytest.raises(ValueError):
        TrustSignals(1.2, 0.0, 0.0)
    with pytest.raises(ValueError):
        fuse_signals(TrustSignals(1.0, 1.0, 1.0), w, 1.2)
    with pytest.raises(ValueError):
        ContextWeights(ContextKind.DEFAULT, w_policy=0.5, w_behavior=0.5, w_attest=0.5)  # not a simplex


def test_context_presets_sum_to_one():
    for kind in ContextKind:
        w = ContextWeights.for_context(kind)
        assert abs(w.w_policy + w.w_behavior + w.w_attest - 1.0) <= 1e-12


def test_tier_boundaries():
    assert verification_tier(0.95) is VerificationTier.STREAMLINED
    assert verification_tier(0.80) is VerificationTier.STREAMLINED
    assert verification_tier(0.50) is VerificationTier.STANDARD
    assert verification_tier(0.30) is VerificationTier.ENHANCED
    assert verification_tier(0.10) is VerificationTier.QUARANTINE
    with pytest.raises(ValueError):
        verification_tier(0.5, thresholds=(0.3, 0.5, 0.8))


def test_tier_monotone_in_score():
    order = [
        VerificationTier.QUARANTINE,
        VerificationTier.ENHANCED,
        VerificationTier.STANDARD,
        VerificationTier.STREAMLINED,
    ]
    rng = random.Random(404)
    for _ in range(500):
        a, b = rng.random(), rng.random()
        if a < b:
            a, b = b, a
        assert order.index(verification_tier(a)) >= order.index(verification_tier(b))


def test_behavior_score_examples():
    population = [[10.0, 5.0], [10.0, 5.0], [10.0, 5.0], [10.0, 5.0]]
    assert behavior_score([10.0, 5.0], population) == 1.0  # identical to mean

    # one feature exactly one sigma out
    pop = [[0.0], [2.0]]
    assert behavior_score([2.0], pop) == pytest.approx(math.exp(-1.0), abs=1e-12)

    assert behavior_score([], population) == 1.0
    assert behavior_score([3.0], [[3.0]]) == 1.0  # single-agent population


def test_attestation_score_diminishing_returns():
    assert attestation_score(0) == 0.0
    assert attestation_score(5) == pytest.approx(1.0 - math.exp(-1.0))
    assert attestation_score(10) > attestation_score(5)
    assert attestation_score(1000) < 1.0 + 1e-12
    with pytest.raises(ValueError):
        attestation_score(-1)

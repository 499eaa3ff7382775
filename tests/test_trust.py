from __future__ import annotations

import dataclasses
import enum
import math
import os
import platform
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from agentmesh import simnet, trust
from agentmesh.trust import (
    CONTEXT_WEIGHTS,
    Direction,
    Orientation,
    TrustGraph,
    attestation_score,
    behavior_scores,
    default_base,
    fixed_points,
    local_trust_score,
    propagate_trust,
    row_stochastic,
    solve_trust_exact,
    trust_breakdown,
    verification_tier,
)
from _helpers import behavior_score, openblas_corenames


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
    W = row_stochastic(g, np.full(2, 0.5))
    assert W[0, 1] == 1.0 and W[1, 0] == 1.0

    g2 = TrustGraph(nodes=list("abc"), edges=[(0, 1, 0.2), (0, 2, 0.6)])
    W2 = row_stochastic(g2, np.full(3, 1.0 / 3.0))
    assert W2[0, 1] == pytest.approx(0.25)
    assert W2[0, 2] == pytest.approx(0.75)

    g3 = TrustGraph(nodes=list("abcd"), edges=[(1, 0, 1.0)])
    W3 = row_stochastic(g3, np.full(4, 0.25))  # rows 0, 2, 3 dangling, uniform base
    for row in (0, 2, 3):
        assert np.allclose(W3[row], 0.25)


def test_all_zero_weight_row_treated_as_dangling():
    g = TrustGraph(nodes=list("abc"), edges=[(0, 1, 0.0), (0, 2, 0.0), (1, 2, 1.0)])
    W = row_stochastic(g, np.full(3, 1.0 / 3.0))
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


def _two_matvec_reference(graph, alpha, orientation, tol, start=None, max_iters=None):
    """Verbatim copy of the power iteration that evaluated M @ T twice per T;
    past max_iters iterates it raises as that iteration did."""
    base = default_base(graph.n, orientation)
    W = row_stochastic(graph, base)
    M = W if orientation is Orientation.LITERAL else W.T
    T = np.array(base if start is None else start, dtype=float, copy=True)
    hold = (1.0 - alpha) * base
    trace = [float(np.max(np.abs(T - alpha * (M @ T) - hold)))]
    while trace[-1] >= tol:
        if max_iters is not None and len(trace) > max_iters:
            raise trust.NonConvergentError(f"residual {trace[-1]} after {len(trace) - 1} iterations")
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
            _assert_propagates_as_the_one_iterate_loops(g, alpha, orientation, 1e-11, start)


def test_propagate_validates_inputs():
    g = TrustGraph(nodes=["a", "b"], edges=[(0, 1, 1.0)])
    with pytest.raises(ValueError):
        propagate_trust(g, alpha=1.0)
    with pytest.raises(ValueError):
        propagate_trust(g, alpha=0.5, base=np.array([2.0, 0.5]))
    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError):
            propagate_trust(g, alpha=0.5, tol=tol)


@pytest.mark.parametrize("orientation", list(Orientation))
@pytest.mark.parametrize("base", [None, np.zeros(0)])
def test_every_fixed_point_entry_refuses_an_empty_graph(orientation, base):
    empty = TrustGraph(nodes=[], edges=[])
    for solve in (propagate_trust, solve_trust_exact, lambda g, **kw: fixed_points([g, g], **kw)):
        with pytest.raises(ValueError, match=r"^empty graph$"):
            solve(empty, alpha=0.5, base=base, orientation=orientation)
    assert fixed_points([], alpha=0.5, base=base, orientation=orientation) == []


@pytest.mark.parametrize("solve", [propagate_trust, solve_trust_exact])
@pytest.mark.parametrize("orientation", list(Orientation))
@pytest.mark.parametrize("given_base", [False, True])
def test_base_is_validated_once_per_operator(solve, orientation, given_base, monkeypatch):
    g = TrustGraph(nodes=["a", "b", "c"], edges=[(0, 1, 1.0), (1, 2, 0.5)])
    base = np.array([0.2, 0.5, 0.3]) if given_base else None
    expected = solve(g, alpha=0.5, base=base, orientation=orientation)
    checked = []

    def counting(base, n):
        checked.append(n)
        return original(base, n)

    original = trust._validate_base
    monkeypatch.setattr(trust, "_validate_base", counting)
    got = solve(g, alpha=0.5, base=base, orientation=orientation)
    assert checked == [3]
    values = (got.values, expected.values) if solve is propagate_trust else (got, expected)
    assert values[0].tobytes() == values[1].tobytes()
    # The one check still refuses a bad base, with the same error.
    with pytest.raises(ValueError, match=r"base vector must have shape \(3,\)"):
        solve(g, alpha=0.5, base=np.ones(2), orientation=orientation)
    with pytest.raises(ValueError, match=r"entries must lie in \[0,1\]"):
        solve(g, alpha=0.5, base=np.array([2.0, 0.5, 0.5]), orientation=orientation)
    with pytest.raises(ValueError, match="positive mass"):
        solve(g, alpha=0.5, base=np.zeros(3), orientation=orientation)


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


# -- the array-built graph and engine against the per-edge and per-row loops ---


def _loop_first_edge_error(n, edges):
    """The per-edge validation loop the graph ran before it held arrays: the
    message of its first ValueError, or None when it accepts the list."""
    seen = set()
    for i, j, w in edges:
        if not (0 <= i < n and 0 <= j < n):
            return f"edge ({i},{j}) out of range for {n} nodes"
        if i == j:
            return f"self-edge at node {i}"
        if not (0.0 <= w <= 1.0):
            return f"edge weight {w} outside [0,1]"
        if (i, j) in seen:
            return f"duplicate edge ({i},{j})"
        seen.add((i, j))
    return None


def _loop_row_stochastic(n, edges, base):
    """row_stochastic as a per-edge scatter and a per-row divide."""
    teleport = base / base.sum()
    W = np.zeros((n, n))
    for i, j, w in edges:
        W[i, j] = w
    sums = W.sum(axis=1)
    for i in range(n):
        if sums[i] > 0.0:
            W[i, :] /= sums[i]
        else:
            W[i, :] = teleport
    return W


def _loop_propagate(M, base, alpha, tol, start, max_iters=None):
    """The power loop that allocated a new array for every operation, one
    iterate at a time; past max_iters iterates it raises as the library does."""
    T = np.array(base if start is None else start, dtype=float, copy=True)
    hold = (1.0 - alpha) * base
    step = alpha * (M @ T)
    trace = [float(np.max(np.abs(T - step - hold)))]
    while not trace[-1] < tol:
        if max_iters is not None and len(trace) > max_iters:
            raise trust.NonConvergentError(f"residual {trace[-1]} after {len(trace) - 1} iterations")
        T = step + hold
        step = alpha * (M @ T)
        trace.append(float(np.max(np.abs(T - step - hold))))
    return T, len(trace) - 1, tuple(trace)


@st.composite
def _edges_over(draw, n):
    """A valid edge list over n nodes, in any order, with dangling rows and
    all-zero rows among the ones drawn."""
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    keys = draw(st.lists(pairs, unique=True, max_size=n * (n - 1)))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.sampled_from([1, 1e-300, 0.5]))
    return [(i, j, draw(weight)) for i, j in keys]


@st.composite
def _edge_lists(draw, max_n=10):
    """n and an edge list of _edges_over(n)."""
    n = draw(st.integers(1, max_n))
    return n, draw(_edges_over(n))


def _bases(n):
    uniform = st.just(None)
    drawn = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(lambda b: sum(b) > 0.0)
    return st.one_of(uniform, drawn).map(lambda b: None if b is None else np.array(b))


def _sybil_cases(n: int = 200, seed: int = 1) -> list[tuple[int, list, np.ndarray]]:
    """(nodes, edges, base) of each of the three graphs the sybil scenario
    analyses at n honest nodes, far past the sizes the strategy draws."""
    config = simnet.ScenarioConfig(scenario="sybil", n=n, seed=seed)
    n_sybil = int(n * config.sybil_fraction)
    honest = simnet._honest_graph_edges(n, simnet.subsystem_rng(seed, "sybil-graph"), n_sybil)
    w_a, w_b = config.sybil_internal_weights
    nodes, clique = simnet._sybil_layout(n, n_sybil)
    cases = []
    for internal_weight, honest_to_sybil in ((w_a, False), (w_b, False), (w_b, True)):
        graph = simnet._sybil_graph(nodes, n, clique, internal_weight, honest, honest_to_sybil)
        edges = list(zip(graph.src.tolist(), graph.dst.tolist(), graph.weight.tolist()))
        cases.append((graph.n, edges, np.full(graph.n, 0.5)))
    return cases


_SYBIL_CASES = _sybil_cases()


@st.composite
def _row_stochastic_cases(draw):
    n, edges = draw(_edge_lists())
    return n, edges, draw(_bases(n))


@given(case=_row_stochastic_cases())
@example(case=_SYBIL_CASES[0])
@example(case=_SYBIL_CASES[1])
@example(case=_SYBIL_CASES[2])
def test_row_stochastic_equals_the_per_edge_and_per_row_loop(case):
    n, edges, base = case
    base = np.full(n, 1.0 / n) if base is None else base
    W = row_stochastic(TrustGraph(nodes=[str(i) for i in range(n)], edges=edges), base)
    expected = _loop_row_stochastic(n, edges, base)
    assert np.array_equal(W, expected)
    assert W.tobytes() == expected.tobytes()


@given(data=st.data())
def test_propagate_trust_equals_the_allocating_power_loop(data):
    n, edges = data.draw(_edge_lists())
    orientation = data.draw(st.sampled_from(Orientation))
    alpha = data.draw(st.floats(0.05, 0.95))
    start = data.draw(st.none() | st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(np.array))
    base = data.draw(_bases(n))
    e = default_base(n, orientation) if base is None else base
    graph = TrustGraph(nodes=[str(i) for i in range(n)], edges=edges)
    tv = propagate_trust(graph, alpha=alpha, base=base, orientation=orientation, tol=1e-11, start=start, keep_trace=True)
    W = _loop_row_stochastic(n, edges, e)
    T, iterations, trace = _loop_propagate(W if orientation is Orientation.LITERAL else W.T, e, alpha, 1e-11, start)
    assert tv.values.tobytes() == T.tobytes()
    assert tv.iterations == iterations
    assert tv.residual_trace == trace
    assert tv.residual == trace[-1]


@given(data=st.data())
def test_solve_trust_exact_equals_the_allocating_solve(data):
    """The solve built in W's own buffer has the bits of the three-array build
    np.eye(n) - alpha*M, in both orientations, on graphs with dangling rows
    and zero-weight edges."""
    n, edges = data.draw(_edge_lists())
    orientation = data.draw(st.sampled_from(Orientation))
    alpha = data.draw(st.floats(0.01, 0.99))
    base = data.draw(_bases(n))
    e = default_base(n, orientation) if base is None else base
    graph = TrustGraph(nodes=[str(i) for i in range(n)], edges=edges)
    W = _loop_row_stochastic(n, edges, e)
    M = W if orientation is Orientation.LITERAL else W.T
    expected = np.linalg.solve(np.eye(n) - alpha * M, (1.0 - alpha) * e)
    got = solve_trust_exact(graph, alpha=alpha, base=base, orientation=orientation)
    assert got.tobytes() == expected.tobytes()


_ANY_INDEX = st.one_of(st.integers(-2, 6), st.sampled_from([2**63 - 1, 2**64 - 1, -(2**63), 2**70, 10**400]))
_ANY_WEIGHT = st.one_of(st.floats(-0.5, 1.5), st.sampled_from([math.nan, math.inf, -math.inf, 0, 1, 2, -0.0]))


@st.composite
def _any_edge_lists(draw):
    """n and an edge list that mixes edges valid over n nodes (so that
    repeats of one pair are common) with arbitrary integer-indexed ones."""
    n = draw(st.integers(1, 5))
    valid = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.floats(0.0, 1.0))
    anything = st.tuples(_ANY_INDEX, _ANY_INDEX, _ANY_WEIGHT)
    return n, draw(st.lists(st.one_of(valid, valid, anything), max_size=8))


def _long_edge_list(repeated: int) -> tuple[int, list]:
    """2,000 edges over 50 nodes: 1,999 distinct pairs in shuffled order, and
    a last edge that repeats the first, whose pair is the `repeated`-th of all
    2,450 in key order, so that the repeat is first or last once keys are sorted."""
    n = 50
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    first = pairs.pop(repeated)
    rng = random.Random(repeated)
    rest = rng.sample(pairs, 1998)
    return n, [(i, j, rng.random()) for i, j in [first, *rest, first]]


@given(case=_any_edge_lists())
@example(case=_long_edge_list(0))
@example(case=_long_edge_list(-1))
@example(case=(50, _long_edge_list(0)[1][:-1]))
@example(case=(2, [(0, 2**64 - 1, 0.5)]))
@example(case=(3, [(0, 1, 0.5), (1, 2, math.nan), (0, 1, 0.5)]))
@example(case=(3, [(0, 1, 0.5), (1, 0, 0.5), (0, 1, 2.0)]))
@example(case=(3, [(2, 2, 0.5), (0, 3, 0.5)]))
def test_graph_accepts_or_raises_the_first_error_of_the_per_edge_loop(case):
    n, edges = case
    expected = _loop_first_edge_error(n, edges)
    nodes = [str(i) for i in range(n)]
    if expected is not None:
        with pytest.raises(ValueError) as refused:
            TrustGraph(nodes=nodes, edges=edges)
        assert str(refused.value) == expected
    else:
        g = TrustGraph(nodes=nodes, edges=edges)
        assert g.src.tolist() == [i for i, _j, _w in edges]
        assert g.dst.tolist() == [j for _i, j, _w in edges]
        assert g.weight.tolist() == [float(w) for _i, _j, w in edges]


@given(data=st.data())
def test_local_score_equals_the_per_edge_scan(data):
    n, edges = data.draw(_edge_lists())
    graph = TrustGraph(nodes=[str(i) for i in range(n)], edges=edges)
    for i in range(n):
        for direction, end in ((Direction.FORMULA_LITERAL, 0), (Direction.INCOMING, 1)):
            weights = [edge[2] for edge in edges if edge[end] == i]
            expected = math.fsum(weights) / len(weights) if weights else None
            assert local_trust_score(graph, i, direction) == expected


def test_graph_is_frozen_and_its_arrays_read_only():
    nodes = ["a", "b", "c"]
    g = TrustGraph(nodes=nodes, edges=[(0, 1, 0.5), (1, 2, 0.25)])
    nodes.append("d")
    assert g.n == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.nodes = ("x",)
    for array in (g.src, g.dst, g.weight):
        with pytest.raises(ValueError):
            array[0] = 0


_FLOAT_INDEX = st.floats(-3.0, 7.0) | st.sampled_from(
    [-0.0, -1e-20, 1e-300, 2.5, 3.0, 1e300, math.inf, -math.inf, math.nan]
)


@given(i=_FLOAT_INDEX, j=_FLOAT_INDEX)
@example(i=-1e-20, j=1.0)
@example(i=math.nextafter(2.0, 0.0), j=1.0)
def test_a_float_index_is_refused_as_the_remainder_rule_refuses_it(i, j):
    """The graph tests a float index for integrality with its floor; the
    verdict is the remainder rule's, x % 1 == 0, for every float."""
    n = 4
    in_range = 0 <= i < n and 0 <= j < n and i != j
    if in_range and i % 1 == 0 and j % 1 == 0:
        assert TrustGraph(nodes=list("abcd"), edges=np.array([(i, j, 0.5)])).src.tolist() == [int(i)]
    else:
        with pytest.raises(ValueError, match="non-integer index" if in_range else "range|self-edge"):
            TrustGraph(nodes=list("abcd"), edges=np.array([(i, j, 0.5)]))


def test_graph_refuses_edges_that_are_not_numeric_triples():
    for edges in ([("0", "1", "0.5")], [(0, 1)], [(0, 1, 0.5), (1, 0)]):
        with pytest.raises(ValueError):
            TrustGraph(nodes=["a", "b"], edges=edges)
    with pytest.raises(ValueError, match="non-integer index"):
        TrustGraph(nodes=["a", "b"], edges=[(0.5, 1, 0.5)])


def _unaligned_copy(W):
    """W's values in a buffer whose data sits 8 bytes past a 64-byte boundary."""
    raw = np.empty(W.nbytes + 128, dtype=np.uint8)
    start = (8 - raw.ctypes.data) % 64
    copy = raw[start : start + W.nbytes].view(np.float64).reshape(W.shape)
    copy[...] = W
    return copy


@pytest.mark.parametrize("n", [1, 2, 7, 50, 240, 333])
def test_w_is_64_byte_aligned_and_multiplies_as_an_unaligned_copy(n):
    rng = random.Random(n)
    edges = [(i, j, rng.random()) for i in range(n) for j in range(n) if i != j and rng.random() < 0.1]
    W = row_stochastic(TrustGraph(nodes=[str(i) for i in range(n)], edges=edges), np.full(n, 1.0 / n))
    assert W.ctypes.data % 64 == 0
    U = _unaligned_copy(W)
    assert U.ctypes.data % 64 == 8 and np.array_equal(U, W)
    for _ in range(10):
        T = np.array([rng.random() for _ in range(n)])
        assert (W.T @ T).tobytes() == (U.T @ T).tobytes()
        assert (W @ T).tobytes() == (U @ T).tobytes()
    # The call the power loop makes: np.dot from one row of a block buffer
    # into one row of another, at every row offset the loop uses.
    Ts, steps = np.empty((trust._BLOCK + 1, n)), np.empty((trust._BLOCK, n))
    for M, unaligned in ((W.T, U.T), (W, U)):
        for t in range(trust._BLOCK):
            Ts[t] = [rng.random() for _ in range(n)]
            np.dot(M, Ts[t], out=steps[t])
            assert steps[t].tobytes() == (unaligned @ Ts[t].copy()).tobytes()


# -- the power loop in blocks against the one-iterate loops --------------------


def _assert_propagates_as_the_one_iterate_loops(graph, alpha, orientation, tol, start=None):
    """propagate_trust gives the bits, the count, the residual and the trace
    of both one-iterate references; returns its iteration count."""
    tv = propagate_trust(graph, alpha=alpha, orientation=orientation, tol=tol, start=start, keep_trace=True)
    base = default_base(graph.n, orientation)
    W = row_stochastic(graph, base)
    T, iterations, trace = _loop_propagate(W if orientation is Orientation.LITERAL else W.T, base, alpha, tol, start)
    T2, trace2 = _two_matvec_reference(graph, alpha, orientation, tol, start)
    assert tv.values.tobytes() == T.tobytes() == T2.tobytes()
    assert tv.iterations == iterations == len(trace2) - 1
    assert tv.residual_trace == trace == tuple(trace2)
    assert tv.residual == trace[-1]
    return tv.iterations


_BLOCK_EDGES = (0, trust._BLOCK - 1, trust._BLOCK, trust._BLOCK + 1, 2 * trust._BLOCK)


@pytest.mark.parametrize("orientation", list(Orientation))
@pytest.mark.parametrize("graph_seed", [3, 11])
@pytest.mark.parametrize("target", _BLOCK_EDGES)
def test_block_loop_stops_where_the_one_iterate_loop_stops(target, graph_seed, orientation):
    """Stops at 0, _BLOCK - 1, _BLOCK, _BLOCK + 1 and 2 _BLOCK iterates: the
    first from a start that is already the fixed point, the others at a tol
    that the chosen iterate is the first to pass."""
    rng = random.Random(graph_seed)
    g = _random_graph(rng)
    start = np.array([rng.random() for _ in range(g.n)])
    alpha = 0.95
    base = default_base(g.n, orientation)
    W = row_stochastic(g, base)
    T, _iterations, trace = _loop_propagate(W if orientation is Orientation.LITERAL else W.T, base, alpha, 1e-14, start)
    assert len(trace) > target + 1
    if target == 0:
        start, tol = T, 1e-14
    else:
        tol = min(trace[:target])
        assert trace[target] < tol
    assert _assert_propagates_as_the_one_iterate_loops(g, alpha, orientation, tol, start) == target


@pytest.mark.parametrize("case", range(len(_SYBIL_CASES)))
@pytest.mark.parametrize("orientation", list(Orientation))
def test_block_loop_equals_the_one_iterate_loops_at_benchmark_size(case, orientation):
    """The sybil scenario's three 240-node graphs at its tol, where the gemv
    kernels block differently from the small graphs drawn above. The
    scenario starts from the base; under LITERAL the uniform base is already
    the fixed point, so that run starts from a drawn vector."""
    n, edges, _base = _SYBIL_CASES[case]
    graph = TrustGraph(nodes=[str(i) for i in range(n)], edges=edges)
    rng = random.Random(case)
    start = None if orientation is Orientation.TRANSPOSE else np.array([rng.random() for _ in range(n)])
    assert _assert_propagates_as_the_one_iterate_loops(graph, 0.85, orientation, 1e-12, start) > 2 * trust._BLOCK


def _max_iters(n: int, alpha: float) -> int:
    return math.ceil(100.0 * math.log(max(n, 2)) / (-math.log(alpha)))


def _power_outcome(call):
    """What a call returns, or the message of the NonConvergentError it raises."""
    try:
        return call()
    except trust.NonConvergentError as error:
        return f"NonConvergentError: {error}"


@pytest.mark.parametrize("cap", [trust._BLOCK - 1, trust._BLOCK, trust._BLOCK + 1, 3 * trust._BLOCK + 5])
@pytest.mark.parametrize("nan_start", [False, True])
def test_block_loop_raises_at_the_iterate_and_with_the_message_of_the_one_iterate_loop(cap, nan_start):
    """At tol 1e-300 the residual stalls at rounding level, or at NaN from a
    NaN start, until the iteration cap, set through alpha. A graph whose
    iterates happen to reach the fixed point exactly is passed over."""
    rng = random.Random(cap)
    for _attempt in range(20):
        g = _random_graph(rng)
        alpha = math.exp(-100.0 * math.log(g.n) / (cap - 0.5))
        assert _max_iters(g.n, alpha) == cap
        start = np.array([rng.random() for _ in range(g.n)])
        if nan_start:
            start[rng.randrange(g.n)] = math.nan
        base = default_base(g.n, Orientation.TRANSPOSE)
        try:
            _loop_propagate(row_stochastic(g, base).T, base, alpha, 1e-300, start, max_iters=cap)
        except trust.NonConvergentError as error:
            expected = str(error)
            break
    else:
        pytest.fail("every graph drawn reached its fixed point")
    assert expected.endswith(f" after {cap} iterations")
    with pytest.raises(trust.NonConvergentError) as got:
        propagate_trust(g, alpha=alpha, tol=1e-300, start=start, keep_trace=True)
    assert str(got.value) == expected


def test_block_loop_raises_as_the_one_iterate_loop_at_benchmark_size():
    n, edges, base = _SYBIL_CASES[2]
    graph = TrustGraph(nodes=[str(i) for i in range(n)], edges=edges)
    cap = _max_iters(n, 0.85)
    with pytest.raises(trust.NonConvergentError) as expected:
        _loop_propagate(row_stochastic(graph, base).T, base, 0.85, 1e-300, None, max_iters=cap)
    with pytest.raises(trust.NonConvergentError) as got:
        propagate_trust(graph, alpha=0.85, tol=1e-300)
    assert str(got.value) == str(expected.value)


# Matvecs that one call may run past the ones its iterates need: the guessed
# block length overshot by at most 3 on 600 Sybil-scenario graphs, where a
# block of _BLOCK iterates throws away up to _BLOCK - 1.
_MAX_DISCARDED_MATVECS = 3


@pytest.mark.parametrize("orientation", list(Orientation))
def test_block_lengths_leave_few_matvecs_past_the_converged_iterate(orientation, monkeypatch):
    """On the sybil scenario's three graphs at its tol, the power loop runs
    the iterations + 1 matvecs its result needs, and at most
    _MAX_DISCARDED_MATVECS more: the residuals of iterates 0..iterations
    each take one. Under LITERAL the run starts from a drawn vector, as in
    the benchmark-size equality test."""
    matvecs = []
    dot = np.dot

    def counting_dot(*args, **kwargs):
        matvecs.append(args[0].shape)
        return dot(*args, **kwargs)

    monkeypatch.setattr(np, "dot", counting_dot)
    for case, (n, edges, _base) in enumerate(_SYBIL_CASES):
        graph = TrustGraph(nodes=[str(i) for i in range(n)], edges=edges)
        rng = random.Random(case)
        start = None if orientation is Orientation.TRANSPOSE else np.array([rng.random() for _ in range(n)])
        matvecs.clear()
        tv = propagate_trust(graph, alpha=0.85, orientation=orientation, tol=1e-12, start=start)
        assert set(matvecs) == {(n, n)} and tv.iterations > 2 * trust._BLOCK
        assert 0 <= len(matvecs) - (tv.iterations + 1) <= _MAX_DISCARDED_MATVECS


def _guess_cases():
    """(name, start, tol) of each edge case of the block-length guess, on one
    19-node graph: a start scaled by 1e300 (at tol 1e-300 too, where tol over
    the residual underflows to 0.0), tol 1e-300, where the residual stalls at
    rounding level, a start that is already the fixed point, and a NaN start.
    At alpha 0.85 every case but the fixed point reaches the iteration cap."""
    rng = random.Random(29)
    start = np.array([rng.random() for _ in range(_GUESS_GRAPH.n)])
    nan_start = start.copy()
    nan_start[rng.randrange(_GUESS_GRAPH.n)] = math.nan
    return {
        "huge start": (start * 1e300, 1e-11),
        "huge start, tol 1e-300": (start * 1e300, 1e-300),
        "tol 1e-300": (start, 1e-300),
        "fixed point start": ("fixed point", 1e-14),
        "nan start": (nan_start, 1e-11),
    }


_GUESS_GRAPH = _random_graph(random.Random(29))
_GUESS_CASES = _guess_cases()


@pytest.mark.parametrize("orientation", list(Orientation))
@pytest.mark.parametrize("case", list(_GUESS_CASES))
def test_block_length_guess_is_total_and_leaves_every_result_as_the_one_iterate_loops(case, orientation):
    """Each edge case returns, or raises with the message, as both one-iterate
    loops do, with the bits, count and trace; a ValueError or OverflowError
    from the guess would escape and fail the test. The two-matvec loop
    stops at a NaN residual, which its `>= tol` test does not pass, so a NaN
    start is checked against the allocating loop alone."""
    graph, alpha = _GUESS_GRAPH, 0.85
    start, tol = _GUESS_CASES[case]
    base = default_base(graph.n, orientation)
    W = row_stochastic(graph, base)
    M = W if orientation is Orientation.LITERAL else W.T
    cap = _max_iters(graph.n, alpha)
    if isinstance(start, str):
        start = _loop_propagate(M, base, alpha, tol, base)[0]

    def result(T, iterations, trace):
        return T.tobytes(), iterations, tuple(trace), trace[-1]

    def blocks():
        tv = propagate_trust(graph, alpha=alpha, orientation=orientation, tol=tol, start=start, keep_trace=True)
        return tv.values.tobytes(), tv.iterations, tv.residual_trace, tv.residual

    def allocating():
        return result(*_loop_propagate(M, base, alpha, tol, start, max_iters=cap))

    def two_matvec():
        T, trace = _two_matvec_reference(graph, alpha, orientation, tol, start, max_iters=cap)
        return result(T, len(trace) - 1, trace)

    got = _power_outcome(blocks)
    assert got == _power_outcome(allocating)
    if case != "nan start":
        assert got == _power_outcome(two_matvec)
    if case == "fixed point start":
        assert got[1] == 0
    else:
        assert got.endswith(f" after {cap} iterations")


def test_returned_values_share_no_memory_with_the_block_buffers(monkeypatch):
    buffers = []
    empty = np.empty

    def recording_empty(*args, **kwargs):
        buffers.append(empty(*args, **kwargs))
        return buffers[-1]

    monkeypatch.setattr(np, "empty", recording_empty)
    g = _random_graph(random.Random(5))
    for tol in (1e-3, 1e-12):
        tv = propagate_trust(g, alpha=0.85, tol=tol)
        assert buffers and tv.values.flags.owndata
        assert not any(np.shares_memory(tv.values, buffer) for buffer in buffers)
        buffers.clear()


# -- fixed_points: one buffer for a list of graphs ----------------------------


def _assert_same_fixed_points(got, expected):
    """Two fixed_points outcomes agree bit for bit: each TrustVector's values,
    iterations, residual and trace, each exact solve, or the error message."""
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    assert len(got) == len(expected)
    for (vector, exact), (expected_vector, expected_exact) in zip(got, expected):
        assert vector.values.tobytes() == expected_vector.values.tobytes()
        assert vector.iterations == expected_vector.iterations
        assert struct.pack("<d", vector.residual) == struct.pack("<d", expected_vector.residual)
        assert vector.residual_trace is expected_vector.residual_trace is None
        assert exact.tobytes() == expected_exact.tobytes()


def _one_graph_at_a_time(graphs, alpha, base, orientation, tol):
    """fixed_points as the one-graph entry points compute it: for each graph,
    propagate_trust from the base and solve_trust_exact, each building its
    own W; the first NonConvergentError stops the list."""
    results = []
    for graph in graphs:
        vector = _power_outcome(lambda: propagate_trust(graph, alpha=alpha, base=base, orientation=orientation, tol=tol))
        if isinstance(vector, str):
            return vector
        results.append((vector, solve_trust_exact(graph, alpha=alpha, base=base, orientation=orientation)))
    return results


@given(data=st.data())
@example(data=None)
def test_fixed_points_equal_propagate_and_solve_graph_by_graph(data):
    """Each graph's result is the one-graph entry points', and the one
    fixed_points gives that graph alone, so the buffer that the graphs before
    it filled and solved in leaves nothing behind. The explicit example is
    the sybil scenario's three graphs at its tol."""
    if data is None:
        graphs = [TrustGraph(nodes=[str(i) for i in range(n)], edges=edges) for n, edges, _base in _SYBIL_CASES]
        alpha, base, orientation, tol = 0.85, _SYBIL_CASES[0][2], Orientation.TRANSPOSE, 1e-12
    else:
        n = data.draw(st.integers(1, 10))
        nodes = [str(i) for i in range(n)]
        graphs = [TrustGraph(nodes=nodes, edges=data.draw(_edges_over(n))) for _ in range(data.draw(st.integers(1, 4)))]
        alpha = data.draw(st.floats(0.05, 0.95))
        base = data.draw(_bases(n))
        orientation = data.draw(st.sampled_from(Orientation))
        tol = data.draw(st.sampled_from([1e-6, 1e-11, 1e-300]))
    kwargs = dict(alpha=alpha, base=base, orientation=orientation, tol=tol)
    _assert_same_fixed_points(
        _power_outcome(lambda: fixed_points(graphs, **kwargs)), _one_graph_at_a_time(graphs, **kwargs)
    )
    for graph in graphs:
        _assert_same_fixed_points(
            _power_outcome(lambda: fixed_points([graph], **kwargs)), _one_graph_at_a_time([graph], **kwargs)
        )


@pytest.mark.parametrize("orientation", list(Orientation))
def test_fixed_points_raise_the_message_of_propagate_trust(orientation):
    """At tol 1e-300 the residual stalls at rounding level until the
    iteration cap; the list stops at its first graph with propagate_trust's
    error, at the benchmark size and on a small graph."""
    n, edges, _base = _SYBIL_CASES[0]
    # Not uniform: under LITERAL a uniform base is the fixed point itself.
    large = (n, edges, np.array([random.Random(n).random() for _ in range(n)]))
    small = (4, [(0, 1, 0.5), (1, 2, 0.9), (2, 0, 0.7), (3, 0, 0.2)], np.array([0.1, 0.7, 0.3, 0.9]))
    for n, edges, base in (large, small):
        graph = TrustGraph(nodes=[str(i) for i in range(n)], edges=edges)
        kwargs = dict(alpha=0.85, base=base, orientation=orientation, tol=1e-300)
        with pytest.raises(trust.NonConvergentError) as expected:
            propagate_trust(graph, **kwargs)
        with pytest.raises(trust.NonConvergentError) as got:
            fixed_points([graph, graph], **kwargs)
        assert str(got.value) == str(expected.value)


def test_fixed_points_return_no_view_of_their_buffers(monkeypatch):
    buffers = []
    empty, aligned_empty = np.empty, trust._aligned_empty

    def recording(allocate):
        def allocating(*args, **kwargs):
            buffers.append(allocate(*args, **kwargs))
            return buffers[-1]

        return allocating

    monkeypatch.setattr(np, "empty", recording(empty))
    monkeypatch.setattr(trust, "_aligned_empty", recording(aligned_empty))
    graphs = [TrustGraph(nodes=[str(i) for i in range(n)], edges=edges) for n, edges, _base in _SYBIL_CASES]
    for orientation in Orientation:
        results = fixed_points(graphs, alpha=0.85, orientation=orientation, tol=1e-12)
        assert len(results) == 3 and buffers
        for vector, exact in results:
            for array in (vector.values, exact):
                assert not any(np.shares_memory(array, buffer) for buffer in buffers)
        buffers.clear()


def test_fixed_points_refuse_graphs_of_different_sizes_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("fixed_points began work on graphs of different sizes")

    for name in ("_aligned_empty", "_fill", "_power", "_solve", "_validate_base"):
        monkeypatch.setattr(trust, name, no_work)
    small, large = (TrustGraph(nodes=[str(i) for i in range(n)], edges=[(0, 1, 0.5)]) for n in (2, 3))
    empty = TrustGraph(nodes=[], edges=[])
    for graphs in ([small, large], [large, large, small], [empty, small]):
        with pytest.raises(ValueError, match="one node count"):
            fixed_points(graphs)


# The power-loop equality tests, which the test below re-runs under a second
# set of BLAS kernels.
_POWER_LOOP_TESTS = (
    "test_one_matvec_iteration_bit_identical_to_two_matvec_loop",
    "test_propagate_trust_equals_the_allocating_power_loop",
    "test_w_is_64_byte_aligned_and_multiplies_as_an_unaligned_copy",
    "test_block_loop_stops_where_the_one_iterate_loop_stops",
    "test_block_loop_equals_the_one_iterate_loops_at_benchmark_size",
    "test_block_loop_raises_at_the_iterate_and_with_the_message_of_the_one_iterate_loop",
    "test_block_loop_raises_as_the_one_iterate_loop_at_benchmark_size",
    "test_block_lengths_leave_few_matvecs_past_the_converged_iterate",
    "test_block_length_guess_is_total_and_leaves_every_result_as_the_one_iterate_loops",
    "test_returned_values_share_no_memory_with_the_block_buffers",
    "test_fixed_points_equal_propagate_and_solve_graph_by_graph",
    "test_fixed_points_raise_the_message_of_propagate_trust",
    "test_fixed_points_return_no_view_of_their_buffers",
)

@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS core types are x86-64 ones")
def test_power_loop_equality_holds_under_the_haswell_kernels():
    """The power-loop equality tests pass in a child process whose OpenBLAS
    runs its Haswell (AVX2) kernels, whatever kernels this CPU would get.
    OPENBLAS_CORETYPE is set for the child alone."""
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell"}
    cores = openblas_corenames(env)
    if cores != ["Haswell"]:
        pytest.skip(f"the child's OpenBLAS reports {cores or 'no core name'}, not Haswell")
    here = Path(__file__)
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *(f"{here}::{name}" for name in _POWER_LOOP_TESTS)],
        cwd=here.parents[1],
        env=env,
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-4000:]
    summary = child.stdout.strip().splitlines()[-1]
    assert " passed" in summary and "skipped" not in summary, summary


# -- fusion, tiers, signals ----------------------------------------------------


def _row(context: str = "default", *, policy, behavior, attest, propagated) -> dict:
    return trust_breakdown(policy=policy, behavior=behavior, attest=attest, propagated=propagated, context=context)


def test_fuse_examples():
    assert _row(policy=1.0, behavior=1.0, attest=1.0, propagated=1.0)["fused"] == pytest.approx(1.0, abs=1e-12)
    assert _row(policy=0.0, behavior=0.0, attest=0.0, propagated=1.0)["fused"] == 0.0
    assert _row(policy=1.0, behavior=0.0, attest=0.0, propagated=0.9)["fused"] == pytest.approx(0.3, abs=1e-12)


def test_fuse_validates_ranges():
    with pytest.raises(ValueError, match=r"^policy_pass_rate 1\.2 outside \[0,1\]$"):
        _row(policy=1.2, behavior=0.0, attest=0.0, propagated=1.0)
    with pytest.raises(ValueError, match=r"^propagated trust 1\.2 outside \[0,1\]$"):
        _row(policy=1.0, behavior=1.0, attest=1.0, propagated=1.2)


def test_context_presets_sum_to_one():
    assert list(CONTEXT_WEIGHTS) == ["financial", "analytical", "default"]
    for weights in CONTEXT_WEIGHTS.values():
        assert len(weights) == 3 and min(weights) >= 0.0
        assert abs(sum(weights) - 1.0) <= 1e-12


def test_tier_boundaries():
    assert verification_tier(0.95) == "Streamlined"
    assert verification_tier(0.80) == "Streamlined"
    assert verification_tier(0.50) == "Standard"
    assert verification_tier(0.30) == "Enhanced"
    assert verification_tier(0.10) == "Quarantine"


def test_tier_monotone_in_score():
    order = ["Quarantine", "Enhanced", "Standard", "Streamlined"]
    rng = random.Random(404)
    for _ in range(500):
        a, b = rng.random(), rng.random()
        if a < b:
            a, b = b, a
        assert order.index(verification_tier(a)) >= order.index(verification_tier(b))


# Signal fusion as four classes and fuse_signals held it before the policy
# became tables, verbatim, as the oracle for trust_breakdown.


class _ContextKind(enum.Enum):
    FINANCIAL = "financial"
    ANALYTICAL = "analytical"
    DEFAULT = "default"


@dataclasses.dataclass(frozen=True)
class _ContextWeights:
    context: _ContextKind
    w_policy: float
    w_behavior: float
    w_attest: float

    def __post_init__(self) -> None:
        for w in (self.w_policy, self.w_behavior, self.w_attest):
            if w < 0.0:
                raise ValueError("weights must be nonnegative")
        if abs((self.w_policy + self.w_behavior + self.w_attest) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    @classmethod
    def for_context(cls, context: _ContextKind) -> "_ContextWeights":
        if context is _ContextKind.FINANCIAL:
            return cls(context, 0.2, 0.2, 0.6)
        if context is _ContextKind.ANALYTICAL:
            return cls(context, 0.2, 0.6, 0.2)
        return cls(context, 1.0 / 3.0, 1.0 / 3.0, 1.0 - 2.0 / 3.0)


@dataclasses.dataclass(frozen=True)
class _TrustSignals:
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


class _VerificationTier(enum.Enum):
    STREAMLINED = "Streamlined"
    STANDARD = "Standard"
    ENHANCED = "Enhanced"
    QUARANTINE = "Quarantine"


def _fuse_signals(signals: _TrustSignals, weights: _ContextWeights, propagated: float) -> float:
    if not (0.0 <= propagated <= 1.0):
        raise ValueError(f"propagated trust {propagated} outside [0,1]")
    blended = (
        weights.w_policy * signals.policy_pass_rate
        + weights.w_behavior * signals.anomaly_score
        + weights.w_attest * signals.attestation_score
    )
    return propagated * blended


def _verification_tier(score: float) -> _VerificationTier:
    t_stream, t_standard, t_enhanced = (0.8, 0.5, 0.3)
    if score >= t_stream:
        return _VerificationTier.STREAMLINED
    if score >= t_standard:
        return _VerificationTier.STANDARD
    if score >= t_enhanced:
        return _VerificationTier.ENHANCED
    return _VerificationTier.QUARANTINE


def _trust_breakdown(signals: _TrustSignals, weights: _ContextWeights, propagated: float) -> dict:
    fused = _fuse_signals(signals, weights, propagated)
    return {
        "propagated": propagated,
        "policy": signals.policy_pass_rate,
        "behavior": signals.anomaly_score,
        "attest": signals.attestation_score,
        "fused": fused,
        "tier": _verification_tier(fused).value,
    }


def _outcome(fn) -> tuple:
    """A row as its keys, each value's float bits and the tier; or the error."""
    try:
        row = fn()
    except ValueError as exc:
        return ("error", str(exc))
    bits = tuple(struct.pack("<d", row[key]) for key in ("propagated", "policy", "behavior", "attest", "fused"))
    return (list(row), bits, row["tier"])


# A signal: the ends and signed zeros of [0,1], values just outside it, NaN,
# and any float in [0,1].
_SIGNALS = st.sampled_from([0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), -1e-300, 1.5, math.nan]) | st.floats(0.0, 1.0)


@given(
    context=st.sampled_from(list(_ContextKind)),
    policy=_SIGNALS,
    behavior=_SIGNALS,
    attest=_SIGNALS,
    propagated=_SIGNALS,
)
@example(context=_ContextKind.DEFAULT, policy=1.0, behavior=1.0, attest=1.0, propagated=1.0)
@example(context=_ContextKind.FINANCIAL, policy=1.5, behavior=math.nan, attest=-0.0, propagated=2.0)
@example(context=_ContextKind.ANALYTICAL, policy=-0.0, behavior=0.0, attest=0.0, propagated=-0.0)
def test_trust_breakdown_matches_the_classes_it_replaced(context, policy, behavior, attest, propagated):
    got = _outcome(
        lambda: trust_breakdown(
            policy=policy, behavior=behavior, attest=attest, propagated=propagated, context=context.value
        )
    )
    expected = _outcome(
        lambda: _trust_breakdown(
            _TrustSignals(policy, behavior, attest), _ContextWeights.for_context(context), propagated
        )
    )
    assert got == expected


def test_behavior_score_examples():
    population = np.array([[10.0, 5.0], [10.0, 5.0], [10.0, 5.0], [10.0, 5.0]])
    assert behavior_scores(population) == [1.0] * 4  # every agent at the mean

    # one feature exactly one sigma out
    assert behavior_scores(np.array([[0.0], [2.0]])) == pytest.approx([math.exp(-1.0)] * 2, abs=1e-12)

    assert behavior_scores(np.zeros((4, 0))) == [1.0] * 4  # no features
    assert behavior_scores(np.array([[3.0]])) == [1.0]  # single-agent population


@st.composite
def _feature_tables(draw) -> np.ndarray:
    """(agents, features) tables with counts, large values and constant
    (zero-variance) columns, drawn column by column and so not C-ordered."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 5))
    value = st.floats(-(2.0**62), 2.0**62, allow_nan=False) | st.integers(0, 50).map(float)
    column = st.lists(value, min_size=rows, max_size=rows) | value.map(lambda v: [v] * rows)
    return np.array([draw(column) for _ in range(cols)], dtype=float).T.reshape(rows, cols)


@given(features=_feature_tables())
# A constant column whose C-order sum rounds but whose pairwise sum does not:
# std 512 in C order, 0 in Fortran order.
@example(features=np.asfortranarray(np.full((8, 2), 3.5222887315641564e18)))
def test_behavior_scores_equal_the_scalar_formula(features):
    population = features.tolist()
    assert behavior_scores(features) == [behavior_score(row, population) for row in population]


def test_attestation_score_diminishing_returns():
    assert attestation_score(0) == 0.0
    assert attestation_score(5) == pytest.approx(1.0 - math.exp(-1.0))
    assert attestation_score(10) > attestation_score(5)
    assert attestation_score(1000) < 1.0 + 1e-12
    with pytest.raises(ValueError):
        attestation_score(-1)

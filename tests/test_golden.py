"""Golden digests of canonical scenario reports.

AC11 checks that a rerun matches within one version; these pins check that
behaviour matches across versions. Each digest is the SHA-256 of
``to_json_bytes() + to_csv_text().encode()``. A change that moves one must
say why in CHANGES.md and re-pin it.
"""

from __future__ import annotations

import hashlib

import pytest

from agentmesh import simnet

GOLDEN = [
    (
        simnet.ScenarioConfig(scenario="convergence", n=16, trials=10, seed=1011),
        "6e66a787d1942f7070369e3f2e81f452e261eb8f60b82e59d761d4d21d880bd8",
    ),
    (
        simnet.ScenarioConfig(scenario="sybil", n=20, seed=1011),
        "7f6869343ecdbbfb2136487d785e8470a96b1b8f4aa17312191ee2f5f45f85a4",
    ),
    (
        simnet.ScenarioConfig(scenario="marketplace", n=6, rounds=6, seed=1011),
        "fef27b0809827359505543f891a05da9d6f16183ef062ded9c0126586f4f5954",
    ),
    (
        simnet.ScenarioConfig(scenario="discovery_e2e", n=12, replicas=3, seed=1011),
        "16b28333b462467f80d03d70ba54d55e2eb599a56d82903232cbf32e4d63186b",
    ),
    # Benchmark size: 32 agents, 10 rounds.
    (
        simnet.ScenarioConfig(scenario="marketplace", n=32, rounds=10, seed=1011),
        "64d94ea7ad961bdf1d0a8ffbaae03632f9acbc552fc8234e9feb607db033a7dc",
    ),
    # Larger sizes: each runs in under a second.
    (
        simnet.ScenarioConfig(scenario="convergence", n=256, trials=10, seed=1011),
        "d497bbc8c103163d5b58ae205c6729f2a6849d3eb588cfef0c81f997cd45d4b3",
    ),
    # Gossips multi-entry deltas across 8 replicas.
    (
        simnet.ScenarioConfig(scenario="discovery_e2e", n=128, replicas=8, seed=1011),
        "d5cc247dc01a687e80d3e17b7085bffec38ca018f6838174baa92a0e86706d71",
    ),
    # Its dense solve rounds differently with more BLAS threads; conftest.py
    # pins one thread, as the benchmark does.
    (
        simnet.ScenarioConfig(scenario="sybil", n=200, seed=1011),
        "6544c09eeed0e4ecf955d56eac5aad5367f842070683291860fc0e5ad876ec76",
    ),
]


@pytest.mark.parametrize(
    ("config", "expected"), GOLDEN, ids=[f"{c.scenario}-n{c.n}-r{c.rounds}" for c, _ in GOLDEN]
)
def test_report_digest_is_pinned(config, expected):
    report = simnet.run_scenario(config)
    digest = hashlib.sha256(report.to_json_bytes() + report.to_csv_text().encode()).hexdigest()
    assert digest == expected


# Marketplace edge configs the pins above miss. Keys are the test ids.
MARKETPLACE_EDGES = {
    # No rounds: the CSV holds only its header.
    "rounds0": (
        simnet.ScenarioConfig(scenario="marketplace", n=6, rounds=0, seed=1011),
        "49fb13b1e14a6b978705426fbe02bd893867a2366d0b2ef8faa507d9da241445",
    ),
    "tasks0": (
        simnet.ScenarioConfig(scenario="marketplace", n=6, rounds=4, seed=1011, tasks_per_round=0),
        "9b7432204a4cdd8507077be404d649a1f5a43b9b5e72d17b1788626ef9d5259b",
    ),
    # More tasks per round than max_requests_per_round: no agent complies.
    "tasks4": (
        simnet.ScenarioConfig(scenario="marketplace", n=6, rounds=4, seed=1011, tasks_per_round=4),
        "fc61aab05d2ab0b588a0376fd8d06cf32cc0ce9b9f4f41594f0f6f000248752e",
    ),
    # Agents that pay more than they receive run out of funds.
    "price600000": (
        simnet.ScenarioConfig(scenario="marketplace", n=8, rounds=6, seed=1011, task_price=600_000),
        "64d1e13b0acaa7079a918a379d94d9f0ccd564488cd797e8f84605a03c5d6abd",
    ),
    # The smallest market: each agent's only candidate is the other.
    "n2": (
        simnet.ScenarioConfig(scenario="marketplace", n=2, rounds=4, seed=1011),
        "408fb83880daadde0b9c372e813b583f71337efaa44a90957677a9f086f7f02e",
    ),
}


@pytest.mark.parametrize(("config", "expected"), MARKETPLACE_EDGES.values(), ids=MARKETPLACE_EDGES.keys())
def test_marketplace_edge_digest_is_pinned(config, expected):
    test_report_digest_is_pinned(config, expected)

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
]


@pytest.mark.parametrize(
    ("config", "expected"), GOLDEN, ids=[f"{c.scenario}-n{c.n}-r{c.rounds}" for c, _ in GOLDEN]
)
def test_report_digest_is_pinned(config, expected):
    report = simnet.run_scenario(config)
    digest = hashlib.sha256(report.to_json_bytes() + report.to_csv_text().encode()).hexdigest()
    assert digest == expected

"""The benchmark's tracer self-test, run in tier-1: a change that moves one of
its exact call counts fails here, not only in a benchmark run. And the
signature checks of the benchmark's first marketplace scenario."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[1])  # holds the perfbench package
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from agentmesh import identity, micropay, simnet  # noqa: E402
from perfbench.selftest import selftest_standalone  # noqa: E402
from perfbench.workloads import Marketplace, derive_seed  # noqa: E402
from _helpers import count_ed25519_checks  # noqa: E402


def test_benchmark_tracer_selftest_finds_no_problems():
    assert selftest_standalone() == []


def test_marketplace_checks_each_delegation_once_and_every_other_signature(monkeypatch):
    """From an empty cache, the only `verify` calls answered without an
    Ed25519 check are settles under a delegation already checked. The calls
    are seen by a profile hook, so every traced name stays bound as it is."""
    config = simnet.ScenarioConfig(
        scenario="marketplace", n=Marketplace.n, rounds=Marketplace.rounds, seed=derive_seed(1, "marketplace/0")
    )
    verify_code, settle_code = identity.verify.__code__, micropay.Ledger.settle.__code__
    calls = {verify_code: 0, settle_code: 0}
    delegations = set()

    def observe(frame, event, arg):
        if event == "call" and frame.f_code in calls:
            calls[frame.f_code] += 1
            if frame.f_code is settle_code:
                delegations.add(frame.f_locals["header"].delegation)

    identity._verified.clear()
    checked = count_ed25519_checks(monkeypatch)
    sys.setprofile(observe)
    try:
        simnet.run_scenario(config)
    finally:
        sys.setprofile(None)
    verifies, settles = calls[verify_code], calls[settle_code]
    assert verifies - len(checked) == settles - len(delegations)
    # Two checks per settle and one per round seal: 2 × 320 + 310 seals over
    # 10 rounds, one per issuer a round that has claims.
    assert (verifies, len(checked), settles, len(delegations)) == (950, 694, 320, 64)

"""The benchmark's own traced command, run in tier-1: each workload at seed 1
and at the held-out seed 1000 must be correct, match its recorded digest and
report no problem, and the seed-1 work counts must equal the pins below. Each
traced run also runs the tracer self-test twice, so a moved self-test count
fails here too. And the signature checks of the benchmark's first marketplace
scenario, counted untraced."""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]  # holds the perfbench package
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from agentmesh import identity, micropay, simnet  # noqa: E402
from perfbench.workloads import Marketplace, derive_seed  # noqa: E402
from _helpers import count_ed25519_checks  # noqa: E402

WORKLOADS = ("marketplace", "discovery", "registry_sync", "sybil")

# The traced work is fixed, so at seed 1 each of these counts is exact. A
# change to how DIDs or records are encoded must move none of them, and
# making a card digest, a merge or a radix node cheaper must move no
# write-path count. A PR that moves one on purpose re-pins it here and says
# why in CHANGES.md. ROADMAP items 2 and 11 move the ranking counts (cosine
# and rank calls), 17(b) the marketplace `verify` count, and 22
# registry_sync's `verify` count.
SEED_1_PINS = {
    "discovery": {
        "discovery.cosine.calls": 106_373,
        "discovery.rank.calls": 33,
        "identity.sign.calls": 521,
        "identity.verify.calls": 530,
    },
    # A payer signs one delegation per window, not per task, and every
    # settle still calls verify on both signatures; identity.verify answers
    # a delegation it has checked before from its cache, inside the one
    # traced call. 17(c) moved sign and verify from 1,109 and 1,398: a
    # settled task signs no attestation, and each round's close signs and
    # verifies one seal per issuer that has claims, 338 seals in place of
    # 676 attestations.
    "marketplace": {
        "discovery.cosine.calls": 114_586,
        "discovery.rank.calls": 353,
        "identity.sign.calls": 771,
        "identity.verify.calls": 1_060,
    },
    # Signatures, then the write path: gossip messages and bytes, rounds,
    # index inserts, card digests and SHA-256 calls.
    "registry_sync": {
        "identity.sign.calls": 1_161,
        "identity.verify.calls": 1_170,
        "federation.messages": 3_954,
        "federation.bytes": 9_198_662,
        "federation.gossip_round.calls": 84,
        "registry.insert.calls": 1_158,
        "cards.card_digest.calls": 643,
        "identity.sha256.calls": 8_956,
    },
}


@functools.cache
def _traced_run(workload: str, seed: int) -> subprocess.CompletedProcess:
    """One `perfbench/run.py --trace 1` process per (workload, seed) a session."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    return subprocess.run(command + ["--seconds", "1", "--trace", "1"], cwd=ROOT, capture_output=True, text=True)


def _outputs(workload: str, seed: int) -> tuple[dict, dict]:
    """The run's detail and result lines, after checking that it exited 0."""
    process = _traced_run(workload, seed)
    assert process.returncode == 0, f"{workload} seed {seed} exited {process.returncode}: {process.stderr}"
    *_, detail, result = process.stdout.splitlines()
    return json.loads(detail)["detail"], json.loads(result)


@pytest.mark.parametrize("seed", [1, 1000])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_run_is_correct_without_drift(workload, seed):
    detail, result = _outputs(workload, seed)
    assert (result["correct"], detail["drift"], detail["problems"]) == (True, False, []), detail["problems"]


def test_seed_1_traced_counts_are_the_pinned_ones():
    moved = []
    for workload, pins in SEED_1_PINS.items():
        metrics = _outputs(workload, 1)[1]["metrics"]
        for metric, pinned in pins.items():
            if metrics[metric]["value"] != pinned:
                moved.append(f"{workload} {metric}: pinned {pinned}, measured {metrics[metric]['value']}")
    assert not moved, "\n".join(moved)


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

    identity._verified.cache_clear()
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

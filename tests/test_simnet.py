from __future__ import annotations

import json

import pytest

from agentmesh.simnet import (
    ScenarioConfig,
    run_convergence,
    run_discovery_e2e,
    run_marketplace,
    run_scenario,
    run_sybil,
    synthetic_agents,
    write_report,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="nope")
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="convergence", n=0)
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="convergence", alpha=1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="sybil", sybil_fraction=0.5)
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict({"scenario": "convergence", "bogus_key": 1})


def test_config_json_round_trip(tmp_path):
    config = ScenarioConfig(scenario="sybil", n=30, seed=4)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config.to_dict()))
    assert ScenarioConfig.from_json_file(path) == config


def test_synthetic_agents_deterministic_with_duplicates():
    a = synthetic_agents(12, seed=3, duplicate_every=5)
    b = synthetic_agents(12, seed=3, duplicate_every=5)
    assert [str(x.did) for x in a] == [str(x.did) for x in b]
    assert a[4].card.description == a[3].card.description  # clone pair
    assert a[9].card.description == a[8].card.description
    assert len({str(x.did) for x in a}) == 12  # identities stay distinct


def test_convergence_scenario_single_replica():
    report = run_convergence(ScenarioConfig(scenario="convergence", n=1, trials=3, seed=0))
    assert report.payload["rounds_per_trial"] == [0, 0, 0]
    assert report.payload["nonconvergent_trials"] == 0


def test_convergence_n64_seed7_regression_pin():
    report = run_convergence(ScenarioConfig(scenario="convergence", n=64, trials=100, seed=7))
    payload = report.payload
    assert payload["median_rounds"] == 6.0  # pinned from the first seeded run
    assert payload["median_rounds"] <= payload["log2_bound"]
    assert payload["nonconvergent_trials"] == 0


def test_ring_slower_than_complete():
    ring = run_convergence(ScenarioConfig(scenario="convergence", n=64, trials=30, seed=7, topology="ring"))
    complete = run_convergence(ScenarioConfig(scenario="convergence", n=64, trials=30, seed=7))
    assert ring.payload["median_rounds"] > complete.payload["median_rounds"]


def test_sybil_scenario_flags():
    report = run_sybil(ScenarioConfig(scenario="sybil", n=40, seed=3))
    payload = report.payload
    assert payload["sybil_mass_invariant_to_internal_weights"]
    assert payload["honest_edge_strictly_increases_mass"]
    assert payload["sybil_mass_below_equal_size_honest_hubs"]
    assert payload["n_sybil"] == 8
    no_edge_runs = [r for r in payload["runs"] if not r["honest_to_sybil_edge"]]
    for run in no_edge_runs:
        assert run["sybil_mass"] == pytest.approx(payload["expected_sybil_base_mass"], abs=1e-9)
        assert run["power_vs_solve_max_diff"] < 1e-9


def test_sybil_zero_fraction_degenerates():
    report = run_sybil(ScenarioConfig(scenario="sybil", n=20, seed=1, sybil_fraction=0.0))
    assert report.payload["n_sybil"] == 0
    assert report.payload["runs"][0]["sybil_mass"] == 0.0


def test_marketplace_invariants():
    report = run_marketplace(ScenarioConfig(scenario="marketplace", n=8, rounds=20, seed=11))
    payload = report.payload
    assert payload["conservation_ok"]
    assert payload["payments_attested"]
    assert payload["deadbeat_received_payments"] == 0
    series = payload["fused_round_series"]["deadbeat"]
    assert series[0] > series[-1]  # repeated failures erode fused trust
    assert payload["receipts"] > 0
    deadbeat = payload["agents"][payload["deadbeat_index"]]
    honest_best = max(a["fused"] for a in payload["agents"][:-1])
    assert deadbeat["fused"] < honest_best


def test_marketplace_zero_tasks_leaves_trust_unchanged():
    report = run_marketplace(
        ScenarioConfig(scenario="marketplace", n=6, rounds=5, seed=2, tasks_per_round=0)
    )
    series = report.payload["fused_round_series"]["deadbeat"]
    assert len(set(series)) == 1
    assert report.payload["receipts"] == 0


@pytest.mark.parametrize("tasks_per_round", [1, 2])
def test_marketplace_verifies_each_attestation_once(monkeypatch, tasks_per_round):
    from agentmesh import simnet

    calls = []

    def counting(att, resolver):
        calls.append(att)
        return original(att, resolver)

    original = simnet.verify_attestation
    monkeypatch.setattr(simnet, "verify_attestation", counting)
    report = run_marketplace(
        ScenarioConfig(scenario="marketplace", n=8, rounds=20, seed=11, tasks_per_round=tasks_per_round)
    )
    receipts = report.payload["receipts"]
    assert receipts > 0
    # Two attestations are minted per settled payment; each is checked once.
    assert len(calls) == 2 * receipts
    assert len({id(att) for att in calls}) == len(calls)


def test_discovery_e2e_pipeline_invariants():
    report = run_discovery_e2e(ScenarioConfig(scenario="discovery_e2e", n=15, replicas=4, seed=9, k=5))
    payload = report.payload
    assert payload["replica_roots_equal"]
    assert payload["all_proofs_verified"]
    assert payload["dedup_below_tau"]
    assert payload["converged_round"] >= 1
    for query in payload["queries"]:
        assert len(query["results"]) <= 5
        assert query["max_pairwise_cosine"] < 0.95 or len(query["results"]) <= 1


def test_discovery_trust_override_changes_report():
    low = run_discovery_e2e(
        ScenarioConfig(scenario="discovery_e2e", n=10, replicas=2, seed=9, trust_overrides={"5": 0.1})
    )
    high = run_discovery_e2e(
        ScenarioConfig(scenario="discovery_e2e", n=10, replicas=2, seed=9, trust_overrides={"5": 0.9})
    )
    did5 = low.payload["corpus"][5]["did"]
    assert low.payload["trust_report"][did5] == 0.1
    assert high.payload["trust_report"][did5] == 0.9


@pytest.mark.parametrize(
    "config",
    [
        ScenarioConfig(scenario="convergence", n=16, trials=10, seed=5),
        ScenarioConfig(scenario="sybil", n=20, seed=5),
        ScenarioConfig(scenario="marketplace", n=6, rounds=6, seed=5),
        ScenarioConfig(scenario="discovery_e2e", n=12, replicas=3, seed=5),
    ],
    ids=["convergence", "sybil", "marketplace", "discovery_e2e"],
)
def test_reports_byte_identical_across_reruns(config):
    first = run_scenario(config)
    second = run_scenario(config)
    assert first.to_json_bytes() == second.to_json_bytes()
    assert first.to_csv_text() == second.to_csv_text()


def test_write_report_files(tmp_path):
    report = run_convergence(ScenarioConfig(scenario="convergence", n=8, trials=5, seed=1))
    out = tmp_path / "sub" / "report.json"
    written = write_report(report, out)
    assert out.exists()
    assert (tmp_path / "sub" / "report.csv").exists()
    assert str(out) in written
    loaded = json.loads(out.read_text())
    assert loaded["scenario"] == "convergence"
    assert loaded["config"]["seed"] == 1

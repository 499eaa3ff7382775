"""Shared builders for the test suite."""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys

import numpy as np
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from hypothesis import strategies as st

from agentmesh import identity, privacy, simnet
from agentmesh.cards import EMBED_DIM, AgentFactCard
from agentmesh.identity import AgentDid, AttestationIssuer, ClaimType, KeyPair, derive_did, generate_keypair, sha256
from agentmesh.registry import RegistryRecord, make_record
from agentmesh.wire import dumps


# Prints the core name of each OpenBLAS that numpy loaded into the process.
_OPENBLAS_CORENAME = """
import ctypes, os
import numpy
with open("/proc/self/maps") as maps:
    paths = {line.split()[-1] for line in maps if "openblas" in os.path.basename(line.split()[-1]).lower()}
for path in sorted(paths):
    for name in ("openblas_get_corename", "scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
        get = getattr(ctypes.CDLL(path), name, None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            print(get().decode())
            break
"""


def openblas_corenames(env: dict[str, str] | None = None) -> list[str]:
    """The core name of each OpenBLAS that numpy loads in a new Python
    process run under `env` (this process's environment by default): the
    kernels its matvecs and solves run on. Empty where none can be read."""
    probe = subprocess.run([sys.executable, "-c", _OPENBLAS_CORENAME], env=env, capture_output=True, text=True)
    return probe.stdout.split()


def keypair_for(label: str) -> KeyPair:
    return generate_keypair(sha256(b"test-key:" + label.encode()))


def did_for(label: str) -> AgentDid:
    return derive_did(keypair_for(label).public_key)


def count_ed25519_checks(monkeypatch) -> list[bytes]:
    """The public key of each Ed25519 check that `identity.verify` runs from
    now on, in order. A check starts with parsing its key, so the parse is
    counted; the traced `verify` names stay bound as they are."""
    checked: list[bytes] = []

    class Counting:
        @staticmethod
        def from_public_bytes(data: bytes) -> Ed25519PublicKey:
            checked.append(data)
            return Ed25519PublicKey.from_public_bytes(data)

    monkeypatch.setattr(identity, "Ed25519PublicKey", Counting)
    return checked


def signed_record(key: str, version: int = 1, owner_label: str = "owner", url: str = "https://x/meta"):
    """(record, resolver) pair with a valid owner signature."""
    keypair = keypair_for(owner_label)
    owner = derive_did(keypair.public_key)
    record = make_record(key, url, sha256(key.encode()), keypair.secret_key, owner, version)
    return record, {str(owner): keypair.public_key}


def unsigned_record(key: str, rng: random.Random) -> RegistryRecord:
    """Record with junk signature; fine for CRDT-law tests that never verify."""
    return RegistryRecord(
        key=key,
        metadata_url=f"https://r/{rng.randrange(1 << 30)}",
        card_digest=rng.randbytes(32),
        owner=did_for("law-owner"),
        version=rng.randrange(1, 100),
        signature=rng.randbytes(64),
    )


def write_pool(rng: random.Random, writers: int = 4, per_writer: int = 6, keys: int = 8):
    """A consistent universe of writes: each (writer, sequence) names exactly
    one record, the invariant real replicas maintain."""
    from agentmesh.federation import LwwTag

    pool = {}
    for writer in range(writers):
        entries = []
        for seq in range(1, per_writer + 1):
            record = unsigned_record(f"key-{rng.randrange(keys)}", rng)
            entries.append((record.key, record, LwwTag(rng.randrange(1, 50), writer, seq)))
        pool[writer] = entries
    return pool


def state_from_pool(pool, rng: random.Random, replica_id: int):
    """Replica holding a per-writer prefix of the pool, applied in order --
    the reachable-state shape whose version vector summarizes its history."""
    from agentmesh.federation import ReplicaState

    state = ReplicaState(replica_id)
    for writer, entries in pool.items():
        upto = rng.randrange(0, len(entries) + 1)
        if upto:
            state.version_vector[writer] = upto
        for key, record, tag in entries[:upto]:
            state._apply_entry(key, record, tag)
    return state


def unit_embedding(rng: random.Random) -> tuple[float, ...]:
    np_rng = np.random.default_rng(rng.randrange(1 << 62))
    vec = np_rng.normal(size=EMBED_DIM)
    vec /= np.linalg.norm(vec)
    return tuple(float(x) for x in vec)


def random_card(rng: random.Random, with_credentials: bool = False) -> AgentFactCard:
    issuer = AttestationIssuer(keypair_for(f"cred-{rng.randrange(4)}"))
    payloads = [rng.randbytes(32) for _ in range(rng.randrange(1, 3))] if with_credentials else []
    did = did_for(f"card-{rng.randrange(1 << 30)}")
    # Credentials are about the card's own agent, as `validate_card` requires.
    creds = tuple(issuer.issue(did, ClaimType.TASK_COMPLETED, payload, t + 1) for t, payload in enumerate(payloads))
    return AgentFactCard(
        did=did,
        display_name=f"agent-{rng.randrange(1000)}",
        description=" ".join(rng.choice("alpha beta gamma delta weather invoice map".split()) for _ in range(6)),
        capabilities=tuple(f"cap.{rng.randrange(20)}" for _ in range(rng.randrange(1, 4))),
        endpoint_url=f"https://svc/{rng.randrange(1000)}",
        embedding=unit_embedding(rng) if rng.random() < 0.7 else None,
        credentials=creds,
        usage_count=rng.randrange(0, 10**6),
        last_active=rng.randrange(0, 10**6),
        version=rng.randrange(1, 1000),
    )


def behavior_score(event_counts, population) -> float:
    """One agent's anomaly score, exp(-max |z|) of its features against the
    population's, skipping zero-variance features: the scalar formula that
    trust.behavior_scores computes for every row at once."""
    if len(event_counts) == 0 or len(population) < 2:
        return 1.0
    data = np.asarray(population, dtype=float)
    mean = data.mean(axis=0)
    std = data.std(axis=0)
    worst = 0.0
    for f, x in enumerate(event_counts):
        if std[f] == 0.0:
            continue
        worst = max(worst, abs((x - mean[f]) / std[f]))
    return math.exp(-worst)


def write_cards(path, cards) -> None:
    """Write cards as the JSON Lines corpus that `cards.load_cards` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for card in cards:
            fh.write(dumps(card.to_json_obj()) + "\n")


# -- JSON inputs with one value replaced ---------------------------------------


def json_with(obj: dict, path: tuple, value) -> dict:
    """Deep copy of a JSON object with the value at `path` replaced."""
    out = json.loads(json.dumps(obj))
    target = out
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return out


# Any small JSON value, with the numbers a float reader must refuse (NaN and
# the infinities, which `json` reads from `NaN`, `Infinity` and `1e400`).
# Integers stay small so that no example runs a large scenario.
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=8),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -1e300, 0.5]),
    st.text(alphabet="0123456789abcdef:é", max_size=6),
)
json_values = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(alphabet="0123456789ab", max_size=2), children, max_size=3),
    max_leaves=6,
)


# -- scenario configs drawn from simnet's range tables --------------------------

# Sizes: caps on the fields that set how much work a scenario does, so that
# each drawn config runs in a fraction of a second. Alpha is a size too:
# trust propagation takes about 1 / (1 - alpha) iterations.
_SIZE_CAPS = {"n": 10, "rounds": 2, "trials": 3, "replicas": 3, "tasks_per_round": 2}
_ALPHA_CAP = 0.99
# Runner rule: each scenario's DP releases charge epsilon against the default
# budget, and its noise scale 1 / epsilon must be finite.
_DP_RELEASES = {"marketplace": 1, "discovery_e2e": 2}
_SMALLEST_DP_EPSILON = 1e-300
# Runner rule: a random_regular topology needs degree < n and n * degree even,
# and a connected one needs degree 2 or more, or n = 2.
_REGULAR_SHAPES = [
    (n, k) for n in range(2, _SIZE_CAPS["n"] + 1) for k in range(1, n) if n * k % 2 == 0 and (k > 1 or n == 2)
]


def interval_floats(interval: str, high: float | None = None) -> st.SearchStrategy[float]:
    """Finite floats in an interval written as in simnet.REAL_RANGES, such as
    "(0, 1]"; `high` narrows it to [.., high]."""
    low, top = (float(end) for end in interval[1:-1].split(","))
    open_top = interval[-1] == ")"
    if high is not None and high < top:
        top, open_top = high, False
    return st.floats(
        min_value=low,
        max_value=None if math.isinf(top) else top,
        exclude_min=interval[0] == "(",
        exclude_max=open_top and not math.isinf(top),
        allow_nan=False,
        allow_infinity=False,
    )


@st.composite
def runnable_configs(draw) -> dict:
    """A scenario config, as its JSON object, with every field drawn inside
    simnet's range tables. The draw narrows only sizes and the rules each
    scenario's runner adds, as the comments above and below say."""
    config = {name: draw(st.sampled_from(choices)) for name, choices in simnet.CHOICES.items()}
    for name, (low, high) in simnet.INT_RANGES.items():
        top = min(high, _SIZE_CAPS.get(name, high))
        values = st.integers(low, None if math.isinf(top) else top)
        config[name] = draw(st.none() | values if name in simnet.NULLABLE else values)
    for name, interval in simnet.REAL_RANGES.items():
        config[name] = draw(interval_floats(interval, high=_ALPHA_CAP if name == "alpha" else None))
    weight = interval_floats(simnet.ELEMENT_RANGES["sybil_internal_weights"])
    config["sybil_internal_weights"] = draw(st.lists(weight, min_size=2, max_size=2))
    config["queries"] = draw(st.none() | st.lists(st.text(max_size=12), max_size=2))
    # Runner rule: marketplace refuses a corpus, and the others need the file
    # to exist; loaded corpora have tests of their own.
    config["corpus"] = None

    scenario = config["scenario"]
    if scenario == "marketplace":  # runner rule: a payer and a payee
        config["n"] = draw(st.integers(2, _SIZE_CAPS["n"]))
    if scenario in _DP_RELEASES:
        top = privacy.DEFAULT_BUDGET / _DP_RELEASES[scenario]
        config["epsilon"] = draw(st.floats(_SMALLEST_DP_EPSILON, top))
    if scenario == "convergence" and config["topology"] == "random_regular":
        config["n"], config["regular_degree"] = draw(st.sampled_from(_REGULAR_SHAPES))
    # Runner rule: discovery_e2e refuses an override index outside its n agents.
    highest_index = config["n"] - 1 if scenario == "discovery_e2e" else None
    index = st.integers(0, highest_index).map(str)
    score = interval_floats(simnet.ELEMENT_RANGES["trust_overrides"])
    config["trust_overrides"] = draw(st.none() | st.dictionaries(index, score, max_size=3))
    return config

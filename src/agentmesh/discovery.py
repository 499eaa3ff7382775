"""Discovery pipeline: deterministic fallback text embedding, pairwise-
trained linear ranking over (similarity, trust, usage, recency), and
similarity-threshold deduplication.

The embedder is signed character-3-gram feature hashing into 256 buckets
(SHA-256 based, so identical across platforms and processes), L2-normalized.
Cards that already carry an embedding vector take precedence over the
fallback.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cards import EMBED_DIM, AgentFactCard
from .identity import sha256
from .wire import json_float, json_list, json_object, json_u64

__all__ = [
    "RankFeatures",
    "L2RModel",
    "TrainingDiverged",
    "embed_text",
    "cosine",
    "card_embedding",
    "features_for",
    "score_pairwise_loss",
    "train",
    "rank",
    "dedup",
    "load_pairs",
    "DEFAULT_TAU",
    "DEFAULT_RECENCY_HORIZON",
]

DEFAULT_TAU = 0.95
DEFAULT_RECENCY_HORIZON = 1000.0


def embed_text(text: str) -> np.ndarray:
    """Deterministic unit-norm embedding of arbitrary text.

    Short inputs degrade gracefully: fewer than 3 characters hash as a single
    gram, and empty text maps to the fixed basis vector at index 0.
    """
    text = text.lower()
    if len(text) >= 3:
        grams = [text[i : i + 3] for i in range(len(text) - 2)]
    elif text:
        grams = [text]
    else:
        grams = []
    vec = np.zeros(EMBED_DIM)
    if not grams:
        vec[0] = 1.0
        return vec
    for gram in grams:
        digest = sha256(gram.encode("utf-8"))
        bucket = int.from_bytes(digest[:4], "big") % EMBED_DIM
        sign = 1.0 if digest[4] & 1 else -1.0
        vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec[0] = 1.0
        return vec
    return vec / norm


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity clamped to [-1, 1]: 0.0 if either vector is zero,
    NaN if either holds a NaN.

    Bit-identical to ``clip(dot(a, b) / (norm(a) * norm(b)), -1, 1)``, since
    the norm of a 1-D float vector is ``sqrt(x.dot(x))``; scalar arithmetic
    skips numpy's per-call overhead, which dominates on 256-vectors.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na = math.sqrt(a.dot(a))
    nb = math.sqrt(b.dot(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    similarity = float(a.dot(b)) / (na * nb)
    if similarity > 1.0:
        return 1.0
    if similarity < -1.0:
        return -1.0
    return similarity


def card_embedding(card: AgentFactCard) -> np.ndarray:
    if card.embedding is not None:
        return np.asarray(card.embedding, dtype=float)
    return embed_text(card.description)


@dataclass(frozen=True)
class RankFeatures:
    cos_sim: float
    trust: float
    log_usage: float
    recency: float

    def vector(self) -> np.ndarray:
        return np.array([self.cos_sim, self.trust, self.log_usage, self.recency])

    def to_json_obj(self) -> dict:
        return {
            "cos_sim": self.cos_sim,
            "trust": self.trust,
            "log_usage": self.log_usage,
            "recency": self.recency,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RankFeatures":
        return cls(
            cos_sim=float(obj["cos_sim"]),
            trust=float(obj["trust"]),
            log_usage=float(obj["log_usage"]),
            recency=float(obj["recency"]),
        )


def features_for(
    query_embedding: np.ndarray,
    card: AgentFactCard,
    trust: float,
    now: int,
    horizon: float = DEFAULT_RECENCY_HORIZON,
) -> RankFeatures:
    return _features(query_embedding, card, card_embedding(card), trust, now, horizon)


def _features(
    query_embedding: np.ndarray,
    card: AgentFactCard,
    embedding: np.ndarray,
    trust: float,
    now: int,
    horizon: float,
) -> RankFeatures:
    age = max(0, now - card.last_active)
    return RankFeatures(
        cos_sim=cosine(query_embedding, embedding),
        trust=trust,
        log_usage=math.log1p(card.usage_count),
        recency=math.exp(-age / horizon),
    )


@dataclass
class L2RModel:
    theta: np.ndarray  # 4 feature weights
    bias: float = 0.0
    iterations: int = 0
    final_loss: float | None = None
    loss_history: tuple[float, ...] | None = None  # diagnostic, not exported

    @classmethod
    def zeros(cls) -> "L2RModel":
        return cls(theta=np.zeros(4))

    def score(self, features: RankFeatures) -> float:
        return float(np.dot(self.theta, features.vector()) + self.bias)

    def to_json_obj(self) -> dict:
        return {
            "theta": [float(x) for x in self.theta],
            "bias": self.bias,
            "iterations": self.iterations,
            "final_loss": self.final_loss,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "L2RModel":
        obj = json_object(obj, "model")
        theta = [json_float(x, "model theta entry") for x in json_list(obj["theta"], "model field 'theta'")]
        bias = json_float(obj.get("bias", 0.0), "model field 'bias'")
        if len(theta) != 4 or not all(math.isfinite(x) for x in theta + [bias]):
            raise ValueError("model theta must hold 4 finite numbers and bias must be finite")
        final_loss = obj.get("final_loss")
        return cls(
            theta=np.array(theta),
            bias=bias,
            iterations=json_u64(obj.get("iterations", 0), "model field 'iterations'"),
            final_loss=None if final_loss is None else json_float(final_loss, "model field 'final_loss'"),
        )


class TrainingDiverged(RuntimeError):
    """Loss increased for 10 consecutive iterations."""


def score_pairwise_loss(
    model: L2RModel, pairs: Sequence[tuple[RankFeatures, RankFeatures]]
) -> tuple[float, np.ndarray]:
    """Mean pairwise logistic loss ln(1+exp(-(s(a)-s(b)))) over (preferred,
    other) pairs, with its exact gradient in (theta, bias).

    Vectorised, yet bit-identical to a per-pair loop of
    ``margin = dot(theta, a - b)``, ``logaddexp(0, -margin)`` and
    ``grad += -sigmoid(-margin) * (a - b)``: ``vecdot`` runs numpy's own
    dot loop once per row (``diffs @ theta`` rounds differently), and the
    gradient is a sequential sum that starts from a row of +0.0, as the loop
    does, so a column of zero diffs sums to 0.0, not -0.0.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    n = len(pairs)
    fields = np.fromiter(
        (
            x
            for a, b in pairs
            for x in (a.cos_sim, a.trust, a.log_usage, a.recency, b.cos_sim, b.trust, b.log_usage, b.recency)
        ),
        dtype=float,
        count=8 * n,
    ).reshape(n, 8)
    diffs = fields[:, :4] - fields[:, 4:]
    margins = np.vecdot(diffs, model.theta)  # bias cancels
    loss = math.fsum(np.logaddexp(0.0, -margins).tolist()) / n
    # d/d margin of ln(1+exp(-margin)) = -sigmoid(-margin)
    sig = np.array([_sigmoid(x) for x in (-margins).tolist()])
    terms = np.zeros((n + 1, 4))
    terms[1:] = (-sig)[:, None] * diffs
    grad_theta = np.add.accumulate(terms, axis=0)[-1]
    gradient = np.concatenate([grad_theta / n, [0.0]])
    return loss, gradient


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def train(
    pairs: Sequence[tuple[RankFeatures, RankFeatures]],
    learning_rate: float = 0.1,
    iters: int = 200,
    keep_history: bool = False,
) -> L2RModel:
    """Full-batch gradient descent from zero weights; deterministic, since
    full-batch descent has no stochastic component."""
    if not (math.isfinite(learning_rate) and learning_rate > 0.0):
        raise ValueError(f"learning_rate must be finite and positive, got {learning_rate!r}")
    model = L2RModel.zeros()
    if iters == 0:
        return model
    previous_loss = math.inf
    increases = 0
    history: list[float] = []
    for iteration in range(iters):
        loss, gradient = score_pairwise_loss(model, pairs)
        history.append(loss)
        if loss > previous_loss + 1e-12:
            increases += 1
            if increases >= 10:
                raise TrainingDiverged(f"loss rose for {increases} consecutive iterations")
        else:
            increases = 0
        previous_loss = loss
        model.theta = model.theta - learning_rate * gradient[:4]
        model.bias = model.bias - learning_rate * float(gradient[4])
        model.iterations = iteration + 1
    model.final_loss = score_pairwise_loss(model, pairs)[0]
    history.append(model.final_loss)
    if keep_history:
        model.loss_history = tuple(history)
    return model


def rank(
    query_embedding: np.ndarray,
    cards: Sequence[AgentFactCard],
    trust_report: Mapping[str, float],
    model: L2RModel,
    k: int,
    now: int,
    tau: float = DEFAULT_TAU,
    horizon: float = DEFAULT_RECENCY_HORIZON,
    default_trust: float = 0.0,
) -> list[tuple[str, float]]:
    """Top-k (did, score), descending by model score with (trust, DID)
    tie-breaks, deduplicated at cosine threshold tau."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scored = []
    for card in cards:
        did = str(card.did)
        trust = float(trust_report.get(did, default_trust))
        embedding = card_embedding(card)
        feats = _features(query_embedding, card, embedding, trust, now, horizon)
        scored.append((did, model.score(feats), trust, embedding))
    scored.sort(key=lambda item: (-item[1], -item[2], item[0]))
    kept = dedup([(did, score, emb) for did, score, trust, emb in scored], tau)
    return [(did, score) for did, score, _emb in kept[:k]]


def dedup(
    candidates: Sequence[tuple[str, float, np.ndarray]], tau: float
) -> list[tuple[str, float, np.ndarray]]:
    """Greedy scan in rank order dropping anything with cosine >= tau to an
    already-kept candidate; output is pairwise-dissimilar below tau."""
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must be in (0,1]")
    kept: list[tuple[str, float, np.ndarray]] = []
    for did, score, emb in candidates:
        if all(cosine(emb, kept_emb) < tau for _d, _s, kept_emb in kept):
            kept.append((did, score, emb))
    return kept


def load_pairs(path: str | Path) -> list[tuple[RankFeatures, RankFeatures]]:
    """Read training pairs from JSON Lines of {preferred, other} features."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                obj = json.loads(line)
                pairs.append(
                    (RankFeatures.from_json_obj(obj["preferred"]), RankFeatures.from_json_obj(obj["other"]))
                )
    return pairs

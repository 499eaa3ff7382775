"""Discovery pipeline: deterministic fallback text embedding, pairwise-
trained linear ranking over (similarity, trust, usage, recency), and
similarity-threshold deduplication.

The embedder is signed character-3-gram feature hashing into 256 buckets
(SHA-256 based, so identical across platforms and processes), L2-normalized.
Cards that already carry an embedding vector take precedence over the
fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cards import EMBED_DIM, AgentFactCard
from .identity import sha256
from .wire import json_float, json_list, json_object, json_u64, load_jsonl

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

# `cosine`'s fast path: a plain ndarray whose dtype is the object numpy gives
# native float64 arrays. An equal dtype that is another object (an unpickled
# array's) takes the conversion path. Module names, not `np.` lookups, since
# the check runs twice on each of the ranking's many calls.
_NDARRAY = np.ndarray
_FLOAT64 = np.dtype(float)


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


def cosine(
    a: np.ndarray, b: np.ndarray, norm_a: float | None = None, norm_b: float | None = None
) -> float:
    """Cosine similarity clamped to [-1, 1]: 0.0 if either vector is zero,
    NaN if either holds a NaN.

    Bit-identical to ``clip(dot(a, b) / (norm(a) * norm(b)), -1, 1)``, since
    the norm of a 1-D float vector is ``sqrt(x.dot(x))``; scalar arithmetic
    skips numpy's per-call overhead, which dominates on 256-vectors.

    A call costs one dot, plus one for each norm it takes itself. An
    argument that is a plain ``np.ndarray`` of native float64 is used as it
    is; any other form (a list, a tuple, another dtype or byte order, an
    ndarray subclass) is first converted by ``np.asarray(x, dtype=float)``,
    which is the same array for the fast form, so both give the same bits.

    A caller that compares one vector many times may pass its norm as
    ``norm_a`` or ``norm_b``; it must be ``math.sqrt(x.dot(x))`` of the
    float array ``np.asarray(x, dtype=float)``, so the result has the same
    bits as when ``cosine`` takes the norm itself. Each comparison is then
    one dot.

    The bits depend on the layout of the values as well as on the values: a
    strided view (a matrix column, say) goes to BLAS with its stride and can
    round differently from a contiguous copy of the same values. `rank`
    hands it only C-contiguous card vectors.
    """
    if type(a) is not _NDARRAY or a.dtype is not _FLOAT64:
        a = np.asarray(a, dtype=float)
    if type(b) is not _NDARRAY or b.dtype is not _FLOAT64:
        b = np.asarray(b, dtype=float)
    na = math.sqrt(a.dot(a)) if norm_a is None else norm_a
    nb = math.sqrt(b.dot(b)) if norm_b is None else norm_b
    if na == 0.0 or nb == 0.0:
        return 0.0
    similarity = float(a.dot(b)) / (na * nb)
    if similarity > 1.0:
        return 1.0
    if similarity < -1.0:
        return -1.0
    return similarity


def _norm(x: np.ndarray) -> float:
    """The norm `cosine` takes of ``x``, for passing back to it."""
    x = np.asarray(x, dtype=float)
    return math.sqrt(x.dot(x))


_CARD_VECTOR = "_card_vector"  # key in a card's own __dict__


def _card_vector(card: AgentFactCard) -> tuple[np.ndarray, float]:
    """The card's ranking vector and its `_norm`: its stored embedding as a
    read-only float array, or else the embedding of its description, read-
    only too. Built on first use and kept under one key in the card's own
    `__dict__`, so it dies with the card, and a changed card (a new card)
    builds its own."""
    vector = card.__dict__.get(_CARD_VECTOR)
    if vector is None:
        if card.embedding is not None:
            array = np.asarray(card.embedding, dtype=float)
        else:
            array = embed_text(card.description)
        array.flags.writeable = False
        vector = card.__dict__[_CARD_VECTOR] = (array, _norm(array))
    return vector


def card_embedding(card: AgentFactCard) -> np.ndarray:
    """The card's stored embedding, or else the fallback embedding of its
    description, as the card's own read-only array."""
    return _card_vector(card)[0]


@dataclass(frozen=True)
class RankFeatures:
    cos_sim: float
    trust: float
    log_usage: float
    recency: float

    def vector(self) -> np.ndarray:
        return np.array([self.cos_sim, self.trust, self.log_usage, self.recency])

    @classmethod
    def from_json_obj(cls, obj: object, what: str) -> "RankFeatures":
        obj = json_object(obj, what)
        return cls(**{name: json_float(obj.get(name), f"{what} feature {name!r}") for name in cls.__dataclass_fields__})


def features_for(
    query_embedding: np.ndarray,
    card: AgentFactCard,
    trust: float,
    now: int,
) -> RankFeatures:
    """One card's ranking features. `rank` computes the same four values for
    all cards at once; this scalar form stays as its oracle."""
    age = max(0, now - card.last_active)
    return RankFeatures(
        cos_sim=cosine(query_embedding, card_embedding(card)),
        trust=trust,
        log_usage=math.log1p(card.usage_count),
        recency=math.exp(-age / DEFAULT_RECENCY_HORIZON),
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
        """One card's score. `rank` scores all cards in one `vecdot`, which
        runs the same dot loop per row; this scalar form stays as its oracle."""
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
        theta = [json_float(x, "model theta entry") for x in json_list(obj.get("theta"), "model field 'theta'")]
        if len(theta) != 4:
            raise ValueError("model theta must hold 4 numbers")
        final_loss = obj.get("final_loss")
        return cls(
            theta=np.array(theta),
            bias=json_float(obj.get("bias", 0.0), "model field 'bias'"),
            iterations=json_u64(obj.get("iterations", 0), "model field 'iterations'"),
            final_loss=None if final_loss is None else json_float(final_loss, "model field 'final_loss'"),
        )


class TrainingDiverged(RuntimeError):
    """Loss increased for 10 consecutive iterations, or a step overflowed."""


class _PairTable(tuple):
    """The (preferred, other) pairs of one fit, in order, with their (n, 4)
    preferred-minus-other feature table, built once and read-only."""

    diffs: np.ndarray

    def __new__(cls, pairs: Sequence[tuple[RankFeatures, RankFeatures]]) -> "_PairTable":
        table = super().__new__(cls, pairs)
        n = len(table)
        fields = np.fromiter(
            (
                x
                for a, b in table
                for x in (a.cos_sim, a.trust, a.log_usage, a.recency, b.cos_sim, b.trust, b.log_usage, b.recency)
            ),
            dtype=float,
            count=8 * n,
        ).reshape(n, 8)
        table.diffs = fields[:, :4] - fields[:, 4:]
        table.diffs.flags.writeable = False
        return table


def score_pairwise_loss(
    model: L2RModel, pairs: Sequence[tuple[RankFeatures, RankFeatures]]
) -> tuple[float, np.ndarray]:
    """Mean pairwise logistic loss ln(1+exp(-(s(a)-s(b)))) over (preferred,
    other) pairs, with its exact gradient in (theta, bias).

    Vectorised, yet bit-identical to a per-pair loop of
    ``margin = dot(theta, a - b)``, ``logaddexp(0, -margin)`` and
    ``grad += -sigmoid(-margin) * (a - b)``: ``vecdot`` runs numpy's own
    dot loop once per row (``diffs @ theta`` rounds differently), each
    sigmoid takes its ``exp`` from ``math.exp`` (``np.exp`` can differ in
    the last bit) on the non-positive side, as the scalar form does, and the
    gradient is one axis-0 ``add.reduce`` from an initial +0.0, which numpy
    runs row by row over the C-ordered (n, 4) terms, as the loop sums, so a
    column of zero diffs sums to 0.0, not -0.0. `train` passes one
    `_PairTable` to every call; any other sequence is wrapped here.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    table = pairs if isinstance(pairs, _PairTable) else _PairTable(pairs)
    n = len(table)
    x = -np.vecdot(table.diffs, model.theta)  # -margin; bias cancels
    loss = math.fsum(np.logaddexp(0.0, x).tolist()) / n
    # d/d margin of ln(1+exp(-margin)) = -sigmoid(-margin) = -sigmoid(x).
    # np.where keeps a NaN's sign bit, which -np.abs(x) would clear.
    up = x >= 0
    e = np.fromiter(map(math.exp, np.where(up, -x, x).tolist()), float, n)
    one_plus_e = 1.0 + e
    sig = np.where(up, 1.0 / one_plus_e, e / one_plus_e)
    grad_theta = np.add.reduce((-sig)[:, None] * table.diffs, axis=0, initial=0.0)
    gradient = np.concatenate([grad_theta / n, [0.0]])
    return loss, gradient


def train(
    pairs: Sequence[tuple[RankFeatures, RankFeatures]],
    learning_rate: float = 0.1,
    iters: int = 200,
) -> L2RModel:
    """Full-batch gradient descent from zero weights; deterministic, since
    full-batch descent has no stochastic component. The pairs' feature table
    is built once, and each of the ``iters + 1`` loss evaluations goes
    through the module's `score_pairwise_loss` with that one table; the
    model keeps those losses, in order, as its `loss_history`."""
    if not (math.isfinite(learning_rate) and learning_rate > 0.0):
        raise ValueError(f"learning_rate must be finite and positive, got {learning_rate!r}")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters!r}")
    model = L2RModel.zeros()
    if iters == 0:
        return model
    previous_loss = math.inf
    increases = 0
    history: list[float] = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            table = _PairTable(pairs)
            for iteration in range(iters):
                loss, gradient = score_pairwise_loss(model, table)
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
            model.final_loss = score_pairwise_loss(model, table)[0]
    except FloatingPointError as exc:
        raise TrainingDiverged(f"training overflowed at iteration {model.iterations}: {exc}") from None
    history.append(model.final_loss)
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
) -> list[tuple[str, float]]:
    """Top-k (did, score), descending by model score with (trust, DID)
    tie-breaks, deduplicated at cosine threshold tau.

    Each card's features, as `features_for` gives them, fill one row of an
    (n, 4) table, and `vecdot` scores every row with numpy's own dot loop,
    so each score has the bits of `model.score` (`table @ theta` rounds
    differently). The query's norm is taken once per call and each card's
    once per card, and the scored norms go on to `dedup`, so each
    similarity and each dedup comparison is one dot.

    A call costs n `cosine` calls, one `vecdot` and one sort of n keys, then
    the `dedup` scan of all n candidates. Each card's array and norm come
    from its `_card_vector` memo, built on the card's first ranking, and
    are handed on as they are."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query_norm = _norm(query_embedding)
    entries = []
    values = []
    for card in cards:
        did = card.did
        trust = float(trust_report.get(did, 0.0))
        vector = _card_vector(card)
        age = max(0, now - card.last_active)
        values += (
            cosine(query_embedding, vector[0], query_norm, vector[1]),
            trust,
            math.log1p(card.usage_count),
            math.exp(-age / DEFAULT_RECENCY_HORIZON),
        )
        entries.append((did, trust, vector))
    table = np.array(values, dtype=float).reshape(len(entries), 4)
    scores = (np.vecdot(table, model.theta) + model.bias).tolist()
    keys = [(-score, -trust, did) for score, (did, trust, _vector) in zip(scores, entries)]
    order = sorted(range(len(entries)), key=keys.__getitem__)
    kept = dedup(
        [(entries[i][0], scores[i], entries[i][2][0]) for i in order],
        tau,
        [entries[i][2][1] for i in order],
    )
    return [(did, score) for did, score, _emb in kept[:k]]


def dedup(
    candidates: Sequence[tuple[str, float, np.ndarray]],
    tau: float,
    norms: Sequence[float] | None = None,
) -> list[tuple[str, float, np.ndarray]]:
    """Greedy scan in rank order dropping anything whose cosine to an
    already-kept candidate is >= tau (or NaN); output is pairwise-dissimilar
    below tau. Each candidate's norm is taken once, so each comparison is
    one dot, and a candidate's comparisons stop at the first kept candidate
    that drops it. The kept candidates are the tuples passed in.

    A scan costs one `cosine` call per comparison: up to ``len(kept)`` per
    candidate, ``n(n-1)/2`` when every candidate is kept. Each call gets
    both norms, and gets the arrays as they were passed, so a plain float64
    array reaches `cosine`'s fast path.

    A caller that holds the candidates' norms may pass them as ``norms``,
    one per candidate, in order, each as `cosine` would take it (see its
    ``norm_a``); the result and the `cosine` calls are then the same, bit
    for bit."""
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must be in (0,1]")
    if norms is None:
        norms = [_norm(emb) for _did, _score, emb in candidates]
    kept: list[tuple[str, float, np.ndarray]] = []
    kept_vectors: list[tuple[np.ndarray, float]] = []
    for candidate, norm in zip(candidates, norms, strict=True):
        _did, _score, emb = candidate
        for kept_emb, kept_norm in kept_vectors:
            if not cosine(emb, kept_emb, norm, kept_norm) < tau:
                break
        else:
            kept.append(candidate)
            kept_vectors.append((emb, norm))
    return kept


def load_pairs(path: str | Path) -> list[tuple[RankFeatures, RankFeatures]]:
    """Read training pairs from JSON Lines of {preferred, other} features."""

    def parse(obj: object) -> tuple[RankFeatures, RankFeatures]:
        obj = json_object(obj, "pairs line")
        return (
            RankFeatures.from_json_obj(obj.get("preferred"), "pairs field 'preferred'"),
            RankFeatures.from_json_obj(obj.get("other"), "pairs field 'other'"),
        )

    return load_jsonl(path, parse)

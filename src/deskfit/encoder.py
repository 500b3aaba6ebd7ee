"""Trainable sentence encoder: hashed bag-of-embeddings with mean pooling.

A text is lowercased and split on maximal runs of non-alphanumeric
characters; each token is mapped to a row of a trainable embedding table by
seeded 64-bit FNV-1a hashing modulo the bucket count, and the sentence
embedding is the mean of its token rows. Fine-tuning minimises the squared
error between the cosine similarity of two sentence embeddings and the
pair's target, with analytic gradients and Adam updates.

Adam runs only on the table rows that some pair in the pair set touches.
This is dense Adam, not the lazy kind that skips rows absent from the
current batch: a row that never receives a gradient keeps zero moments, so
dense Adam would add exactly -0.0 to it, which leaves every float unchanged.

Parameters rest in float32 (matching the on-disk model format bit for bit);
all arithmetic runs in float64 with a fixed evaluation order, so every
operation here is bitwise deterministic in its inputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .corpus import MASK64, rng_from_seed
from .errors import EmptyInput, InvalidConfig, ZeroNorm
from .optim import AdamState
from .pairs import PairSet, TrainPair

# maximal runs of Unicode alphanumerics (\w minus underscore)
_TOKEN_RE = re.compile(r"[^\W_]+")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: norms below this have no usable cosine direction
NORM_FLOOR = 1e-12

#: a model's token->bucket memo is emptied when it reaches this many entries,
#: so a long-lived model fed ever new tokens holds a bounded memo
MEMO_CAP = 1 << 16

#: float64 draws per init_params block: 64 KiB, under glibc's 128 KiB mmap
#: threshold, so the one block is heap memory that is reused, not new pages
INIT_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class EncoderParams:
    """The embedding table plus the hashing and truncation constants.

    table: (vocab_buckets, dim) float32, finite
    """

    table: np.ndarray
    hash_seed: int
    max_len: int = 256

    def __post_init__(self) -> None:
        if self.table.ndim != 2 or self.table.dtype != np.float32 or not self.table.size:
            raise ValueError("table must be a non-empty 2-D float32 array")
        if self.max_len < 1:
            raise InvalidConfig("max_len must be >= 1")
        if not 0 <= self.hash_seed <= MASK64:
            raise InvalidConfig("hash_seed must lie in [0, 2**64)")
        # min and max are NaN if any entry is and infinite if one is; unlike
        # np.isfinite they need no table-sized temporary
        if not (math.isfinite(self.table.min()) and math.isfinite(self.table.max())):
            raise ValueError("table entries must be finite")

    @property
    def vocab_buckets(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    @cached_property
    def _buckets(self) -> dict[str, int]:
        """Token -> bucket id memo of tokenize; exact, since the bucket is a
        pure function of (hash_seed, vocab_buckets, token)."""
        return {}


@dataclass(frozen=True)
class FinetuneConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise InvalidConfig("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise InvalidConfig("batch_size must be >= 1")
        if self.epochs < 0:
            raise InvalidConfig("epochs must be >= 0")


def init_params(
    vocab_buckets: int = 65536,
    dim: int = 64,
    max_len: int = 256,
    hash_seed: int = 0,
    init_seed: int = 0,
) -> EncoderParams:
    """Fresh table with entries i.i.d. uniform in [-0.05, 0.05].

    The float32 table is filled block by block from the same doubles, in the
    same order and with the same arithmetic, as
    rng.uniform(-0.05, 0.05, (vocab_buckets, dim)).astype(np.float32), so no
    table-sized float64 temporary is made.
    """
    if vocab_buckets < 1 or dim < 1:
        raise InvalidConfig("vocab_buckets and dim must be >= 1")
    rng = rng_from_seed(init_seed)
    table = np.empty((vocab_buckets, dim), np.float32)
    flat = table.reshape(-1)
    block = np.empty(min(INIT_BLOCK, flat.size))
    for start in range(0, flat.size, block.size):
        draws = block[: flat.size - start]
        rng.random(out=draws)
        draws *= 0.1  # uniform's low + (high - low) * u, where high - low == 0.1
        draws += -0.05
        flat[start : start + draws.size] = draws
    return EncoderParams(table=table, hash_seed=hash_seed & MASK64, max_len=max_len)


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & MASK64
    return h


def tokenize(params: EncoderParams, text: str) -> list[int]:
    """Bucket ids for a text: lowercase, split, hash, truncate to max_len.

    Each distinct token is hashed once per params object and remembered in
    its memo, which is emptied whenever it reaches MEMO_CAP entries.
    """
    tokens = _TOKEN_RE.findall(text.lower())[: params.max_len]
    memo = params._buckets
    prefix = params.hash_seed.to_bytes(8, "little")
    ids = []
    for token in tokens:
        bucket = memo.get(token)
        if bucket is None:
            if len(memo) >= MEMO_CAP:
                memo.clear()
            bucket = _fnv1a64(prefix + token.encode("utf-8")) % params.vocab_buckets
            memo[token] = bucket
        ids.append(bucket)
    return ids


def _pool(table: np.ndarray, ids: Sequence[int]) -> np.ndarray:
    return table[ids].mean(axis=0, dtype=np.float64)


def encode(params: EncoderParams, text: str) -> np.ndarray:
    """Sentence embedding: the float64 mean of the text's token rows."""
    ids = tokenize(params, text)
    if not ids:
        raise EmptyInput(f"no tokens survive tokenization of {text!r}")
    return _pool(params.table, ids)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """u.v / (|u||v|), clamped to [-1, 1] against rounding.

    The denominator is sqrt((u.u)(v.v)) rather than a product of norms so
    that cosine(u, u) is exactly 1.0.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    su = float(u @ u)
    sv = float(v @ v)
    if su < NORM_FLOOR * NORM_FLOOR or sv < NORM_FLOOR * NORM_FLOOR:
        raise ZeroNorm(f"vector norm below {NORM_FLOOR}")
    c = float(u @ v) / math.sqrt(su * sv)
    return min(1.0, max(-1.0, c))


def _pair_terms(
    table: np.ndarray, ids_a: Sequence[int], ids_b: Sequence[int], target: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss and the gradients w.r.t. the two pooled embeddings.

    With u, v the pooled embeddings, c = cos(u, v) and L = (c - target)^2:

        dL/du = 2 (c - t) (v / (|u||v|) - c u / |u|^2)

    and symmetrically for v. Token rows receive these divided by the token
    count of their sentence (the mean-pooling factor).
    """
    u = _pool(table, ids_a)
    v = _pool(table, ids_b)
    su = float(u @ u)
    sv = float(v @ v)
    if su < NORM_FLOOR * NORM_FLOOR or sv < NORM_FLOOR * NORM_FLOOR:
        raise ZeroNorm(f"pooled embedding norm below {NORM_FLOOR}")
    denom = math.sqrt(su * sv)
    c = min(1.0, max(-1.0, float(u @ v) / denom))
    scale = 2.0 * (c - target)
    grad_u = scale * (v / denom - c * u / su)
    grad_v = scale * (u / denom - c * v / sv)
    return (c - target) ** 2, grad_u, grad_v


def _require_ids(params: EncoderParams, pair: TrainPair) -> tuple[list[int], list[int]]:
    ids_a = tokenize(params, pair.first)
    ids_b = tokenize(params, pair.second)
    if not ids_a or not ids_b:
        raise EmptyInput(f"pair member has no tokens: {pair.first!r} / {pair.second!r}")
    return ids_a, ids_b


def pair_loss(params: EncoderParams, pair: TrainPair) -> float:
    """(cosine(encode(first), encode(second)) - target)^2."""
    ids_a, ids_b = _require_ids(params, pair)
    loss, _, _ = _pair_terms(params.table, ids_a, ids_b, pair.target)
    return loss


def pair_loss_grad(params: EncoderParams, pair: TrainPair) -> dict[int, np.ndarray]:
    """Sparse loss gradient over the table, keyed by touched row id.

    Rows shared by both sentences accumulate both contributions; a token
    occurring twice in one sentence contributes twice.
    """
    ids_a, ids_b = _require_ids(params, pair)
    _, grad_u, grad_v = _pair_terms(params.table, ids_a, ids_b, pair.target)
    grad: dict[int, np.ndarray] = {}
    for ids, g in ((ids_a, grad_u / len(ids_a)), (ids_b, grad_v / len(ids_b))):
        for row in ids:
            if row in grad:
                grad[row] = grad[row] + g
            else:
                grad[row] = g.copy()
    return grad


def finetune(
    params: EncoderParams,
    pairs: PairSet | Sequence[TrainPair],
    config: FinetuneConfig,
) -> EncoderParams:
    """Siamese fine-tuning pass over the pair set; returns new parameters.

    Pairs are shuffled once per epoch from config.seed and processed in
    batches of config.batch_size (the last batch may be short); each batch
    applies one Adam step on the batch-mean gradient. The input parameters
    are never mutated.

    The Adam steps run on a float64 copy of the rows touched by any pair in
    the whole pair set, not by the current batch, so a row keeps decaying
    its moments in batches that miss it. The result is bit-identical to
    dense Adam over the full table: an untouched row has zero moments and
    gradient, its dense increment is -0.0, and x + -0.0 == x for every
    float32 x widened to float64.
    """
    pair_list = list(pairs.pairs if isinstance(pairs, PairSet) else pairs)
    if not pair_list or config.epochs == 0:
        return replace(params, table=params.table.copy())

    tokenized = []
    for idx, pair in enumerate(pair_list):
        try:
            tokenized.append(_require_ids(params, pair))
        except EmptyInput as exc:
            raise EmptyInput(f"pair {idx}: {exc}") from None

    # ids become positions in the sub-table of touched rows
    rows = np.unique(np.concatenate([ids for pair in tokenized for ids in pair]))
    local = [(np.searchsorted(rows, a), np.searchsorted(rows, b)) for a, b in tokenized]
    sub = params.table[rows].astype(np.float64)
    adam = AdamState(sub.shape)
    rng = rng_from_seed(config.seed)
    for _ in range(config.epochs):
        order = rng.permutation(len(pair_list))
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grad = np.zeros_like(sub)
            for k in batch:
                ids_a, ids_b = local[k]
                try:
                    _, grad_u, grad_v = _pair_terms(
                        sub, ids_a, ids_b, pair_list[k].target
                    )
                except ZeroNorm as exc:
                    raise ZeroNorm(f"pair {k}: {exc}") from None
                np.add.at(grad, ids_a, grad_u / len(ids_a))
                np.add.at(grad, ids_b, grad_v / len(ids_b))
            grad /= len(batch)
            sub += adam.update(grad, config.learning_rate)
    table = params.table.copy()
    table[rows] = sub.astype(np.float32)
    return replace(params, table=table)

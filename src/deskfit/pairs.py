"""Contrastive pair construction from a few-shot dataset.

For every class, `r` positive pairs (both members from the class, distinct
example instances) and `r` negative pairs (first member from the class,
second from any other class) are drawn with replacement across draws, so a
pair of examples may repeat. The output is class-major, positives before
negatives, giving every PairSet a reproducible identity independent of
training order; the trainer shuffles separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .corpus import Dataset, rng_from_seed
from .errors import DegenerateClass, InvalidConfig, NeedTwoClasses


@dataclass(frozen=True)
class TrainPair:
    """Two texts and a similarity target in [-1, 1].

    Targets are binary 0/1 when produced here; distillation produces
    continuous targets for the same loss.
    """

    first: str
    second: str
    target: float

    def __post_init__(self) -> None:
        if not -1.0 <= self.target <= 1.0:
            raise ValueError(f"pair target {self.target} outside [-1, 1]")


@dataclass(frozen=True)
class PairSet:
    pairs: tuple[TrainPair, ...]
    r: int
    class_count: int


def max_unique_pairs(k: int) -> int:
    """Number of unordered pairs of distinct items among k, i.e. k(k-1)/2."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return k * (k - 1) // 2


def generate_pairs(train: Dataset, r: int, seed: int, mode: str = "strict") -> PairSet:
    """Build the contrastive fine-tuning set: 2 * r * class_count pairs.

    Strict mode demands every class have >= 2 examples; permissive mode lets
    a singleton class pair its lone example with itself (a zero-signal
    fallback). Pair membership is tracked by example position, so duplicate
    texts across classes cannot corrupt the positive/negative structure.
    Deterministic in (train, r, seed, mode).
    """
    if r < 0:
        raise InvalidConfig("r must be >= 0")
    if mode not in ("strict", "permissive"):
        raise InvalidConfig(f"unknown mode {mode!r}")
    if r == 0:
        return PairSet((), 0, train.n_classes)

    groups = train.class_indices()
    nonempty = [g for g in groups if g]
    if len(nonempty) < 2:
        raise NeedTwoClasses(
            f"negative pairs need >= 2 populated classes, found {len(nonempty)}"
        )
    for label, group in enumerate(groups):
        if not group:
            raise DegenerateClass(f"class {train.label_names[label]!r} has no examples")
        if mode == "strict" and len(group) < 2:
            raise DegenerateClass(
                f"class {train.label_names[label]!r} has a single example; "
                "strict mode cannot form distinct positive pairs"
            )

    rng = rng_from_seed(seed)
    texts = [ex.text for ex in train.examples]
    pairs: list[TrainPair] = []
    for label, group in enumerate(groups):
        others = [pos for other, g in enumerate(groups) if other != label for pos in g]
        positives: list[TrainPair] = []
        negatives: list[TrainPair] = []
        for _ in range(r):
            ia = int(rng.integers(len(group)))
            if len(group) == 1:
                ib = ia  # permissive-mode singleton fallback
            else:
                # draw from group minus {ia}: sample len-1 slots, skip past ia
                ib = int(rng.integers(len(group) - 1))
                if ib >= ia:
                    ib += 1
            positives.append(TrainPair(texts[group[ia]], texts[group[ib]], 1.0))
        for _ in range(r):
            a = group[int(rng.integers(len(group)))]
            b = others[int(rng.integers(len(others)))]
            negatives.append(TrainPair(texts[a], texts[b], 0.0))
        pairs.extend(positives)
        pairs.extend(negatives)
    return PairSet(tuple(pairs), r, train.n_classes)


def pairs_to_jsonl(pairset: PairSet) -> str:
    """Serialize pairs as {"first", "second", "target"} JSON lines."""
    lines = [
        json.dumps(
            {"first": p.first, "second": p.second, "target": p.target},
            ensure_ascii=False,
        )
        for p in pairset.pairs
    ]
    return "\n".join(lines) + ("\n" if lines else "")

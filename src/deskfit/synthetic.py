"""Seedable synthetic corpora with partially disjoint class vocabularies.

Each class owns a private word list; a shared pool contributes noise
tokens. Every text draws `tokens_per_text` words, each one private with
probability (1 - shared_fraction) and shared otherwise, so classes are
separable from token statistics alone while the shared pool keeps the
task from being trivial. Generation is a pure function of the arguments.
"""

from __future__ import annotations

import numpy as np

from .corpus import Dataset, LabeledExample, rng_from_seed
from .errors import InvalidConfig


def _draw_text(
    rng: np.random.Generator,
    label: int,
    private: list[list[str]],
    shared: list[str],
    tokens_per_text: int,
    shared_fraction: float,
) -> str:
    words = []
    for _ in range(tokens_per_text):
        if shared and rng.random() < shared_fraction:
            words.append(shared[int(rng.integers(len(shared)))])
        else:
            pool = private[label]
            words.append(pool[int(rng.integers(len(pool)))])
    return " ".join(words)


def make_corpus(
    n_classes: int = 2,
    train_per_class: int = 200,
    test_size: int = 500,
    tokens_per_text: int = 12,
    private_vocab: int = 40,
    shared_vocab: int = 40,
    shared_fraction: float = 0.2,
    seed: int = 0,
) -> tuple[Dataset, Dataset]:
    """(train, test) datasets; test examples are spread evenly over classes."""
    if n_classes < 2:
        raise InvalidConfig("need >= 2 classes")
    if not 0.0 <= shared_fraction <= 1.0:
        raise InvalidConfig("shared_fraction must lie in [0, 1]")
    rng = rng_from_seed(seed)
    private = [
        [f"c{label}w{k}" for k in range(private_vocab)] for label in range(n_classes)
    ]
    shared = [f"noise{k}" for k in range(shared_vocab)]
    names = tuple(f"class{label}" for label in range(n_classes))

    train = [
        LabeledExample(
            _draw_text(rng, label, private, shared, tokens_per_text, shared_fraction),
            label,
        )
        for label in range(n_classes)
        for _ in range(train_per_class)
    ]
    test = [
        LabeledExample(
            _draw_text(rng, k % n_classes, private, shared, tokens_per_text, shared_fraction),
            k % n_classes,
        )
        for k in range(test_size)
    ]
    return Dataset(tuple(train), names), Dataset(tuple(test), names)


def make_unlabeled_pool(
    n_texts: int,
    n_classes: int = 2,
    tokens_per_text: int = 12,
    private_vocab: int = 40,
    shared_vocab: int = 40,
    shared_fraction: float = 0.2,
    seed: int = 0,
) -> list[str]:
    """Unlabeled texts drawn from the same class mixture, cycling classes."""
    rng = rng_from_seed(seed)
    private = [
        [f"c{label}w{k}" for k in range(private_vocab)] for label in range(n_classes)
    ]
    shared = [f"noise{k}" for k in range(shared_vocab)]
    return [
        _draw_text(rng, k % n_classes, private, shared, tokens_per_text, shared_fraction)
        for k in range(n_texts)
    ]

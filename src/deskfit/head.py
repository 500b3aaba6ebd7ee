"""Multinomial logistic-regression head over sentence embeddings.

Training minimises mean softmax cross-entropy plus an L2 penalty on the
weight matrix by full-batch Adam from a zero start. Hard labels, soft
probability targets, and the mixed hard/soft objective used by
distillation all share one optimizer; binary tasks use the same
two-class softmax path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, InvalidDistribution, SingleClass
from .optim import AdamState


@dataclass(frozen=True, eq=False)
class HeadParams:
    """weights: (n_classes, dim) float32; bias: (n_classes,) float32."""

    weights: np.ndarray
    bias: np.ndarray
    label_names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "label_names", tuple(self.label_names))
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weights must be 2-D and bias 1-D")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise DimensionMismatch("weights and bias disagree on class count")
        if self.weights.shape[0] != len(self.label_names):
            raise DimensionMismatch("class count and label_names disagree")
        if self.weights.shape[0] < 2:
            raise ValueError("a head needs >= 2 classes")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("head parameters must be finite")

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class HeadTrainConfig:
    l2_lambda: float = 1e-4
    max_iters: int = 1000
    tol: float = 1e-7
    learning_rate: float = 0.1
    seed: int = 0  # reserved; the full-batch optimizer is deterministic

    def __post_init__(self) -> None:
        if self.l2_lambda < 0:
            raise InvalidConfig("l2_lambda must be >= 0")
        if self.max_iters < 0:
            raise InvalidConfig("max_iters must be >= 0")
        if self.learning_rate <= 0 or self.tol <= 0:
            raise InvalidConfig("learning_rate and tol must be > 0")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax in float64."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def head_logits(head: HeadParams, emb: np.ndarray) -> np.ndarray:
    """W @ v + b as float64."""
    v = np.asarray(emb, dtype=np.float64)
    if v.shape != (head.dim,):
        raise DimensionMismatch(f"embedding shape {v.shape}, head expects ({head.dim},)")
    return head.weights.astype(np.float64) @ v + head.bias.astype(np.float64)


def head_predict(head: HeadParams, emb: np.ndarray) -> tuple[int, np.ndarray]:
    """(argmax label, softmax probabilities); ties break to the lowest index."""
    probs = softmax(head_logits(head, emb))
    return int(np.argmax(probs)), probs


def _as_matrix(embeddings: Sequence[np.ndarray]) -> np.ndarray:
    rows = [np.asarray(e, dtype=np.float64) for e in embeddings]
    if not rows:
        raise ValueError("no embeddings given")
    dim = rows[0].shape
    if len(dim) != 1 or any(r.shape != dim for r in rows):
        raise DimensionMismatch("embeddings must be 1-D and share one dimension")
    return np.vstack(rows)


def _objective(
    x: np.ndarray,
    targets: np.ndarray,
    row_weights: np.ndarray,
    l2_lambda: float,
    w: np.ndarray,
    b: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss and its analytic gradients at (w, b).

    loss = sum_i w_i * CE(targets_i, softmax(W x_i + b)) + l2/2 ||W||^2,
    with CE computed via a stable log-sum-exp.
    """
    logits = x @ w.T + b
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.max(axis=1)
    ce = lse - (targets * logits).sum(axis=1)
    loss = float(row_weights @ ce) + 0.5 * l2_lambda * float((w * w).sum())
    residual = (softmax(logits) - targets) * row_weights[:, None]
    grad_w = residual.T @ x + l2_lambda * w
    grad_b = residual.sum(axis=0)
    return loss, grad_w, grad_b


def _minimize(
    x: np.ndarray,
    targets: np.ndarray,
    row_weights: np.ndarray,
    config: HeadTrainConfig,
    trace: list[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimise the _objective by full-batch Adam from W = 0, b = 0.

    Stops after max_iters or once an iteration achieves a nonnegative loss
    decrease below tol. `trace`, when given, collects the loss after every
    iteration.
    """
    n_classes, dim = targets.shape[1], x.shape[1]
    w = np.zeros((n_classes, dim), dtype=np.float64)
    b = np.zeros(n_classes, dtype=np.float64)
    adam_w = AdamState(w.shape)
    adam_b = AdamState(b.shape)

    prev_loss, grad_w, grad_b = _objective(x, targets, row_weights, config.l2_lambda, w, b)
    for _ in range(config.max_iters):
        w += adam_w.update(grad_w, config.learning_rate)
        b += adam_b.update(grad_b, config.learning_rate)
        loss, grad_w, grad_b = _objective(x, targets, row_weights, config.l2_lambda, w, b)
        if trace is not None:
            trace.append(loss)
        if 0.0 <= prev_loss - loss < config.tol:
            break
        prev_loss = loss
    return w, b


def _default_names(n_classes: int) -> tuple[str, ...]:
    return tuple(f"class_{i}" for i in range(n_classes))


def train_head(
    embeddings: Sequence[np.ndarray],
    labels: Sequence[int],
    config: HeadTrainConfig | None = None,
    label_names: Sequence[str] | None = None,
) -> HeadParams:
    """Fit the head on hard labels (one-hot targets, uniform row weights)."""
    config = config or HeadTrainConfig()
    x = _as_matrix(embeddings)
    y = np.asarray(labels, dtype=np.int64)
    if len(y) != x.shape[0]:
        raise DimensionMismatch(f"{x.shape[0]} embeddings vs {len(y)} labels")
    if len(set(y.tolist())) < 2:
        raise SingleClass("head training needs >= 2 distinct labels")
    names = tuple(label_names) if label_names is not None else _default_names(int(y.max()) + 1)
    if int(y.max()) >= len(names) or int(y.min()) < 0:
        raise ValueError("label index outside the declared label names")
    targets = np.zeros((x.shape[0], len(names)), dtype=np.float64)
    targets[np.arange(x.shape[0]), y] = 1.0
    weights = np.full(x.shape[0], 1.0 / x.shape[0])
    w, b = _minimize(x, targets, weights, config)
    return HeadParams(w.astype(np.float32), b.astype(np.float32), names)


def _check_distributions(targets: np.ndarray) -> None:
    if np.any(targets < 0):
        raise InvalidDistribution("soft target has a negative entry")
    sums = targets.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > 1e-6)[0]
    if bad.size:
        raise InvalidDistribution(
            f"soft target {int(bad[0])} sums to {sums[int(bad[0])]:.8f}, not 1"
        )


def train_head_soft(
    embeddings: Sequence[np.ndarray],
    soft_targets: Sequence[np.ndarray],
    config: HeadTrainConfig | None = None,
    label_names: Sequence[str] | None = None,
) -> HeadParams:
    """Fit the head on probability-vector targets (same optimizer and loss)."""
    config = config or HeadTrainConfig()
    x = _as_matrix(embeddings)
    targets = np.asarray(soft_targets, dtype=np.float64)
    if targets.ndim != 2 or targets.shape[0] != x.shape[0]:
        raise DimensionMismatch("need one probability vector per embedding")
    if targets.shape[1] < 2:
        raise ValueError("soft targets need >= 2 classes")
    _check_distributions(targets)
    names = tuple(label_names) if label_names is not None else _default_names(targets.shape[1])
    weights = np.full(x.shape[0], 1.0 / x.shape[0])
    w, b = _minimize(x, targets, weights, config)
    return HeadParams(w.astype(np.float32), b.astype(np.float32), names)


def train_head_mixed(
    hard_embeddings: Sequence[np.ndarray],
    labels: Sequence[int],
    soft_embeddings: Sequence[np.ndarray],
    soft_targets: Sequence[np.ndarray],
    alpha: float,
    config: HeadTrainConfig | None = None,
    label_names: Sequence[str] | None = None,
) -> HeadParams:
    """Fit on alpha * soft-target mean CE + (1 - alpha) * hard-label mean CE.

    Used by distillation: hard rows come from the scarce labels, soft rows
    from a teacher's predicted distributions over unlabeled texts.
    """
    config = config or HeadTrainConfig()
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not len(soft_embeddings):
        return train_head(hard_embeddings, labels, config, label_names)
    x_hard = _as_matrix(hard_embeddings)
    x_soft = _as_matrix(soft_embeddings)
    if x_hard.shape[1] != x_soft.shape[1]:
        raise DimensionMismatch("hard and soft embeddings disagree on dimension")
    soft = np.asarray(soft_targets, dtype=np.float64)
    if soft.ndim != 2 or soft.shape[0] != x_soft.shape[0]:
        raise DimensionMismatch("need one probability vector per soft embedding")
    _check_distributions(soft)
    n_classes = soft.shape[1]
    names = tuple(label_names) if label_names is not None else _default_names(n_classes)
    y = np.asarray(labels, dtype=np.int64)
    if len(y) != x_hard.shape[0]:
        raise DimensionMismatch(f"{x_hard.shape[0]} embeddings vs {len(y)} labels")
    if int(y.max()) >= n_classes or int(y.min()) < 0:
        raise ValueError("label index outside the soft-target class range")
    onehot = np.zeros((x_hard.shape[0], n_classes), dtype=np.float64)
    onehot[np.arange(x_hard.shape[0]), y] = 1.0

    x = np.vstack([x_hard, x_soft])
    targets = np.vstack([onehot, soft])
    weights = np.concatenate(
        [
            np.full(x_hard.shape[0], (1.0 - alpha) / x_hard.shape[0]),
            np.full(x_soft.shape[0], alpha / x_soft.shape[0]),
        ]
    )
    w, b = _minimize(x, targets, weights, config)
    return HeadParams(w.astype(np.float32), b.astype(np.float32), names)

"""Teacher-to-student transfer from scarce labels plus unlabeled text.

The student encoder fine-tunes on the labeled contrastive pairs (binary
targets) concatenated with teacher-scored pairs of unlabeled texts, whose
targets are the teacher encoder's cosine similarities. The student head
trains on the labeled rows (one-hot) together with the teacher's predicted
distributions over the unlabeled texts, mixed as
alpha * soft + (1 - alpha) * hard.

With no unlabeled data the procedure degenerates to plain fit() on the
labeled set, bit for bit, given the same seed and dimensions. The teacher
is read-only throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import MASK64, Dataset, rng_from_seed
from .encoder import cosine, encode
from .errors import EmptyInput, InvalidConfig, LabelOutOfRange, TooFewTexts, ZeroNorm
from .pairs import TrainPair
from .pipeline import FitConfig, Model, _train_model, predict_proba

# seed fan-out tag for the unlabeled pair stream ("UNLB")
UNLABELED_SEED_XOR = 0x554E4C42_165667B1


@dataclass(frozen=True)
class SimilarityPair:
    """Two texts plus a teacher-produced cosine similarity in [-1, 1]."""

    first: str
    second: str
    target: float

    def __post_init__(self) -> None:
        if not -1.0 <= self.target <= 1.0:
            raise ValueError(f"similarity target {self.target} outside [-1, 1]")


@dataclass(frozen=True)
class DistillConfig:
    """Student training configuration.

    `student` carries the student dimensions, sub-configs, and master seed
    (aligning it with a FitConfig makes distillation with pair_count=0 and
    no unlabeled texts reproduce fit() exactly). `pair_count` is the number
    of teacher-scored unlabeled pairs for the student encoder.
    """

    student: FitConfig = field(default_factory=FitConfig)
    pair_count: int = 0
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if self.pair_count < 0:
            raise InvalidConfig("pair_count must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidConfig("alpha must lie in [0, 1]")


def generate_unlabeled_pairs(
    texts: list[str], pair_count: int, seed: int
) -> list[tuple[int, int]]:
    """`pair_count` index pairs drawn uniformly with i != j, deterministic in seed."""
    if pair_count == 0:
        return []
    if len(texts) < 2:
        raise TooFewTexts(f"need >= 2 unlabeled texts, got {len(texts)}")
    rng = rng_from_seed(seed)
    out: list[tuple[int, int]] = []
    for _ in range(pair_count):
        i = int(rng.integers(len(texts)))
        j = int(rng.integers(len(texts) - 1))
        if j >= i:
            j += 1
        out.append((i, j))
    return out


def teacher_similarities(
    teacher: Model, text_pairs: list[tuple[str, str]]
) -> list[SimilarityPair]:
    """Score each text pair with the teacher encoder's cosine similarity."""
    sims: list[SimilarityPair] = []
    for idx, (first, second) in enumerate(text_pairs):
        try:
            target = cosine(encode(teacher.encoder, first), encode(teacher.encoder, second))
        except (EmptyInput, ZeroNorm) as exc:
            raise type(exc)(f"pair {idx}: {exc}") from None
        sims.append(SimilarityPair(first, second, target))
    return sims


def distill(
    teacher: Model,
    labeled: Dataset,
    unlabeled: list[str],
    config: DistillConfig | None = None,
) -> Model:
    """Train a student that mimics the teacher; returns a full Model.

    All unlabeled texts feed the student head as soft-target rows;
    config.pair_count of teacher-scored pairs among them extend the
    student encoder's fine-tuning set.
    """
    config = config or DistillConfig()
    if tuple(teacher.label_names) != tuple(labeled.label_names):
        raise LabelOutOfRange(
            f"teacher labels {teacher.label_names} != dataset labels {labeled.label_names}"
        )

    seed = config.student.seed & MASK64
    index_pairs = generate_unlabeled_pairs(
        unlabeled, config.pair_count, (seed ^ UNLABELED_SEED_XOR) & MASK64
    )
    sims = teacher_similarities(
        teacher, [(unlabeled[i], unlabeled[j]) for i, j in index_pairs]
    )
    sim_pairs = tuple(TrainPair(s.first, s.second, s.target) for s in sims)

    soft_rows = None
    distill_info = None
    if unlabeled:
        soft_targets = [predict_proba(teacher, text) for text in unlabeled]
        soft_rows = (list(unlabeled), soft_targets, config.alpha)
        distill_info = {
            "alpha": config.alpha,
            "pair_count": config.pair_count,
            "unlabeled_texts": len(unlabeled),
        }
    return _train_model(
        labeled,
        config.student,
        sim_pairs=sim_pairs,
        soft_rows=soft_rows,
        distill_info=distill_info,
    )

"""Experiment orchestration: multi-split runs, distillation curves, cost tables.

Every run draws its per-split seeds from the base seed with the same
golden-ratio derivation the corpus module uses, evaluates on the full test
set, and reports per-split scores plus their mean and sample standard
deviation. Reports carry the tool version and PRNG name and serialize to
canonical JSON, so identical configurations produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, metrics
from .corpus import (
    Dataset,
    derive_seed,
    few_shot_indices,
    load_dataset,
    not_utf8,
)
from .distill import DistillConfig, distill
from .cost import CostSpec, inference_flops, speedup, training_flops
from .errors import (
    InvalidConfig,
    InvalidSpec,
    LabelOutOfRange,
    MalformedRecord,
    NonBinary,
)
from .pipeline import FitConfig, Model, fit, predict, predict_proba

TOOL_VERSION = __version__
#: the package-wide generator, recorded in every report
PRNG_NAME = "numpy PCG64"
REPORT_SCHEMA = "SETFIT-DESK-REPORT/1"

# student streams must not coincide with the teacher's ("STUD" tag)
STUDENT_SEED_XOR = 0x53545544_9E3779B9

METRIC_NAMES = ("accuracy", "mcc", "mae_x100", "average_precision")


def evaluate_model(model: Model, test: Dataset, metric: str) -> float:
    """Score a model on a test set with one of the named metrics.

    Gold labels are matched to the model's classes by name, since a test
    file's label indices follow first appearance in that file. A test label
    the model does not know raises LabelOutOfRange.

    average_precision uses the probability of class 1 as the ranking score
    and therefore, like mcc, requires a binary label set.
    """
    if metric not in METRIC_NAMES:
        raise InvalidConfig(f"metric must be one of {METRIC_NAMES}, got {metric!r}")
    model_index = {name: k for k, name in enumerate(model.label_names)}
    gold = []
    for ex in test.examples:
        name = test.label_names[ex.label]
        if name not in model_index:
            raise LabelOutOfRange(
                f"test label {name!r} is not among the model's labels {model.label_names}"
            )
        gold.append(model_index[name])
    if metric == "average_precision":
        if model.head.n_classes != 2:
            raise NonBinary("average_precision needs a binary task")
        scores = [float(predict_proba(model, ex.text)[1]) for ex in test.examples]
        return metrics.average_precision(scores, gold)
    preds = [predict(model, ex.text) for ex in test.examples]
    return getattr(metrics, metric)(preds, gold)


def _mean_std(scores: list[float]) -> tuple[float, float]:
    mean = float(np.mean(scores))
    std = float(np.std(scores, ddof=1)) if len(scores) > 1 else 0.0
    return mean, std


@dataclass(frozen=True)
class ExperimentConfig:
    train_path: str
    test_path: str
    metric: str = "accuracy"
    n_per_class: int = 8
    n_splits: int = 10
    base_seed: int = 0
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self) -> None:
        if self.metric not in METRIC_NAMES:
            raise InvalidConfig(f"metric must be one of {METRIC_NAMES}, got {self.metric!r}")
        if self.n_splits < 1 or self.n_per_class < 1:
            raise InvalidConfig("n_splits and n_per_class must be >= 1")


@dataclass(frozen=True)
class ExperimentReport:
    scores: tuple[float, ...]
    mean: float
    std: float
    config: dict
    tool_version: str = TOOL_VERSION
    prng: str = PRNG_NAME
    schema: str = REPORT_SCHEMA

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "tool_version": self.tool_version,
            "prng": self.prng,
            "config": self.config,
            "scores": list(self.scores),
            "mean": self.mean,
            "std": self.std,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Few-shot training and evaluation over n_splits independent splits.

    Split i is sampled and fit with seed derive_seed(base_seed, i); scores
    are listed by split index.
    """
    source = load_dataset(config.train_path)
    test = load_dataset(config.test_path)
    scores = []
    for i in range(config.n_splits):
        seed_i = derive_seed(config.base_seed, i)
        chosen = few_shot_indices(source, config.n_per_class, seed_i)
        split = Dataset(tuple(source.examples[k] for k in chosen), source.label_names)
        model = fit(split, replace(config.fit, seed=seed_i))
        scores.append(evaluate_model(model, test, config.metric))
    mean, std = _mean_std(scores)
    return ExperimentReport(
        scores=tuple(scores),
        mean=mean,
        std=std,
        config={
            "train_path": config.train_path,
            "test_path": config.test_path,
            "metric": config.metric,
            "n_per_class": config.n_per_class,
            "n_splits": config.n_splits,
            "base_seed": config.base_seed,
            "fit": asdict(config.fit),
        },
    )


def run_sweep(config: ExperimentConfig, n_values: list[int]) -> list[ExperimentReport]:
    """run_experiment at each training-set size in n_values."""
    return [run_experiment(replace(config, n_per_class=n)) for n in n_values]


@dataclass(frozen=True)
class DistillCurveConfig:
    train_path: str
    test_path: str
    metric: str = "accuracy"
    teacher_n_per_class: int = 16
    pair_counts: tuple[int, ...] = (0, 8, 64, 400)
    n_splits: int = 5
    base_seed: int = 0
    teacher_fit: FitConfig = field(default_factory=FitConfig)
    student_fit: FitConfig = field(default_factory=FitConfig)
    alpha: float = 0.5
    unlabeled_path: str | None = None


@dataclass(frozen=True)
class CurvePoint:
    pair_count: int
    scores: tuple[float, ...]
    mean: float
    std: float


@dataclass(frozen=True)
class DistillCurveReport:
    points: tuple[CurvePoint, ...]
    config: dict
    tool_version: str = TOOL_VERSION
    prng: str = PRNG_NAME
    schema: str = REPORT_SCHEMA

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "tool_version": self.tool_version,
            "prng": self.prng,
            "config": self.config,
            "points": [asdict(p) for p in self.points],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        lines = ["pair_count,mean,std"]
        lines += [f"{p.pair_count},{p.mean!r},{p.std!r}" for p in self.points]
        return "\n".join(lines) + "\n"


def load_unlabeled(path: str | Path) -> list[str]:
    """Unlabeled texts: one per line, blank lines skipped."""
    path = Path(path)
    if path.is_dir():
        raise MalformedRecord(f"{path}: is a directory, not a text file")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    return [line for line in lines if line.strip()]


def run_distill_curve(config: DistillCurveConfig) -> DistillCurveReport:
    """Distill a student per split at each unlabeled pair budget.

    The unlabeled pool is either the file at unlabeled_path or, by default,
    the source training texts left over after the teacher's few-shot split
    (their labels are discarded). A pair budget of 0 means no unlabeled
    data at all, the plain-fit baseline.
    """
    source = load_dataset(config.train_path)
    test = load_dataset(config.test_path)
    file_pool = (
        load_unlabeled(config.unlabeled_path) if config.unlabeled_path else None
    )

    per_split: list[tuple[Model, Dataset, list[str], int]] = []
    for i in range(config.n_splits):
        seed_i = derive_seed(config.base_seed, i)
        chosen = few_shot_indices(source, config.teacher_n_per_class, seed_i)
        split = Dataset(tuple(source.examples[k] for k in chosen), source.label_names)
        teacher = fit(split, replace(config.teacher_fit, seed=seed_i))
        if file_pool is not None:
            pool = file_pool
        else:
            taken = set(chosen)
            pool = [ex.text for k, ex in enumerate(source.examples) if k not in taken]
        per_split.append((teacher, split, pool, seed_i))

    points = []
    for m in config.pair_counts:
        scores = []
        for teacher, split, pool, seed_i in per_split:
            student_cfg = DistillConfig(
                student=replace(config.student_fit, seed=(seed_i ^ STUDENT_SEED_XOR)),
                pair_count=m,
                alpha=config.alpha,
            )
            student = distill(teacher, split, pool if m > 0 else [], student_cfg)
            scores.append(evaluate_model(student, test, config.metric))
        mean, std = _mean_std(scores)
        points.append(CurvePoint(m, tuple(scores), mean, std))

    return DistillCurveReport(
        points=tuple(points),
        config={
            "train_path": config.train_path,
            "test_path": config.test_path,
            "metric": config.metric,
            "teacher_n_per_class": config.teacher_n_per_class,
            "pair_counts": list(config.pair_counts),
            "n_splits": config.n_splits,
            "base_seed": config.base_seed,
            "teacher_fit": asdict(config.teacher_fit),
            "student_fit": asdict(config.student_fit),
            "alpha": config.alpha,
            "unlabeled_path": config.unlabeled_path,
        },
    )


@dataclass(frozen=True)
class CostRow:
    name: str
    inference_flops: float
    training_flops: float
    speedup: float


@dataclass(frozen=True)
class CostTable:
    rows: tuple[CostRow, ...]

    def to_dict(self) -> dict:
        return {"schema": REPORT_SCHEMA, "rows": [asdict(r) for r in self.rows]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        lines = ["name,inference_flops,training_flops,speedup"]
        lines += [
            f"{r.name},{r.inference_flops!r},{r.training_flops!r},{r.speedup!r}"
            for r in self.rows
        ]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"{'name':<24} {'inference':>12} {'training':>12} {'speed-up':>9}"]
        for r in self.rows:
            lines.append(
                f"{r.name:<24} {r.inference_flops:>12.3e} {r.training_flops:>12.3e} "
                f"{r.speedup:>8.1f}x"
            )
        return "\n".join(lines) + "\n"


def load_cost_specs(path: str | Path) -> list[tuple[str, CostSpec]]:
    """Parse a JSON array of named cost specs; n_steps/n_batch default 1000/8."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"{path}:{exc.lineno}: {exc.msg}") from None
    if not isinstance(data, list) or not data:
        raise InvalidSpec(f"{path}: expected a nonempty JSON array of specs")
    out = []
    for idx, entry in enumerate(data):
        if not isinstance(entry, dict) or "name" not in entry:
            raise InvalidSpec(f"{path}: spec {idx} must be an object with a 'name'")
        try:
            spec = CostSpec(
                n_params=entry["n_params"],
                seq_len=entry["seq_len"],
                arch=entry.get("arch", "encoder_only"),
                n_steps=entry.get("n_steps", 1000),
                n_batch=entry.get("n_batch", 8),
            )
        except KeyError as exc:
            raise InvalidSpec(f"{path}: spec {entry['name']!r} is missing {exc}") from None
        out.append((entry["name"], spec))
    return out


def run_cost_report(path: str | Path) -> CostTable:
    """Cost table for a spec file; speed-ups are relative to the first row."""
    named = load_cost_specs(path)
    reference = named[0][1]
    rows = tuple(
        CostRow(name, inference_flops(s), training_flops(s), speedup(reference, s))
        for name, s in named
    )
    return CostTable(rows)

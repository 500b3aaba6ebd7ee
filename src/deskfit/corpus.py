"""Labeled text datasets: JSONL/CSV ingestion and few-shot split sampling.

All types are immutable after construction and all operations are pure
functions of their arguments, so values can be shared freely across
threads. Randomness comes exclusively from numpy's PCG64 generator seeded
with caller-supplied 64-bit integers.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    EmptyDataset,
    InsufficientClassSize,
    InvalidConfig,
    LabelOutOfRange,
    MalformedRecord,
)

MASK64 = (1 << 64) - 1
#: 2^64 / golden ratio (odd), the classic multiplicative stream-separation constant.
GOLDEN64 = 0x9E3779B97F4A7C15


def derive_seed(base_seed: int, index: int) -> int:
    """Seed for stream `index`: base XOR index * GOLDEN64, wrapped to 64 bits."""
    return (base_seed ^ ((index * GOLDEN64) & MASK64)) & MASK64


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide PRNG: numpy's PCG64 with a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed & MASK64))


@dataclass(frozen=True)
class LabeledExample:
    """One text with an integer class label (index into Dataset.label_names)."""

    text: str
    label: int

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("example text is empty after whitespace trim")
        if self.label < 0:
            raise LabelOutOfRange(f"label index {self.label} is negative")


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of labeled texts plus the ordered label-name list."""

    examples: tuple[LabeledExample, ...]
    label_names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "examples", tuple(self.examples))
        object.__setattr__(self, "label_names", tuple(self.label_names))
        if not self.label_names:
            raise ValueError("label_names must be nonempty")
        if len(set(self.label_names)) != len(self.label_names):
            raise ValueError("label_names must be pairwise distinct")
        if any(not name for name in self.label_names):
            raise ValueError("label names must be nonempty strings")
        for pos, ex in enumerate(self.examples):
            if ex.label >= len(self.label_names):
                raise LabelOutOfRange(
                    f"example {pos} has label {ex.label} but only "
                    f"{len(self.label_names)} label names are declared"
                )

    @property
    def n_classes(self) -> int:
        return len(self.label_names)

    def texts(self) -> list[str]:
        return [ex.text for ex in self.examples]

    def labels(self) -> list[int]:
        return [ex.label for ex in self.examples]

    def class_indices(self) -> list[list[int]]:
        """Example positions grouped by class, classes in label order."""
        groups: list[list[int]] = [[] for _ in self.label_names]
        for pos, ex in enumerate(self.examples):
            groups[ex.label].append(pos)
        return groups


@dataclass(frozen=True)
class SplitSet:
    """Independent few-shot training splits, reconstructible from the seed."""

    splits: tuple[Dataset, ...]
    base_seed: int
    n_per_class: int


def _records_from_jsonl(path: Path) -> list[tuple[str, str | int]]:
    records: list[tuple[str, str | int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict) or "text" not in obj or "label" not in obj:
                raise MalformedRecord(
                    f"{path}:{lineno}: record must be an object with 'text' and 'label'"
                )
            text, label = obj["text"], obj["label"]
            if not isinstance(text, str):
                raise MalformedRecord(f"{path}:{lineno}: 'text' must be a string")
            if isinstance(label, bool) or not isinstance(label, (str, int)):
                raise MalformedRecord(f"{path}:{lineno}: 'label' must be a string or integer")
            if not text.strip():
                raise MalformedRecord(f"{path}:{lineno}: text is empty after trim")
            records.append((text, label))
    return records


def _records_from_csv(path: Path) -> list[tuple[str, str | int]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{path}: empty file") from None
        if header != ["text", "label"]:
            raise MalformedRecord(f"{path}:1: header must be exactly 'text,label'")
        records: list[tuple[str, str | int]] = []
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) != 2:
                raise MalformedRecord(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            text, label = row
            if not text.strip():
                raise MalformedRecord(f"{path}:{lineno}: text is empty after trim")
            records.append((text, label))
    # CSV cells are untyped; a column of pure integers is treated as indices.
    if records and all(lbl.lstrip("-").isdigit() for _, lbl in records):
        return [(text, int(lbl)) for text, lbl in records]
    return records


def not_utf8(path: Path) -> MalformedRecord:
    """The error for a text file that does not decode, naming its first bad line."""
    for lineno, line in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return MalformedRecord(
                f"{path}:{lineno}: not UTF-8 text ({exc.reason} at byte {exc.start + 1})"
            )
    return MalformedRecord(f"{path}: not UTF-8 text")


def load_dataset(
    path: str | Path,
    format: str = "auto",
    label_names: Sequence[str] | None = None,
) -> Dataset:
    """Read a dataset from a JSONL or CSV file.

    Labels may be names (strings) or indices (integers), but not a mix.
    Without an explicit `label_names` list, names are collected in first
    appearance order; integer labels get the names "0".."max". With an
    explicit list, every name must appear in it and every index must be
    in range.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    if path.is_dir():
        raise MalformedRecord(f"{path}: is a directory, not a dataset file")
    if format == "auto":
        format = "csv" if path.suffix.lower() == ".csv" else "jsonl"
    readers = {"jsonl": _records_from_jsonl, "csv": _records_from_csv}
    if format not in readers:
        raise InvalidConfig(f"unknown dataset format {format!r}")
    try:
        records = readers[format](path)
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    if not records:
        raise EmptyDataset(f"{path}: no records")

    kinds = {type(lbl) for _, lbl in records}
    if len(kinds) > 1:
        raise MalformedRecord(f"{path}: labels mix names and integer indices")

    if label_names is not None:
        names = tuple(label_names)
    elif kinds == {int}:
        names = tuple(str(i) for i in range(max(lbl for _, lbl in records) + 1))
    else:
        seen: dict[str, int] = {}
        for _, lbl in records:
            seen.setdefault(lbl, len(seen))
        names = tuple(seen)

    index_of = {name: i for i, name in enumerate(names)}
    examples = []
    for text, lbl in records:
        if isinstance(lbl, int):
            if not 0 <= lbl < len(names):
                raise LabelOutOfRange(
                    f"{path}: label index {lbl} with only {len(names)} declared names"
                )
            examples.append(LabeledExample(text, lbl))
        else:
            if lbl not in index_of:
                raise LabelOutOfRange(f"{path}: label {lbl!r} not in declared names")
            examples.append(LabeledExample(text, index_of[lbl]))
    return Dataset(tuple(examples), names)


def save_dataset_jsonl(dataset: Dataset, path: str | Path) -> None:
    """Write one {"text", "label"} object per line, labels as names."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in dataset.examples:
            record = {"text": ex.text, "label": dataset.label_names[ex.label]}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def few_shot_indices(source: Dataset, n_per_class: int, seed: int) -> list[int]:
    """Positions of a few-shot sample: `n_per_class` per class, no replacement.

    A pure function of (source, n_per_class, seed); classes are visited in
    label order and positions listed in draw order.
    """
    if n_per_class < 1:
        raise InvalidConfig("n_per_class must be >= 1")
    rng = rng_from_seed(seed)
    chosen: list[int] = []
    for label, positions in enumerate(source.class_indices()):
        if len(positions) < n_per_class:
            raise InsufficientClassSize(
                f"class {source.label_names[label]!r} has {len(positions)} examples, "
                f"need {n_per_class}"
            )
        picks = rng.choice(len(positions), size=n_per_class, replace=False)
        chosen.extend(positions[int(k)] for k in picks)
    return chosen


def sample_few_shot(source: Dataset, n_per_class: int, seed: int) -> Dataset:
    """Draw exactly `n_per_class` examples of every class, without replacement."""
    chosen = few_shot_indices(source, n_per_class, seed)
    return Dataset(tuple(source.examples[i] for i in chosen), source.label_names)


def make_splits(source: Dataset, n_per_class: int, n_splits: int, base_seed: int) -> SplitSet:
    """Independent few-shot splits; split i is seeded with derive_seed(base_seed, i)."""
    if n_splits < 1:
        raise ValueError("n_splits must be >= 1")
    splits = tuple(
        sample_few_shot(source, n_per_class, derive_seed(base_seed, i))
        for i in range(n_splits)
    )
    return SplitSet(splits, base_seed, n_per_class)

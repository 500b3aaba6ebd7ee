"""Two-step model training, inference, and bit-exact model persistence.

Training step 1 builds the contrastive pair set and fine-tunes the encoder;
step 2 encodes the original training texts with the fine-tuned encoder and
fits the logistic-regression head on them. Step 2 never touches encoder
parameters. Inference is head(encode(text)).

The master seed fans out to the internal random streams by XOR with the
distinct constants below (ASCII tag in the high bits, mixing constant low),
so streams stay reproducible and independently overridable: the shuffle
and head streams additionally XOR their sub-config seed fields, letting a
caller move one stream without disturbing the others.

Model file format "SETFIT-DESK/1" (all integers little-endian):

    magic           b"SETFIT-DESK/<version>\\n"
    manifest_len    u32
    manifest        UTF-8 JSON (dims, hash seed, label names, config echo)
    table           vocab_buckets * dim   float32
    weights         n_classes * dim       float32
    bias            n_classes             float32
    crc32           u32 over all preceding bytes
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .corpus import MASK64, Dataset
from .encoder import EncoderParams, FinetuneConfig, encode, finetune, init_params
from .errors import (
    BadFormat,
    ChecksumMismatch,
    DeskfitError,
    EmptyDataset,
    UnsupportedVersion,
)
from .head import (
    HeadParams,
    HeadTrainConfig,
    head_predict,
    train_head,
    train_head_mixed,
)
from .pairs import PairSet, TrainPair, generate_pairs

FORMAT_VERSION = "SETFIT-DESK/1"
_MAGIC_PREFIX = b"SETFIT-DESK/"
_NEWLINE = re.compile(b"\n")  # searches any bytes-like buffer, numpy arrays too

# seed fan-out: "PAIR", "INIT", "SHUF", "HEAD", "HASH" tags over mixing constants
PAIR_SEED_XOR = 0x50414952_9E3779B9
INIT_SEED_XOR = 0x494E4954_7F4A7C15
SHUFFLE_SEED_XOR = 0x53485546_85EBCA87
HEAD_SEED_XOR = 0x48454144_C2B2AE3D
HASH_SEED_XOR = 0x48415348_27D4EB4F


@dataclass(frozen=True)
class EncoderConfig:
    vocab_buckets: int = 65536
    dim: int = 64
    max_len: int = 256


@dataclass(frozen=True)
class FitConfig:
    """Everything fit() needs besides the data; seeds derive from `seed`."""

    r_pairs: int = 20
    pair_mode: str = "strict"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    head: HeadTrainConfig = field(default_factory=HeadTrainConfig)
    seed: int = 0


@dataclass(frozen=True, eq=False)
class Model:
    encoder: EncoderParams
    head: HeadParams
    label_names: tuple[str, ...]
    train_config: FitConfig
    format_version: str = FORMAT_VERSION
    distill_info: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "label_names", tuple(self.label_names))
        if self.encoder.dim != self.head.dim:
            raise ValueError("encoder and head disagree on embedding dimension")
        if self.label_names != self.head.label_names:
            raise ValueError("model and head label names differ")


def _salted(seed: int, salt: int) -> int:
    return (seed ^ salt) & MASK64


@contextmanager
def _step(name: str):
    """Re-raise package errors annotated with the failing pipeline step."""
    try:
        yield
    except DeskfitError as exc:
        raise type(exc)(f"{name}: {exc}") from None


def _train_model(
    train: Dataset,
    config: FitConfig,
    sim_pairs: tuple[TrainPair, ...] = (),
    soft_rows: tuple[list[str], list[np.ndarray], float] | None = None,
    distill_info: dict[str, Any] | None = None,
) -> Model:
    """Shared trainer behind fit() and distill().

    `sim_pairs` extends the contrastive pair set with continuous-target
    pairs; `soft_rows` = (texts, teacher probability vectors, alpha) adds
    soft-target rows to head training. With neither, this is exactly fit().
    """
    if not train.examples:
        raise EmptyDataset("training dataset has no examples")
    seed = config.seed & MASK64

    with _step("pair generation"):
        labeled = generate_pairs(
            train, config.r_pairs, _salted(seed, PAIR_SEED_XOR), config.pair_mode
        )
    pair_set = PairSet(labeled.pairs + tuple(sim_pairs), labeled.r, labeled.class_count)

    enc0 = init_params(
        vocab_buckets=config.encoder.vocab_buckets,
        dim=config.encoder.dim,
        max_len=config.encoder.max_len,
        hash_seed=_salted(seed, HASH_SEED_XOR),
        init_seed=_salted(seed, INIT_SEED_XOR),
    )
    shuffle_cfg = replace(
        config.finetune, seed=_salted(config.finetune.seed ^ seed, SHUFFLE_SEED_XOR)
    )
    with _step("encoder fine-tuning"):
        enc = finetune(enc0, pair_set, shuffle_cfg)

    with _step("training-text encoding"):
        embeddings = [encode(enc, ex.text) for ex in train.examples]
    head_cfg = replace(config.head, seed=_salted(config.head.seed ^ seed, HEAD_SEED_XOR))
    with _step("head training"):
        if soft_rows is None or not soft_rows[0]:
            head = train_head(
                embeddings, train.labels(), head_cfg, label_names=train.label_names
            )
        else:
            texts, targets, alpha = soft_rows
            soft_embeddings = [encode(enc, t) for t in texts]
            head = train_head_mixed(
                embeddings,
                train.labels(),
                soft_embeddings,
                targets,
                alpha,
                head_cfg,
                label_names=train.label_names,
            )
    return Model(
        encoder=enc,
        head=head,
        label_names=train.label_names,
        train_config=config,
        distill_info=distill_info,
    )


def fit(train: Dataset, config: FitConfig | None = None) -> Model:
    """The two-step training procedure: pair fine-tuning, then head fitting."""
    return _train_model(train, config or FitConfig())


def predict_proba(model: Model, text: str) -> np.ndarray:
    """Class probability vector for a text."""
    _, probs = head_predict(model.head, encode(model.encoder, text))
    return probs


def predict(model: Model, text: str) -> int:
    """Predicted label index for a text (argmax of predict_proba)."""
    label, _ = head_predict(model.head, encode(model.encoder, text))
    return label


def _config_to_dict(config: FitConfig) -> dict[str, Any]:
    return asdict(config)


def _config_from_dict(data: Mapping[str, Any]) -> FitConfig:
    return FitConfig(
        r_pairs=data["r_pairs"],
        pair_mode=data["pair_mode"],
        encoder=EncoderConfig(**data["encoder"]),
        finetune=FinetuneConfig(**data["finetune"]),
        head=HeadTrainConfig(**data["head"]),
        seed=data["seed"],
    )


def save_model(model: Model, path: str | Path) -> None:
    """Write the model in the SETFIT-DESK/1 container; bit-exact round trip."""
    manifest = {
        "vocab_buckets": model.encoder.vocab_buckets,
        "dim": model.encoder.dim,
        "max_len": model.encoder.max_len,
        "hash_seed": model.encoder.hash_seed,
        "n_classes": model.head.n_classes,
        "label_names": list(model.label_names),
        "train_config": _config_to_dict(model.train_config),
    }
    if model.distill_info is not None:
        manifest["distill"] = model.distill_info
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")

    header = model.format_version.encode("ascii") + b"\n"
    header += struct.pack("<I", len(blob)) + blob
    with open(path, "wb") as fh:
        fh.write(header)
        crc = zlib.crc32(header)
        # each array goes to the file straight from its own memory: no copy
        for array in (model.encoder.table, model.head.weights, model.head.bias):
            view = memoryview(np.ascontiguousarray(array, dtype="<f4")).cast("B")
            fh.write(view)
            crc = zlib.crc32(view, crc)
        fh.write(struct.pack("<I", crc))


#: manifest key -> JSON type; integers lie in [1, 2**64) except hash_seed, which may be 0
_MANIFEST_KEYS = {
    "vocab_buckets": int,
    "dim": int,
    "max_len": int,
    "hash_seed": int,
    "n_classes": int,
    "label_names": list,
    "train_config": dict,
}


def _check_manifest(manifest: Any, path: str | Path) -> None:
    if not isinstance(manifest, dict):
        raise BadFormat(f"{path}: manifest is not a JSON object")
    for key, kind in _MANIFEST_KEYS.items():
        if key not in manifest:
            raise BadFormat(f"{path}: manifest lacks {key!r}")
        value = manifest[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise BadFormat(
                f"{path}: manifest {key!r} must be a JSON {kind.__name__}, "
                f"got {type(value).__name__}"
            )
        low = 0 if key == "hash_seed" else 1
        if kind is int and not low <= value <= MASK64:
            raise BadFormat(f"{path}: manifest {key!r} out of range: {value}")
    if not all(isinstance(name, str) for name in manifest["label_names"]):
        raise BadFormat(f"{path}: manifest 'label_names' must all be strings")


def _advance(offset: int, size: int, end: int, what: str) -> int:
    if offset + size > end:
        raise BadFormat(f"truncated file: {what} needs {size} bytes")
    return offset + size


def _floats(
    buf: np.ndarray, offset: int, end: int, shape: tuple[int, ...], what: str
) -> tuple[np.ndarray, int]:
    """A writable float32 view of buf, which it keeps alive; nothing is copied."""
    count = math.prod(shape)
    stop = _advance(offset, 4 * count, end, what)
    return np.frombuffer(buf, "<f4", count, offset).reshape(shape), stop


def load_model(path: str | Path) -> Model:
    """Read a model written by save_model, verifying version and checksum.

    The table, weights and bias are views of the one buffer the file is read
    into, so loading holds about one file size of memory. The buffer is a
    numpy array rather than a bytearray because numpy asks the kernel for
    huge pages on large blocks, which cuts the page faults of filling it.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = np.empty(size, np.uint8)
        got = fh.readinto(buf)
        if got != size:
            raise BadFormat(f"{path}: truncated file: read {got} of {size} bytes")
        rest = fh.read()  # a pipe reports size 0
    if rest:
        buf = np.concatenate([buf, np.frombuffer(rest, np.uint8)])
    found = _NEWLINE.search(buf)
    if found is None or buf[: len(_MAGIC_PREFIX)].tobytes() != _MAGIC_PREFIX:
        raise BadFormat(f"{path}: not a SETFIT-DESK model file")
    newline = found.start()
    version = buf[len(_MAGIC_PREFIX) : newline].tobytes().decode("ascii", errors="replace")
    if version != "1":
        raise UnsupportedVersion(f"{path}: format SETFIT-DESK/{version}, expected /1")

    end = len(buf) - 4  # the body ends where the stored CRC-32 starts
    stored_crc = struct.unpack_from("<I", buf, end)[0] if end >= 0 else None
    if stored_crc != zlib.crc32(memoryview(buf)[:end]) & 0xFFFFFFFF:
        raise ChecksumMismatch(f"{path}: CRC-32 mismatch")

    offset = _advance(newline + 1, 4, end, "manifest length")
    (manifest_len,) = struct.unpack_from("<I", buf, newline + 1)
    start, offset = offset, _advance(offset, manifest_len, end, "manifest")
    try:
        manifest = json.loads(buf[start:offset].tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadFormat(f"{path}: bad manifest ({exc})") from None
    _check_manifest(manifest, path)

    buckets, dim = manifest["vocab_buckets"], manifest["dim"]
    n_classes = manifest["n_classes"]
    table, offset = _floats(buf, offset, end, (buckets, dim), "embedding table")
    weights, offset = _floats(buf, offset, end, (n_classes, dim), "head weights")
    bias, offset = _floats(buf, offset, end, (n_classes,), "head bias")
    if offset != end:
        raise BadFormat(f"{path}: {end - offset} unexpected trailing bytes")

    try:
        train_config = _config_from_dict(manifest["train_config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BadFormat(
            f"{path}: bad manifest 'train_config' ({type(exc).__name__}: {exc})"
        ) from None
    names = tuple(manifest["label_names"])
    try:
        return Model(
            encoder=EncoderParams(
                table=table, hash_seed=manifest["hash_seed"], max_len=manifest["max_len"]
            ),
            head=HeadParams(weights, bias, names),
            label_names=names,
            train_config=train_config,
            distill_info=manifest.get("distill"),
        )
    except ValueError as exc:
        raise BadFormat(f"{path}: {exc}") from None

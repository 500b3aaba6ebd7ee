"""Plain-Python reference for deskfit's documented behaviour.

The benchmark checks the program's outputs against this module. It imports
neither deskfit nor numpy and is written from the documented contract, not
from the program's code:

- a SETFIT-DESK/1 file is ``b"SETFIT-DESK/1\\n"``, a little-endian u32
  manifest length, a UTF-8 JSON manifest, the float32 embedding table
  (vocab_buckets x dim), the float32 head weights (n_classes x dim) and
  bias (n_classes), then a CRC-32 over every preceding byte;
- a text is lowercased and split into maximal runs of ``[^\\W_]``; the
  first ``max_len`` tokens are hashed with 64-bit FNV-1a over the hash seed
  (8 little-endian bytes) followed by the token's UTF-8 bytes, modulo the
  bucket count;
- the sentence embedding is the mean of the token rows, and the class
  probabilities are softmax(W v + b).

Sums use ``math.fsum`` (correctly rounded), so the reference differs from
any float64 implementation only by that implementation's own rounding.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import sys
import zlib
from array import array
from typing import Callable, Sequence

MAGIC = b"SETFIT-DESK/1\n"
TOKEN_RE = re.compile(r"[^\W_]+")
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1

#: probabilities may differ from the reference by this much (float64 rounding
#: of a 64-term dot product and a softmax is below 1e-15)
PROB_TOL = 1e-9


class FormatError(Exception):
    """A model file that does not follow the SETFIT-DESK/1 layout."""


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & MASK64
    return h


def tokens(text: str, max_len: int) -> list[str]:
    return TOKEN_RE.findall(text.lower())[:max_len]


def cosine(u: Sequence[float], v: Sequence[float]) -> float:
    uu = math.fsum(x * x for x in u)
    vv = math.fsum(x * x for x in v)
    c = math.fsum(x * y for x, y in zip(u, v)) / math.sqrt(uu * vv)
    return min(1.0, max(-1.0, c))


class Encoder:
    """Hashed mean-pooled bag of embeddings over a row lookup function."""

    def __init__(
        self, row: Callable[[int], Sequence[float]], buckets: int, hash_seed: int, max_len: int
    ) -> None:
        self._row = row
        self.buckets = buckets
        self.max_len = max_len
        self._prefix = hash_seed.to_bytes(8, "little")
        self._bucket_of: dict[str, int] = {}
        self._rows: dict[int, Sequence[float]] = {}

    def bucket(self, token: str) -> int:
        b = self._bucket_of.get(token)
        if b is None:
            b = fnv1a64(self._prefix + token.encode("utf-8")) % self.buckets
            self._bucket_of[token] = b
        return b

    def ids(self, text: str) -> list[int]:
        return [self.bucket(t) for t in tokens(text, self.max_len)]

    def embed(self, text: str) -> list[float]:
        ids = self.ids(text)
        if not ids:
            raise ValueError(f"no tokens in {text!r}")
        rows = []
        for b in ids:
            r = self._rows.get(b)
            if r is None:
                r = self._rows[b] = self._row(b)
            rows.append(r)
        n = len(rows)
        return [math.fsum(col) / n for col in zip(*rows)]


class Model:
    """A SETFIT-DESK/1 file read and verified independently of deskfit.

    The CRC is verified over the file in chunks, and table rows are read from
    the file as they are looked up, so no copy of the table stays in memory.
    The file must not change while the model is in use.
    """

    def __init__(self, path) -> None:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < len(MAGIC) + 8 or fh.read(len(MAGIC)) != MAGIC:
                raise FormatError("not a SETFIT-DESK/1 file")
            fh.seek(0)
            crc, left = 0, size - 4
            while left:
                chunk = fh.read(min(left, 1 << 20))
                crc = zlib.crc32(chunk, crc)
                left -= len(chunk)
            (stored_crc,) = struct.unpack("<I", fh.read(4))
            if crc != stored_crc:
                raise FormatError("CRC-32 mismatch")
            fh.seek(len(MAGIC))
            (manifest_len,) = struct.unpack("<I", fh.read(4))
            manifest = json.loads(fh.read(manifest_len).decode("utf-8"))
            buckets, dim, n = manifest["vocab_buckets"], manifest["dim"], manifest["n_classes"]
            table_at = len(MAGIC) + 4 + manifest_len
            weights_at = table_at + 4 * buckets * dim
            extra = size - 4 - weights_at - 4 * (n * dim + n)
            if extra:
                raise FormatError(f"{extra} bytes beyond the declared layout")
            fh.seek(weights_at)
            self.weights = [struct.unpack(f"<{dim}f", fh.read(4 * dim)) for _ in range(n)]
            self.bias = struct.unpack(f"<{n}f", fh.read(4 * n))
        self.label_names = tuple(manifest["label_names"])
        if len(self.label_names) != n:
            raise FormatError("label_names and n_classes disagree")

        def row(b: int) -> array:
            with open(path, "rb") as fh:
                fh.seek(table_at + 4 * dim * b)
                values = array("f", fh.read(4 * dim))
            if sys.byteorder == "big":
                values.byteswap()
            return values

        self.encoder = Encoder(row, buckets, manifest["hash_seed"], manifest["max_len"])

    def proba(self, text: str) -> list[float]:
        v = self.encoder.embed(text)
        logits = [
            math.fsum(w * x for w, x in zip(row, v)) + b for row, b in zip(self.weights, self.bias)
        ]
        top = max(logits)
        e = [math.exp(z - top) for z in logits]
        s = math.fsum(e)
        return [x / s for x in e]


def label_of(probs: Sequence[float]) -> tuple[int, bool]:
    """(argmax, decided): decided is False when the top two are within PROB_TOL."""
    order = sorted(range(len(probs)), key=lambda k: (-probs[k], k))
    return order[0], probs[order[0]] - probs[order[1]] > PROB_TOL


def read_labeled(path) -> list[tuple[str, str]]:
    """(text, label name) pairs from a JSONL dataset file."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out.append((rec["text"], str(rec["label"])))
    return out


def accuracy(model: Model, rows: Sequence[tuple[str, str]]) -> tuple[float, float]:
    """(accuracy under the model's own label names, share of rows too close to call)."""
    index = {name: k for k, name in enumerate(model.label_names)}
    hits = close = 0
    for text, name in rows:
        label, decided = label_of(model.proba(text))
        hits += label == index[name]
        close += not decided
    return hits / len(rows), close / len(rows)

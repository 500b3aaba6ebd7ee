import json
import os
import struct
import threading
import tracemalloc
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from deskfit.corpus import Dataset, LabeledExample, rng_from_seed
from deskfit.encoder import FinetuneConfig, encode, finetune, init_params
from deskfit.errors import (
    BadFormat,
    ChecksumMismatch,
    EmptyDataset,
    EmptyInput,
    UnsupportedVersion,
)
from deskfit import pipeline
from deskfit.head import HeadParams, HeadTrainConfig
from deskfit.pairs import generate_pairs
from deskfit.pipeline import (
    HASH_SEED_XOR,
    INIT_SEED_XOR,
    PAIR_SEED_XOR,
    SHUFFLE_SEED_XOR,
    EncoderConfig,
    FitConfig,
    Model,
    fit,
    load_model,
    predict,
    predict_proba,
    save_model,
)


def vocab_dataset(n_per_class=8, n_classes=2, vocab=6):
    """Tiny classes with disjoint class vocabularies shared within a class."""
    examples = tuple(
        LabeledExample(
            f"v{c}w{i % vocab} v{c}w{(i + 1) % vocab} v{c}w{(i + 2) % vocab}", c
        )
        for c in range(n_classes)
        for i in range(n_per_class)
    )
    return Dataset(examples, tuple(f"class{c}" for c in range(n_classes)))


def small_config(seed=0, **kw):
    defaults = dict(
        encoder=EncoderConfig(vocab_buckets=2048, dim=16),
        finetune=FinetuneConfig(),
        head=HeadTrainConfig(max_iters=200),
        seed=seed,
    )
    defaults.update(kw)
    return FitConfig(**defaults)


class TestFit:
    def test_pair_and_head_set_sizes(self):
        # 2 classes at R=20 -> 80 pairs; the head sees one row per example
        train = vocab_dataset(8, 2)
        config = small_config(r_pairs=20)
        pair_seed = (config.seed ^ PAIR_SEED_XOR) & ((1 << 64) - 1)
        pairs = generate_pairs(train, 20, pair_seed)
        assert len(pairs.pairs) == 2 * 20 * 2
        model = fit(train, config)
        assert model.head.n_classes == 2
        assert model.encoder.dim == model.head.dim == 16

    def test_empty_dataset(self):
        empty = Dataset((), ("a", "b"))
        with pytest.raises(EmptyDataset):
            fit(empty, small_config())

    def test_deterministic_model_files(self, tmp_path):
        train = vocab_dataset()
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(fit(train, small_config(seed=9)), a)
        save_model(fit(train, small_config(seed=9)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_head_step_does_not_touch_encoder(self):
        # re-run only the encoder steps and compare tables
        train = vocab_dataset()
        config = small_config(seed=4)
        model = fit(train, config)
        mask = (1 << 64) - 1
        enc0 = init_params(
            config.encoder.vocab_buckets,
            config.encoder.dim,
            max_len=config.encoder.max_len,
            hash_seed=(config.seed ^ HASH_SEED_XOR) & mask,
            init_seed=(config.seed ^ INIT_SEED_XOR) & mask,
        )
        pairs = generate_pairs(
            train, config.r_pairs, (config.seed ^ PAIR_SEED_XOR) & mask
        )
        shuffle_seed = (config.finetune.seed ^ config.seed ^ SHUFFLE_SEED_XOR) & mask
        enc = finetune(
            enc0,
            pairs,
            FinetuneConfig(
                learning_rate=config.finetune.learning_rate,
                batch_size=config.finetune.batch_size,
                epochs=config.finetune.epochs,
                seed=shuffle_seed,
            ),
        )
        np.testing.assert_array_equal(model.encoder.table, enc.table)

    def test_head_seed_isolation(self):
        from dataclasses import replace

        train = vocab_dataset()
        base = small_config(seed=4)
        shifted = replace(base, head=HeadTrainConfig(max_iters=200, seed=123))
        a = fit(train, base)
        b = fit(train, shifted)
        np.testing.assert_array_equal(a.encoder.table, b.encoder.table)

    def test_disjoint_vocabulary_prediction(self):
        train = vocab_dataset(8, 2)
        model = fit(train, small_config(seed=1))
        # tokens seen only in class-0 training texts
        assert predict(model, "v0w0 v0w2 v0w4") == 0
        assert predict(model, "v1w0 v1w2 v1w4") == 1

    def test_empty_input(self):
        model = fit(vocab_dataset(), small_config())
        with pytest.raises(EmptyInput):
            predict(model, "!!!")

    def test_step_annotation_on_errors(self):
        # a dataset whose texts tokenized to nothing fails in fine-tuning
        bad = Dataset(
            (
                LabeledExample("...", 0),
                LabeledExample("ok text", 0),
                LabeledExample("fine words", 1),
                LabeledExample("more words", 1),
            ),
            ("a", "b"),
        )
        with pytest.raises(EmptyInput, match="encoder fine-tuning"):
            fit(bad, small_config())


class TestPredict:
    def test_predict_is_argmax_of_proba(self):
        model = fit(vocab_dataset(), small_config(seed=2))
        rng = rng_from_seed(0)
        words = [f"v{c}w{i}" for c in range(2) for i in range(6)]
        for _ in range(100):
            text = " ".join(
                words[int(rng.integers(len(words)))] for _ in range(4)
            )
            probs = predict_proba(model, text)
            assert predict(model, text) == int(np.argmax(probs))
            assert abs(float(probs.sum()) - 1.0) < 1e-9

    def test_self_consistency_on_training_data(self):
        from deskfit.harness import evaluate_model

        train = vocab_dataset(8, 2)
        model = fit(train, small_config(seed=3))
        preds = [predict(model, ex.text) for ex in train.examples]
        train_acc = float(np.mean([p == ex.label for p, ex in zip(preds, train.examples)]))
        assert train_acc == 1.0
        assert evaluate_model(model, train, "accuracy") == train_acc

    def test_proba_is_head_predict_of_encoding(self):
        from deskfit.encoder import encode
        from deskfit.head import head_predict

        model = fit(vocab_dataset(), small_config(seed=8))
        for text in ["v0w1 v1w2", "v1w0 v1w1 v1w2", "v0w5"]:
            direct = head_predict(model.head, encode(model.encoder, text))[1]
            np.testing.assert_array_equal(predict_proba(model, text), direct)


class TestPersistence:
    def test_roundtrip_bit_identical(self, tmp_path):
        model = fit(vocab_dataset(), small_config(seed=11))
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.encoder.table, model.encoder.table)
        np.testing.assert_array_equal(loaded.head.weights, model.head.weights)
        np.testing.assert_array_equal(loaded.head.bias, model.head.bias)
        assert loaded.encoder.hash_seed == model.encoder.hash_seed
        assert loaded.encoder.max_len == model.encoder.max_len
        assert loaded.label_names == model.label_names
        assert loaded.train_config == model.train_config

    def test_roundtrip_preserves_predictions(self, tmp_path):
        model = fit(vocab_dataset(), small_config(seed=12))
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        rng = rng_from_seed(7)
        words = [f"v{c}w{i}" for c in range(2) for i in range(6)]
        for _ in range(100):
            text = " ".join(words[int(rng.integers(len(words)))] for _ in range(5))
            np.testing.assert_array_equal(
                predict_proba(model, text), predict_proba(loaded, text)
            )

    def test_save_twice_identical(self, tmp_path):
        model = fit(vocab_dataset(), small_config(seed=13))
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOT-A-MODEL\nwhatever")
        with pytest.raises(BadFormat):
            load_model(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"SETFIT-DESK/0\n" + b"\x00" * 32)
        with pytest.raises(UnsupportedVersion):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        model = fit(vocab_dataset(), small_config(seed=14))
        path = tmp_path / "m.bin"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(BadFormat):
            load_model(path)

    def test_corrupted_payload(self, tmp_path):
        model = fit(vocab_dataset(), small_config(seed=15))
        path = tmp_path / "m.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            load_model(path)

    def test_trailing_garbage(self, tmp_path):
        model = fit(vocab_dataset(), small_config(seed=16))
        path = tmp_path / "m.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(BadFormat):
            load_model(path)

    def test_file_shrinking_while_read(self, tmp_path, monkeypatch):
        model = fit(vocab_dataset(), small_config(seed=17))
        path = tmp_path / "m.bin"
        save_model(model, path)
        fstat = os.fstat
        monkeypatch.setattr(
            pipeline.os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + 8)
        )
        with pytest.raises(BadFormat, match="truncated file: read"):
            load_model(path)

    def test_load_from_a_pipe(self, tmp_path):
        model = fit(vocab_dataset(), small_config(seed=18))
        path, fifo = tmp_path / "m.bin", tmp_path / "fifo"
        save_model(model, path)
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
        writer.start()
        loaded = load_model(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert loaded.encoder.table.tobytes() == model.encoder.table.tobytes()

    @staticmethod
    def default_size_model():
        encoder = init_params(init_seed=3)
        names = ("a", "b")
        weights = np.arange(2 * encoder.dim, dtype=np.float32).reshape(2, -1)
        head = HeadParams(weights, np.ones(2, np.float32), names)
        return Model(encoder, head, names, FitConfig())

    def test_default_size_save_copies_nothing(self, tmp_path):
        model = self.default_size_model()
        path = tmp_path / "m.bin"
        tracemalloc.start()
        try:
            save_model(model, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20
        assert load_model(path).encoder.table.tobytes() == model.encoder.table.tobytes()

    def test_default_size_load_holds_one_file_of_memory(self, tmp_path):
        model = self.default_size_model()
        encoder, weights = model.encoder, model.head.weights
        path = tmp_path / "m.bin"
        save_model(model, path)
        tracemalloc.start()
        try:
            loaded = load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size + 2**20
        for array in (loaded.encoder.table, loaded.head.weights, loaded.head.bias):
            assert array.flags.writeable
        assert loaded.encoder.table.tobytes() == encoder.table.tobytes()
        assert loaded.head.weights.tobytes() == weights.tobytes()


def rewrite_manifest(path, edit):
    """Apply edit() to the manifest dict, then fix the manifest length and CRC-32."""
    blob = path.read_bytes()
    start = blob.index(b"\n") + 1
    (length,) = struct.unpack_from("<I", blob, start)
    manifest = json.loads(blob[start + 4 : start + 4 + length])
    manifest = edit(manifest)
    raw = json.dumps(manifest).encode("utf-8")
    body = blob[:start] + struct.pack("<I", len(raw)) + raw + blob[start + 4 + length : -4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _without(key):
    return lambda m: {k: v for k, v in m.items() if k != key}


def _with(key, value):
    return lambda m: {**m, key: value}


class TestManifestSchema:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("schema") / "m.bin"
        save_model(fit(vocab_dataset(), small_config(seed=17)), path)
        return path.read_bytes()

    def load_edited(self, saved, tmp_path, edit):
        path = tmp_path / "m.bin"
        path.write_bytes(saved)
        rewrite_manifest(path, edit)
        return load_model(path)

    def test_unchanged_manifest_still_loads(self, saved, tmp_path):
        model = self.load_edited(saved, tmp_path, lambda m: m)
        assert model.encoder.dim == 16

    @pytest.mark.parametrize(
        "key",
        ["vocab_buckets", "dim", "max_len", "hash_seed", "n_classes", "label_names",
         "train_config"],
    )
    def test_missing_key(self, saved, tmp_path, key):
        with pytest.raises(BadFormat, match=f"lacks '{key}'"):
            self.load_edited(saved, tmp_path, _without(key))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dim", "16"),
            ("dim", 16.0),
            ("n_classes", True),
            ("vocab_buckets", None),
            ("label_names", "class0"),
            ("train_config", []),
        ],
    )
    def test_wrong_type(self, saved, tmp_path, key, value):
        with pytest.raises(BadFormat, match=f"'{key}' must be a JSON"):
            self.load_edited(saved, tmp_path, _with(key, value))

    @pytest.mark.parametrize(
        "key, value", [("dim", 0), ("max_len", -1), ("hash_seed", -1), ("hash_seed", 2**64)]
    )
    def test_out_of_range(self, saved, tmp_path, key, value):
        with pytest.raises(BadFormat, match=f"'{key}' out of range"):
            self.load_edited(saved, tmp_path, _with(key, value))

    def test_not_an_object(self, saved, tmp_path):
        with pytest.raises(BadFormat, match="not a JSON object"):
            self.load_edited(saved, tmp_path, lambda m: [m])

    def test_label_names_not_strings(self, saved, tmp_path):
        with pytest.raises(BadFormat, match="label_names"):
            self.load_edited(saved, tmp_path, _with("label_names", [0, 1]))

    def test_train_config_missing_field(self, saved, tmp_path):
        def edit(m):
            del m["train_config"]["r_pairs"]
            return m

        with pytest.raises(BadFormat, match="r_pairs"):
            self.load_edited(saved, tmp_path, edit)

    def test_non_finite_table(self, saved, tmp_path):
        path = tmp_path / "m.bin"
        body = bytearray(saved[:-4])
        last_table_float = len(body) - 4 * (2 * 16 + 2) - 4  # before weights and bias
        body[last_table_float : last_table_float + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(BadFormat, match="finite"):
            load_model(path)

    def test_dims_disagree_with_payload(self, saved, tmp_path):
        with pytest.raises(BadFormat, match="truncated file: embedding table"):
            self.load_edited(saved, tmp_path, _with("vocab_buckets", 4096))

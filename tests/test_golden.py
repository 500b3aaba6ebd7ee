"""Golden SHA-256 digests of saved model files for three fixed configs.

A change that claims to leave training bit-exact must keep these digests.
If one has to move, the change must say why and re-pin it.
"""

import hashlib

import pytest

from deskfit.corpus import sample_few_shot
from deskfit.distill import DistillConfig, distill
from deskfit.pipeline import EncoderConfig, FitConfig, fit, save_model
from deskfit.synthetic import make_corpus, make_unlabeled_pool

GOLDEN = {
    "default_fit": "7fc299cd559fde3ae722187013d914ea747e7801117dea1ff49f76f2429300c2",
    "small_fit": "6046df23068c782381bfacf0abc64ee75048f2ebf8acdcae0363494ac2bdee85",
    "distill": "bdd782242b27d4df9c54a9e5cda7aa8c2e09a0b9dc9f1f6220182f941074ced7",
}


@pytest.fixture(scope="module")
def corpus():
    train, _ = make_corpus(seed=7)
    return sample_few_shot(train, 8, seed=11)


@pytest.fixture(scope="module")
def teacher(corpus):
    return fit(corpus, FitConfig(seed=3))


def _digest(model, tmp_path):
    path = tmp_path / "model.bin"
    save_model(model, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_default_fit(teacher, tmp_path):
    assert _digest(teacher, tmp_path) == GOLDEN["default_fit"]


def test_small_fit(corpus, tmp_path):
    config = FitConfig(encoder=EncoderConfig(vocab_buckets=8192, dim=32), seed=5)
    assert _digest(fit(corpus, config), tmp_path) == GOLDEN["small_fit"]


def test_distill_with_unlabeled_pairs(teacher, corpus, tmp_path):
    student = FitConfig(encoder=EncoderConfig(vocab_buckets=8192, dim=32), seed=9)
    pool = make_unlabeled_pool(64, seed=13)
    model = distill(teacher, corpus, pool, DistillConfig(student, pair_count=100))
    assert _digest(model, tmp_path) == GOLDEN["distill"]

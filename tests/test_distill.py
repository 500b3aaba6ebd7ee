import numpy as np
import pytest

from deskfit.corpus import Dataset, LabeledExample, rng_from_seed
from deskfit.distill import (
    DistillConfig,
    SimilarityPair,
    distill,
    generate_unlabeled_pairs,
    teacher_similarities,
)
from deskfit.encoder import cosine, encode
from deskfit.errors import EmptyInput, LabelOutOfRange, TooFewTexts
from deskfit.head import HeadTrainConfig
from deskfit.pipeline import EncoderConfig, FitConfig, fit, save_model


def vocab_dataset(n_per_class=8, n_classes=2, vocab=6):
    examples = tuple(
        LabeledExample(
            f"v{c}w{i % vocab} v{c}w{(i + 1) % vocab} v{c}w{(i + 2) % vocab}", c
        )
        for c in range(n_classes)
        for i in range(n_per_class)
    )
    return Dataset(examples, tuple(f"class{c}" for c in range(n_classes)))


def pool_texts(n=30, vocab=6):
    rng = rng_from_seed(99)
    words = [f"v{c}w{i}" for c in range(2) for i in range(vocab)]
    return [
        " ".join(words[int(rng.integers(len(words)))] for _ in range(3))
        for _ in range(n)
    ]


def small_config(seed=0, dim=16, vocab_buckets=2048, **kw):
    return FitConfig(
        encoder=EncoderConfig(vocab_buckets=vocab_buckets, dim=dim),
        head=HeadTrainConfig(max_iters=200),
        seed=seed,
        **kw,
    )


class TestGenerateUnlabeledPairs:
    def test_zero_pairs(self):
        assert generate_unlabeled_pairs(["a", "b"], 0, seed=1) == []

    def test_two_texts_only_options(self):
        pairs = generate_unlabeled_pairs(["a", "b"], 5, seed=1)
        assert len(pairs) == 5
        assert all(p in [(0, 1), (1, 0)] for p in pairs)

    def test_no_self_pairs(self):
        pairs = generate_unlabeled_pairs([f"t{i}" for i in range(10)], 500, seed=2)
        assert all(i != j for i, j in pairs)

    def test_deterministic(self):
        texts = [f"t{i}" for i in range(50)]
        assert generate_unlabeled_pairs(texts, 200, 7) == generate_unlabeled_pairs(texts, 200, 7)

    def test_too_few_texts(self):
        with pytest.raises(TooFewTexts):
            generate_unlabeled_pairs(["only"], 3, seed=0)


class TestTeacherSimilarities:
    def teacher(self):
        return fit(vocab_dataset(), small_config(seed=5))

    def test_identical_texts_score_one(self):
        sims = teacher_similarities(self.teacher(), [("v0w1 v0w2", "v0w1 v0w2")])
        assert sims[0].target == 1.0

    def test_targets_in_range(self):
        teacher = self.teacher()
        texts = pool_texts(20)
        pairs = [(texts[i], texts[i + 1]) for i in range(19)]
        for sim in teacher_similarities(teacher, pairs):
            assert -1.0 <= sim.target <= 1.0

    def test_matches_direct_composition(self):
        teacher = self.teacher()
        first, second = "v0w1 v1w2", "v1w0 v0w3"
        sims = teacher_similarities(teacher, [(first, second)])
        direct = cosine(encode(teacher.encoder, first), encode(teacher.encoder, second))
        assert sims[0].target == direct

    def test_error_carries_pair_index(self):
        with pytest.raises(EmptyInput, match="pair 1"):
            teacher_similarities(self.teacher(), [("v0w1", "v0w2"), ("v0w1", "!!!")])


class TestDistill:
    def test_no_unlabeled_equals_fit_bit_for_bit(self, tmp_path):
        labeled = vocab_dataset()
        teacher = fit(labeled, small_config(seed=1))
        student_cfg = small_config(seed=42, dim=8, vocab_buckets=512)
        plain = fit(labeled, student_cfg)
        student = distill(teacher, labeled, [], DistillConfig(student=student_cfg))
        a, b = tmp_path / "fit.bin", tmp_path / "distill.bin"
        save_model(plain, a)
        save_model(student, b)
        assert a.read_bytes() == b.read_bytes()

    def test_teacher_untouched(self):
        labeled = vocab_dataset()
        teacher = fit(labeled, small_config(seed=2))
        table = teacher.encoder.table.copy()
        weights = teacher.head.weights.copy()
        distill(
            teacher,
            labeled,
            pool_texts(),
            DistillConfig(student=small_config(seed=3, dim=8), pair_count=40),
        )
        np.testing.assert_array_equal(teacher.encoder.table, table)
        np.testing.assert_array_equal(teacher.head.weights, weights)

    def test_deterministic(self):
        labeled = vocab_dataset()
        teacher = fit(labeled, small_config(seed=2))
        cfg = DistillConfig(student=small_config(seed=3, dim=8), pair_count=40)
        a = distill(teacher, labeled, pool_texts(), cfg)
        b = distill(teacher, labeled, pool_texts(), cfg)
        np.testing.assert_array_equal(a.encoder.table, b.encoder.table)
        np.testing.assert_array_equal(a.head.weights, b.head.weights)

    def test_distill_info_recorded_only_with_unlabeled_data(self):
        labeled = vocab_dataset()
        teacher = fit(labeled, small_config(seed=2))
        bare = distill(teacher, labeled, [], DistillConfig(student=small_config(seed=3)))
        assert bare.distill_info is None
        rich = distill(
            teacher,
            labeled,
            pool_texts(),
            DistillConfig(student=small_config(seed=3), pair_count=10, alpha=0.25),
        )
        assert rich.distill_info == {
            "alpha": 0.25,
            "pair_count": 10,
            "unlabeled_texts": 30,
        }

    def test_label_mismatch_rejected(self):
        labeled = vocab_dataset()
        teacher = fit(labeled, small_config(seed=2))
        renamed = Dataset(labeled.examples, ("x", "y"))
        with pytest.raises(LabelOutOfRange, match="labels"):
            distill(teacher, renamed, [], DistillConfig(student=small_config()))

    def test_continuous_targets_stay_in_range(self):
        labeled = vocab_dataset()
        teacher = fit(labeled, small_config(seed=6))
        pairs = generate_unlabeled_pairs(pool_texts(), 60, seed=8)
        texts = pool_texts()
        sims = teacher_similarities(teacher, [(texts[i], texts[j]) for i, j in pairs])
        assert all(-1.0 <= s.target <= 1.0 for s in sims)


def test_similarity_pair_validates_range():
    with pytest.raises(ValueError):
        SimilarityPair("a", "b", 1.01)
    SimilarityPair("a", "b", -1.0)

import json
from dataclasses import replace

import numpy as np
import pytest

from deskfit.corpus import Dataset, LabeledExample, load_dataset, save_dataset_jsonl
from deskfit.errors import InvalidSpec, LabelOutOfRange, MalformedRecord
from deskfit.harness import (
    METRIC_NAMES,
    DistillCurveConfig,
    ExperimentConfig,
    evaluate_model,
    load_cost_specs,
    load_unlabeled,
    run_cost_report,
    run_distill_curve,
    run_experiment,
    run_sweep,
)
from deskfit.head import HeadTrainConfig
from deskfit.pipeline import EncoderConfig, FitConfig, fit
from deskfit.synthetic import make_corpus, make_unlabeled_pool


def small_fit(seed=0):
    return FitConfig(
        encoder=EncoderConfig(vocab_buckets=2048, dim=16),
        head=HeadTrainConfig(max_iters=300),
        seed=seed,
    )


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    train, test = make_corpus(
        train_per_class=60, test_size=120, private_vocab=20, shared_vocab=20, seed=3
    )
    save_dataset_jsonl(train, root / "train.jsonl")
    save_dataset_jsonl(test, root / "test.jsonl")
    return str(root / "train.jsonl"), str(root / "test.jsonl")


class TestSynthetic:
    def test_shapes_and_balance(self):
        train, test = make_corpus(n_classes=3, train_per_class=10, test_size=9, seed=1)
        assert len(train.examples) == 30
        assert len(test.examples) == 9
        assert [test.labels().count(c) for c in range(3)] == [3, 3, 3]

    def test_deterministic(self):
        a, _ = make_corpus(seed=5)
        b, _ = make_corpus(seed=5)
        assert [e.text for e in a.examples] == [e.text for e in b.examples]

    def test_private_vocab_is_disjoint(self):
        train, _ = make_corpus(train_per_class=20, shared_fraction=0.0, seed=2)
        vocab0 = {w for e in train.examples if e.label == 0 for w in e.text.split()}
        vocab1 = {w for e in train.examples if e.label == 1 for w in e.text.split()}
        assert not vocab0 & vocab1

    def test_shared_fraction_mixes_noise(self):
        train, _ = make_corpus(train_per_class=50, shared_fraction=0.2, seed=2)
        words = [w for e in train.examples for w in e.text.split()]
        noise = sum(1 for w in words if w.startswith("noise"))
        assert 0.1 < noise / len(words) < 0.3

    def test_unlabeled_pool(self):
        pool = make_unlabeled_pool(17, seed=4)
        assert len(pool) == 17
        assert all(isinstance(t, str) and t for t in pool)


class TestRunExperiment:
    def test_report_shape_and_stats(self, corpus_paths):
        train_path, test_path = corpus_paths
        config = ExperimentConfig(
            train_path=train_path,
            test_path=test_path,
            n_per_class=4,
            n_splits=3,
            base_seed=11,
            fit=small_fit(),
        )
        report = run_experiment(config)
        assert len(report.scores) == 3
        assert report.mean == pytest.approx(float(np.mean(report.scores)), rel=1e-12)
        assert report.std == pytest.approx(
            float(np.std(report.scores, ddof=1)), rel=1e-12
        )
        assert report.prng == "numpy PCG64"
        assert report.schema == "SETFIT-DESK-REPORT/1"

    def test_single_split_has_zero_std(self, corpus_paths):
        train_path, test_path = corpus_paths
        config = ExperimentConfig(
            train_path=train_path, test_path=test_path, n_per_class=4,
            n_splits=1, base_seed=1, fit=small_fit(),
        )
        assert run_experiment(config).std == 0.0

    def test_byte_identical_reports(self, corpus_paths):
        train_path, test_path = corpus_paths
        config = ExperimentConfig(
            train_path=train_path, test_path=test_path, n_per_class=4,
            n_splits=2, base_seed=5, fit=small_fit(),
        )
        assert run_experiment(config).to_json() == run_experiment(config).to_json()

    def test_json_roundtrip(self, corpus_paths):
        train_path, test_path = corpus_paths
        config = ExperimentConfig(
            train_path=train_path, test_path=test_path, n_per_class=4,
            n_splits=2, base_seed=5, fit=small_fit(),
        )
        blob = json.loads(run_experiment(config).to_json())
        assert blob["config"]["n_per_class"] == 4
        assert len(blob["scores"]) == 2

    def test_sweep(self, corpus_paths):
        train_path, test_path = corpus_paths
        config = ExperimentConfig(
            train_path=train_path, test_path=test_path, n_splits=2,
            base_seed=5, fit=small_fit(),
        )
        reports = run_sweep(config, [2, 4])
        assert [r.config["n_per_class"] for r in reports] == [2, 4]


class TestEvaluateModel:
    def test_metric_dispatch(self, corpus_paths):
        train_path, test_path = corpus_paths
        train = load_dataset(train_path)
        test = load_dataset(test_path)
        model = fit(train, small_fit(seed=2))
        acc = evaluate_model(model, test, "accuracy")
        m = evaluate_model(model, test, "mcc")
        ap = evaluate_model(model, test, "average_precision")
        mae = evaluate_model(model, test, "mae_x100")
        assert 0.0 <= acc <= 1.0 and -1.0 <= m <= 1.0 and 0.0 <= ap <= 1.0
        assert mae >= 0.0

    def test_test_labels_matched_by_name(self, corpus_paths, tmp_path):
        # labels first appear in reverse order, so the file's indices are permuted
        train_path, test_path = corpus_paths
        test = load_dataset(test_path)
        flipped = Dataset(
            tuple(
                LabeledExample(ex.text, 1 - ex.label)
                for ex in sorted(test.examples, key=lambda ex: -ex.label)
            ),
            test.label_names[::-1],
        )
        flipped_path = tmp_path / "flipped.jsonl"
        save_dataset_jsonl(flipped, flipped_path)
        reloaded = load_dataset(flipped_path)
        assert reloaded.label_names == ("class1", "class0")
        model = fit(load_dataset(train_path), small_fit(seed=2))
        for metric in METRIC_NAMES:
            assert evaluate_model(model, reloaded, metric) == evaluate_model(
                model, test, metric
            )
        config = ExperimentConfig(
            train_path, test_path, n_splits=1, fit=small_fit(), base_seed=4
        )
        assert (
            run_experiment(replace(config, test_path=str(flipped_path))).scores
            == run_experiment(config).scores
        )

    def test_test_label_unknown_to_model(self, corpus_paths):
        train_path, test_path = corpus_paths
        model = fit(load_dataset(train_path), small_fit(seed=2))
        test = load_dataset(test_path)
        extra = Dataset(
            test.examples + (LabeledExample("noise1 noise2", 2),),
            test.label_names + ("class9",),
        )
        with pytest.raises(LabelOutOfRange, match="class9"):
            evaluate_model(model, extra, "accuracy")

    def test_unknown_metric(self, corpus_paths):
        train_path, test_path = corpus_paths
        model = fit(load_dataset(train_path), small_fit(seed=2))
        with pytest.raises(ValueError):
            evaluate_model(model, load_dataset(test_path), "f1")


class TestDistillCurve:
    def test_curve_points_and_csv(self, corpus_paths):
        train_path, test_path = corpus_paths
        config = DistillCurveConfig(
            train_path=train_path,
            test_path=test_path,
            teacher_n_per_class=8,
            pair_counts=(0, 16),
            n_splits=2,
            base_seed=3,
            teacher_fit=small_fit(),
            student_fit=FitConfig(
                encoder=EncoderConfig(vocab_buckets=512, dim=8),
                head=HeadTrainConfig(max_iters=200),
            ),
        )
        report = run_distill_curve(config)
        assert [p.pair_count for p in report.points] == [0, 16]
        assert all(len(p.scores) == 2 for p in report.points)
        csv_text = report.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "pair_count,mean,std"
        assert len(lines) == 3
        assert report.to_json() == run_distill_curve(config).to_json()


class TestCostReport:
    def test_table_from_spec_file(self, tmp_path):
        spec = [
            {"name": "big", "n_params": 3e9, "seq_len": 54, "arch": "encoder_decoder"},
            {"name": "base", "n_params": 110e6, "seq_len": 38},
        ]
        path = tmp_path / "specs.json"
        path.write_text(json.dumps(spec))
        table = run_cost_report(path)
        assert table.rows[0].speedup == 1.0
        assert round(table.rows[1].speedup) == 19
        assert "name,inference_flops" in table.to_csv()
        assert "big" in table.to_text()

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[\n{"name": "x", }\n]')
        with pytest.raises(InvalidSpec, match="bad.json:2"):
            load_cost_specs(path)

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text('[{"name": "only", "n_params": 1e6, "seq_len": 10}]')
        table = run_cost_report(path)
        assert len(table.rows) == 1 and table.rows[0].speedup == 1.0

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('[{"name": "x", "seq_len": 10}]')
        with pytest.raises(InvalidSpec):
            load_cost_specs(path)


def test_unlabeled_pool_that_is_not_utf8_or_a_directory(tmp_path):
    pool = tmp_path / "pool.txt"
    pool.write_bytes(b"one text\n\ntwo \xc3 text\n")
    with pytest.raises(MalformedRecord, match=r"pool\.txt:3: not UTF-8"):
        load_unlabeled(pool)
    with pytest.raises(MalformedRecord, match="is a directory"):
        load_unlabeled(tmp_path)

import io
import json

import pytest

from deskfit.cli import main
from deskfit.corpus import load_dataset


@pytest.fixture()
def corpus_dir(tmp_path):
    rc = main(
        [
            "gen-synthetic",
            "--out", str(tmp_path / "data"),
            "--train-per-class", "40",
            "--test-size", "60",
            "--unlabeled-size", "50",
            "--seed", "3",
        ]
    )
    assert rc == 0
    return tmp_path / "data"


def fit_flags():
    return ["--vocab-buckets", "2048", "--dim", "16", "--seed", "5"]


def test_gen_synthetic_writes_loadable_files(corpus_dir, capsys):
    train = load_dataset(corpus_dir / "train.jsonl")
    test = load_dataset(corpus_dir / "test.jsonl")
    assert len(train.examples) == 80
    assert len(test.examples) == 60
    pool = (corpus_dir / "unlabeled.txt").read_text().strip().splitlines()
    assert len(pool) == 50


def test_train_evaluate_predict_roundtrip(corpus_dir, tmp_path, capsys):
    model_path = tmp_path / "model.bin"
    rc = main(
        ["train", "--dataset", str(corpus_dir / "train.jsonl"),
         "--n-per-class", "8", "--model-out", str(model_path), *fit_flags()]
    )
    assert rc == 0 and model_path.exists()
    capsys.readouterr()

    rc = main(
        ["evaluate", "--model-in", str(model_path),
         "--test", str(corpus_dir / "test.jsonl"),
         "--metric", "accuracy", "--format", "json"]
    )
    assert rc == 0
    score = json.loads(capsys.readouterr().out)
    assert score["metric"] == "accuracy"
    assert 0.5 <= score["score"] <= 1.0

    rc = main(
        ["predict", "--model-in", str(model_path), "c0w1 c0w2 c0w3",
         "--format", "json"]
    )
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["label_name"] == "class0"
    assert abs(sum(rows[0]["probs"]) - 1.0) < 1e-9


def test_sweep_csv(corpus_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep", "--dataset", str(corpus_dir / "train.jsonl"),
         "--test", str(corpus_dir / "test.jsonl"),
         "--n-per-class", "2,4", "--splits", "2",
         "--out", str(out), "--format", "csv", *fit_flags()]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n_per_class,split,score"
    assert len(lines) == 1 + 2 * 2


def test_dump_pairs(corpus_dir, tmp_path):
    out = tmp_path / "pairs.jsonl"
    rc = main(
        ["dump-pairs", "--dataset", str(corpus_dir / "train.jsonl"),
         "--n-per-class", "4", "--r-pairs", "3", "--seed", "1",
         "--out", str(out)]
    )
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(records) == 2 * 3 * 2
    assert {r["target"] for r in records} == {0.0, 1.0}


def test_distill_and_curve(corpus_dir, tmp_path, capsys):
    teacher_path = tmp_path / "teacher.bin"
    main(
        ["train", "--dataset", str(corpus_dir / "train.jsonl"),
         "--n-per-class", "8", "--model-out", str(teacher_path), *fit_flags()]
    )
    student_path = tmp_path / "student.bin"
    rc = main(
        ["distill", "--model-in", str(teacher_path),
         "--dataset", str(corpus_dir / "train.jsonl"), "--n-per-class", "8",
         "--unlabeled", str(corpus_dir / "unlabeled.txt"),
         "--pairs", "20", "--alpha", "0.5",
         "--model-out", str(student_path),
         "--vocab-buckets", "512", "--dim", "8", "--seed", "6"]
    )
    assert rc == 0 and student_path.exists()
    capsys.readouterr()

    out = tmp_path / "curve.csv"
    rc = main(
        ["distill-curve", "--dataset", str(corpus_dir / "train.jsonl"),
         "--test", str(corpus_dir / "test.jsonl"),
         "--n-per-class", "8", "--splits", "2", "--pairs", "0,16",
         "--teacher-vocab-buckets", "2048", "--teacher-dim", "16",
         "--vocab-buckets", "512", "--dim", "8",
         "--out", str(out), "--format", "csv", "--seed", "2"]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "pair_count,mean,std"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "16"]


def test_cost_command(tmp_path, capsys):
    spec = tmp_path / "specs.json"
    spec.write_text(json.dumps([
        {"name": "reference", "n_params": 3e9, "seq_len": 54, "arch": "encoder_decoder"},
        {"name": "candidate", "n_params": 110e6, "seq_len": 38},
    ]))
    rc = main(["cost", str(spec), "--format", "json"])
    assert rc == 0
    table = json.loads(capsys.readouterr().out)
    assert table["rows"][0]["speedup"] == 1.0
    assert round(table["rows"][1]["speedup"]) == 19


def test_errors_exit_code(tmp_path, capsys):
    rc = main(["evaluate", "--model-in", str(tmp_path / "missing.bin"),
               "--test", str(tmp_path / "missing.jsonl")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lr", "-1"], "learning_rate must be >= 0"),
        (["--batch", "0"], "batch_size must be >= 1"),
        (["--dim", "0"], "vocab_buckets and dim must be >= 1"),
        (["--max-len", "0"], "max_len must be >= 1"),
    ],
)
def test_bad_training_flags_exit_2(corpus_dir, tmp_path, capsys, flags, message):
    rc = main(["train", "--dataset", str(corpus_dir / "train.jsonl"),
               "--n-per-class", "4", "--model-out", str(tmp_path / "m.bin"), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "distill", "dump-pairs"])
def test_n_per_class_zero_exits_2(corpus_dir, tmp_path, capsys, command):
    args = [command, "--dataset", str(corpus_dir / "train.jsonl"), "--n-per-class", "0"]
    if command != "dump-pairs":
        args += ["--model-out", str(tmp_path / "out.bin")]
    if command == "distill":
        teacher = tmp_path / "teacher.bin"
        main(["train", "--dataset", str(corpus_dir / "train.jsonl"),
              "--n-per-class", "4", "--model-out", str(teacher), *fit_flags()])
        capsys.readouterr()
        args += ["--model-in", str(teacher)]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "n_per_class must be >= 1" in err
    assert out == "" and not (tmp_path / "out.bin").exists()


def test_unreadable_dataset_exits_2(tmp_path, capsys):
    latin1 = tmp_path / "latin1.jsonl"
    latin1.write_bytes(b'{"text":"caf\xe9","label":"x"}\n')
    for dataset in (tmp_path, latin1):
        rc = main(["train", "--dataset", str(dataset), "--model-out", str(tmp_path / "m.bin")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {dataset}") and "Traceback" not in err


def test_non_integer_list_flag_is_a_usage_error(corpus_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--dataset", str(corpus_dir / "train.jsonl"),
              "--test", str(corpus_dir / "test.jsonl"), "--n-per-class", "8,x"])
    assert exc.value.code == 2
    assert "expected comma-separated integers" in capsys.readouterr().err


def test_predict_stdin_skips_blank_lines_and_names_token_free_ones(
    corpus_dir, tmp_path, capsys, monkeypatch
):
    model_path = tmp_path / "model.bin"
    main(["train", "--dataset", str(corpus_dir / "train.jsonl"),
          "--n-per-class", "8", "--model-out", str(model_path), *fit_flags()])
    capsys.readouterr()

    monkeypatch.setattr("sys.stdin", io.StringIO("c0w1 c0w2\n\n   \nc1w1 c1w2\n"))
    assert main(["predict", "--model-in", str(model_path), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["text"] for r in rows] == ["c0w1 c0w2", "c1w1 c1w2"]

    monkeypatch.setattr("sys.stdin", io.StringIO("c0w1\n\n!!!\nc1w1\n"))
    assert main(["predict", "--model-in", str(model_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "stdin line 3" in err and "'!!!'" in err

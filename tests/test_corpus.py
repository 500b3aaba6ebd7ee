import json

import pytest

from deskfit.corpus import (
    Dataset,
    LabeledExample,
    derive_seed,
    load_dataset,
    make_splits,
    sample_few_shot,
    save_dataset_jsonl,
)
from deskfit.errors import (
    EmptyDataset,
    InsufficientClassSize,
    LabelOutOfRange,
    MalformedRecord,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def toy_dataset(per_class=100, n_classes=2):
    examples = tuple(
        LabeledExample(f"text {c} {i}", c)
        for c in range(n_classes)
        for i in range(per_class)
    )
    return Dataset(examples, tuple(f"name{c}" for c in range(n_classes)))


class TestLoadJsonl:
    def test_string_labels_first_appearance_order(self, tmp_path):
        path = write(
            tmp_path,
            "d.jsonl",
            '{"text":"a","label":"pos"}\n{"text":"b","label":"neg"}\n',
        )
        ds = load_dataset(path)
        assert len(ds.examples) == 2
        assert ds.label_names == ("pos", "neg")
        assert ds.labels() == [0, 1]

    def test_integer_labels_get_numeric_names(self, tmp_path):
        path = write(tmp_path, "d.jsonl", '{"text":"a","label":1}\n{"text":"b","label":0}\n')
        ds = load_dataset(path)
        assert ds.label_names == ("0", "1")
        assert ds.labels() == [1, 0]

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyDataset):
            load_dataset(write(tmp_path, "d.jsonl", ""))

    def test_label_index_out_of_declared_range(self, tmp_path):
        path = write(tmp_path, "d.jsonl", '{"text":"a","label":5}\n')
        with pytest.raises(LabelOutOfRange):
            load_dataset(path, label_names=["pos", "neg"])

    def test_malformed_json_reports_line(self, tmp_path):
        path = write(tmp_path, "d.jsonl", '{"text":"a","label":"x"}\nnot json\n')
        with pytest.raises(MalformedRecord, match=":2"):
            load_dataset(path)

    def test_empty_text_rejected(self, tmp_path):
        path = write(tmp_path, "d.jsonl", '{"text":"   ","label":"x"}\n')
        with pytest.raises(MalformedRecord, match=":1"):
            load_dataset(path)

    def test_mixed_label_kinds_rejected(self, tmp_path):
        path = write(tmp_path, "d.jsonl", '{"text":"a","label":"x"}\n{"text":"b","label":0}\n')
        with pytest.raises(MalformedRecord):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.jsonl")

    def test_not_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"text":"a","label":"x"}\n{"text":"caf\xe9","label":"y"}\n')
        with pytest.raises(MalformedRecord, match=r"d\.jsonl:2: not UTF-8"):
            load_dataset(path)

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(MalformedRecord, match="is a directory"):
            load_dataset(tmp_path)


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "d.csv", 'text,label\n"hello, there",pos\nbye,neg\n')
        ds = load_dataset(path)
        assert ds.examples[0].text == "hello, there"
        assert ds.label_names == ("pos", "neg")

    def test_header_required(self, tmp_path):
        path = write(tmp_path, "d.csv", "txt,lbl\na,b\n")
        with pytest.raises(MalformedRecord, match=":1"):
            load_dataset(path)

    def test_not_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"text,label\r\na,x\r\nb,y\r\n\xff,z\r\n")
        with pytest.raises(MalformedRecord, match=r"d\.csv:4: not UTF-8"):
            load_dataset(path)

    def test_all_integer_cells_become_indices(self, tmp_path):
        path = write(tmp_path, "d.csv", "text,label\na,0\nb,1\n")
        ds = load_dataset(path)
        assert ds.label_names == ("0", "1")
        assert ds.labels() == [0, 1]


def test_roundtrip_jsonl(tmp_path):
    src = write(
        tmp_path,
        "src.jsonl",
        '{"text":"caf\\u00e9 crème","label":"pos"}\n{"text":"b","label":"neg"}\n',
    )
    ds = load_dataset(src)
    out = tmp_path / "out.jsonl"
    save_dataset_jsonl(ds, out)
    again = load_dataset(out)
    assert again.label_names == ds.label_names
    assert [(e.text, e.label) for e in again.examples] == [
        (e.text, e.label) for e in ds.examples
    ]
    # every record carries exactly the two fields, values preserved
    for line, ex in zip(out.read_text(encoding="utf-8").splitlines(), ds.examples):
        record = json.loads(line)
        assert record == {"text": ex.text, "label": ds.label_names[ex.label]}


class TestSampleFewShot:
    def test_exact_per_class_counts(self):
        ds = sample_few_shot(toy_dataset(100, 2), 8, seed=1)
        assert len(ds.examples) == 16
        assert [ds.labels().count(c) for c in range(2)] == [8, 8]

    def test_insufficient_class(self):
        small = toy_dataset(5, 2)
        with pytest.raises(InsufficientClassSize, match="name0"):
            sample_few_shot(small, 8, seed=1)

    def test_deterministic(self):
        src = toy_dataset(50, 3)
        a = sample_few_shot(src, 4, seed=99)
        b = sample_few_shot(src, 4, seed=99)
        assert [e.text for e in a.examples] == [e.text for e in b.examples]

    def test_seed_changes_selection(self):
        src = toy_dataset(500, 2)
        a = sample_few_shot(src, 8, seed=1)
        b = sample_few_shot(src, 8, seed=2)
        assert [e.text for e in a.examples] != [e.text for e in b.examples]

    def test_without_replacement(self):
        src = toy_dataset(10, 2)
        ds = sample_few_shot(src, 10, seed=3)
        assert len({e.text for e in ds.examples}) == 20


class TestMakeSplits:
    def test_ten_splits(self):
        ss = make_splits(toy_dataset(), 8, 10, base_seed=42)
        assert len(ss.splits) == 10
        assert all(len(s.examples) == 16 for s in ss.splits)

    def test_single_split_matches_sample_few_shot(self):
        src = toy_dataset()
        ss = make_splits(src, 8, 1, base_seed=42)
        direct = sample_few_shot(src, 8, derive_seed(42, 0))
        assert [e.text for e in ss.splits[0].examples] == [e.text for e in direct.examples]
        assert ss.splits[0].label_names == direct.label_names

    def test_split_indices_differ_on_large_source(self):
        src = toy_dataset(500, 2)  # 1000 examples
        ss = make_splits(src, 8, 2, base_seed=7)
        texts0 = [e.text for e in ss.splits[0].examples]
        texts1 = [e.text for e in ss.splits[1].examples]
        assert texts0 != texts1

    def test_reconstructible(self):
        src = toy_dataset()
        a = make_splits(src, 4, 5, base_seed=11)
        b = make_splits(src, 4, 5, base_seed=11)
        for sa, sb in zip(a.splits, b.splits):
            assert [e.text for e in sa.examples] == [e.text for e in sb.examples]


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset((), ())
    with pytest.raises(ValueError):
        Dataset((), ("a", "a"))
    with pytest.raises(LabelOutOfRange):
        Dataset((LabeledExample("x", 2),), ("a", "b"))
    with pytest.raises(ValueError):
        LabeledExample("   ", 0)

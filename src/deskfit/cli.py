"""Command-line interface: train, predict, evaluate, sweep, distill,
distill-curve, cost, dump-pairs, gen-synthetic."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, synthetic
from .corpus import load_dataset, sample_few_shot, save_dataset_jsonl
from .distill import DistillConfig, distill
from .encoder import FinetuneConfig
from .errors import DeskfitError, EmptyInput
from .head import HeadTrainConfig
from .pairs import generate_pairs, pairs_to_jsonl
from .pipeline import (
    EncoderConfig,
    FitConfig,
    fit,
    load_model,
    predict,
    predict_proba,
    save_model,
)


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r-pairs", type=int, default=20, help="pairs per class per polarity")
    p.add_argument("--dim", type=int, default=64, help="embedding dimension")
    p.add_argument("--vocab-buckets", type=int, default=65536, help="hash bucket count")
    p.add_argument("--max-len", type=int, default=256, help="max tokens per text")
    p.add_argument("--lr", type=float, default=1e-3, help="encoder learning rate")
    p.add_argument("--batch", type=int, default=16, help="encoder batch size")
    p.add_argument("--epochs", type=int, default=1, help="encoder epochs")
    p.add_argument("--pair-mode", choices=["strict", "permissive"], default="strict")


def _fit_config(args: argparse.Namespace, seed: int) -> FitConfig:
    return FitConfig(
        r_pairs=args.r_pairs,
        pair_mode=args.pair_mode,
        encoder=EncoderConfig(
            vocab_buckets=args.vocab_buckets, dim=args.dim, max_len=args.max_len
        ),
        finetune=FinetuneConfig(
            learning_rate=args.lr, batch_size=args.batch, epochs=args.epochs
        ),
        head=HeadTrainConfig(),
        seed=seed,
    )


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _report_text(report: harness.ExperimentReport) -> str:
    lines = [
        f"metric  {report.config['metric']}",
        f"splits  {len(report.scores)}",
        "scores  " + " ".join(f"{s:.4f}" for s in report.scores),
        f"mean    {report.mean:.4f}",
        f"std     {report.std:.4f}",
    ]
    return "\n".join(lines) + "\n"


def _report_csv(reports: list[harness.ExperimentReport]) -> str:
    lines = ["n_per_class,split,score"]
    for rep in reports:
        for i, score in enumerate(rep.scores):
            lines.append(f"{rep.config['n_per_class']},{i},{score!r}")
    return "\n".join(lines) + "\n"


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    if args.n_per_class is not None:
        dataset = sample_few_shot(dataset, args.n_per_class, args.seed)
    model = fit(dataset, _fit_config(args, args.seed))
    save_model(model, args.model_out)
    print(f"trained on {len(dataset.examples)} examples "
          f"({len(dataset.label_names)} classes) -> {args.model_out}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model_in)
    if args.text:
        texts = [(f"text {i}", text) for i, text in enumerate(args.text, 1)]
    else:
        texts = [
            (f"stdin line {i}", line.rstrip("\n"))
            for i, line in enumerate(sys.stdin, 1)
            if line.strip()
        ]
    rows = []
    for where, text in texts:
        try:
            probs = predict_proba(model, text)
        except EmptyInput as exc:
            raise EmptyInput(f"{where}: {exc}") from None
        label = int(probs.argmax())
        rows.append(
            {
                "text": text,
                "label": label,
                "label_name": model.label_names[label],
                "probs": [float(p) for p in probs],
            }
        )
    if args.format == "json":
        _emit(json.dumps(rows, ensure_ascii=False, indent=2), args.out)
    elif args.format == "csv":
        lines = ["text,label,label_name"]
        lines += [f"{json.dumps(r['text'], ensure_ascii=False)},{r['label']},{r['label_name']}" for r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit("\n".join(f"{r['label_name']}\t{max(r['probs']):.4f}" for r in rows), args.out)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_model(args.model_in)
    test = load_dataset(args.test)
    score = harness.evaluate_model(model, test, args.metric)
    if args.format == "json":
        _emit(json.dumps({"metric": args.metric, "score": score}), args.out)
    elif args.format == "csv":
        _emit(f"metric,score\n{args.metric},{score!r}\n", args.out)
    else:
        _emit(f"{args.metric}  {score:.4f}\n", args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = harness.ExperimentConfig(
        train_path=args.dataset,
        test_path=args.test,
        metric=args.metric,
        n_splits=args.splits,
        base_seed=args.seed,
        fit=_fit_config(args, args.seed),
    )
    reports = harness.run_sweep(config, args.n_per_class)
    if args.format == "json":
        _emit(json.dumps([r.to_dict() for r in reports], sort_keys=True), args.out)
    elif args.format == "csv":
        _emit(_report_csv(reports), args.out)
    else:
        blocks = [
            f"n_per_class {r.config['n_per_class']}\n" + _report_text(r) for r in reports
        ]
        _emit("\n".join(blocks), args.out)
    return 0


def _cmd_distill(args: argparse.Namespace) -> int:
    teacher = load_model(args.model_in)
    labeled = load_dataset(args.dataset)
    if args.n_per_class is not None:
        labeled = sample_few_shot(labeled, args.n_per_class, args.seed)
    unlabeled = harness.load_unlabeled(args.unlabeled) if args.unlabeled else []
    config = DistillConfig(
        student=_fit_config(args, args.seed),
        pair_count=args.pairs,
        alpha=args.alpha,
    )
    student = distill(teacher, labeled, unlabeled, config)
    save_model(student, args.model_out)
    print(
        f"distilled student ({args.dim}d, {args.vocab_buckets} buckets, "
        f"{args.pairs} unlabeled pairs) -> {args.model_out}"
    )
    return 0


def _cmd_distill_curve(args: argparse.Namespace) -> int:
    student_fit = _fit_config(args, args.seed)
    teacher_fit = replace(
        student_fit,
        encoder=EncoderConfig(
            vocab_buckets=args.teacher_vocab_buckets,
            dim=args.teacher_dim,
            max_len=args.max_len,
        ),
    )
    config = harness.DistillCurveConfig(
        train_path=args.dataset,
        test_path=args.test,
        metric=args.metric,
        teacher_n_per_class=args.n_per_class,
        pair_counts=tuple(args.pairs),
        n_splits=args.splits,
        base_seed=args.seed,
        teacher_fit=teacher_fit,
        student_fit=student_fit,
        alpha=args.alpha,
        unlabeled_path=args.unlabeled,
    )
    report = harness.run_distill_curve(config)
    if args.format == "json":
        _emit(report.to_json(), args.out)
    elif args.format == "csv":
        _emit(report.to_csv(), args.out)
    else:
        lines = [f"{'pairs':>6} {'mean':>8} {'std':>8}"]
        lines += [f"{p.pair_count:>6} {p.mean:>8.4f} {p.std:>8.4f}" for p in report.points]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    table = harness.run_cost_report(args.spec_file)
    if args.format == "json":
        _emit(table.to_json(), args.out)
    elif args.format == "csv":
        _emit(table.to_csv(), args.out)
    else:
        _emit(table.to_text(), args.out)
    return 0


def _cmd_dump_pairs(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    if args.n_per_class is not None:
        dataset = sample_few_shot(dataset, args.n_per_class, args.seed)
    pairset = generate_pairs(dataset, args.r_pairs, args.seed, args.pair_mode)
    _emit(pairs_to_jsonl(pairset), args.out)
    return 0


def _cmd_gen_synthetic(args: argparse.Namespace) -> int:
    train, test = synthetic.make_corpus(
        n_classes=args.classes,
        train_per_class=args.train_per_class,
        test_size=args.test_size,
        tokens_per_text=args.tokens_per_text,
        shared_fraction=args.shared_fraction,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset_jsonl(train, out / "train.jsonl")
    save_dataset_jsonl(test, out / "test.jsonl")
    if args.unlabeled_size:
        pool = synthetic.make_unlabeled_pool(
            args.unlabeled_size,
            n_classes=args.classes,
            tokens_per_text=args.tokens_per_text,
            shared_fraction=args.shared_fraction,
            seed=args.seed + 1,
        )
        (out / "unlabeled.txt").write_text("\n".join(pool) + "\n", encoding="utf-8")
    print(f"wrote synthetic corpus to {out}/")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deskfit",
        description="Few-shot text classification by contrastive encoder "
        "fine-tuning plus a logistic-regression head.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, fmt: bool = True) -> None:
        p.add_argument("--seed", type=int, default=0, help="base / master seed")
        if fmt:
            p.add_argument("--out", default=None, help="output file (default stdout)")
            p.add_argument("--format", choices=["json", "csv", "text"], default="text")

    p = sub.add_parser("train", help="fit a model on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--n-per-class", type=int, default=None,
                   help="few-shot subsample before training")
    p.add_argument("--model-out", required=True)
    _add_fit_flags(p)
    common(p, fmt=False)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "predict",
        help="classify texts with a saved model",
        description="Classify each TEXT, or each line of stdin when no TEXT is "
        "given. Blank stdin lines are skipped; a text or line with no tokens "
        "(e.g. '!!!') is an error that names its position, and nothing is printed.",
    )
    p.add_argument("--model-in", required=True)
    p.add_argument("text", nargs="*",
                   help="texts (non-blank stdin lines when omitted)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a saved model on a test set")
    p.add_argument("--model-in", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--metric", choices=list(harness.METRIC_NAMES), default="accuracy")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="multi-split few-shot runs at several sizes")
    p.add_argument("--dataset", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--metric", choices=list(harness.METRIC_NAMES), default="accuracy")
    p.add_argument("--n-per-class", type=_int_list, default="8,64",
                   help="comma-separated sizes")
    p.add_argument("--splits", type=int, default=10)
    _add_fit_flags(p)
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("distill", help="train a student from a saved teacher")
    p.add_argument("--model-in", required=True, help="teacher model file")
    p.add_argument("--dataset", required=True, help="labeled data for the student")
    p.add_argument("--n-per-class", type=int, default=None)
    p.add_argument("--unlabeled", default=None, help="text file, one text per line")
    p.add_argument("--pairs", type=int, default=0, help="teacher-scored pair count")
    p.add_argument("--alpha", type=float, default=0.5, help="soft-target weight")
    p.add_argument("--model-out", required=True)
    _add_fit_flags(p)
    common(p, fmt=False)
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("distill-curve", help="student score vs unlabeled pair budget")
    p.add_argument("--dataset", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--metric", choices=list(harness.METRIC_NAMES), default="accuracy")
    p.add_argument("--n-per-class", type=int, default=16, help="teacher labels per class")
    p.add_argument("--splits", type=int, default=5)
    p.add_argument("--pairs", type=_int_list, default="0,8,64,400",
                   help="comma-separated pair budgets")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--unlabeled", default=None, help="pool file (default: unsampled train texts)")
    p.add_argument("--teacher-dim", type=int, default=64)
    p.add_argument("--teacher-vocab-buckets", type=int, default=65536)
    _add_fit_flags(p)
    common(p)
    p.set_defaults(func=_cmd_distill_curve)

    p = sub.add_parser("cost", help="FLOPs cost table from a JSON spec file")
    p.add_argument("spec_file")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("dump-pairs", help="emit the contrastive pair set as JSONL")
    p.add_argument("--dataset", required=True)
    p.add_argument("--n-per-class", type=int, default=None)
    p.add_argument("--r-pairs", type=int, default=20)
    p.add_argument("--pair-mode", choices=["strict", "permissive"], default="strict")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dump_pairs)

    p = sub.add_parser("gen-synthetic", help="write a synthetic benchmark corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--train-per-class", type=int, default=200)
    p.add_argument("--test-size", type=int, default=500)
    p.add_argument("--tokens-per-text", type=int, default=12)
    p.add_argument("--shared-fraction", type=float, default=0.2)
    p.add_argument("--unlabeled-size", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_synthetic)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DeskfitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Per-layer tracing from outside the program.

`install` replaces deskfit functions, in every deskfit module that holds a
reference to them, with wrappers that record a span (name, start, end,
parent) or just count calls. Spans stay in memory: they are summed per
(name, parent) as they close, and the first MAX_SPANS are also kept whole.
`layer_metrics` turns the sums into the per-layer metrics named in
BENCHMARK.json, and `write` saves the sums and kept spans as JSON.

A span is counted towards its layer's total only when no enclosing span has
the same name, so a trainer that delegates to another (train_head_mixed to
train_head) is not counted twice.
"""

from __future__ import annotations

import json
import sys
import time
import zlib
from collections import defaultdict

MAX_SPANS = 20000

# (module, attribute, span name); AdamState.update is patched on the class
SPANS = [
    ("corpus", "load_dataset", "corpus.load_dataset"),
    ("pairs", "generate_pairs", "pairs.generate_pairs"),
    ("encoder", "init_params", "encoder.init_params"),
    ("encoder", "finetune", "encoder.finetune"),
    ("encoder", "_pair_terms", "encoder.pair_terms"),
    ("encoder", "tokenize", "encoder.tokenize"),
    ("encoder", "encode", "encoder.encode"),
    ("head", "train_head", "head.train"),
    ("head", "train_head_soft", "head.train"),
    ("head", "train_head_mixed", "head.train"),
    ("head", "_minimize", "head.minimize"),
    ("head", "head_predict", "head.predict"),
    ("pipeline", "fit", "pipeline.fit"),
    ("pipeline", "_train_model", "pipeline.train_model"),
    ("pipeline", "predict_proba", "pipeline.predict_proba"),
    ("pipeline", "predict", "pipeline.predict"),
    ("pipeline", "save_model", "pipeline.save_model"),
    ("pipeline", "load_model", "pipeline.load_model"),
    ("distill", "distill", "distill.distill"),
    ("distill", "teacher_similarities", "distill.teacher_similarities"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "evaluate_model", "harness.evaluate_model"),
]

#: per-layer metric -> unit; the order BENCHMARK.json lists them in
LAYER_UNITS = {
    "corpus.load_dataset_s": "s",
    "corpus.load_dataset_calls": "count",
    "pairs.generate_pairs_s": "s",
    "pairs.pairs": "count",
    "encoder.init_params_s": "s",
    "encoder.finetune_s": "s",
    "encoder.pair_terms_s": "s",
    "encoder.pair_terms_calls": "count",
    "encoder.touched_rows": "count",
    "optim.adam_encoder_s": "s",
    "optim.adam_encoder_steps": "count",
    "optim.adam_encoder_elements": "count",
    "optim.adam_head_s": "s",
    "optim.adam_head_steps": "count",
    "head.train_s": "s",
    "head.iters": "count",
    "head.rows": "count",
    "head.predict_s": "s",
    "head.predict_calls": "count",
    "encoder.tokenize_s": "s",
    "encoder.tokenize_calls": "count",
    "encoder.tokens": "count",
    "encoder.hash_calls": "count",
    "encoder.distinct_tokens": "count",
    "encoder.hash_reuse": "ratio",
    "encoder.encode_s": "s",
    "encoder.encode_calls": "count",
    "pipeline.crc_s": "s",
    "distill.teacher_similarities_s": "s",
    "distill.soft_targets_s": "s",
    "distill.student_train_s": "s",
    "harness.evaluate_s": "s",
}


class _Span:
    __slots__ = ("name", "parent", "child_s", "op")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.op = op


class Tracer:
    """Spans and counts of the calls into deskfit's modules, kept in memory."""

    def __init__(self) -> None:
        self.stack: list[_Span] = []
        self.op = 0  # identifier shared by the spans of one benchmark operation
        # (name, parent name) -> [calls, inclusive s, self s, outermost calls, outermost s]
        self.sums: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0, 0.0])
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.hashed: set[bytes] = set()
        self.paused = False  # set while the benchmark checks outputs

    def reset(self) -> None:
        """Forget everything recorded so far; the wrappers stay installed."""
        self.op = 0
        self.sums.clear()
        self.spans.clear()
        self.counts.clear()
        self.hashed.clear()

    def begin_op(self) -> None:
        self.op += 1

    def _span(self, name, fn, after=None):
        stack, sums, spans = self.stack, self.sums, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = _Span(name, parent, self.op)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent.child_s += dur
                row = sums[(name, parent.name if parent else "")]
                row[0] += 1
                row[1] += dur
                row[2] += dur - span.child_s
                outer = parent
                while outer is not None and outer.name != name:
                    outer = outer.parent
                if outer is None:
                    row[3] += 1
                    row[4] += dur
                if len(spans) < MAX_SPANS:
                    spans.append((name, parent.name if parent else None, span.op, start, end))
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, before):
        def wrapper(*args, **kwargs):
            if not self.paused:
                before(args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        from deskfit import encoder, head, optim, pipeline

        counts = self.counts

        def add(key, n):
            counts[key] += n

        after = {
            "pairs.generate_pairs": lambda a, r: add("pairs", len(r.pairs)),
            "encoder.tokenize": lambda a, r: add("tokens", len(r)),
            "encoder.finetune": lambda a, r: add(
                "touched_rows", int((a[0].table != r.table).any(axis=1).sum())
            ),
            "head.minimize": lambda a, r: add("head_rows", a[0].shape[0]),
        }
        for module, attr, name in SPANS:
            original = getattr(sys.modules[f"deskfit.{module}"], attr)
            replace_everywhere(original, self._span(name, original, after.get(name)))

        def hashed(args):
            counts["hash_calls"] += 1
            self.hashed.add(args[0])

        replace_everywhere(encoder._fnv1a64, self._count(encoder._fnv1a64, hashed))
        replace_everywhere(
            head._objective, self._count(head._objective, lambda a: add("objective_calls", 1))
        )

        def adam_elements(args, result):
            # after the span closes, the top of the stack is its caller
            if self.stack and self.stack[-1].name == "encoder.finetune":
                add("encoder_adam_elements", args[1].size)

        optim.AdamState.update = self._span(
            "optim.adam_update", optim.AdamState.update, adam_elements
        )
        pipeline.zlib = _TimedZlib(self._span("pipeline.crc", zlib.crc32))

    def _total(self, name, parent=None) -> tuple[int, float]:
        """(calls, seconds) of the outermost `name` spans, optionally under `parent`."""
        calls, secs = 0, 0.0
        for (n, p), row in self.sums.items():
            if n == name and (parent is None or p == parent):
                calls += row[3]
                secs += row[4]
        return calls, secs

    def layer_metrics(self) -> dict[str, float]:
        c = self.counts
        m: dict[str, float] = {}
        for key in [
            "corpus.load_dataset",
            "encoder.pair_terms",
            "head.predict",
            "encoder.tokenize",
            "encoder.encode",
        ]:
            m[f"{key}_calls"], m[f"{key}_s"] = self._total(key)
        for key in [
            "pairs.generate_pairs",
            "encoder.init_params",
            "encoder.finetune",
            "head.train",
            "pipeline.crc",
            "distill.teacher_similarities",
        ]:
            m[f"{key}_s"] = self._total(key)[1]
        m["harness.evaluate_s"] = self._total("harness.evaluate_model")[1]
        m["distill.soft_targets_s"] = self._total(
            "pipeline.predict_proba", parent="distill.distill"
        )[1]
        m["distill.student_train_s"] = self._total(
            "pipeline.train_model", parent="distill.distill"
        )[1]
        enc_steps, m["optim.adam_encoder_s"] = self._total(
            "optim.adam_update", parent="encoder.finetune"
        )
        head_steps, m["optim.adam_head_s"] = self._total(
            "optim.adam_update", parent="head.minimize"
        )
        m["optim.adam_encoder_steps"] = enc_steps
        m["optim.adam_head_steps"] = head_steps
        m["optim.adam_encoder_elements"] = (
            c["encoder_adam_elements"] / enc_steps if enc_steps else 0.0
        )
        finetunes = self._total("encoder.finetune")[0]
        minimizes = self._total("head.minimize")[0]
        m["pairs.pairs"] = c["pairs"]
        m["encoder.touched_rows"] = c["touched_rows"] / finetunes if finetunes else 0.0
        m["head.iters"] = c["objective_calls"] - minimizes
        m["head.rows"] = c["head_rows"]
        m["encoder.tokens"] = c["tokens"]
        m["encoder.hash_calls"] = c["hash_calls"]
        m["encoder.distinct_tokens"] = len(self.hashed)
        m["encoder.hash_reuse"] = len(self.hashed) / c["hash_calls"] if c["hash_calls"] else 0.0
        return {name: m[name] for name in LAYER_UNITS}

    def write(self, path) -> None:
        rows = [
            {
                "name": n,
                "parent": p or None,
                "calls": int(r[0]),
                "total_s": r[1],
                "self_s": r[2],
            }
            for (n, p), r in sorted(self.sums.items())
        ]
        spans = [
            {"name": n, "parent": p, "op": op, "start": s, "end": e}
            for n, p, op, s, e in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": rows, "counts": dict(self.counts), "spans": spans}, fh)


class _TimedZlib:
    """Stands in for the zlib module inside deskfit.pipeline with a traced crc32."""

    def __init__(self, crc32) -> None:
        self.crc32 = crc32

    def __getattr__(self, name):
        return getattr(zlib, name)


def replace_everywhere(original, replacement) -> None:
    """Point every deskfit module attribute that is `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name == "deskfit" or name.startswith("deskfit."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

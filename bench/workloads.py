"""The benchmark's workloads: sweep, serve and distill.

A workload's set-up (`Workload.setup`) makes its inputs from the seed,
trains what must be trained and writes the files the timed phase reads. It
runs in a process of its own, several times (see `set_up`), so that set-up
time is a median, the repeats must write identical files, and the memory
the set-up takes stays out of the measured process. The measured process
makes the seed's in-memory inputs again (`Workload.inputs`, cheap), reads
the set-up's files (`Workload.prepare`), runs one warm-up round, which is
checked and counted but neither timed nor traced, and then whole rounds of
the same operations until the timed calls have taken `seconds`. Only the program's
own calls are timed; input generation and the output checks run between
them. Every operation's outputs are checked against `reference` and against
properties the method must have; a failed check counts the operation as
failed and the run goes on.

One client, one process: every call is made in sequence from this thread.

Two clocks. The timed phase's length is wall time. Every figure reported
(ops_per_s and the per-call samples of set-up, load_model, predict_proba,
fit) is CPU time of the process, user and system, all threads: on a shared
machine wall time also counts the time the thread waits for a CPU, which in
five 20 s sweep runs put the wall-clock p99 of predict_proba anywhere from
1.5 to 2.5 ms while its CPU-time p99 stayed within 1.35-1.42 ms.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import resource
import statistics
import time
import traceback
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from deskfit import corpus, harness, pipeline, synthetic

import reference as ref

# the package re-exports the function distill(), shadowing the submodule
distill = importlib.import_module("deskfit.distill")

clock = time.perf_counter
cpu_clock = time.process_time

#: the synthetic corpus behind every workload: 4 classes of 200 private
#: words plus 600 shared ones, so a fit touches hundreds of table rows
CORPUS = dict(
    n_classes=4,
    train_per_class=200,
    test_size=500,
    tokens_per_text=16,
    private_vocab=200,
    shared_vocab=600,
    shared_fraction=0.2,
)
#: "well above chance" for 4 classes
MIN_ACCURACY = 0.5
#: single-text requests have MIN_WORDS to MAX_WORDS words, beyond the
#: default max_len of 256, so the longest are truncated
MIN_WORDS, MAX_WORDS = 3, 400

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "predict_us": "us",
    "predict_p99_us": "us",
    "load_s": "s",
    "model_file_mb": "MB",
    "peak_rss_mb": "MB",
}


def sub_seed(seed: int, k: int) -> int:
    """Independent 64-bit seeds for the inputs of one workload."""
    digest = hashlib.sha256(f"{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def digest(path: Path) -> str:
    """SHA-256 of a file, read in chunks: the checks hold no file whole."""
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def write_jsonl(dataset, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in dataset.examples:
            rec = {"text": ex.text, "label": dataset.label_names[ex.label]}
            fh.write(json.dumps(rec) + "\n")


def class_words(dataset) -> list[list[str]]:
    words: dict[int, set[str]] = defaultdict(set)
    for ex in dataset.examples:
        words[ex.label].update(ex.text.split())
    return [sorted(words[k]) for k in sorted(words)]


def mixed_texts(rng: random.Random, vocabularies: list[list[str]], n: int) -> list[str]:
    """n fresh class-conditioned texts of MIN_WORDS to MAX_WORDS words.

    Lengths are log-uniform, so each factor of two in length is about as
    common as any other, and stratified: every 100 texts hold one length
    from each percentile, so the mix, and with it the latency tail, does not
    depend on the seed. Every tenth text also carries 1-3 words that appear
    in no other text, so a token cache always misses on part of a stream.
    """
    out = []
    for i in range(n):
        u = (i % 100 + rng.random()) / 100
        length = round(MIN_WORDS * (MAX_WORDS / MIN_WORDS) ** u)
        vocab = rng.choice(vocabularies)
        words = [rng.choice(vocab) for _ in range(length)]
        if i % 10 == 0:
            for _ in range(rng.randint(1, 3)):
                words.insert(rng.randrange(len(words) + 1), f"new{rng.getrandbits(48):x}")
        out.append(" ".join(words))
    rng.shuffle(out)
    return out


class Run:
    """Samples, operation counts and check results of one benchmark run."""

    def __init__(self, workdir: Path, tracer) -> None:
        self.dir = workdir
        self.tracer = tracer
        self.samples: dict[str, array] = defaultdict(lambda: array("d"))
        self.timed_s = 0.0
        self.timed_cpu_s = 0.0
        self.timed_ops = 0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0  # failed operations other than the known fault
        self.problems: list[str] = []
        self.file_sizes: list[int] = []
        self._refs: dict[str, ref.Model] = {}
        self._probe_wants: dict[str, list[list[float]]] = {}
        self._ref_acc: dict[tuple[str, Path], tuple[float, float]] = {}

    def restart_clock(self) -> None:
        """Forget the warm-up round's timings (its counts and checks stay)."""
        self.samples.clear()
        self.timed_s = 0.0
        self.timed_cpu_s = 0.0
        self.timed_ops = 0
        self.rounds = 0
        if self.tracer:
            self.tracer.reset()

    def timed(self, key, fn, *args):
        """Call fn, adding its wall and CPU time to the timed phase's and its
        CPU time to samples[key]."""
        if self.tracer:
            self.tracer.begin_op()
        start, cpu_start = clock(), cpu_clock()
        result = fn(*args)
        cpu_elapsed = cpu_clock() - cpu_start
        self.timed_s += clock() - start
        self.timed_cpu_s += cpu_elapsed
        if key:
            self.samples[key].append(cpu_elapsed)
        return result

    def predict_all(self, model, texts: list[str]) -> list:
        """Single-text predict_proba over texts, each call's CPU time sampled."""
        if self.tracer:
            self.tracer.begin_op()
        probs, latency = [], self.samples["predict_s"]
        start, cpu_start = clock(), cpu_clock()
        for text in texts:
            t0 = cpu_clock()
            probs.append(pipeline.predict_proba(model, text))
            latency.append(cpu_clock() - t0)
        self.timed_s += clock() - start
        self.timed_cpu_s += cpu_clock() - cpu_start
        return probs

    def loads(self, path: Path, n: int):
        """load_model n times in a row; one load_s sample, their mean CPU time."""
        start = cpu_clock()
        for _ in range(n):
            model = self.timed(None, pipeline.load_model, path)
        self.samples["load_s"].append((cpu_clock() - start) / n)
        return model

    def outcome(self, problems: list[str], ops: int = 1, known_fault: bool = False) -> None:
        """Count `ops` operations, failed if any check found a problem.

        The known fault's operation is neither timed nor counted in ops_per_s.
        """
        self.attempted += ops
        if problems:
            self.failed += ops
            self.unexpected += 0 if known_fault else ops
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])
        elif not known_fault:
            self.timed_ops += ops

    def fail_all(self, problem: str) -> None:
        """A property every operation relied on does not hold."""
        self.failed = self.unexpected = self.attempted
        self.problems.append(problem)

    @contextmanager
    def checking(self):
        """Context in which the tracer ignores the calls the checks make."""
        if self.tracer:
            self.tracer.paused = True
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.paused = False

    def check(self, fn, *args) -> list[str]:
        """Run a check untraced; an exception in it is a failed check."""
        with self.checking():
            try:
                return fn(*args)
            except Exception:
                return [traceback.format_exc()]

    # -- reference checks, cached by model-file digest --------------------

    def reference(self, path: Path) -> tuple[str, ref.Model]:
        key = digest(path)
        if key not in self._refs:
            self._refs[key] = ref.Model(path)
        return key, self._refs[key]

    def probe_wants(self, key: str, model: ref.Model, texts: list[str]) -> list[list[float]]:
        """Reference probabilities of a fixed probe set, computed once per model file."""
        if key not in self._probe_wants:
            self._probe_wants[key] = [model.proba(text) for text in texts]
        return self._probe_wants[key]

    @staticmethod
    def check_probs(wants, texts: list[str], probs) -> list[str]:
        for want, text, p in zip(wants, texts, probs):
            got = [float(x) for x in p]
            if len(got) != len(want) or max(abs(a - b) for a, b in zip(got, want)) > ref.PROB_TOL:
                return [f"predict_proba {got} != reference {want} for {text[:40]!r}"]
            label, decided = ref.label_of(want)
            if decided and max(range(len(got)), key=lambda k: (got[k], -k)) != label:
                return [f"predicted label differs from reference {label} for {text[:40]!r}"]
        return []

    def check_score(self, key: str, model: ref.Model, test_path: Path, score: float) -> list[str]:
        if (key, test_path) not in self._ref_acc:
            self._ref_acc[(key, test_path)] = ref.accuracy(model, ref.read_labeled(test_path))
        want, close = self._ref_acc[(key, test_path)]
        problems = []
        if abs(score - want) > close + 1e-12:
            problems.append(f"evaluate_model gave {score} on {test_path.name}, reference {want}")
        if want < MIN_ACCURACY:
            problems.append(f"reference accuracy {want} is not well above chance")
        return problems

    def check_round_trip(self, model, path: Path) -> list[str]:
        """load(save(m)) must write the bytes of the file it was loaded from."""
        again = path.with_suffix(".again")
        pipeline.save_model(model, again)
        same = digest(again) == digest(path)
        again.unlink()
        return [] if same else [f"load(save(m)) of {path.name} wrote different bytes"]

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, setup_s: list[float]) -> dict[str, float]:
        """The end-to-end metrics; peak_rss_mb is this process's peak, and
        this process does no set-up."""
        predict = self.samples["predict_s"]
        return {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": self.timed_ops / self.timed_cpu_s,
            "predict_us": statistics.median(predict) * 1e6,
            "predict_p99_us": statistics.quantiles(predict, n=100)[98] * 1e6,
            "load_s": statistics.median(self.samples["load_s"]),
            "model_file_mb": statistics.median(self.file_sizes) / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def info(self) -> dict[str, float]:
        """Figures that are printed but not gated."""
        out = {
            "rounds": self.rounds,
            "timed_s": self.timed_s,
            "timed_cpu_s": self.timed_cpu_s,
            "predict_samples": len(self.samples["predict_s"]),
        }
        if self.samples["train_s"]:
            out["train_s"] = statistics.median(self.samples["train_s"])
        return out


def pair_loss(encoder: ref.Encoder, pair_set) -> float:
    """Mean (cos - target)^2 over a PairSet, computed by the reference."""
    terms = [
        (ref.cosine(encoder.embed(p.first), encoder.embed(p.second)) - p.target) ** 2
        for p in pair_set.pairs
    ]
    return sum(terms) / len(terms)


def table_encoder(params) -> ref.Encoder:
    return ref.Encoder(
        lambda b: params.table[b].tolist(), params.vocab_buckets, params.hash_seed, params.max_len
    )


def loss_drops(before, pair_set, after) -> list[str]:
    lb = pair_loss(table_encoder(before), pair_set)
    la = pair_loss(table_encoder(after), pair_set)
    return [] if la < lb else [f"pair loss rose in fine-tuning: {lb} -> {la}"]


def intercept(module, name: str, make) -> None:
    """Replace module.name with make(original)."""
    original = getattr(module, name)
    wrapper = make(original)
    wrapper.__wrapped__ = original
    setattr(module, name, wrapper)


class Workload:
    """Set-up, recorders, one round of operations, and checks after the run."""

    def __init__(self, run: Run, seed: int) -> None:
        self.run = run
        self.seed = seed
        self.warming = False
        #: problems of each fine-tuning in the warm-up round, in call order
        self.loss_problems: list[list[str]] = []

    def inputs(self) -> None:
        """Make the seed's in-memory inputs; cheap, and the same every time."""

    def setup(self) -> list[Path]:
        """Make the inputs and write the files the timed phase reads."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Read the set-up's files and install the recorders."""

    def round(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run; none by default."""

    def check_fine_tuning(self) -> None:
        """Check the pair loss of every fine-tuning in the warm-up round.

        Later rounds repeat the same fits and must write the same files, so
        the warm-up's result holds for them. Checking at once, rather than
        after the round, keeps no table alive that the program has freed.
        """

        def make(original):
            def finetune(params, pairs, config):
                out = original(params, pairs, config)
                if self.warming:
                    self.loss_problems.append(self.run.check(loss_drops, params, pairs, out))
                return out

            return finetune

        intercept(pipeline, "finetune", make)


class Sweep(Workload):
    """harness.run_experiment at 8 and 64 per class, 2 splits each, per round.

    One operation is one split: its fit and evaluation inside run_experiment,
    saving the fitted model, loading it LOADS times and PROBE_TEXTS
    single-text predictions with the loaded model. The model is saved as
    soon as fit returns it, so no model outlives the program's own use of
    it. Every round repeats the same splits, so each model file must be
    byte-identical to the one of the same split in the first round.
    """

    N_PER_CLASS = (8, 64)
    SPLITS = 2
    #: a split's first load takes about twice its third (the process reuses
    #: freed memory from the second on), so a load_s sample is the mean of 3
    LOADS = 3
    PROBE_TEXTS = 300

    def inputs(self) -> None:
        self.train, self.test = synthetic.make_corpus(**CORPUS, seed=sub_seed(self.seed, 0))
        rng = random.Random(f"sweep-probe:{self.seed}")
        self.probe = mixed_texts(rng, class_words(self.train), self.PROBE_TEXTS)
        self.train_path = self.run.dir / "train.jsonl"
        self.test_path = self.run.dir / "test.jsonl"

    def setup(self) -> list[Path]:
        self.inputs()
        write_jsonl(self.train, self.train_path)
        write_jsonl(self.test, self.test_path)
        return [self.train_path, self.test_path]

    def prepare(self) -> None:
        self.saved: list[Path] = []
        self.first_digest: dict[Path, str] = {}
        run = self.run

        def saving_fit(original):
            def fit(split, config):
                start = cpu_clock()
                model = original(split, config)
                run.samples["train_s"].append(cpu_clock() - start)
                path = run.dir / f"split-{self.n}-{len(self.saved)}.bin"
                pipeline.save_model(model, path)
                self.saved.append(path)
                return model

            return fit

        self.check_fine_tuning()
        intercept(harness, "fit", saving_fit)

    def round(self) -> None:
        run = self.run
        for n in self.N_PER_CLASS:
            self.n = n  # names the files that fit saves
            self.saved.clear()
            config = harness.ExperimentConfig(
                train_path=str(self.train_path),
                test_path=str(self.test_path),
                n_per_class=n,
                n_splits=self.SPLITS,
                base_seed=sub_seed(self.seed, 1),
            )
            try:
                report = run.timed(None, harness.run_experiment, config)
            except Exception:
                run.outcome([traceback.format_exc()], ops=self.SPLITS)
                continue
            for i, path in enumerate(self.saved):
                fit_no = self.N_PER_CLASS.index(n) * self.SPLITS + i
                self.use_split(fit_no, path, report.scores[i])

    def use_split(self, fit_no: int, path: Path, score: float) -> None:
        """Load a split's model and predict with it; in a method of its own,
        so that the model is freed before the next fit."""
        run = self.run
        try:
            loaded = run.loads(path, self.LOADS)
            probs = run.predict_all(loaded, self.probe)
        except Exception:
            run.outcome([traceback.format_exc()])
            return
        run.outcome(run.check(self.check, fit_no, loaded, path, score, probs))

    def check(self, fit_no: int, loaded, path: Path, score: float, probs) -> list[str]:
        run = self.run
        run.file_sizes.append(path.stat().st_size)
        key, model_ref = run.reference(path)
        problems = run.check_round_trip(loaded, path)
        if self.first_digest.setdefault(path, key) != key:
            problems.append(f"{path.name}: same seed, different model file")
        problems += run.check_score(key, model_ref, self.test_path, score)
        problems += run.check_probs(run.probe_wants(key, model_ref, self.probe), self.probe, probs)
        return problems + self.loss_problems[fit_no]


class Serve(Workload):
    """A closed-loop client classifying single texts with a loaded model.

    Each round loads the model file, serves REQUESTS fresh texts one at a
    time, evaluates the 500-text test set, and then evaluates the same rows
    sorted so that labels first appear in reverse order. The program scores
    that last evaluation against permuted label indices (a known fault): it
    is counted as attempted and failed, and its time is kept out of every
    metric. The model, the test set and the fault's inputs do not depend on
    the seed; the requests do, and no request repeats an earlier one.
    """

    REQUESTS = 2000
    FIXED_SEED = 20220922

    def inputs(self) -> None:
        self.train, self.test_set = synthetic.make_corpus(**CORPUS, seed=self.FIXED_SEED)
        self.words = class_words(self.train)
        self.model_path = self.run.dir / "serve.bin"
        self.test_path = self.run.dir / "test.jsonl"
        self.reversed_path = self.run.dir / "test-reversed.jsonl"

    def setup(self) -> list[Path]:
        self.inputs()
        split = corpus.sample_few_shot(self.train, 16, self.FIXED_SEED)
        model = pipeline.fit(split, pipeline.FitConfig(seed=self.FIXED_SEED))
        pipeline.save_model(model, self.model_path)
        write_jsonl(self.test_set, self.test_path)
        rows = sorted(self.test_set.examples, key=lambda ex: -ex.label)
        write_jsonl(corpus.Dataset(tuple(rows), self.test_set.label_names), self.reversed_path)
        return [self.model_path, self.test_path, self.reversed_path]

    def prepare(self) -> None:
        self.round_no = 0
        self.test = corpus.load_dataset(self.test_path)
        with self.run.checking():
            self.key, self.model_ref = self.run.reference(self.model_path)
        self.run.file_sizes.append(self.model_path.stat().st_size)

    def round(self) -> None:
        run = self.run
        rng = random.Random(f"serve-stream:{self.seed}:{self.round_no}")
        texts = mixed_texts(rng, self.words, self.REQUESTS)
        self.round_no += 1
        try:
            model = run.timed("load_s", pipeline.load_model, self.model_path)
            probs = run.predict_all(model, texts)
            score = run.timed(None, harness.evaluate_model, model, self.test, "accuracy")
        except Exception:
            run.outcome([traceback.format_exc()], ops=self.REQUESTS + 2)
            run.outcome(["round aborted before the reordered evaluation"], known_fault=True)
            return

        def fault() -> list[str]:
            reordered = corpus.load_dataset(self.reversed_path)
            fault_score = harness.evaluate_model(model, reordered, "accuracy")
            return run.check_score(self.key, self.model_ref, self.reversed_path, fault_score)

        run.outcome([])  # the load: its output is checked through the predictions
        for text, p in zip(texts, probs):
            run.outcome(run.check(self.check_request, text, p))
        run.outcome(run.check(run.check_score, self.key, self.model_ref, self.test_path, score))
        run.outcome(run.check(fault), known_fault=True)

    def check_request(self, text: str, probs) -> list[str]:
        """Requests are never repeated, so their reference is not kept."""
        return self.run.check_probs([self.model_ref.proba(text)], [text], [probs])


class Distill(Workload):
    """distill.distill into an 8192x32 student, then save, load and evaluate.

    The teacher (default size, 8 per class) is trained in set-up and loaded
    from its file. One operation is one distillation with PAIRS
    teacher-scored unlabeled pairs and a soft-target pool of POOL texts,
    saving the student, loading it LOADS times (one load of a 1 MB file is
    too short to time alone), evaluating it on the 500-text test set and
    classifying PROBE_TEXTS single texts with it. A round distills STUDENTS
    students with different seeds, because the head's iteration count, and
    with it the time of one distillation, varies by about 10 % from seed to
    seed.
    """

    PAIRS = 400
    POOL = 448  # with 32 labeled rows the head trains on 15x as many rows
    LOADS = 10
    PROBE_TEXTS = 300
    STUDENTS = 4
    STUDENT = pipeline.EncoderConfig(vocab_buckets=8192, dim=32)

    def inputs(self) -> None:
        train, self.test = synthetic.make_corpus(**CORPUS, seed=sub_seed(self.seed, 0))
        self.labeled = corpus.sample_few_shot(train, 8, sub_seed(self.seed, 1))
        self.pool = synthetic.make_unlabeled_pool(
            self.POOL,
            **{k: v for k, v in CORPUS.items() if k not in ("train_per_class", "test_size")},
            seed=sub_seed(self.seed, 3),
        )
        self.configs = [
            distill.DistillConfig(
                student=pipeline.FitConfig(encoder=self.STUDENT, seed=sub_seed(self.seed, 10 + k)),
                pair_count=self.PAIRS,
            )
            for k in range(self.STUDENTS)
        ]
        rng = random.Random(f"distill-probe:{self.seed}")
        self.probe = mixed_texts(rng, class_words(train), self.PROBE_TEXTS)
        self.teacher_path = self.run.dir / "teacher.bin"
        self.test_path = self.run.dir / "test.jsonl"

    def setup(self) -> list[Path]:
        self.inputs()
        teacher = pipeline.fit(self.labeled, pipeline.FitConfig(seed=sub_seed(self.seed, 2)))
        pipeline.save_model(teacher, self.teacher_path)
        write_jsonl(self.test, self.test_path)
        return [self.teacher_path, self.test_path]

    def prepare(self) -> None:
        self.similarities: list[tuple] = []
        self.first_digest: dict[int, str] = {}
        self.ref_cos: dict[tuple[str, str], float] = {}
        self.teacher = pipeline.load_model(self.teacher_path)
        with self.run.checking():
            _, self.teacher_ref = self.run.reference(self.teacher_path)

        def recording_similarities(original):
            def teacher_similarities(teacher, text_pairs):
                sims = original(teacher, text_pairs)
                self.similarities.append((text_pairs, sims))
                return sims

            return teacher_similarities

        self.check_fine_tuning()
        intercept(distill, "teacher_similarities", recording_similarities)

    def round(self) -> None:
        run = self.run
        for k, config in enumerate(self.configs):
            self.similarities.clear()
            path = run.dir / f"student-{k}.bin"
            try:
                student = run.timed(
                    "train_s", distill.distill, self.teacher, self.labeled, self.pool, config
                )
                run.timed(None, pipeline.save_model, student, path)
                loaded = run.loads(path, self.LOADS)
                score = run.timed(None, harness.evaluate_model, loaded, self.test, "accuracy")
                probs = run.predict_all(loaded, self.probe)
            except Exception:
                run.outcome([traceback.format_exc()])
                continue
            run.outcome(run.check(self.check, k, loaded, path, score, probs))

    def check(self, k: int, loaded, path: Path, score: float, probs) -> list[str]:
        run = self.run
        run.file_sizes.append(path.stat().st_size)
        key, student_ref = run.reference(path)
        problems = run.check_round_trip(loaded, path)
        if self.first_digest.setdefault(k, key) != key:
            problems.append(f"student {k}: same seed, different student file")
        problems += run.check_score(key, student_ref, self.test_path, score)
        problems += run.check_probs(
            run.probe_wants(key, student_ref, self.probe), self.probe, probs
        )
        ((text_pairs, sims),) = self.similarities
        if len(sims) != self.PAIRS:
            problems.append(f"{len(sims)} teacher-scored pairs, asked for {self.PAIRS}")
        teacher = self.teacher_ref.encoder
        for (a, b), sim in zip(text_pairs, sims):
            want = self.ref_cos.get((a, b))
            if want is None:
                want = self.ref_cos[(a, b)] = ref.cosine(teacher.embed(a), teacher.embed(b))
            if abs(sim.target - want) > ref.PROB_TOL:
                problems.append(f"teacher similarity {sim.target} != reference cosine {want}")
                break
        return problems + self.loss_problems[k]

    def finish(self) -> None:
        """distill() with no unlabeled data must equal fit() bit for bit."""

        def same_as_fit() -> list[str]:
            student = self.configs[0].student
            plain = self.run.dir / "plain.bin"
            empty = self.run.dir / "empty.bin"
            pipeline.save_model(pipeline.fit(self.labeled, student), plain)
            no_data = replace(self.configs[0], pair_count=0)
            pipeline.save_model(distill.distill(self.teacher, self.labeled, [], no_data), empty)
            if digest(plain) != digest(empty):
                return ["distill with no unlabeled data differs from fit"]
            return []

        for problem in self.run.check(same_as_fit):
            # every operation ran the distill path that broke this property
            self.run.fail_all(problem)


WORKLOADS = {"sweep": Sweep, "serve": Serve, "distill": Distill}

#: one set-up process repeats the set-up at least SETUP_REPEATS times and
#: until the repeats total SETUP_TOTAL_S, so that setup_s is a median of
#: short set-ups too
SETUP_REPEATS = 2
SETUP_TOTAL_S = 2.5


def set_up(name: str, seed: int, workdir: Path) -> tuple[list[float], set[tuple[str, ...]]]:
    """Set-up times of the repeats, and the digests of the files each wrote.
    The files of the last repeat stay in workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](Run(workdir, None), seed)
    times, digests = [], set()
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_TOTAL_S:
        start = cpu_clock()
        files = workload.setup()
        times.append(cpu_clock() - start)
        digests.add(tuple(digest(f) for f in files))
    return times, digests


def run(name: str, seed: int, seconds: float, workdir: Path, tracer, set_up_in_child) -> dict:
    """One run of one workload. set_up_in_child(dir) runs `set_up` in a
    process of its own: before the timed phase into workdir, whose files the
    timed phase reads, and after it into a subdirectory, so that setup_s is
    sampled at both ends of the run."""
    times, digests = set_up_in_child(workdir)
    run = Run(workdir, tracer)
    workload = WORKLOADS[name](run, seed)
    workload.inputs()
    if tracer:
        tracer.install()
    workload.prepare()
    workload.warming = True
    workload.round()
    workload.warming = False
    run.restart_clock()
    while run.timed_s < seconds:
        workload.round()
        run.rounds += 1
    more_times, more_digests = set_up_in_child(workdir / "again")
    metrics = run.end_to_end(times + more_times)
    layers = tracer.layer_metrics() if tracer else None
    workload.finish()
    if len(digests | more_digests) != 1:
        run.fail_all("set-up repeated with the same seed wrote different files")
    return {
        "correct": run.unexpected == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "layers": layers,
        "info": run.info(),
        "problems": run.problems,
    }

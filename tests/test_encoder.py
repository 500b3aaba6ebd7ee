import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import dense_finetune, fresh_tokenize, naive_init

from deskfit import encoder
from deskfit.corpus import rng_from_seed
from deskfit.encoder import (
    EncoderParams,
    FinetuneConfig,
    cosine,
    encode,
    finetune,
    init_params,
    pair_loss,
    pair_loss_grad,
    tokenize,
)
from deskfit.errors import EmptyInput, InvalidConfig, ZeroNorm
from deskfit.pairs import PairSet, TrainPair


def small_params(vocab=8, dim=3, seed=0, max_len=256):
    return init_params(vocab, dim, max_len=max_len, hash_seed=7, init_seed=seed)


def fd_gradient(params, pair, rows, step=1e-5):
    """Central finite differences of pair_loss over the given table rows."""
    grad = {}
    for row in rows:
        g = np.zeros(params.dim)
        for col in range(params.dim):
            for sign in (+1, -1):
                table = params.table.copy()
                table[row, col] = np.float32(float(table[row, col]) + sign * step)
                shifted = EncoderParams(table, params.hash_seed, params.max_len)
                loss = pair_loss(shifted, pair)
                # use the realised float32 step so rounding cannot bias the quotient
                if sign > 0:
                    up, x_up = loss, float(table[row, col])
                else:
                    down, x_down = loss, float(table[row, col])
            g[col] = (up - down) / (x_up - x_down)
        grad[row] = g
    return grad


def test_fnv1a64_known_vectors():
    # published FNV-1a 64-bit reference values
    from deskfit.encoder import _fnv1a64

    assert _fnv1a64(b"") == 0xCBF29CE484222325
    assert _fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert _fnv1a64(b"foobar") == 0x85944171F73967E8


class TestTokenize:
    def test_two_alphanumeric_runs(self):
        assert len(tokenize(small_params(), "Hello, world")) == 2

    def test_empty_text(self):
        assert tokenize(small_params(), "") == []

    def test_punctuation_only(self):
        assert tokenize(small_params(), "!!! ... ---") == []

    def test_truncation_to_max_len(self):
        params = small_params(max_len=256)
        text = " ".join(f"tok{i}" for i in range(300))
        assert len(tokenize(params, text)) == 256

    def test_case_insensitive(self):
        params = small_params()
        assert tokenize(params, "Apple Pie") == tokenize(params, "apple pie")

    def test_underscore_splits(self):
        params = small_params()
        assert len(tokenize(params, "a_b")) == 2

    def test_hash_seed_changes_buckets(self):
        a = init_params(65536, 4, hash_seed=1, init_seed=0)
        b = init_params(65536, 4, hash_seed=2, init_seed=0)
        text = "some words to hash"
        assert tokenize(a, text) != tokenize(b, text)

    def test_ids_within_bucket_range(self):
        params = small_params(vocab=8)
        ids = tokenize(params, "the quick brown fox jumps over the lazy dog")
        assert all(0 <= i < 8 for i in ids)

    def test_each_distinct_token_hashed_once_per_params(self, monkeypatch):
        hashed = []
        fnv = encoder._fnv1a64
        monkeypatch.setattr(encoder, "_fnv1a64", lambda data: hashed.append(data) or fnv(data))
        params = small_params()
        for _ in range(3):
            tokenize(params, "the cat and THE dog")
        assert len(hashed) == 4
        tokenize(small_params(), "the")  # a new params object starts an empty memo
        assert len(hashed) == 5


_SHARED_WORDS = st.lists(st.sampled_from(["ant", "Bee", "cow", "dög", "eel_fox"]), max_size=6)


@settings(max_examples=100, deadline=None)
@given(
    texts=st.lists(st.text(max_size=30) | _SHARED_WORDS.map(" ".join), min_size=1, max_size=6),
    hash_seed=st.integers(0, 2**64 - 2),
    buckets=st.sampled_from([1, 7, 65536]),
    max_len=st.integers(1, 8),
    cap=st.sampled_from([1, 2, 5, encoder.MEMO_CAP]),
)
def test_tokenize_matches_unmemoised_oracle(texts, hash_seed, buckets, max_len, cap):
    # three objects that share tokens but differ in hash seed or bucket count
    params = [
        EncoderParams(np.zeros((n, 1), np.float32), seed, max_len)
        for n, seed in [(buckets, hash_seed), (buckets, hash_seed + 1), (buckets + 1, hash_seed)]
    ]
    with mock.patch.object(encoder, "MEMO_CAP", cap):
        for _ in range(2):  # the second pass reads the memo
            for text in texts:
                for p in params:
                    assert tokenize(p, text) == fresh_tokenize(p, text)
                    assert len(p._buckets) <= cap


class TestEncode:
    def test_single_token_is_its_row(self):
        params = small_params()
        ids = tokenize(params, "hello")
        np.testing.assert_array_equal(encode(params, "hello"), params.table[ids[0]].astype(np.float64))

    def test_two_tokens_mean(self):
        params = small_params(vocab=64)
        i, j = tokenize(params, "alpha beta")
        expected = (params.table[i].astype(np.float64) + params.table[j].astype(np.float64)) / 2
        np.testing.assert_allclose(encode(params, "alpha beta"), expected, rtol=1e-15)

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInput):
            encode(small_params(), "!!!")

    def test_order_invariant(self):
        params = small_params(vocab=64)
        np.testing.assert_array_equal(encode(params, "a b"), encode(params, "b a"))


class TestCosine:
    def test_identical_direction(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_known_value(self):
        # 1/sqrt(2), high-precision reference value
        got = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert abs(got - 0.7071067811865476) < 1e-8

    def test_symmetry_and_bounds(self):
        rng = rng_from_seed(5)
        for _ in range(200):
            u = rng.normal(size=6)
            v = rng.normal(size=6)
            c = cosine(u, v)
            assert -1.0 <= c <= 1.0
            assert c == cosine(v, u)
        u = rng.normal(size=6)
        assert cosine(u, u) == 1.0
        assert cosine(u, -u) == -1.0

    def test_zero_norm(self):
        with pytest.raises(ZeroNorm):
            cosine(np.zeros(3), np.ones(3))


class TestPairLoss:
    def test_identical_texts_target_one(self):
        assert pair_loss(small_params(), TrainPair("same text", "same text", 1.0)) == 0.0

    def test_orthogonal_embeddings(self):
        # craft a table with orthogonal rows for two known tokens
        params = small_params(vocab=16, dim=2)
        table = np.zeros((16, 2), dtype=np.float32)
        ia = tokenize(params, "aa")[0]
        ib = tokenize(params, "bb")[0]
        assert ia != ib
        table[ia] = [1.0, 0.0]
        table[ib] = [0.0, 1.0]
        params = EncoderParams(table, params.hash_seed, params.max_len)
        assert pair_loss(params, TrainPair("aa", "bb", 0.0)) == 0.0
        assert pair_loss(params, TrainPair("aa", "bb", 1.0)) == 1.0


class TestPairLossGrad:
    def test_identical_texts_zero_gradient(self):
        grad = pair_loss_grad(small_params(), TrainPair("abc def", "abc def", 1.0))
        for g in grad.values():
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_support_is_union_of_token_sets(self):
        params = small_params(vocab=4096, dim=3)
        pair = TrainPair("one two", "three four", 0.0)
        ids_a = set(tokenize(params, pair.first))
        ids_b = set(tokenize(params, pair.second))
        assert set(pair_loss_grad(params, pair)) == ids_a | ids_b

    def test_matches_finite_differences(self):
        rng = rng_from_seed(31337)
        words = ["ab", "cd", "ef", "gh", "ij", "kl", "mn", "op"]
        checked = 0
        for trial in range(120):
            vocab = int(rng.integers(4, 17))
            dim = int(rng.integers(2, 5))
            params = small_params(vocab=vocab, dim=dim, seed=trial)
            n_a = int(rng.integers(1, 5))
            n_b = int(rng.integers(1, 5))
            first = " ".join(words[int(rng.integers(len(words)))] for _ in range(n_a))
            second = first
            while second == first:  # the u = v stationary point is tested separately
                second = " ".join(words[int(rng.integers(len(words)))] for _ in range(n_b))
            target = float(rng.uniform(-1, 1))
            pair = TrainPair(first, second, target)
            analytic = pair_loss_grad(params, pair)
            numeric = fd_gradient(params, pair, sorted(analytic))
            for row, g in analytic.items():
                # the 1e-6 floor absorbs finite-difference truncation noise
                # where the true derivative vanishes
                scale = max(np.max(np.abs(g)), np.max(np.abs(numeric[row])), 1e-6)
                np.testing.assert_allclose(g, numeric[row], atol=1e-4 * scale)
            checked += 1
        assert checked == 120


class TestInitParams:
    def test_deterministic(self):
        a = init_params(32, 4, init_seed=9)
        b = init_params(32, 4, init_seed=9)
        np.testing.assert_array_equal(a.table, b.table)

    def test_range(self):
        params = init_params(256, 16, init_seed=1)
        assert float(params.table.min()) >= -0.05
        assert float(params.table.max()) <= 0.05

    def test_shape(self):
        assert init_params(65536, 64).table.size == 4_194_304

    def test_default_size_holds_one_table_of_memory(self):
        tracemalloc.start()
        try:
            params = init_params(init_seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= params.table.nbytes + 2**20


@settings(max_examples=40, deadline=None)
@given(
    vocab=st.integers(1, 3000),
    dim=st.integers(1, 300),
    seed=st.integers(0, 2**64 - 1),
    block=st.sampled_from([61, 300, encoder.INIT_BLOCK]),
)
@example(vocab=8192, dim=32, seed=2**63 + 5, block=encoder.INIT_BLOCK)
def test_init_params_matches_one_uniform_draw(vocab, dim, seed, block):
    # small blocks split rows, and one block may hold a few whole rows
    with mock.patch.object(encoder, "INIT_BLOCK", block):
        table = init_params(vocab, dim, init_seed=seed).table
    assert table.tobytes() == naive_init(vocab, dim, seed).tobytes()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_hash_seed_outside_64_bits_rejected(seed):
    with pytest.raises(InvalidConfig, match="hash_seed"):
        EncoderParams(np.zeros((4, 2), np.float32), seed)


class TestFinetune:
    def cfg(self, **kw):
        base = dict(learning_rate=1e-2, batch_size=4, epochs=1, seed=3)
        base.update(kw)
        return FinetuneConfig(**base)

    def disjoint_pairs(self, n=24):
        pos_a = [f"cat{i} cat{i+1}" for i in range(n // 4)]
        pos_b = [f"dog{i} dog{i+1}" for i in range(n // 4)]
        pairs = []
        for i in range(n // 4):
            pairs.append(TrainPair(pos_a[i], pos_a[(i + 1) % (n // 4)], 1.0))
            pairs.append(TrainPair(pos_b[i], pos_b[(i + 1) % (n // 4)], 1.0))
            pairs.append(TrainPair(pos_a[i], pos_b[i], 0.0))
            pairs.append(TrainPair(pos_b[i], pos_a[(i + 1) % (n // 4)], 0.0))
        return pairs

    def test_empty_pairset_returns_params_unchanged(self):
        params = small_params(vocab=32)
        out = finetune(params, PairSet((), 0, 2), self.cfg())
        np.testing.assert_array_equal(out.table, params.table)
        assert out is not params

    def test_stationary_pair_leaves_params_unchanged(self):
        params = small_params(vocab=32)
        out = finetune(params, [TrainPair("same words", "same words", 1.0)], self.cfg())
        np.testing.assert_array_equal(out.table, params.table)

    def test_zero_learning_rate_is_identity(self):
        params = small_params(vocab=64)
        out = finetune(params, self.disjoint_pairs(), self.cfg(learning_rate=0.0))
        np.testing.assert_array_equal(out.table, params.table)

    def test_zero_epochs_is_identity(self):
        params = small_params(vocab=64)
        out = finetune(params, self.disjoint_pairs(), self.cfg(epochs=0))
        np.testing.assert_array_equal(out.table, params.table)

    def test_mean_loss_decreases_after_one_epoch(self):
        params = init_params(512, 16, hash_seed=1, init_seed=4)
        pairs = self.disjoint_pairs(40)
        before = np.mean([pair_loss(params, p) for p in pairs])
        tuned = finetune(params, pairs, self.cfg())
        after = np.mean([pair_loss(tuned, p) for p in pairs])
        assert after < before

    def test_input_params_never_mutated(self):
        params = small_params(vocab=64)
        snapshot = params.table.copy()
        finetune(params, self.disjoint_pairs(), self.cfg())
        np.testing.assert_array_equal(params.table, snapshot)

    def test_deterministic(self):
        params = small_params(vocab=64)
        a = finetune(params, self.disjoint_pairs(), self.cfg())
        b = finetune(params, self.disjoint_pairs(), self.cfg())
        np.testing.assert_array_equal(a.table, b.table)

    def test_empty_input_reports_pair_index(self):
        params = small_params(vocab=64)
        pairs = [TrainPair("fine here", "also fine", 1.0), TrainPair("ok", "!!!", 0.0)]
        with pytest.raises(EmptyInput, match="pair 1"):
            finetune(params, pairs, self.cfg())


_WORDS = st.sampled_from(["ant", "bee", "cow", "dog", "eel", "fox", "gnu"])
_SENTENCES = st.lists(_WORDS, min_size=1, max_size=6).map(" ".join)
_PAIRS = st.lists(
    st.builds(TrainPair, _SENTENCES, _SENTENCES, st.sampled_from([-0.5, 0.0, 0.3, 1.0])),
    min_size=1,
    max_size=10,
)


@st.composite
def _finetune_cases(draw):
    pairs = draw(_PAIRS)
    config = FinetuneConfig(
        learning_rate=draw(st.sampled_from([0.0, 1e-3, 0.05])),
        batch_size=draw(st.integers(1, len(pairs) + 2)),
        epochs=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
    )
    params = init_params(
        draw(st.sampled_from([4, 16, 256])),
        draw(st.integers(2, 5)),
        hash_seed=draw(st.integers(0, 2**16)),
        init_seed=draw(st.integers(0, 2**16)),
    )
    return params, pairs, config


@settings(max_examples=60, deadline=None)
@given(_finetune_cases())
@example(  # a token repeated within a sentence and shared with its partner
    (
        init_params(256, 3, hash_seed=1, init_seed=2),
        [TrainPair("ant ant bee", "bee cow", 0.0), TrainPair("dog", "dog eel dog", 1.0)],
        FinetuneConfig(learning_rate=0.05, batch_size=1, epochs=3, seed=5),
    )
)
def test_finetune_matches_dense_adam_bit_for_bit(case):
    params, pairs, config = case
    out = finetune(params, pairs, config)
    assert out.table.tobytes() == dense_finetune(params, pairs, config).tobytes()

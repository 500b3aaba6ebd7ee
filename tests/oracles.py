"""Independent brute-force oracles used by the unit and acceptance tests.

Everything here is deliberately plain Python (no numpy code paths shared
with the implementation under test), except naive_init and dense_finetune,
which must match encoder.init_params and encoder.finetune bit for bit and so
share their generator, tokenizer and per-pair gradient terms.
"""

import math
import re

import numpy as np

from deskfit.corpus import rng_from_seed
from deskfit.encoder import _pair_terms, tokenize
from deskfit.optim import BETA1, BETA2, EPS


def oracle_accuracy(pred, gold):
    return sum(1 for p, g in zip(pred, gold) if p == g) / len(pred)


def oracle_mcc(pred, gold):
    """Phi coefficient: Pearson correlation of the two binary vectors."""
    n = len(pred)
    mp = sum(pred) / n
    mg = sum(gold) / n
    cov = sum((p - mp) * (g - mg) for p, g in zip(pred, gold)) / n
    vp = sum((p - mp) ** 2 for p in pred) / n
    vg = sum((g - mg) ** 2 for g in gold) / n
    if vp == 0 or vg == 0:
        return 0.0
    return cov / math.sqrt(vp * vg)


def oracle_mae_x100(pred, gold):
    return 100.0 * sum(abs(p - g) for p, g in zip(pred, gold)) / len(pred)


def oracle_average_precision(scores, gold):
    """Recompute precision and recall from scratch at every distinct threshold."""
    n_pos = sum(gold)
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        selected = [g for s, g in zip(scores, gold) if s >= t]
        tp = sum(selected)
        precision = tp / len(selected)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def fresh_tokenize(params, text):
    """Bucket ids of a text with every token hashed anew: no memo.

    Lowercase, split into maximal runs of Unicode alphanumerics (underscore
    excluded), keep the first max_len, then 64-bit FNV-1a over the 8
    little-endian bytes of the hash seed and the token's UTF-8 bytes.
    """
    ids = []
    for token in re.findall(r"[^\W_]+", text.lower())[: params.max_len]:
        h = 0xCBF29CE484222325
        for byte in params.hash_seed.to_bytes(8, "little") + token.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) % 2**64
        ids.append(h % params.vocab_buckets)
    return ids


def naive_init(vocab_buckets, dim, init_seed):
    """The init table as one uniform draw over the whole shape, cast to float32."""
    rng = rng_from_seed(init_seed)
    return rng.uniform(-0.05, 0.05, size=(vocab_buckets, dim)).astype(np.float32)


def dense_finetune(params, pairs, config):
    """Fine-tuning with Adam over every row of the table, as float64 arrays.

    Same shuffle stream, batch order and accumulation order as
    encoder.finetune; every row gets an Adam step, touched or not.
    """
    tokenized = [(tokenize(params, p.first), tokenize(params, p.second)) for p in pairs]
    table = params.table.astype(np.float64)
    m = np.zeros_like(table)
    v = np.zeros_like(table)
    t = 0
    rng = rng_from_seed(config.seed)
    for _ in range(config.epochs):
        order = rng.permutation(len(pairs))
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grad = np.zeros_like(table)
            for k in batch:
                ids_a, ids_b = tokenized[k]
                _, grad_u, grad_v = _pair_terms(table, ids_a, ids_b, pairs[k].target)
                np.add.at(grad, ids_a, grad_u / len(ids_a))
                np.add.at(grad, ids_b, grad_v / len(ids_b))
            grad /= len(batch)
            t += 1
            m = BETA1 * m + (1.0 - BETA1) * grad
            v = BETA2 * v + (1.0 - BETA2) * (grad * grad)
            m_hat = m / (1.0 - BETA1**t)
            v_hat = v / (1.0 - BETA2**t)
            table += -config.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
    return table.astype(np.float32)

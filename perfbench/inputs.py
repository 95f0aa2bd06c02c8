"""Seeded benchmark inputs: corpora, ciphertext populations, input properties.

Plaintext comes from ``tests/english_corpus.py``, so nothing is downloaded.
The same workload seed always yields the same corpus and the same texts.
"""

from __future__ import annotations

import math
import random
import re
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "tests", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from english_corpus import document_text, write_corpus  # noqa: E402

# Acceptance criterion 6: 200 documents of 100k letters from corpus seed 606,
# dataset and training seed 606, quota 125 per length.
EXPERIMENT_SEED = 606
EXPERIMENT_DOCS = 200
EXPERIMENT_LETTERS = 100_000
EXPERIMENT_QUOTA = 125

# predict_long's model: a small FINAL model built with the code under test
# from its own corpus seed.  Predict plaintext comes from the two-word
# seed [seed, _POOL_STREAM], which no corpus seed reproduces.
MODEL_SEED = 4040
MODEL_DOCS = 20
MODEL_LETTERS = 100_000
MODEL_QUOTA = 10
_POOL_STREAM = 0x5EED

POPULATION = 1000
LONG_LOW_ENTROPY_SHARE = 0.10
# Repeated phrases use a prime period above the largest key length, so the
# ciphertext period is always phrase length times key length.
_PHRASE_PRIMES = [p for p in range(41, 152) if all(p % d for d in range(2, 13))]
_SHORT_ALPHABET = "ETAOINSH"

# Kasiski tallies repeated 3- and 4-grams (analysis.KASISKI_NGRAM_SIZES).
_NGRAM_SIZES = (3, 4)

LENGTH_BIN_EDGES = (200, 300, 400, 501, 1000, 2000, 5000, 10000, 20001)


def write_experiment_corpus(directory: Path) -> int:
    return write_corpus(directory, EXPERIMENT_DOCS, EXPERIMENT_LETTERS, EXPERIMENT_SEED)


def write_model_corpus(directory: Path) -> int:
    return write_corpus(directory, MODEL_DOCS, MODEL_LETTERS, MODEL_SEED)


def group_letters(letters: str) -> str:
    """Classic cipher layout: blocks of five, twelve blocks per line."""
    blocks = [letters[i : i + 5] for i in range(0, len(letters), 5)]
    lines = [" ".join(blocks[i : i + 12]) for i in range(0, len(blocks), 12)]
    return "\n".join(lines) + "\n"


def long_texts(seed: int) -> list[dict]:
    """POPULATION ciphertexts of 1,000..20,000 letters, in processing order.

    Lengths are log-uniform and stratified.  LONG_LOW_ENTROPY_SHARE of the
    texts, spread evenly over the length range, are low-entropy: half repeat
    an English phrase, half draw i.i.d. letters from a 4-8 letter alphabet.

    Key lengths and low-entropy parameters follow a fixed pattern over the
    length ranks.  Two seeds then draw different plaintexts, keys and
    processing orders, but the same spread of lengths, key lengths and
    low-entropy cost, which keeps the latency tail of one seed comparable
    with the next.
    """
    rng = random.Random(f"predict_long:{seed}")
    n = POPULATION
    lo, hi = 1000, 20000
    lengths = [
        min(hi, round(math.exp(math.log(lo) + (i + rng.random()) / n * math.log(hi / lo))))
        for i in range(n)
    ]
    # Rank r gets key length 3 + (10 r mod 23): every stretch of 23 ranks
    # holds each key length 3..25 once.
    keys = [3 + (10 * rank) % 23 for rank in range(n)]
    kinds = ["english"] * n
    step = round(1 / LONG_LOW_ENTROPY_SHARE)
    for j, rank in enumerate(range(step // 2, n, step)):
        kinds[rank] = "phrase" if j % 2 == 0 else "short_alphabet"

    raw_pool = document_text(np.random.default_rng([seed, _POOL_STREAM]), 3_000_000)
    pool = re.sub("[^A-Z]+", "", raw_pool.upper())
    texts = []
    for rank, (length, k, kind) in enumerate(zip(lengths, keys, kinds)):
        if kind == "english":
            start = rng.randrange(len(pool) - length)
            plain = pool[start : start + length]
        elif kind == "phrase":
            period = _PHRASE_PRIMES[(rank // 20) % len(_PHRASE_PRIMES)]
            start = rng.randrange(len(pool) - period)
            plain = (pool[start : start + period] * (length // period + 1))[:length]
        else:
            alphabet = _SHORT_ALPHABET[: 4 + (rank // 20) % 5]
            plain = "".join(rng.choice(alphabet) for _ in range(length))
        texts.append(
            {"raw": group_letters(_encrypt(plain, _key(rng, k))), "key_length": k, "kind": kind}
        )
    rng.shuffle(texts)
    return texts


def _key(rng: random.Random, k: int) -> list[int]:
    """k random shifts that do not repeat a shorter block, so k is the period."""
    while True:
        key = [rng.randrange(26) for _ in range(k)]
        if all(key != key[:d] * (k // d) for d in range(1, k) if k % d == 0):
            return key


def _encrypt(plain: str, key: list[int]) -> str:
    """Vigenere encryption, A=0..Z=25.

    The benchmark enciphers its own inputs, so the texts do not change when
    the code under test changes how it generates keys or encrypts.
    """
    letters = np.frombuffer(plain.encode("ascii"), dtype=np.uint8) - 65
    shifts = np.resize(np.array(key, dtype=np.uint8), letters.size)
    return ((letters + shifts) % 26 + 65).astype(np.uint8).tobytes().decode("ascii")


def kasiski_pairs(letters: str) -> int:
    """Occurrence pairs of every repeated 3- and 4-gram: the work Kasiski tallies."""
    codes = np.frombuffer(letters.encode("ascii"), dtype=np.uint8).astype(np.int64) - 65
    total = 0
    for n in _NGRAM_SIZES:
        if codes.size < n:
            continue
        gram = np.zeros(codes.size - n + 1, dtype=np.int64)
        for i in range(n):
            gram = gram * 26 + codes[i : codes.size - n + 1 + i]
        counts = np.bincount(gram)
        total += int((counts * (counts - 1) // 2).sum())
    return total


def input_properties(letters: list[str], kinds: list[str]) -> dict:
    """Length histogram, long and low-entropy shares, Kasiski pair quartiles."""
    lengths = [len(t) for t in letters]
    hist = {}
    for lo, hi in zip(LENGTH_BIN_EDGES, LENGTH_BIN_EDGES[1:]):
        hist[f"{lo}-{hi - 1}"] = sum(lo <= n < hi for n in lengths)
    pairs = [kasiski_pairs(t) for t in letters]
    q1, median, q3 = statistics.quantiles(pairs, n=4)
    return {
        "texts": len(letters),
        "length_histogram": hist,
        "share_over_500_letters": sum(n > 500 for n in lengths) / len(lengths),
        "low_entropy_share": sum(k != "english" for k in kinds) / len(kinds),
        "kasiski_pairs_per_text": {
            "q1": q1,
            "median": median,
            "q3": q3,
            "mean": statistics.fmean(pairs),
        },
    }

"""Seeded inputs: the webtext Parquet fixture, its url-hash shard split,
and the query / request mixes.

Everything here is a pure function of ``--seed``.  The fixture rows come
from ``engine.fixtures.gen_webtext`` (~2% duplicate urls, en/de/fr/ja,
Zipf vocabulary); query terms are drawn from the fixture's own ground-
truth token statistics (the oracle corpus), never from engine state.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

# Rows of the raw fixture (before the ~2% duplicate rows are appended).
N_ROWS = 3000
DUP_RATE = 0.02
N_FILES = 4          # parquet files per input dir: parallel read tasks
N_DOC_SHARDS = 2     # url-hash shards of the doc-sharded serving tier
KEEP_FIXTURES = 6    # cached seeds kept on disk (~12 MB each)
LANGS = ("en", "de", "fr", "ja")

# Query mix of one round (in-process workloads): counts per shape.
N_BM25 = 400         # 1-4 Zipf terms each
N_PHRASE = 192       # 2-token phrases taken from fixture text
WEIGHTED_SIZES = (8, 16, 32)
N_WEIGHTED_EACH = 32
# Request mix of one round per serving tier: requests per shape.
REQ_SHAPES = ("plain", "total", "snippets", "lang", "weights", "facet")
N_REQ_EACH = 20
K = 10
ZIPF_S = 1.1


def url_shard(urls, n: int = N_DOC_SHARDS) -> np.ndarray:
    """Doc-shard of each url: SipHash-64 of the url (pandas' fixed key,
    the engine's documented doc-id hash) modulo the shard count, so a
    url's duplicates land on one shard."""
    h = pd.util.hash_array(np.asarray(urls, dtype=object), categorize=False)
    return (h % np.uint64(n)).astype(np.int64)


def _write_dir(table: pa.Table, out_dir: str) -> None:
    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    per = -(-table.num_rows // N_FILES)
    for i in range(N_FILES):
        chunk = table.slice(i * per, per)
        if chunk.num_rows:
            pq.write_table(chunk, os.path.join(tmp, f"part-{i}.parquet"))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp, out_dir)


def _evict(root: str) -> None:
    """Keep the newest KEEP_FIXTURES - 1 cached fixtures."""
    if not os.path.isdir(root):
        return
    dirs = sorted((os.path.join(root, d) for d in os.listdir(root)),
                  key=os.path.getmtime)
    for d in dirs[:max(0, len(dirs) - (KEEP_FIXTURES - 1))]:
        shutil.rmtree(d, ignore_errors=True)


def make_fixture(root: str, seed: int) -> dict:
    """-> {"all": dir, "shards": [dir, ...]} of parquet inputs for
    ``seed``, generated once per (seed, size) and cached under ``root``
    (the raw rows are a pure function of the seed)."""
    base = os.path.join(root, f"webtext-s{seed}-n{N_ROWS}")
    out = {"all": os.path.join(base, "all"),
           "shards": [os.path.join(base, f"shard-{i}")
                      for i in range(N_DOC_SHARDS)]}
    done = os.path.join(base, "_DONE")
    if os.path.exists(done):
        return out
    _evict(root)
    from engine.fixtures import gen_webtext
    table = gen_webtext(N_ROWS, seed=seed, dup_rate=DUP_RATE)
    os.makedirs(base, exist_ok=True)
    _write_dir(table, out["all"])
    shard = url_shard(table.column("url").to_pylist())
    for i, d in enumerate(out["shards"]):
        _write_dir(table.filter(pa.array(shard == i)), d)
    with open(done, "w") as f:
        f.write(f"seed={seed} rows={N_ROWS}\n")
    return out


def _zipf_pick(rng: np.random.Generator, vocab: list[str],
               n: int) -> list[str]:
    p = 1.0 / np.arange(1, len(vocab) + 1) ** ZIPF_S
    return [vocab[i] for i in rng.choice(len(vocab), size=n, p=p / p.sum())]


def make_query_mix(seed: int, corpus) -> dict:
    """One round of the in-process query mix.

    ``corpus`` is the oracle corpus (its ``vocab_by_cf`` ranks terms by
    collection frequency, its ``tokens`` are the docs' token lists).
    BM25 queries draw 1-4 distinct terms by Zipf rank, so stopwords
    and mid-frequency terms both occur; phrases are adjacent token
    pairs of random fixture docs, so each has at least one hit;
    weighted queries are 8/16/32 Zipf terms with weights in [0.1, 2]."""
    rng = np.random.default_rng([seed, 7001])
    vocab = corpus.vocab_by_cf
    bm25 = []
    for _ in range(N_BM25):
        n = int(rng.integers(1, 5))
        terms = list(dict.fromkeys(_zipf_pick(rng, vocab, n)))
        bm25.append(" ".join(terms))
    phrase = []
    while len(phrase) < N_PHRASE:
        toks = corpus.tokens[int(rng.integers(0, len(corpus.tokens)))]
        if len(toks) < 2:
            continue
        i = int(rng.integers(0, len(toks) - 1))
        if toks[i] != toks[i + 1]:
            phrase.append(f"{toks[i]} {toks[i + 1]}")
    weighted = []
    for size in WEIGHTED_SIZES:
        for _ in range(N_WEIGHTED_EACH):
            terms = []
            while len(terms) < size:
                for t in _zipf_pick(rng, vocab, size):
                    if t not in terms and len(terms) < size:
                        terms.append(t)
            w = np.round(rng.uniform(0.1, 2.0, size=size), 3)
            weighted.append({t: float(x) for t, x in zip(terms, w)})
    return {"bm25": bm25, "phrase": phrase, "weighted": weighted}


def make_request_mix(seed: int, corpus) -> list[dict]:
    """One round of ``/v1/search`` bodies per serving tier: every shape
    of REQ_SHAPES, N_REQ_EACH times, in a seeded interleaved order."""
    rng = np.random.default_rng([seed, 7002])
    vocab = corpus.vocab_by_cf
    reqs = []
    for shape in REQ_SHAPES:
        for _ in range(N_REQ_EACH):
            n = int(rng.integers(1, 4))
            q = " ".join(dict.fromkeys(_zipf_pick(rng, vocab, n)))
            if shape == "plain":
                body = {"query": q, "k": K}
            elif shape == "total":
                body = {"query": q, "k": K, "with_total": True}
            elif shape == "snippets":
                body = {"query": q, "k": K, "snippets": True}
            elif shape == "lang":
                lang = LANGS[int(rng.integers(0, len(LANGS)))]
                body = {"query": q, "k": K,
                        "filter": {"col": "lang", "values": [lang]}}
            elif shape == "weights":
                terms = list(dict.fromkeys(_zipf_pick(rng, vocab, 8)))
                w = np.round(rng.uniform(0.1, 2.0, size=len(terms)), 3)
                body = {"weights": {t: float(x) for t, x in zip(terms, w)},
                        "k": K}
            else:
                body = {"query": q, "k": K, "facet": "lang"}
            reqs.append({"shape": shape, "body": body})
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]

"""Brute-force BM25 oracle (FIXTURES.md §4): BM25 over raw token
counts, with no index — the reference the frozen top-k fixtures
(tests/gen_fixtures.py) and tests/test_query.py check the engine
against."""

from __future__ import annotations

import numpy as np

from engine.config import EngineConfig
from engine.tokenize import tokenize


def bm25_oracle(texts: list[str], doc_ids: list[int], queries: list[str],
                cfg: EngineConfig = EngineConfig(), k: int = 10):
    """Independent in-memory BM25 (FIXTURES.md §4): same formula, computed
    from scratch with dict counting — no engine code paths shared beyond
    the tokenizer spec."""
    from collections import Counter
    toks = [tokenize(t, cfg.cjk_unigrams) for t in texts]
    tfs = [Counter(t) for t in toks]
    dls = np.array([len(t) for t in toks], dtype=np.float64)
    n = len(texts)
    avgdl = dls.mean() if n else 1.0
    df = Counter()
    for c in tfs:
        df.update(c.keys())
    out = {}
    for q in queries:
        seen = set()
        qterms = [t for t in tokenize(q, cfg.cjk_unigrams)
                  if not (t in seen or seen.add(t))]
        scores = np.zeros(n)
        for t in qterms:
            if df[t] == 0:
                continue
            idf = np.log(1.0 + (n - df[t] + 0.5) / (df[t] + 0.5))
            for i, c in enumerate(tfs):
                if t in c:
                    tf = c[t]
                    scores[i] += idf * tf * (cfg.k1 + 1) / (
                        tf + cfg.k1 * (1 - cfg.b + cfg.b * dls[i] / avgdl))
        ids = np.asarray(doc_ids, dtype=np.int64)
        nz = scores > 0
        order = np.lexsort((ids[nz], -scores[nz]))[:k]
        out[q] = [(int(ids[nz][i]), float(scores[nz][i])) for i in order]
    return out

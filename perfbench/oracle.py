"""Answers computed apart from the engine, and the checker that compares
the engine's answers with them.

The corpus is the fixture's ground truth: for each url, the ``text`` of
its earliest-``warc_ts`` row, selected by DuckDB over the raw Parquet.
Nothing here reads the index or calls engine scoring code.  Two specs are
pinned rather than re-derived: the analyzer (``engine.tokenize.tokenize``,
which defines what a term is) and the doc id (SipHash-64 of the url with
pandas' fixed key, top bit cleared).

Scoring is Okapi BM25 (k1=1.2, b=0.75) in float64:

    idf(t)   = ln(1 + (N - df + 0.5) / (df + 0.5))
    s(t, d)  = idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
    bm25     = sum of s over the query's distinct terms
    phrase   = bm25 over the phrase's distinct terms, restricted to docs
               holding the tokens consecutively
    weighted = sum over weight keys (verbatim terms) of w * s(t, d)

Rankings order by (score desc, doc_id asc).
"""

from __future__ import annotations

import heapq
from collections import Counter

import numpy as np
import pandas as pd

K1, B = 1.2, 0.75
RTOL = 1e-9


def doc_ids_of(urls) -> np.ndarray:
    h = pd.util.hash_array(np.asarray(urls, dtype=object), categorize=False)
    return (h & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)


def earliest_rows(parquet_dir: str) -> tuple[list, list, list, int]:
    """DuckDB over the raw Parquet -> (urls, texts, langs) of each url's
    earliest-warc_ts row, plus the raw distinct-url count."""
    import duckdb
    con = duckdb.connect()
    try:
        src = f"read_parquet('{parquet_dir}/*.parquet')"
        n_distinct = con.execute(
            f"SELECT count(DISTINCT url) FROM {src}").fetchone()[0]
        rows = con.execute(
            f"SELECT url, text, lang FROM {src} "
            "QUALIFY row_number() OVER (PARTITION BY url "
            "ORDER BY warc_ts) = 1 ORDER BY url").fetchall()
    finally:
        con.close()
    if not rows:
        return [], [], [], int(n_distinct)
    urls, texts, langs = (list(c) for c in zip(*rows))
    return urls, texts, langs, int(n_distinct)


class Ranking:
    """An oracle answer: the top-k list and every matching doc's score
    (the checker needs the scores of docs just outside the cut)."""

    def __init__(self, scores: dict[int, float], k: int):
        self.scores = scores
        self.top = heapq.nsmallest(k, scores.items(),
                                   key=lambda t: (-t[1], t[0]))


class Corpus:
    def __init__(self, urls: list, texts: list, langs: list | None = None):
        from engine.tokenize import tokenize   # pinned analyzer spec
        self.urls = list(urls)
        self.langs = list(langs) if langs is not None else [None] * len(urls)
        self.doc_ids = doc_ids_of(self.urls)
        self.texts = list(texts)
        self.tokens = [tokenize(t) for t in self.texts]
        self.n_docs = len(self.tokens)
        self.dl = np.array([len(t) for t in self.tokens], dtype=np.float64)
        self.doc_terms = np.array([len(set(t)) for t in self.tokens],
                                  dtype=np.int64)
        self.total_tokens = int(self.dl.sum())
        self.avgdl = (self.total_tokens / self.n_docs) if self.n_docs else 1.0
        post: dict[str, tuple[list, list]] = {}
        cf: Counter = Counter()
        for i, toks in enumerate(self.tokens):
            for t, tf in Counter(toks).items():
                ent = post.get(t)
                if ent is None:
                    ent = post[t] = ([], [])
                ent[0].append(i)
                ent[1].append(tf)
                cf[t] += tf
        self.postings = {t: (np.array(d, dtype=np.int64),
                             np.array(f, dtype=np.float64))
                         for t, (d, f) in post.items()}
        self.n_postings = sum(len(d) for d, _ in post.values())
        self.n_terms = len(post)
        self.vocab_by_cf = [t for t, _ in sorted(cf.items(),
                                                 key=lambda x: (-x[1], x[0]))]
        self._spaced = None
        self._index_of = {d: i for i, d in enumerate(self.doc_ids.tolist())}
        self._scored: dict[str, np.ndarray] = {}

    @classmethod
    def from_parquet(cls, parquet_dir: str) -> "Corpus":
        urls, texts, langs, n_distinct = earliest_rows(parquet_dir)
        c = cls(urls, texts, langs)
        c.n_distinct_urls = n_distinct
        return c

    # -- per-term scores ---------------------------------------------------
    def term_scores(self, term: str):
        """-> (doc indices, BM25 contribution) for one term, or None."""
        ent = self.postings.get(term)
        if ent is None:
            return None
        s = self._scored.get(term)
        idx, tf = ent
        if s is None:
            df = idx.size
            idf = np.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))
            s = idf * tf * (K1 + 1.0) / (
                tf + K1 * (1.0 - B + B * self.dl[idx] / self.avgdl))
            self._scored[term] = s
        return idx, s

    def _accumulate(self, weighted_terms) -> tuple[np.ndarray, np.ndarray]:
        """-> (indices of the matching docs, their scores), summing the
        terms in the order given."""
        acc = np.zeros(self.n_docs)
        hit = np.zeros(self.n_docs, dtype=bool)
        for t, w in weighted_terms:
            ent = self.term_scores(t)
            if ent is None:
                continue
            idx, s = ent
            acc[idx] += w * s
            hit[idx] = True
        nz = np.flatnonzero(hit)
        return nz, acc[nz]

    def _ranking(self, acc: tuple[np.ndarray, np.ndarray], k: int,
                 keep=None) -> Ranking:
        idx, scores = acc
        if keep is not None:
            m = np.fromiter((keep(i) for i in idx.tolist()), bool, idx.size)
            idx, scores = idx[m], scores[m]
        return Ranking(dict(zip(self.doc_ids[idx].tolist(),
                                scores.tolist())), k)

    @staticmethod
    def _distinct(tokens: list[str]) -> list[str]:
        return list(dict.fromkeys(tokens))

    def query_terms(self, query: str) -> list[str]:
        from engine.tokenize import tokenize
        return self._distinct(tokenize(query))

    # -- answers -----------------------------------------------------------
    def bm25(self, query: str, k: int, lang: str | None = None) -> Ranking:
        acc = self._accumulate((t, 1.0) for t in self.query_terms(query))
        keep = None if lang is None else (lambda i: self.langs[i] == lang)
        return self._ranking(acc, k, keep)

    def weighted(self, weights: dict[str, float], k: int) -> Ranking:
        return self._ranking(self._accumulate(
            (t, float(w)) for t, w in weights.items() if float(w) != 0.0), k)

    def _phrase_test(self, query: str):
        """-> predicate: doc index holds the query's tokens consecutively."""
        from engine.tokenize import tokenize
        if self._spaced is None:
            self._spaced = [" " + " ".join(t) + " " for t in self.tokens]
        needle = " " + " ".join(tokenize(query)) + " "
        return lambda i: needle in self._spaced[i]

    def has_phrase(self, i: int, query: str) -> bool:
        return self._phrase_test(query)(i)

    def phrase(self, query: str, k: int) -> Ranking:
        acc = self._accumulate((t, 1.0) for t in self.query_terms(query))
        return self._ranking(acc, k, self._phrase_test(query))

    def match_count(self, query: str) -> int:
        seen = set()
        for t in self.query_terms(query):
            ent = self.postings.get(t)
            if ent is not None:
                seen.update(ent[0].tolist())
        return len(seen)

    def facet(self, query: str) -> dict[str, int]:
        docs = set()
        for t in self.query_terms(query):
            ent = self.postings.get(t)
            if ent is not None:
                docs.update(ent[0].tolist())
        return dict(Counter(self.langs[i] for i in docs))

    def index_of(self, doc_id: int) -> int:
        return self._index_of[int(doc_id)]

    def url_of(self, doc_id: int):
        i = self._index_of.get(int(doc_id))
        return None if i is None else self.urls[i]

    def lang_of(self, doc_id: int):
        i = self._index_of.get(int(doc_id))
        return None if i is None else self.langs[i]


def check_ranking(got, want: Ranking, rtol: float = RTOL) -> str | None:
    """None when ``got`` [(doc_id, score), ...] is a correct top-k for
    ``want``, else the reason it is not.

    Scores must agree with the oracle within ``rtol`` relative, rank by
    rank and for each returned doc.  Docs may trade places only with
    docs whose oracle scores are within ``rtol`` of each other (near
    ties, which float summation order can reorder), so a dropped hit, a
    swapped pair of distinct scores and a scaled score all fail."""
    def close(a: float, b: float) -> bool:
        return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)

    got = [(int(d), float(s)) for d, s in got]
    if len(got) != len(want.top):
        return f"{len(got)} hits, oracle has {len(want.top)}"
    if len({d for d, _ in got}) != len(got):
        return "duplicate doc ids"
    for r, ((gd, gs), (wd, ws)) in enumerate(zip(got, want.top)):
        true = want.scores.get(gd)
        if true is None:
            return f"rank {r}: doc {gd} does not match the query"
        if not close(gs, true):
            return f"rank {r}: doc {gd} score {gs!r}, oracle {true!r}"
        if not close(gs, ws):
            return f"rank {r}: score {gs!r}, oracle rank score {ws!r}"
    return None

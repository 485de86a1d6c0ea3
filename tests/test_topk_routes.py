"""One answer per query: the BM25 / weighted top-k core's routes agree
to the bit (engine/query.py ``_topk_items``).

- The pruned route equals the exhaustive route on 200 random queries:
  BM25 and weighted (negative and repeated terms included), with no
  ``where`` mask, one above ``filtered_dense_cutoff`` and one below it
  (the selective-filter route against the masked exhaustive one), on
  warm and cold caches.  The route is forced by patching
  ``InvertedIndex._prunes``, the one routing predicate.  The index uses
  8-posting blocks, so the fixture's common terms span hundreds of
  blocks and phase B's block-by-block decode runs on a 2,000-row
  corpus.
- A loader whose cache budget is a few KB answers a random mix ``==``
  to a 1 GiB loader (the benchmark's warm/cold check).
"""

import numpy as np
import pytest

from engine.build import build_index
from engine.config import EngineConfig
from engine.docvalues import attach_doc_values
from engine.postings import decode_blocks, decode_postings
from engine import query
from engine.query import InvertedIndex

CFG = EngineConfig(num_parts=8, docmeta_parts=3, block_size=8)
DENSE = ("lang", ("en", "de", "fr"))     # keeps well above the cutoff
SPARSE = ("lang", ("ja",))                # keeps below it


@pytest.fixture(scope="module")
def routes_index(e2e_webtext, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("routes") / "idx")
    build_index(e2e_webtext, out, CFG)
    attach_doc_values(out, e2e_webtext, ["lang"], dedup="earliest")
    return out


def _vocab(idx: InvertedIndex) -> tuple[list[str], list[str]]:
    """(the 40 most common terms, a sample of the rest)."""
    rows = []
    for part in range(CFG.num_parts):
        entry = idx._load_part(part)[0]
        if entry is not None:
            rows += zip(entry[1][:, 0].tolist(), entry[0].tolist())
    rows.sort(key=lambda r: (-r[0], r[1]))
    rest = [t for _, t in rows[40:]]
    return [t for _, t in rows[:40]], rest[::max(1, len(rest) // 400)]


def _queries(idx: InvertedIndex, n: int, seed: int):
    """``n`` random (kind, query, k, where) tuples."""
    rng = np.random.default_rng(seed)
    common, rare = _vocab(idx)

    def pick(m):
        return [vocab[int(rng.integers(0, len(vocab)))]
                for vocab in (common if rng.random() < 0.5 else rare
                              for _ in range(m))]
    out = []
    for i in range(n):
        k = int(rng.choice([1, 10, 50]))
        where = (None, DENSE, SPARSE)[i % 3]
        if i % 2:
            out.append(("bm25", " ".join(pick(int(rng.integers(1, 6)))),
                        k, where))
        else:
            terms = pick(int(rng.integers(2, 13)))
            terms += terms[:int(rng.integers(0, 3))]      # repeats
            w = np.round(rng.uniform(0.1, 2.0, len(terms)), 3)
            if i % 4 == 0:
                w[int(rng.integers(0, len(w)))] *= -1.0   # a negative
            out.append(("weighted", list(zip(terms, w.tolist())), k,
                        where))
    return out


def _run(idx: InvertedIndex, kind: str, q, k: int, where):
    if kind == "bm25":
        return idx.search(q, k=k, where=where)
    return idx.search_weighted(q, k=k, where=where)


def test_pruned_equals_exhaustive(routes_index, monkeypatch):
    calls = {"pruned": 0, "blocks": 0}
    real_pruned = InvertedIndex._search_pruned
    real_blocks = query.decode_blocks

    def pruned(self, *a):
        calls["pruned"] += 1
        return real_pruned(self, *a)

    def blocks(pbytes, skips, need, *a):
        calls["blocks"] += len(need) < skips.shape[0]   # a block subset
        return real_blocks(pbytes, skips, need, *a)
    monkeypatch.setattr(InvertedIndex, "_search_pruned", pruned)
    monkeypatch.setattr(query, "decode_blocks", blocks)
    warm = {f: InvertedIndex(routes_index) for f in (True, False)}
    cold = InvertedIndex(routes_index, cache_budget_bytes=4096)
    cut = warm[True].filtered_dense_cutoff * warm[True].n_docs
    assert warm[True].where_mask(*SPARSE).sum() < cut < \
        warm[True].where_mask(*DENSE).sum()
    warm[False].filtered_dense_cutoff = -1.0     # always mask exhaustive
    n_hits = 0
    for kind, q, k, where in _queries(warm[True], 200, seed=2026):
        got = {}
        for name, loader, force in (("exhaustive", warm[False], False),
                                    ("pruned", warm[True], True),
                                    ("pruned-cold", cold, True),
                                    ("pruned-again", warm[True], True)):
            monkeypatch.setattr(InvertedIndex, "_prunes",
                                lambda self, entries, k, f=force: f)
            got[name] = _run(loader, kind, q, k, where)
        want = got.pop("exhaustive")
        for name, ans in got.items():
            assert ans == want, (name, kind, q, k, where)
        n_hits += len(want)
    assert n_hits > 1000
    # the pruned route really ran, phase B's block decode included
    assert calls["pruned"] > 200 and calls["blocks"] > 50


def test_default_route_matches_daat(routes_index):
    """Without forcing, search's default route equals method="daat"
    (and weighted search at w = 1) — whichever route the cost rule
    picks."""
    idx = InvertedIndex(routes_index)
    for kind, q, k, where in _queries(idx, 60, seed=7):
        if kind == "bm25":
            want = idx.search(q, k=k, where=where, method="daat")
            assert idx.search(q, k=k, where=where) == want, q
            assert idx.search_weighted(
                {t: 1.0 for t in idx.query_terms(q)}, k=k,
                where=where) == want, q


def test_cache_budget_invariance(routes_index):
    """A few-KB cache budget answers every query of a random mix with
    the same bits as a 1 GiB one, pass after pass (entries evicted
    between the passes)."""
    big = InvertedIndex(routes_index)
    small = InvertedIndex(routes_index, cache_budget_bytes=4096)
    mix = _queries(big, 120, seed=99)
    first = [_run(big, *m) for m in mix]
    for _ in range(2):
        assert [_run(small, *m) for m in mix] == first
        assert [_run(big, *m) for m in mix] == first


def test_decode_blocks_on_index(routes_index):
    """On the 8-posting-block index, random ascending block subsets of
    real terms decode to the whole-term decode's slices, and doc-range
    loaders (block-window decodes that start mid-term), with and
    without tombstones, hold exactly the full loader's runs over their
    ranges: same docs, same score bits."""
    full = InvertedIndex(routes_index)
    rng = np.random.default_rng(15)
    common, rare = _vocab(full)
    terms = common + rare[:60]
    bs = CFG.block_size
    for t in terms:
        df, pbytes, skips = full.lookup(t)
        ids, tfs = decode_postings(pbytes, skips, df, bs)
        for _ in range(4):
            keep = rng.random(skips.shape[0]) < rng.random()
            rows = keep[np.arange(df) // bs]
            got = decode_blocks(pbytes, skips, np.flatnonzero(keep), df, bs)
            assert (got[0] == ids[rows]).all(), t
            assert (got[1] == tfs[rows]).all(), t
    docs = full._doc_ids
    cuts = np.sort(rng.choice(docs[1:], 3, replace=False)).tolist()
    bounds = list(zip([0] + cuts, cuts + [1 << 63]))
    dead = rng.choice(docs, docs.size // 7, replace=False)
    for deleted in (np.empty(0, np.int64), dead):
        whole = InvertedIndex(routes_index, deleted=deleted)
        ranges = [InvertedIndex(routes_index, doc_range=r, deleted=deleted)
                  for r in bounds]
        for t in terms:
            pos, s = whole._decoded(t)[:2]
            got = [(r._doc_ids[r._decoded(t)[0]], r._decoded(t)[1])
                   for r in ranges]
            assert (np.concatenate([g[0] for g in got]) ==
                    whole._doc_ids[pos]).all(), t
            assert np.concatenate([g[1] for g in got]).tobytes() == \
                s.tobytes(), t

"""Doc-values sidecars + metadata-filtered search (engine/docvalues.py).

Filter semantics under test (Lucene filter-query rules):
- a filter restricts CANDIDATES; corpus statistics stay global, so a
  doc's score is bit-identical with and without the filter;
- filtered top-k == (exhaustive unfiltered scoring) -> keep matching
  docs -> same (score desc, doc_id asc) cut — asserted against an
  independent mask built straight from the fixture table;
- docs with no sidecar row never match; duplicate sidecar keys fail
  loudly; a doc-range loader's mask is the slice of the full mask.
"""

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from engine.build import build_index
from engine.config import EngineConfig
from engine.docvalues import attach_doc_values
from engine.query import InvertedIndex
from engine.tokenize import doc_ids_from_urls

CFG = EngineConfig(num_parts=8, docmeta_parts=3, store_positions=True)
QUERY = "the of data"


def _fixture_df(src: str) -> pd.DataFrame:
    files = sorted(os.path.join(src, f) for f in os.listdir(src)
                   if f.endswith(".parquet"))
    df = pd.concat([pq.read_table(f).to_pandas() for f in files],
                   ignore_index=True)
    # the build keeps the earliest-warc_ts row per url (engine/build.py
    # duplicate_losers) — dedup the same way so the oracle's text rows
    # are the ones actually indexed
    return (df.sort_values(["url", "warc_ts"], kind="stable")
            .drop_duplicates(subset="url", keep="first"))


@pytest.fixture(scope="module")
def dv_index(unit_webtext, tmp_path_factory):
    import ray.data
    idx_dir = str(tmp_path_factory.mktemp("dvidx") / "idx")
    build_index(unit_webtext, idx_dir, CFG)
    df = _fixture_df(unit_webtext).copy()
    df["nlen"] = df["text"].str.len().astype("int64")
    src = ray.data.from_pandas(
        df[["url", "lang", "nlen"]].reset_index(drop=True))
    m = attach_doc_values(idx_dir, src, ["lang", "nlen"])
    assert m["rows"] == len(df)
    return idx_dir, df


def _lang_mask(idx: InvertedIndex, df: pd.DataFrame, langs) -> np.ndarray:
    """Independent keep-mask over idx._doc_ids from the fixture table."""
    ids = doc_ids_from_urls(df["url"].to_numpy(dtype=object))
    sel = df["lang"].isin(langs).to_numpy()
    want = np.sort(ids[sel])
    p = np.searchsorted(idx._doc_ids, want)
    ok = p < idx._doc_ids.size
    ok[ok] &= idx._doc_ids[p[ok]] == want[ok]
    mask = np.zeros(idx._doc_ids.size, dtype=bool)
    mask[p[ok]] = True
    return mask


def _filtered_oracle(idx: InvertedIndex, query: str, mask: np.ndarray,
                     k: int = 10, require_all: bool = False):
    """Exhaustive unfiltered scoring -> mask -> same tie-break cut."""
    full = idx.search(query, k=idx.n_docs,
                      method="daat", require_all=require_all)
    keep = []
    for d, s in full:
        pos = int(np.searchsorted(idx._doc_ids, d))
        if mask[pos]:
            keep.append((d, s))
    keep.sort(key=lambda t: (-t[1], t[0]))
    return keep[:k]


def test_filtered_search_matches_oracle(dv_index):
    idx_dir, df = dv_index
    idx = InvertedIndex(idx_dir)
    for langs in (("de",), ("de", "fr"), ("en",)):
        mask = _lang_mask(idx, df, langs)
        got = idx.search(QUERY, k=10, where=("lang", langs))
        want = _filtered_oracle(idx, QUERY, mask)
        assert [d for d, _ in got] == [d for d, _ in want], langs
        np.testing.assert_allclose([s for _, s in got],
                                   [s for _, s in want], rtol=1e-12)


def test_filter_does_not_change_scores(dv_index):
    idx_dir, _ = dv_index
    idx = InvertedIndex(idx_dir)
    unfiltered = dict(idx.search(QUERY, k=idx.n_docs, method="daat"))
    got = idx.search(QUERY, k=10, where=("lang", "de"))
    assert got, "filter produced no hits — fixture drifted"
    for d, s in got:
        assert s == unfiltered[d]


def test_filtered_require_all(dv_index):
    idx_dir, df = dv_index
    idx = InvertedIndex(idx_dir)
    mask = _lang_mask(idx, df, ("en",))
    got = idx.search("the of", k=10, require_all=True,
                     where=("lang", ("en",)))
    want = _filtered_oracle(idx, "the of", mask, require_all=True)
    assert got == want


def test_filtered_phrase(dv_index):
    idx_dir, df = dv_index
    idx = InvertedIndex(idx_dir)
    # phrase matching is a per-doc predicate, so filtered phrase top-k
    # == unfiltered phrase hits restricted to the mask, re-cut
    phrase = "the of"
    mask = _lang_mask(idx, df, ("en",))
    full = idx.search_phrase(phrase, k=idx.n_docs)
    keep = [(d, s) for d, s in full
            if mask[int(np.searchsorted(idx._doc_ids, d))]]
    keep.sort(key=lambda t: (-t[1], t[0]))
    got = idx.search_phrase(phrase, k=10, where=("lang", ("en",)))
    assert got == keep[:10]
    # MUST_NOT on the phrase path: drop docs containing 'data'
    ex = {d for d, _ in idx.search("data", k=idx.n_docs, method="daat")}
    keep2 = [(d, s) for d, s in full
             if mask[int(np.searchsorted(idx._doc_ids, d))]
             and d not in ex]
    keep2.sort(key=lambda t: (-t[1], t[0]))
    got = idx.search_phrase(phrase, k=10, where=("lang", ("en",)),
                            exclude="data")
    assert got == keep2[:10]


def test_range_filter_matches_oracle(dv_index):
    """where_range == BETWEEN-inclusive mask built straight from the
    fixture lengths; composes with where and exclude."""
    idx_dir, df = dv_index
    idx = InvertedIndex(idx_dir)
    ids = doc_ids_from_urls(df["url"].to_numpy(dtype=object))
    nlen = dict(zip(ids.tolist(), df["nlen"].tolist()))
    for lo, hi in ((100, 400), (0, 50), (250, 10**9)):
        full = idx.search(QUERY, k=idx.n_docs, method="daat")
        want = [(d, s) for d, s in full if lo <= nlen[d] <= hi]
        want.sort(key=lambda t: (-t[1], t[0]))
        got = idx.search(QUERY, k=10, where_range=("nlen", lo, hi))
        assert got == want[:10], (lo, hi)
    # composes: range AND lang AND exclusion
    got = idx.search(QUERY, k=10, where=("lang", ("en",)),
                     where_range=("nlen", 100, 400), exclude="house")
    ex = {d for d, _ in idx.search("house", k=idx.n_docs, method="daat")}
    lang_ok = dict(zip(ids.tolist(), (df["lang"] == "en").tolist()))
    want = [(d, s) for d, s in idx.search(QUERY, k=idx.n_docs,
                                          method="daat")
            if 100 <= nlen[d] <= 400 and lang_ok[d] and d not in ex]
    want.sort(key=lambda t: (-t[1], t[0]))
    assert got == want[:10]


def test_scalar_value_and_unknown_value(dv_index):
    idx_dir, _ = dv_index
    idx = InvertedIndex(idx_dir)
    assert idx.search(QUERY, k=5, where=("lang", "de")) == \
        idx.search(QUERY, k=5, where=("lang", ("de",)))
    assert idx.search(QUERY, k=5, where=("lang", "xx")) == []


def test_missing_sidecar_raises(unit_webtext, tmp_path_factory):
    idx_dir = str(tmp_path_factory.mktemp("dvnone") / "idx")
    build_index(unit_webtext, idx_dir,
                EngineConfig(num_parts=4, docmeta_parts=2))
    idx = InvertedIndex(idx_dir)
    with pytest.raises(FileNotFoundError, match="doc-values sidecar"):
        idx.search(QUERY, k=5, where=("lang", "en"))


def test_partial_sidecar_docs_never_match(dv_index, unit_webtext,
                                          tmp_path_factory):
    import ray.data
    idx_dir, df = dv_index
    half_dir = str(tmp_path_factory.mktemp("dvhalf") / "idx")
    build_index(unit_webtext, half_dir, CFG)
    half = df.iloc[: len(df) // 2]
    attach_doc_values(half_dir,
                      ray.data.from_pandas(
                          half[["url", "lang"]].reset_index(drop=True)),
                      ["lang"])
    idx = InvertedIndex(half_dir)
    covered = set(doc_ids_from_urls(half["url"].to_numpy(dtype=object))
                  .tolist())
    hits = idx.search(QUERY, k=50, where=("lang", ("en", "de", "fr", "ja")))
    assert hits and all(d in covered for d, _ in hits)


def test_duplicate_keys_fail_loud(unit_webtext, tmp_path_factory, dv_index):
    import ray.data
    _, df = dv_index
    idx_dir = str(tmp_path_factory.mktemp("dvdup") / "idx")
    build_index(unit_webtext, idx_dir,
                EngineConfig(num_parts=4, docmeta_parts=2))
    dup = pd.concat([df, df.iloc[:3]], ignore_index=True)
    with pytest.raises(Exception, match="duplicate doc_id"):
        attach_doc_values(idx_dir,
                          ray.data.from_pandas(
                              dup[["url", "lang"]].reset_index(drop=True)),
                          ["lang"])


def _facet_oracle(idx: InvertedIndex, df: pd.DataFrame, query: str,
                  require_all: bool = False, langs=None,
                  must: str | None = None, exclude: str | None = None):
    """Independent facet counts: per-doc token sets straight from the
    fixture text via the engine tokenizer, then plain Python counting."""
    from engine.tokenize import tokenize
    terms = set(idx.query_terms(query))
    must_terms = set(idx.query_terms(must)) if must else set()
    ex_terms = set(idx.query_terms(exclude)) if exclude else set()
    from collections import Counter
    cnt = Counter()
    for _, row in df.iterrows():
        if langs is not None and row["lang"] not in langs:
            continue
        toks = set(tokenize(row["text"]))
        ok = terms <= toks if require_all else bool(terms & toks)
        if must_terms and not must_terms <= toks:
            ok = False
        if ex_terms & toks:
            ok = False
        if ok:
            cnt[row["lang"]] += 1
    return sorted(cnt.items(), key=lambda t: (-t[1], t[0]))


def test_facet_counts_matches_oracle(dv_index):
    idx_dir, df = dv_index
    idx = InvertedIndex(idx_dir)
    got = idx.facet_counts(QUERY, "lang")
    assert got == _facet_oracle(idx, df, QUERY)


def test_facet_counts_require_all_and_where(dv_index):
    idx_dir, df = dv_index
    idx = InvertedIndex(idx_dir)
    got = idx.facet_counts("the of", "lang", require_all=True)
    assert got == _facet_oracle(idx, df, "the of", require_all=True)
    got = idx.facet_counts(QUERY, "lang", where=("lang", ("de", "fr")))
    assert got == _facet_oracle(idx, df, QUERY, langs=("de", "fr"))


def test_facet_counts_must_exclude(dv_index):
    """Facet base gated by the SAME must/exclude clauses the hits use
    — pinned against per-doc brute force over the fixture text."""
    idx_dir, df = dv_index
    idx = InvertedIndex(idx_dir)
    got = idx.facet_counts(QUERY, "lang", must="the")
    assert got == _facet_oracle(idx, df, QUERY, must="the")
    got = idx.facet_counts(QUERY, "lang", exclude="the")
    assert got == _facet_oracle(idx, df, QUERY, exclude="the")
    got = idx.facet_counts(QUERY, "lang", must="the of",
                           exclude="house", where=("lang", ("en", "de")))
    assert got == _facet_oracle(idx, df, QUERY, must="the of",
                                exclude="house", langs=("en", "de"))
    # absent must-term: empty facet set, matching search()
    assert idx.facet_counts(QUERY, "lang", must="zzz_unseen") == []


def test_match_count_brute_force(dv_index):
    """hits.total == per-doc brute force under every clause shape,
    and == the facet total (same match set, two code paths)."""
    idx_dir, df = dv_index
    idx = InvertedIndex(idx_dir)
    from engine.tokenize import tokenize
    terms = set(idx.query_terms(QUERY))

    def brute(require_all=False, must=None, exclude=None, langs=None,
              rng=None):
        n = 0
        for _, row in df.iterrows():
            toks = set(tokenize(row["text"]))
            ok = terms <= toks if require_all else bool(terms & toks)
            if must and not set(idx.query_terms(must)) <= toks:
                ok = False
            if exclude and set(idx.query_terms(exclude)) & toks:
                ok = False
            if langs is not None and row["lang"] not in langs:
                ok = False
            if rng is not None and not (rng[0] <= row["nlen"] <= rng[1]):
                ok = False
            n += int(ok)
        return n

    assert idx.match_count(QUERY) == brute()
    assert idx.match_count(QUERY, require_all=True) == \
        brute(require_all=True)
    assert idx.match_count(QUERY, must="the", exclude="house") == \
        brute(must="the", exclude="house")
    assert idx.match_count(QUERY, where=("lang", ("en", "de"))) == \
        brute(langs=("en", "de"))
    assert idx.match_count(QUERY, where_range=("nlen", 100, 300)) == \
        brute(rng=(100, 300))
    assert idx.match_count(QUERY, must="zzz_unseen") == 0
    assert idx.match_count("zzz_unseen") == 0
    # facet totals count the same match set (docs with a sidecar row)
    assert sum(n for _, n in idx.facet_counts(QUERY, "lang")) == \
        idx.match_count(QUERY)
    # histogram facet under the same gates: brute-force bucket counts
    edges = [0.0, 100.0, 200.0, 400.0, 1e9]
    got = idx.facet_histogram(QUERY, "nlen", edges, must="the",
                              exclude="house")
    from engine.tokenize import tokenize
    terms = set(idx.query_terms(QUERY))
    want = [0] * (len(edges) - 1)
    for _, row in df.iterrows():
        toks = set(tokenize(row["text"]))
        if not (terms & toks) or "the" not in toks or "house" in toks:
            continue
        v = float(len(row["text"]))
        for i in range(len(edges) - 1):
            if edges[i] <= v < edges[i + 1]:
                want[i] += 1
    assert [n for _, _, n in got] == want


def test_doc_sharded_filtered_and_facets(dv_index, unit_webtext,
                                         tmp_path_factory):
    """Doc-sharded serving with where/facets == one global index:
    per-doc filters compose exactly with doc sharding (every doc lives
    whole on one shard), facet counts are additive over the partition."""
    import pyarrow as pa
    import ray.data
    from engine.serve import DocShardedQueryService
    from engine.tokenize import stable_hash64

    out = tmp_path_factory.mktemp("dvshards")
    idx_dir, df = dv_index
    shard_dirs = []
    for si in range(2):
        def keep(batch: pa.Table, _si=si) -> pa.Table:
            urls = np.asarray(batch.column("url").to_pylist(), dtype=object)
            m = (stable_hash64(urls) % np.uint64(2)) == np.uint64(_si)
            return batch.filter(pa.array(m))
        src = (ray.data.read_parquet(unit_webtext,
                                     columns=["url", "warc_ts", "html"])
               .map_batches(keep, batch_format="pyarrow"))
        d = str(out / f"s{si}")
        build_index(src, d, CFG)
        half = df[(stable_hash64(df["url"].to_numpy(dtype=object))
                   % np.uint64(2)) == np.uint64(si)]
        attach_doc_values(d, ray.data.from_pandas(
            half[["url", "lang", "nlen"]].reset_index(drop=True)),
            ["lang", "nlen"])
        shard_dirs.append(d)

    local = InvertedIndex(idx_dir)
    svc = DocShardedQueryService(shard_dirs)
    try:
        for langs in (("en",), ("de", "fr")):
            assert svc.search(QUERY, k=10, where=("lang", langs)) == \
                local.search(QUERY, k=10, where=("lang", langs))
            assert svc.facet_counts(QUERY, "lang") == \
                local.facet_counts(QUERY, "lang")
            assert svc.facet_counts(QUERY, "lang",
                                    where=("lang", langs)) == \
                local.facet_counts(QUERY, "lang", where=("lang", langs))
        # unfiltered scored search still exact after facet calls (the
        # decode cache must hold override-idf scores, not local-df ones)
        assert svc.search(QUERY, k=10, method="daat") == \
            local.search(QUERY, k=10, method="daat")
        # MUST_NOT exclusion is a per-doc predicate too — exact sharded
        assert svc.search(QUERY, k=10, method="daat", exclude="house") == \
            local.search(QUERY, k=10, method="daat", exclude="house")
        # distributed suggest: summed per-shard dfs == one global index
        for prefix in ("th", "a", "zz"):
            assert svc.suggest(prefix, k=10) == \
                local.suggest(prefix, k=10), prefix
        # distributed histogram facet: per-shard bucket counts sum exactly
        edges = [0, 100, 200, 300, 10**9]
        assert svc.facet_histogram(QUERY, "nlen", edges) == \
            local.facet_histogram(QUERY, "nlen", edges)
        assert svc.facet_histogram(QUERY, "nlen", edges,
                                   where=("lang", ("en",))) == \
            local.facet_histogram(QUERY, "nlen", edges,
                                  where=("lang", ("en",)))
    finally:
        svc.shutdown()


def test_attach_whole_input_to_url_hash_half(dv_index, unit_webtext,
                                            tmp_path_factory):
    """A url-hash half built with the default docmeta parts fills only
    the parts of its own residue.  Attaching the WHOLE raw input
    (dedup='earliest') keeps just the half's own documents: no error,
    one sidecar row per indexed doc, and filters, facets and snippets
    answer exactly as after attaching the half's own rows."""
    import pyarrow as pa
    import ray.data
    from engine import index_io
    from engine.tokenize import stable_hash64

    _, df = dv_index
    cfg = EngineConfig(num_parts=8, store_positions=True)

    def keep(batch: pa.Table) -> pa.Table:
        urls = np.asarray(batch.column("url").to_pylist(), dtype=object)
        return batch.filter(pa.array(stable_hash64(urls) % np.uint64(2)
                                     == np.uint64(0)))
    d = str(tmp_path_factory.mktemp("dvhalf") / "idx")
    build_index(ray.data.read_parquet(unit_webtext,
                                      columns=["url", "warc_ts", "html"])
                .map_batches(keep, batch_format="pyarrow"), d, cfg)
    assert not all(os.path.isdir(index_io.part_dir(d, "docmeta", p))
                   for p in range(cfg.docmeta_parts))
    half = df[(stable_hash64(df["url"].to_numpy(dtype=object))
               % np.uint64(2)) == np.uint64(0)]
    attach_doc_values(d, ray.data.from_pandas(
        half[["url", "lang", "text"]].reset_index(drop=True)),
        ["lang", "text"])

    def answers():
        idx = InvertedIndex(d)
        hits = [h for h, _ in idx.search(QUERY, k=10)]
        return (idx.search(QUERY, k=10, where=("lang", ("en",))),
                idx.search(QUERY, k=10, where=("lang", ("de", "fr"))),
                idx.facet_counts(QUERY, "lang"),
                idx.snippets_of(QUERY, hits))

    want = answers()
    assert want[0] and any(s is not None for s in want[3])
    m = attach_doc_values(d, unit_webtext, ["lang", "text"],
                          dedup="earliest")
    assert m["rows"] == InvertedIndex(d).n_docs
    assert answers() == want


def test_term_sharded_filtered(dv_index):
    """Term-sharded filtered search == local daat-with-mask, with the
    mask applied shard-side from each doc-range worker's own sidecar
    slice (incl. the single-shard routing fast path and n_doc_ranges>1
    range slicing)."""
    from engine.serve import ShardedQueryService
    idx_dir, _ = dv_index
    local = InvertedIndex(idx_dir)
    svc = ShardedQueryService(idx_dir, n_shards=2, replicas_per_shard=1,
                              n_fronts=0, n_doc_ranges=2)
    try:
        for q in (QUERY, "the", "data of the house"):
            for langs in (("en",), ("de", "fr")):
                assert svc.search(q, k=10, where=("lang", langs)) == \
                    local.search(q, k=10, method="daat",
                                 where=("lang", langs)), (q, langs)
        assert svc.search_many([QUERY, "the"], k=5,
                               where=("lang", ("en",))) == \
            [local.search(QUERY, k=5, method="daat",
                          where=("lang", ("en",))),
             local.search("the", k=5, method="daat",
                          where=("lang", ("en",)))]
        # unfiltered still bit-identical after filtered calls
        assert svc.search(QUERY, k=10) == \
            local.search(QUERY, k=10, method="daat")
        # term-sharded suggest: disjoint dictionary parts -> per-shard
        # local top-k concat is exact vs one global index
        for prefix in ("th", "a", "da", "zz"):
            assert svc.suggest(prefix, k=10) == \
                local.suggest(prefix, k=10), prefix
        # the numeric-range filter masks shard-side like where
        for q in (QUERY, "the"):
            assert svc.search(q, k=10, where_range=("nlen", 100, 2000)) \
                == local.search(q, k=10, method="daat",
                                where_range=("nlen", 100, 2000)), q
        # facets: the front's gated match set, counted per doc range
        edges = [0, 100, 200, 300, 10**9]
        for kw in ({}, {"where": ("lang", ("en",))}, {"must": "data"},
                   {"exclude": "house"}, {"require_all": True},
                   {"must": "zzz_unseen_term"}):
            assert svc.facet_counts(QUERY, "lang", **kw) == \
                local.facet_counts(QUERY, "lang", **kw), kw
            assert svc.facet_histogram(QUERY, "nlen", edges, **kw) == \
                local.facet_histogram(QUERY, "nlen", edges, **kw), kw
        assert svc.facet_counts("zzz_unseen_term", "lang") == []
        # ... and over HTTP, where this tier used to answer 400
        import json
        import urllib.request
        from engine.http_serve import EngineHttpServer
        srv = EngineHttpServer(service=svc)
        port = srv.start()
        try:
            rq = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/search",
                data=json.dumps({"query": QUERY, "k": 5,
                                 "facet": "lang"}).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(rq, timeout=30) as r:
                assert r.status == 200
                resp = json.loads(r.read())
        finally:
            srv.stop()
        assert [(f["value"], f["n_docs"]) for f in resp["facets"]] == \
            local.facet_counts(QUERY, "lang")
    finally:
        svc.shutdown()


def test_replicated_service_where_and_facets(dv_index):
    from engine.serve import QueryService
    idx_dir, _ = dv_index
    local = InvertedIndex(idx_dir)
    svc = QueryService(idx_dir, replicas=2, num_cpus=0.5)
    try:
        assert svc.search(QUERY, k=10, where=("lang", ("de",))) == \
            local.search(QUERY, k=10, where=("lang", ("de",)))
        got = svc.search_many([QUERY, "the of"], k=5,
                              where=("lang", ("en",)))
        assert got == [local.search(QUERY, k=5, where=("lang", ("en",))),
                       local.search("the of", k=5, where=("lang", ("en",)))]
        assert svc.facet_counts(QUERY, "lang") == \
            local.facet_counts(QUERY, "lang")
    finally:
        svc.shutdown()


def test_attach_dedup_earliest_equals_manual(dv_index, unit_webtext,
                                             tmp_path_factory):
    """dedup='earliest' on the RAW build input (dup urls included) must
    produce byte-identical sidecars to attaching the manually deduped
    table — the build's own winner rule, reused."""
    import hashlib
    idx_dir, _ = dv_index
    raw_dir = str(tmp_path_factory.mktemp("dvraw") / "idx")
    build_index(unit_webtext, raw_dir, CFG)
    m = attach_doc_values(raw_dir, unit_webtext, ["lang"],
                          dedup="earliest")
    assert m["rows"] == InvertedIndex(raw_dir).n_docs

    def sidecar_rows(d):
        from engine.docvalues import SIDECAR
        from engine import index_io
        out = []
        for p in range(CFG.docmeta_parts):
            path = os.path.join(index_io.part_dir(d, "docmeta", p), SIDECAR)
            t = pq.read_table(path, columns=["doc_id", "lang"])
            out.append((p, t.column("doc_id").to_pylist(),
                        t.column("lang").to_pylist()))
        return out

    assert sidecar_rows(raw_dir) == sidecar_rows(idx_dir)


def test_values_of_hydration(dv_index):
    """values_of == the fixture's per-url values, None for unknown ids."""
    idx_dir, df = dv_index
    idx = InvertedIndex(idx_dir)
    hits = idx.search(QUERY, k=8)
    ids = doc_ids_from_urls(df["url"].to_numpy(dtype=object))
    lang_by_id = dict(zip(ids.tolist(), df["lang"].tolist()))
    nlen_by_id = dict(zip(ids.tolist(), df["nlen"].tolist()))
    got_lang = idx.values_of([d for d, _ in hits], "lang")
    got_nlen = idx.values_of([d for d, _ in hits], "nlen")
    assert got_lang == [lang_by_id[d] for d, _ in hits]
    assert got_nlen == [nlen_by_id[d] for d, _ in hits]
    assert idx.values_of([123456789], "lang") == [None]
    assert idx.values_of([], "lang") == []


def test_carry_through_merge_and_compact(dv_index, unit_webtext,
                                         tmp_path_factory):
    """carry_doc_values re-derives sidecars after merge/compact:
    merged filtered search == the attached single index; compaction
    drops the tombstoned docs' sidecar rows."""
    import pyarrow as pa
    import ray.data
    from engine import index_io
    from engine.docvalues import carry_doc_values
    from engine.merge import compact_index, merge_indexes
    from engine.tokenize import stable_hash64

    idx_dir, df = dv_index
    out = tmp_path_factory.mktemp("dvcarry")
    # two disjoint halves, attach each, merge, carry
    halves = []
    for si in range(2):
        sel = (stable_hash64(df["url"].to_numpy(dtype=object))
               % np.uint64(2)) == np.uint64(si)
        half = df[sel]
        files = sorted(os.path.join(unit_webtext, f)
                       for f in os.listdir(unit_webtext)
                       if f.endswith(".parquet"))
        raw = pd.concat([pq.read_table(f).to_pandas() for f in files])
        raw = raw[(stable_hash64(raw["url"].to_numpy(dtype=object))
                   % np.uint64(2)) == np.uint64(si)]
        src_pq = str(out / f"half{si}.parquet")
        pq.write_table(pa.Table.from_pandas(raw.reset_index(drop=True)),
                       src_pq)
        d = str(out / f"h{si}")
        build_index(src_pq, d, CFG)
        attach_doc_values(d, ray.data.from_pandas(
            half[["url", "lang", "nlen"]].reset_index(drop=True)),
            ["lang", "nlen"])
        halves.append(d)
    merged = str(out / "merged")
    merge_indexes(halves, merged)
    m = carry_doc_values(halves, merged)
    assert m["rows"] == len(df)
    want = InvertedIndex(idx_dir).search(QUERY, k=10,
                                         where=("lang", ("en",)))
    assert InvertedIndex(merged).search(QUERY, k=10,
                                        where=("lang", ("en",))) == want

    # compact: delete some docs, carry drops their sidecar rows
    full = InvertedIndex(merged)
    deleted = full._doc_ids[full._doc_ids % 5 == 0]
    index_io.delete_docs(merged, deleted.tolist())
    compacted = str(out / "compacted")
    compact_index(merged, compacted)
    c = carry_doc_values(merged, compacted)
    assert c["rows"] == full.n_docs - deleted.size
    got = InvertedIndex(compacted).search(QUERY, k=10,
                                          where=("lang", ("en",)))
    assert all(d not in set(deleted.tolist()) for d, _ in got)
    assert got  # filter still matches the surviving docs


def test_random_clause_compositions(dv_index):
    """Property: any composition of (where, where_range, must, exclude,
    require_all) == brute-force full daat + independent masks + the
    (score desc, doc_id asc) cut (40 random seeded combinations)."""
    idx_dir, df = dv_index
    idx = InvertedIndex(idx_dir)
    rng = np.random.default_rng(99)
    ids = doc_ids_from_urls(df["url"].to_numpy(dtype=object))
    lang_of = dict(zip(ids.tolist(), df["lang"].tolist()))
    nlen_of = dict(zip(ids.tolist(), df["nlen"].tolist()))
    vocab = ["the", "of", "data", "house", "garden", "a"]
    langsets = [("en",), ("de",), ("en", "de", "fr"), ("ja",)]
    checked = 0
    for _ in range(40):
        q = " ".join(rng.choice(vocab, size=int(rng.integers(1, 4))))
        kw, pred = {}, []
        if rng.random() < 0.6:
            langs = langsets[int(rng.integers(0, len(langsets)))]
            kw["where"] = ("lang", langs)
            pred.append(lambda d, L=langs: lang_of[d] in L)
        if rng.random() < 0.5:
            lo, hi = sorted(rng.integers(0, 500, size=2).tolist())
            kw["where_range"] = ("nlen", lo, hi)
            pred.append(lambda d, lo=lo, hi=hi: lo <= nlen_of[d] <= hi)
        if rng.random() < 0.4:
            ex = str(rng.choice(vocab))
            kw["exclude"] = ex
            exd = {d for d, _ in idx.search(ex, k=idx.n_docs,
                                            method="daat")}
            pred.append(lambda d, E=exd: d not in E)
        if rng.random() < 0.4:
            mu = str(rng.choice(vocab))
            kw["must"] = mu
            mud = {d for d, _ in idx.search(mu, k=idx.n_docs,
                                            method="daat")}
            pred.append(lambda d, M=mud: d in M)
        require_all = bool(rng.random() < 0.3)
        full = idx.search(q, k=idx.n_docs, method="daat",
                          require_all=require_all)
        want = [(d, s) for d, s in full if all(p(d) for p in pred)]
        want.sort(key=lambda t: (-t[1], t[0]))
        got = idx.search(q, k=10, require_all=require_all, **kw)
        assert got == want[:10], (q, kw, require_all)
        checked += len(got)
    assert checked > 50  # compositions did produce hits


def test_selective_filter_route_bit_identical(dv_index):
    """The candidate-block filtered scorer == daat-with-mask ==
    brute-force oracle, at BOTH routing extremes (cutoff 1.0 forces the
    selective route, 0.0 forces daat), across filter densities and
    clause compositions, including under a tombstone overlay."""
    idx_dir, df = dv_index
    ids = doc_ids_from_urls(df["url"].to_numpy(dtype=object))
    nlen_of = dict(zip(ids.tolist(), df["nlen"].tolist()))
    lang_of = dict(zip(ids.tolist(), df["lang"].tolist()))
    cases = [
        dict(where=("lang", ("ja",))),                      # rare
        dict(where=("lang", ("en",))),                      # dense
        dict(where_range=("nlen", 100, 180)),               # mid
        dict(where=("lang", ("de", "fr")), exclude="house"),
        dict(where_range=("nlen", 0, 10**9), must="data"),
    ]
    for q in ("the of data", "the", "garden house"):
        for kw in cases:
            outs = []
            for cutoff, method in ((1.0, "bmw"), (0.0, "daat")):
                idx = InvertedIndex(idx_dir)
                idx.filtered_dense_cutoff = cutoff
                outs.append(idx.search(q, k=20, method=method, **kw))
            assert outs[0] == outs[1], (q, kw)
            # dense route (the mask over the unfiltered routes): the
            # same bits as daat
            idx = InvertedIndex(idx_dir)
            idx.filtered_dense_cutoff = 0.0
            got = idx.search(q, k=20, method="bmw", **kw)
            assert got == outs[1], (q, kw)
    # deletes compose identically on all three routes
    base = InvertedIndex(idx_dir)
    hit0 = base.search("the of data", k=1, where=("lang", ("en",)))
    deleted = np.array([hit0[0][0]], dtype=np.int64)
    outs = []
    for cutoff, method in ((1.0, "bmw"), (0.0, "daat"), (0.0, "bmw")):
        idx = InvertedIndex(idx_dir, deleted=deleted)
        idx.filtered_dense_cutoff = cutoff
        outs.append(idx.search("the of data", k=20, method=method,
                               where=("lang", ("en",))))
    assert outs[0] == outs[1] == outs[2]
    assert hit0[0][0] not in {d for d, _ in outs[0]}
    assert hit0[0][0] not in {d for d, _ in outs[2]}
    # warm-cache path (cached gather branch) agrees too
    idx = InvertedIndex(idx_dir)
    idx.filtered_dense_cutoff = 1.0
    idx.search("the of data", k=5)          # warms the score cache
    assert idx.search("the of data", k=20, where=("lang", ("ja",))) == \
        outs_from_fresh_daat(idx_dir, "the of data", ("lang", ("ja",)))


def outs_from_fresh_daat(idx_dir, q, where, k=20):
    idx = InvertedIndex(idx_dir)
    idx.filtered_dense_cutoff = 0.0
    return idx.search(q, k=k, where=where, method="daat")


def test_masked_bmw_property(dv_index, monkeypatch):
    """Masked pruned route == daat-with-mask, bit for bit, on random
    indexed-term queries across filter densities, warm and cold caches
    (the route forced by patching ``_prunes``, the one routing
    predicate); empty-match filters return []."""
    monkeypatch.setattr(InvertedIndex, "_prunes",
                        lambda self, entries, k: True)
    idx_dir, df = dv_index
    rng = np.random.default_rng(77)
    idx = InvertedIndex(idx_dir)
    entry, _, _ = idx._load_part(0)
    terms = entry[0].tolist()
    filters = [dict(where=("lang", ("en",))),            # dense
               dict(where=("lang", ("en", "de", "fr"))),  # denser
               dict(where_range=("nlen", 50, 10**9)),
               dict(where=("lang", ("en",)), exclude="house")]
    bm = InvertedIndex(idx_dir)
    bm.filtered_dense_cutoff = 0.0       # force the dense route
    da = InvertedIndex(idx_dir)
    da.filtered_dense_cutoff = 0.0
    for trial in range(25):
        n = int(rng.integers(1, 5))
        q = " ".join(terms[int(i)]
                     for i in rng.integers(0, len(terms), n))
        kw = filters[trial % len(filters)]
        a = da.search(q, k=10, method="daat", **kw)
        b = bm.search(q, k=10, method="bmw", **kw)   # warms bm's cache
        c = bm.search(q, k=10, method="bmw", **kw)   # cached-decode leg
        assert a == b == c, (q, kw)
    # a filter matching nothing empties the result on the dense route
    # (cutoff below zero so the zero-candidate mask still routes to bmw)
    bm.filtered_dense_cutoff = -1.0
    assert bm.search("the", k=10, method="bmw",
                     where=("lang", ("zz",))) == []


def test_deletes_compose_with_filters(dv_index):
    """Tombstoned docs never rank even when the doc-values filter
    matches them, and survivors keep stale-stats scores (deletes mask
    at decode, filters mask at top-k — independent layers)."""
    idx_dir, _ = dv_index
    base = InvertedIndex(idx_dir)
    en_hits = base.search(QUERY, k=10, where=("lang", ("en",)))
    assert en_hits
    deleted = np.array([en_hits[0][0]], dtype=np.int64)
    idx = InvertedIndex(idx_dir, deleted=deleted)
    got = idx.search(QUERY, k=10, where=("lang", ("en",)))
    assert en_hits[0][0] not in {d for d, _ in got}
    # survivors keep their exact pre-delete scores (stale stats)
    pre = dict(en_hits)
    for d, s in got:
        if d in pre:
            assert s == pre[d]
    facets_before = base.facet_counts(QUERY, "lang")
    facets_after = idx.facet_counts(QUERY, "lang")
    en_b = dict(facets_before).get("en", 0)
    en_a = dict(facets_after).get("en", 0)
    assert en_a == en_b - 1  # the deleted doc left the match set


def test_doc_range_mask_is_slice_of_full(dv_index):
    idx_dir, _ = dv_index
    full = InvertedIndex(idx_dir)
    mid = int(full._doc_ids[full._doc_ids.size // 2])
    lo_half = InvertedIndex(idx_dir, doc_range=(0, mid))
    hi_half = InvertedIndex(idx_dir, doc_range=(mid, 1 << 63))
    fm = full.where_mask("lang", ("en", "de"))
    lm = lo_half.where_mask("lang", ("en", "de"))
    hm = hi_half.where_mask("lang", ("en", "de"))
    assert np.array_equal(np.concatenate([lm, hm]), fm)


def test_dv_mask_cache_is_bounded(dv_index):
    """The (col, values)/(col, lo, hi) mask cache is a byte-budget LRU:
    many DISTINCT filter tuples (per-tenant wheres, sliding range
    windows) must evict, not grow without bound — and evicted masks
    recompute identically."""
    idx_dir, _ = dv_index
    idx = InvertedIndex(idx_dir)
    # one mask = n_docs bytes; budget of ~3 masks
    idx._dv_mask_cache.budget = 3 * idx._doc_ids.size
    first = idx.where_mask("lang", ("en",)).copy()
    for lo in range(40):                       # 40 distinct range tuples
        idx.range_mask("nlen", lo, lo + 100)
    assert idx._dv_mask_cache.nbytes <= idx._dv_mask_cache.budget
    assert len(idx._dv_mask_cache) <= 3
    # evicted mask recomputes bit-identically
    np.testing.assert_array_equal(idx.where_mask("lang", ("en",)), first)
    # LRU touch: a freshly-read mask survives the next insertions
    idx.where_mask("lang", ("en",))
    idx.range_mask("nlen", 0, 100)             # evicts oldest, not 'en'
    assert ("lang", ("en",)) in idx._dv_mask_cache


def test_df_cache_eviction_never_drops_current_query_terms():
    """DocShardedQueryService._global_dfs regression: with the cache at
    capacity, inserting a query whose terms overflow the cap used to
    evict one of the CURRENT query's terms before the LRU touch and
    KeyError.  Exercised without Ray via an empty worker list (every
    missing term sums to df 0)."""
    from engine.lru import LRUCache
    from engine.serve import DocShardedQueryService
    svc = DocShardedQueryService.__new__(DocShardedQueryService)
    svc.shards = []
    svc._df_cache = LRUCache(3)
    assert svc._global_dfs(["a", "b", "c"]) == {"a": 0, "b": 0, "c": 0}
    # 4 terms > cap, one of them ('a') is the oldest cache entry —
    # the old eviction-before-touch code raised KeyError here
    out = svc._global_dfs(["d", "e", "f", "a"])
    assert out == {"d": 0, "e": 0, "f": 0, "a": 0}
    assert len(svc._df_cache) <= 3
    # the survivors are the NEWEST touches, oldest-first eviction
    assert set(svc._df_cache) == {"e", "f", "a"}


def test_doc_range_public_search_is_range_restricted(dv_index):
    """_decode_term on a doc-range loader filters postings to the range
    (regression: out-of-range ids searchsorted to WRONG slots or past
    the end).  Each half's public exhaustive search returns only its
    range's docs, and the two halves' unions rebuild the full result."""
    idx_dir, _ = dv_index
    full = InvertedIndex(idx_dir)
    mid = int(full._doc_ids[full._doc_ids.size // 2])
    halves = [InvertedIndex(idx_dir, doc_range=(0, mid)),
              InvertedIndex(idx_dir, doc_range=(mid, 1 << 63))]
    want = full.search(QUERY, k=full.n_docs, method="daat")
    got = []
    for h, (lo, hi) in zip(halves, [(0, mid), (mid, 1 << 63)]):
        part = h.search(QUERY, k=full.n_docs, method="daat")
        assert all(lo <= d < hi for d, _ in part)
        got.extend(part)
    got.sort(key=lambda t: (-t[1], t[0]))
    assert got == want
    # facet counts over the halves sum to the full counts
    tot: dict = {}
    for h in halves:
        for v, n in h.facet_counts(QUERY, "lang"):
            tot[v] = tot.get(v, 0) + n
    assert sorted(tot.items(), key=lambda t: (-t[1], t[0])) == \
        full.facet_counts(QUERY, "lang")


def test_doc_range_phrase_is_range_restricted(dv_index):
    """The positions decode on a doc-range loader drops out-of-range
    entries (regression: their ids searchsorted past the range slice and
    search_phrase raised IndexError).  Each half's phrase hits lie in
    its range, and the halves' union is the full phrase result, with
    and without slop."""
    idx_dir, _ = dv_index
    full = InvertedIndex(idx_dir)
    mid = int(full._doc_ids[full._doc_ids.size // 2])
    ranges = [(0, mid), (mid, 1 << 63)]
    halves = [InvertedIndex(idx_dir, doc_range=r) for r in ranges]
    n_hits = 0
    for q in ("of the", "in the", "the data"):
        for slop in (0, 2):
            want = full.search_phrase(q, k=full.n_docs, slop=slop)
            got = []
            for h, (lo, hi) in zip(halves, ranges):
                part = h.search_phrase(q, k=full.n_docs, slop=slop)
                assert all(lo <= d < hi for d, _ in part)
                got.extend(part)
            got.sort(key=lambda t: (-t[1], t[0]))
            assert got == want, (q, slop)
            n_hits += len(want)
    assert n_hits


def test_facet_histogram_matches_oracle(dv_index):
    """facet_histogram == per-doc brute-force binning over the fixture
    lengths (half-open buckets, empty buckets included); composes with
    where."""
    idx_dir, df = dv_index
    idx = InvertedIndex(idx_dir)
    ids = doc_ids_from_urls(df["url"].to_numpy(dtype=object))
    nlen = dict(zip(ids.tolist(), df["nlen"].tolist()))
    lang = dict(zip(ids.tolist(), df["lang"].tolist()))
    edges = [0, 100, 200, 300, 10**9]
    hits = {d for d, _ in idx.search(QUERY, k=idx.n_docs, method="daat")}

    def oracle(pred=lambda d: True):
        counts = [0] * (len(edges) - 1)
        for d in hits:
            if not pred(d):
                continue
            v = nlen[d]
            for i in range(len(edges) - 1):
                if edges[i] <= v < edges[i + 1]:
                    counts[i] += 1
        return [(float(edges[i]), float(edges[i + 1]), counts[i])
                for i in range(len(edges) - 1)]

    assert idx.facet_histogram(QUERY, "nlen", edges) == oracle()
    assert idx.facet_histogram(QUERY, "nlen", edges,
                               where=("lang", ("en",))) == \
        oracle(lambda d: lang[d] == "en")
    assert idx.facet_histogram(QUERY, "nlen", [0]) == []
    # a no-match query still emits every (zero) bucket — the UI
    # contract, and what the SQL LEFT JOIN oracle produces
    assert idx.facet_histogram("zzqqnever", "nlen", edges) == \
        [(float(edges[i]), float(edges[i + 1]), 0)
         for i in range(len(edges) - 1)]

"""Weighted-term (SPLADE-seam) retrieval on the serving surfaces.

Exactness contracts under test:
- QueryService.search_weighted == local (same index, same code path);
- DocShardedQueryService.search_weighted == one global index,
  BIT-identical (the global-stats exchange overrides df per term);
- ShardedQueryService.search_weighted == local, BIT-identical: each
  weight key routes verbatim to its owning term shard, and duplicate
  input terms stay separate entries;
- doc-values filters (where / where_range) compose on every tier and
  keep survivors' scores bit-identical to the unfiltered run (Lucene
  filter-query semantics — global stats, per-doc predicate);
- HTTP /v1/search {"weights": {...}} serves it (index and service
  backends, "filter" composes), with 400s for malformed weights and
  weights+phrase/boolean combinations.
"""

import json
import os
import urllib.request

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from engine.build import build_index
from engine.config import EngineConfig
from engine.docvalues import attach_doc_values
from engine.query import InvertedIndex

CFG = EngineConfig(num_parts=8, docmeta_parts=3)
W = {"the": 2.0, "of": 0.5, "data": 1.25}
WHERE = ("lang", ("en", "de"))
WHERE_RANGE = ("nlen", 100, 3000)


def _dedup_df(src: str) -> pd.DataFrame:
    """The build's winner rule (earliest warc_ts per url) applied to the
    raw fixture, so the sidecar rows are the indexed ones."""
    files = sorted(os.path.join(src, f) for f in os.listdir(src)
                   if f.endswith(".parquet"))
    df = pd.concat([pq.read_table(f).to_pandas() for f in files],
                   ignore_index=True)
    df = (df.sort_values(["url", "warc_ts"], kind="stable")
          .drop_duplicates(subset="url", keep="first"))
    df["nlen"] = df["text"].str.len().astype("int64")
    return df


def _attach(idx_dir: str, df: pd.DataFrame) -> None:
    # ONE attach with every column (attach REPLACES the sidecar);
    # "text" feeds snippet hydration for weighted queries
    import ray.data
    attach_doc_values(idx_dir, ray.data.from_pandas(
        df[["url", "lang", "nlen", "text"]].reset_index(drop=True)),
        ["lang", "nlen", "text"])


@pytest.fixture(scope="module")
def widx(ray_session, e2e_webtext, tmp_path_factory):
    base = tmp_path_factory.mktemp("wserve")
    global_dir = str(base / "global")
    build_index(e2e_webtext, global_dir, CFG)
    df = _dedup_df(e2e_webtext)
    # attach BEFORE any serving actors exist (the 4-cpu-session rule)
    _attach(global_dir, df)
    return global_dir, base, df


def _weight_sets(idx):
    terms = idx.query_terms("the of data house garden")
    return [W,
            {terms[0]: 3.5},
            {t: 1.0 + 0.25 * i for i, t in enumerate(terms)},
            {"zzqneverthere": 2.0, terms[0]: 1.0},
            # a (term, w) pair list repeating a term: each pair is its
            # own accumulation step on every tier
            [(terms[0], 1.5), (terms[1], 0.5), (terms[0], 0.25)]]


def _ones(idx, q="the of data house garden"):
    """Every term of ``q`` at weight 1.0: BM25 as weighted search."""
    return q, {t: 1.0 for t in idx.query_terms(q)}


def test_query_service_weighted(ray_session, widx):
    from engine.serve import QueryService
    global_dir, _, _ = widx
    local = InvertedIndex(global_dir)
    svc = QueryService(global_dir, replicas=2, num_cpus=0.5)
    try:
        for w in _weight_sets(local):
            assert svc.search_weighted(w, k=10) == \
                local.search_weighted(w, k=10), w
        assert svc.search_weighted({"zzqneverthere": 1.0}, k=10) == []
        assert svc.search_weighted(W, k=0) == []
        # doc-values filters ride through the replica tier
        assert svc.search_weighted(W, k=10, where=WHERE) == \
            local.search_weighted(W, k=10, where=WHERE)
        assert svc.search_weighted(W, k=10, where_range=WHERE_RANGE) == \
            local.search_weighted(W, k=10, where_range=WHERE_RANGE)
        # BM25 is weighted search at w = 1, bit for bit
        q, ones = _ones(local)
        assert svc.search_weighted(ones, k=100) == \
            svc.search(q, k=100, method="daat")
    finally:
        svc.shutdown()


def test_weighted_totals_all_tiers(ray_session, widx):
    """match_count_weighted == len(exhaustive search_weighted) under
    every filter combination, on the local engine and every tier
    (term-sharded counts the same shard-side pre-masked fragments;
    doc-sharded sums disjoint per-shard counts — no df exchange)."""
    from engine.serve import QueryService, ShardedQueryService
    global_dir, _, _ = widx
    local = InvertedIndex(global_dir)
    cases = [{}, {"where": WHERE}, {"where_range": WHERE_RANGE},
             {"where": WHERE, "where_range": WHERE_RANGE}]
    wants = {}
    for i, kw in enumerate(cases):
        want = len(local.search_weighted(W, k=10 ** 9, **kw))
        assert local.match_count_weighted(W, **kw) == want, kw
        wants[i] = want
    assert local.match_count_weighted({"zzqneverthere": 1.0}) == 0
    assert local.match_count_weighted({"the": 0.0}) == 0

    svc = QueryService(global_dir, replicas=2, num_cpus=0.5)
    try:
        for i, kw in enumerate(cases):
            assert svc.match_count_weighted(W, **kw) == wants[i], kw
    finally:
        svc.shutdown()
    tsh = ShardedQueryService(global_dir, n_shards=3, n_doc_ranges=2,
                              num_cpus=0.25)
    try:
        for i, kw in enumerate(cases):
            assert tsh.match_count_weighted(W, **kw) == wants[i], kw
    finally:
        tsh.shutdown()


def test_weighted_filter_lucene_semantics(widx):
    """Filters drop candidates, never re-weight: every filtered
    survivor keeps its exact unfiltered score, and the survivor set is
    exactly the unfiltered ranking minus non-matching docs (global
    stats — the search() filter-query rule applied to the seam)."""
    global_dir, _, df = widx
    local = InvertedIndex(global_dir)
    unfiltered = dict(local.search_weighted(W, k=10 ** 6))
    for kw in ({"where": WHERE}, {"where_range": WHERE_RANGE},
               {"where": WHERE, "where_range": WHERE_RANGE}):
        hits = local.search_weighted(W, k=10 ** 6, **kw)
        assert hits, kw
        for d, s in hits:
            assert unfiltered[d] == s          # bit-identical survivor
        sel = np.ones(len(df), dtype=bool)
        if "where" in kw:
            sel &= df["lang"].isin(WHERE[1]).to_numpy()
        if "where_range" in kw:
            sel &= ((df["nlen"] >= WHERE_RANGE[1])
                    & (df["nlen"] <= WHERE_RANGE[2])).to_numpy()
        from engine.tokenize import doc_ids_from_urls
        want_ids = set(doc_ids_from_urls(
            df["url"].to_numpy(dtype=object))[sel].tolist())
        assert {d for d, _ in hits} == want_ids & set(unfiltered)


def test_doc_sharded_weighted_bit_identical(ray_session, e2e_webtext,
                                            widx, tmp_path_factory):
    import ray.data
    from engine.serve import DocShardedQueryService
    from engine.tokenize import stable_hash64

    global_dir, _, df = widx
    base = tmp_path_factory.mktemp("wshards")
    n_shards = 3
    shard_dirs = []
    for si in range(n_shards):
        def keep(batch: pa.Table, _si=si) -> pa.Table:
            urls = np.asarray(batch.column("url").to_pylist(),
                              dtype=object)
            mask = (stable_hash64(urls) % np.uint64(n_shards)
                    ) == np.uint64(_si)
            return batch.filter(pa.array(mask))

        ds = (ray.data.read_parquet(e2e_webtext,
                                    columns=["url", "warc_ts", "html"])
              .map_batches(keep, batch_format="pyarrow"))
        d = str(base / f"shard{si}")
        build_index(ds, d, CFG)
        # each shard gets ITS slice of the sidecar rows (attach fails
        # loudly on rows for docs the shard does not hold) — and attach
        # runs BEFORE the serving actors exist (the 4-cpu-session rule)
        urls = df["url"].to_numpy(dtype=object)
        sub = df[(stable_hash64(urls) % np.uint64(n_shards)
                  ) == np.uint64(si)]
        _attach(d, sub)
        shard_dirs.append(d)

    local = InvertedIndex(global_dir)
    svc = DocShardedQueryService(shard_dirs)
    try:
        for w in _weight_sets(local):
            got = svc.search_weighted(w, k=10)
            want = local.search_weighted(w, k=10)
            assert got == want, w          # bit-identical, incl. scores
        # BM25 is weighted search at w = 1, bit for bit
        q, ones = _ones(local)
        assert svc.search_weighted(ones, k=100) == \
            svc.search(q, k=100, method="daat")
        # a term present on only SOME shards still gets the global df
        assert svc.search_weighted({"zzqneverthere": 1.0}, k=10) == []
        # per-shard doc-values filters merge exactly (per-doc predicate)
        assert svc.search_weighted(W, k=10, where=WHERE) == \
            local.search_weighted(W, k=10, where=WHERE)
        assert svc.search_weighted(W, k=10, where_range=WHERE_RANGE) == \
            local.search_weighted(W, k=10, where_range=WHERE_RANGE)
        # totals: disjoint per-shard membership counts sum exactly
        for kw in ({}, {"where": WHERE}, {"where_range": WHERE_RANGE}):
            assert svc.match_count_weighted(W, **kw) == \
                local.match_count_weighted(W, **kw), kw
    finally:
        svc.shutdown()


def test_term_sharded_weighted_bit_identical(ray_session, widx):
    """Multi-shard + doc-range-split workers; every weight-set answer
    must equal the local engine's, scores included.  Also pins the
    duplicate-term iterable contract: two (term, w) entries stay two
    accumulation steps in input order (w1*s + w2*s, NOT (w1+w2)*s),
    matching the local entry walk float-for-float."""
    from engine.serve import ShardedQueryService
    global_dir, _, _ = widx
    local = InvertedIndex(global_dir)
    svc = ShardedQueryService(global_dir, n_shards=3, n_doc_ranges=2,
                              num_cpus=0.25)
    try:
        for w in _weight_sets(local):
            assert svc.search_weighted(w, k=10) == \
                local.search_weighted(w, k=10), w
        terms = local.query_terms("the of data")
        dup = [(terms[0], 1.5), (terms[1], 0.5), (terms[0], 0.25)]
        assert svc.search_weighted(dup, k=10) == \
            local.search_weighted(dup, k=10)
        assert svc.search_weighted({"zzqneverthere": 1.0}, k=10) == []
        assert svc.search_weighted({terms[0]: 0.0}, k=10) == []
        assert svc.search_weighted(W, k=0) == []
        assert svc.search_weighted(W, k=10 ** 6) == \
            local.search_weighted(W, k=10 ** 6)
        # shard-side pre-mask == local accumulate-then-mask
        assert svc.search_weighted(W, k=10, where=WHERE) == \
            local.search_weighted(W, k=10, where=WHERE)
        assert svc.search_weighted(W, k=10, where_range=WHERE_RANGE) == \
            local.search_weighted(W, k=10, where_range=WHERE_RANGE)
    finally:
        svc.shutdown()


def _post(url: str, payload: dict):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=15) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def test_http_weighted_search(ray_session, widx):
    from engine.http_serve import EngineHttpServer
    global_dir, _, _ = widx
    local = InvertedIndex(global_dir)
    srv = EngineHttpServer(index_dir=global_dir)
    port = srv.start()
    base = f"http://127.0.0.1:{port}"
    try:
        want = local.search_weighted(W, k=5)
        status, resp = _post(f"{base}/v1/search",
                             {"weights": W, "k": 5})
        assert status == 200
        assert [(h["doc_id"], h["score"]) for h in resp["hits"]] == \
            [(d, pytest.approx(s)) for d, s in want]
        assert all(h["url"].startswith("http") for h in resp["hits"])
        # offset paging is an exact prefix-slice, same as query search
        status, resp2 = _post(f"{base}/v1/search",
                              {"weights": W, "k": 3, "offset": 2})
        assert status == 200
        assert [h["doc_id"] for h in resp2["hits"]] == \
            [h["doc_id"] for h in resp["hits"][2:5]]
        # with_total composes: weighted hits.total (+filter)
        status, respt = _post(f"{base}/v1/search",
                              {"weights": W, "k": 3, "with_total": True})
        assert status == 200
        assert respt["total"] == local.match_count_weighted(W)
        # snippets compose: best window over the weight-key terms
        status, resps = _post(f"{base}/v1/search",
                              {"weights": W, "k": 3, "snippets": True})
        assert status == 200
        assert all(isinstance(h.get("snippet"), str) and h["snippet"]
                   for h in resps["hits"])
        # the doc-values filter COMPOSES with weights
        wantf = local.search_weighted(W, k=5, where=WHERE)
        status, respf = _post(f"{base}/v1/search", {
            "weights": W, "k": 5,
            "filter": {"col": "lang", "values": list(WHERE[1])}})
        assert status == 200
        assert [(h["doc_id"], h["score"]) for h in respf["hits"]] == \
            [(d, pytest.approx(s)) for d, s in wantf]
        # malformed / unsupported combinations -> 400 JSON errors
        for bad in ({"weights": "the"},                    # not a dict
                    {"weights": {"the": "x"}},             # non-numeric
                    {"weights": {}},                       # empty
                    {"weights": W, "phrase": True},
                    {"weights": W, "must": "data"},
                    {"weights": W, "require_all": True},
                    {"weights": W, "query": "the of"}):
            status, resp = _post(f"{base}/v1/search", bad)
            assert status == 400, bad
            assert resp["error"]["type"] == "invalid_request_error"
    finally:
        srv.stop()


def test_http_weighted_on_service_tiers(ray_session, widx):
    """Replica AND term-sharded tiers serve weights over HTTP,
    bit-identical to the local engine."""
    from engine.http_serve import EngineHttpServer
    from engine.serve import QueryService, ShardedQueryService
    global_dir, _, _ = widx
    local = InvertedIndex(global_dir)
    want = local.search_weighted(W, k=5)
    svc = QueryService(global_dir, replicas=2, num_cpus=0.5)
    srv = EngineHttpServer(service=svc)
    port = srv.start()
    base = f"http://127.0.0.1:{port}"
    try:
        status, resp = _post(f"{base}/v1/search", {"weights": W, "k": 5})
        assert status == 200
        assert [h["doc_id"] for h in resp["hits"]] == \
            [d for d, _ in want]
    finally:
        srv.stop()
        svc.shutdown()

    tsvc = ShardedQueryService(global_dir, n_shards=2, num_cpus=0.5)
    srv = EngineHttpServer(service=tsvc)
    port = srv.start()
    base = f"http://127.0.0.1:{port}"
    try:
        status, resp = _post(f"{base}/v1/search", {"weights": W, "k": 5})
        assert status == 200
        assert [(h["doc_id"], h["score"]) for h in resp["hits"]] == \
            [(d, pytest.approx(s)) for d, s in want]
    finally:
        srv.stop()
        tsvc.shutdown()

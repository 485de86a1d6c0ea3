"""File-corpus source dispatch + anti-join, and the query-actor service.

Reference behaviors mirrored: extension filter + unsupported-type error
(/root/reference/rust/src/lib.rs:1199-1234 UnsupportedFileType;
tests/model_tests/test_bert.py:115-121 asserts ValueError), incremental
anti-join (/root/reference/rust/src/file_loader.rs:118-126 +
file-discovery tests 129-285), adapter/serving contract
(/root/reference/tests/model_tests/test_adapter.py:5-27).
"""

import os

import pytest

from engine.sources import read_text_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    (d / "a.html").write_text(
        "<!DOCTYPE html><html><head><title>t</title></head><body>"
        "<h1>Title here</h1>\n<p>Body <strong>text</strong>.</p></body></html>")
    (d / "b.txt").write_text("plain text body")
    (d / "c.md").write_text("# heading\n\nmd body")
    (d / "d.dat").write_bytes(b"binary blob, no dispatcher")
    (d / "bad.txt").write_bytes(b"\xff\xfeinvalid \xff utf8")
    sub = d / "sub"
    sub.mkdir()
    (sub / "e.txt").write_text("nested file")
    return str(d)


def test_extension_dispatch(ray_session, corpus_dir):
    out = read_text_corpus(corpus_dir).to_pandas()
    by_name = {os.path.basename(r["url"]): r for _, r in out.iterrows()}
    # unknown ext excluded by the extension filter at the read (reference S1)
    assert "d.dat" not in by_name
    assert by_name["a.html"]["text"] == "# Title here\n\nBody **text**."
    assert by_name["a.html"]["error"] == ""
    assert by_name["b.txt"]["text"] == "plain text body"
    assert by_name["c.md"]["text"].startswith("# heading")
    assert by_name["e.txt"]["text"] == "nested file"  # recursive walk
    # lossy decode, never an exception (processor.rs:18 semantics)
    assert "invalid" in by_name["bad.txt"]["text"]
    assert by_name["bad.txt"]["error"] == ""


def test_unsupported_extension_errors(ray_session, corpus_dir):
    out = read_text_corpus(corpus_dir, extensions=("txt", "dat")).to_pandas()
    by_name = {os.path.basename(r["url"]): r for _, r in out.iterrows()}
    assert by_name["d.dat"]["text"] == ""
    assert "unsupported" in by_name["d.dat"]["error"]


def test_incremental_anti_join(ray_session, corpus_dir):
    full = read_text_corpus(corpus_dir).to_pandas()
    done = {u for u in full["url"] if u.endswith(".html")}
    rest = read_text_corpus(corpus_dir, indexed_urls=done).to_pandas()
    assert set(rest["url"]) == set(full["url"]) - done


def test_query_service(ray_session, e2e_webtext, tmp_path_factory):
    import json
    from engine.build import build_index
    from engine.config import EngineConfig
    from engine.query import InvertedIndex
    from engine.serve import QueryService

    idx_dir = str(tmp_path_factory.mktemp("sidx") / "index")
    build_index(e2e_webtext, idx_dir,
                EngineConfig(num_parts=8, docmeta_parts=3,
                             store_positions=True))
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "queries.json")) as f:
        queries = json.load(f)

    from engine.docvalues import attach_doc_values
    attach_doc_values(idx_dir, e2e_webtext, ["text"], dedup="earliest")

    svc = QueryService(idx_dir, replicas=2)
    try:
        local = InvertedIndex(idx_dir)
        got = svc.search_many(queries, k=10)
        for q, hits in zip(queries, got):
            assert hits == local.search(q, k=10)
        assert svc.search(queries[0], k=5) == local.search(queries[0], k=5)
        # replica-side snippet hydration == local rule
        for q in queries[:5]:
            ids = [d for d, _ in local.search(q, k=10)]
            assert svc.snippets_of(q, ids) == local.snippets_of(q, ids), q
        # replica-routed url hydration; absent ids hydrate None
        ids = [d for d, _ in local.search(queries[0], k=10)]
        assert svc.url_of(ids) == local.url_of(ids)
        assert local.url_of([12345]) == [None]
        # boolean clauses pass through whole to a replica
        q = queries[0]
        assert svc.match_count(q) == local.match_count(q)
        for kw in ({"must": "data"}, {"require_all": True},
                   {"exclude": "data"}):
            assert svc.search(q, k=10, **kw) == \
                local.search(q, k=10, **kw), kw
        # replica-routed phrase / proximity == local search_phrase
        phrases = [" ".join(q.split()[:2]) for q in queries[:6]
                   if len(q.split()) >= 2]
        for ph in phrases:
            assert svc.search_phrase(ph, k=10) == \
                local.search_phrase(ph, k=10), ph
        assert svc.search_phrase(phrases[0], k=10, slop=2) == \
            local.search_phrase(phrases[0], k=10, slop=2)
    finally:
        svc.shutdown()


def _assert_one_sum_order(svc, local, q="the of and to a in"):
    """On a query of several common terms, the front's search, its
    search_weighted at w = 1 and its require_all each equal local daat
    bit for bit (every path adds a doc's term scores in one order)."""
    ones = {t: 1.0 for t in local.query_terms(q)}
    want = local.search(q, k=100, method="daat")
    assert len(ones) >= 3 and want
    assert svc.search(q, k=100) == want
    assert svc.search_weighted(ones, k=100) == want
    got_and = svc.search(q, k=100, require_all=True)
    assert got_and == local.search(q, k=100, method="daat",
                                   require_all=True)
    assert got_and and set(got_and) <= set(
        local.search(q, k=10**6, method="daat"))


def test_sharded_query_service(ray_session, e2e_webtext, tmp_path_factory):
    """2 shards x 2 replicas scatter-gather == single-process DAAT,
    bit-identical scores (the front reproduces daat's accumulation)."""
    import json
    from engine.build import build_index
    from engine.config import EngineConfig
    from engine.query import InvertedIndex
    from engine.serve import ShardedQueryService

    idx_dir = str(tmp_path_factory.mktemp("shidx") / "index")
    build_index(e2e_webtext, idx_dir, EngineConfig(num_parts=8,
                                                   docmeta_parts=3))
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "queries.json")) as f:
        queries = json.load(f)

    # attach BEFORE the service starts: its actor pool holds the
    # fixture session's CPUs, which would starve the attach shuffle
    from engine.docvalues import attach_doc_values
    attach_doc_values(idx_dir, e2e_webtext, ["text"], dedup="earliest")

    svc = ShardedQueryService(idx_dir, n_shards=2, replicas_per_shard=2,
                              n_fronts=2)
    try:
        local = InvertedIndex(idx_dir)
        want = [local.search(q, k=10, method="daat") for q in queries]
        for q, w in zip(queries, want):
            assert svc.search(q, k=10) == w, q
        # front-pool batch path preserves input order + exact results
        assert svc.search_many(queries, k=10) == want
        # single-term queries route whole to one shard (the O(k)-network
        # fast path) and must stay bit-identical to local daat
        for q in ("hash", "join", "table"):
            assert svc.search(q, k=10) == local.search(q, k=10,
                                                       method="daat"), q
        assert svc.search("", 10) == []
        assert svc.search("zzz_unseen_term", 10) == []
        assert svc.search("hash", 0) == []
        # term-shard workers hydrate snippets from the shared on-disk
        # sidecar (no posting/part residency involved)
        for q in queries[:3]:
            ids = [d for d, _ in local.search(q, k=10, method="daat")]
            assert svc.snippets_of(q, ids) == local.snippets_of(q, ids), q
        # boolean clauses on the term-sharded tier: must/exclude term
        # doc-id sets come from their OWNING shards (term_doc_ids),
        # require_all gates from the fragments in hand — all pinned
        # bit-identical to the local engine
        for q in queries[:5]:
            for kw in ({"exclude": "data"}, {"must": "data"},
                       {"must": "the data"}, {"require_all": True},
                       {"must": "data", "exclude": "house"}):
                assert svc.search(q, k=10, **kw) == \
                    local.search(q, k=10, method="daat", **kw), (q, kw)
        assert svc.search(queries[0], k=10,
                          must="zzz_unseen_term") == []
        assert svc.search(queries[0], k=10,
                          exclude="zzz_unseen_term") == \
            local.search(queries[0], k=10, method="daat")
        # hits.total via the count-only gather == local match_count
        for q in queries[:4]:
            assert svc.match_count(q) == local.match_count(q), q
        assert svc.match_count(queries[0], must="data",
                               exclude="house") == \
            local.match_count(queries[0], must="data", exclude="house")
        assert svc.match_count(queries[0], require_all=True) == \
            local.match_count(queries[0], require_all=True)
        assert svc.match_count("zzz_unseen_term") == 0
        # clauses through the FRONT POOL batch path too
        assert svc.search_many(queries[:4], k=10, require_all=True) == \
            [local.search(q, k=10, require_all=True)
             for q in queries[:4]]
        assert svc.search_many(queries[:4], k=10, exclude="data") == \
            [local.search(q, k=10, method="daat", exclude="data")
             for q in queries[:4]]
        _assert_one_sum_order(svc, local)
    finally:
        svc.shutdown()


def test_sharded_service_doc_ranges(ray_session, e2e_webtext,
                                    tmp_path_factory):
    """Doc-range docmeta sharding inside the term-sharded tier: with
    n_doc_ranges=3 every worker holds ONLY its hash-range's docmeta
    slice (memory assertion) and range-windowed posting decode, yet the
    scatter-gather stays bit-identical to single-process DAAT (fragments
    concatenate in range order == the full docID-sorted decode)."""
    import json
    from engine.build import build_index
    from engine.config import EngineConfig
    from engine.query import InvertedIndex
    from engine.serve import ShardedQueryService

    idx_dir = str(tmp_path_factory.mktemp("shidxr") / "index")
    build_index(e2e_webtext, idx_dir, EngineConfig(num_parts=8,
                                                   docmeta_parts=3))
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "queries.json")) as f:
        queries = json.load(f)

    # attach BEFORE the service starts (service actors hold the
    # fixture session's CPUs; the attach shuffle needs them)
    from engine.docvalues import attach_doc_values
    attach_doc_values(idx_dir, e2e_webtext, ["text"], dedup="earliest")

    svc = ShardedQueryService(idx_dir, n_shards=2, replicas_per_shard=1,
                              n_doc_ranges=3)
    try:
        local = InvertedIndex(idx_dir)
        corpus_rows = local._doc_ids.size
        import ray
        rows = ray.get([w.docmeta_rows.remote() for ranges in svc.shards
                        for reps in ranges for w in reps])
        # residency: every worker < corpus, union == corpus (ranges
        # partition the id space; workers of one shard tile it)
        assert all(r < corpus_rows for r in rows)
        assert sum(rows) == corpus_rows * 2  # 2 term shards x full tiling
        want = [local.search(q, k=10, method="daat") for q in queries]
        for q, w in zip(queries, want):
            assert svc.search(q, k=10) == w, q
        assert svc.search_many(queries, k=10) == want
        assert svc.search("zzz_unseen_term", 10) == []
        # snippets from a doc_range-RESTRICTED worker: the sidecar read
        # is disk-side and id-keyed, independent of docmeta residency
        q = queries[0]
        ids = [d for d, _ in want[0]]
        assert svc.snippets_of(q, ids) == local.snippets_of(q, ids)
        # url hydration across the range workers that TILE the id
        # space: each answers only its range, the merge is exact
        assert svc.url_of(ids) == local.url_of(ids)
        # boolean clauses with doc-range workers: gate fragments
        # concatenate in ascending range order (sorted global id sets)
        for q in queries[:3]:
            for kw in ({"must": "the data"}, {"exclude": "data"},
                       {"require_all": True}):
                assert svc.search(q, k=10, **kw) == \
                    local.search(q, k=10, method="daat", **kw), (q, kw)
        _assert_one_sum_order(svc, local)
    finally:
        svc.shutdown()


def test_doc_sharded_query_service(ray_session, e2e_webtext,
                                   tmp_path_factory):
    """3 doc-range sub-indexes + distributed-IDF exchange == one global
    index, bit-identical scores and ranks (exactness of the classic
    doc-sharded scatter-gather with global statistics)."""
    import json
    import numpy as np
    import pyarrow as pa
    import ray.data
    from engine.build import build_index
    from engine.config import EngineConfig
    from engine.query import InvertedIndex
    from engine.serve import DocShardedQueryService
    from engine.tokenize import stable_hash64

    cfg = EngineConfig(num_parts=8, docmeta_parts=3,
                       store_positions=True)
    base = tmp_path_factory.mktemp("docsh")
    global_dir = str(base / "global")
    build_index(e2e_webtext, global_dir, cfg)

    n_shards = 3
    shard_dirs = []
    for si in range(n_shards):
        def keep(batch: pa.Table, _si=si) -> pa.Table:
            urls = np.asarray(batch.column("url").to_pylist(), dtype=object)
            mask = (stable_hash64(urls) % np.uint64(n_shards)
                    ) == np.uint64(_si)
            return batch.filter(pa.array(mask))

        # doc-consistent partitioner: url-hash, so per-shard dedup
        # equals global dedup
        ds = (ray.data.read_parquet(e2e_webtext,
                                    columns=["url", "warc_ts", "html"])
              .map_batches(keep, batch_format="pyarrow"))
        d = str(base / f"shard{si}")
        build_index(ds, d, cfg)
        # production-shaped sidecar: each shard attaches ITS OWN slice
        # of the corpus (text for the snippet-hydration parity check)
        from engine.docvalues import attach_doc_values
        ds_txt = (ray.data.read_parquet(
            e2e_webtext, columns=["url", "warc_ts", "text", "lang"])
            .map_batches(keep, batch_format="pyarrow"))
        attach_doc_values(d, ds_txt, ["text", "lang"], dedup="earliest")
        shard_dirs.append(d)

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "queries.json")) as f:
        queries = json.load(f)

    attach_doc_values(global_dir, e2e_webtext, ["text", "lang"],
                      dedup="earliest")
    svc = DocShardedQueryService(shard_dirs)
    try:
        local = InvertedIndex(global_dir)
        for q in queries:
            want = local.search(q, k=10, method="daat")
            # bit-identical: global-stats exchange + same accumulation
            assert svc.search(q, k=10, method="daat") == want, q
        assert svc.search("", 10) == []
        assert svc.search("zzz_unseen_term", 10) == []
        # distributed snippet hydration: each shard windows only the
        # docs it owns, the first-non-None merge == the local rule
        for q in queries[:5]:
            ids = [d for d, _ in local.search(q, k=10, method="daat")]
            assert svc.snippets_of(q, ids) == local.snippets_of(q, ids), q
            assert any(s is not None
                       for s in svc.snippets_of(q, ids)) or not ids
        # distributed phrase/proximity: per-shard positional match +
        # global-stats scores == one global positional index; where /
        # exclude are per-doc predicates and compose shard-locally
        phrases = [" ".join(q.split()[:2]) for q in queries[:8]
                   if len(q.split()) >= 2]
        for ph in phrases:
            assert svc.search_phrase(ph, k=10) == \
                local.search_phrase(ph, k=10), ph
        ph = phrases[0]
        assert svc.search_phrase(ph, k=10, slop=2) == \
            local.search_phrase(ph, k=10, slop=2)
        w = ("lang", ("en",))
        assert svc.search_phrase(ph, k=10, where=w) == \
            local.search_phrase(ph, k=10, where=w)
        ex = next(w for w in ("data", "house", "hash", "table")
                  if w not in ph.split())
        assert svc.search_phrase(ph, k=10, exclude=ex) == \
            local.search_phrase(ph, k=10, exclude=ex)
        # distributed url hydration (first-non-None over disjoint docs)
        ids = [d for d, _ in local.search(queries[0], k=10,
                                          method="daat")]
        assert svc.url_of(ids) == local.url_of(ids)
        # boolean clauses gate shard-locally (per-doc predicates over
        # docs each shard owns whole); conjunctive sums use the
        # overridden-df order, so merged == one global index
        for q in queries[:4]:
            for kw in ({"must": "the data"}, {"exclude": "data"},
                       {"require_all": True},
                       {"must": "data", "exclude": "house"}):
                assert svc.search(q, k=10, method="daat", **kw) == \
                    local.search(q, k=10, method="daat", **kw), (q, kw)
        assert svc.search(queries[0], k=10, must="zzz_unseen_term") == []
        # distributed hits.total: per-shard counts sum over the
        # disjoint doc partition
        for q in queries[:4]:
            assert svc.match_count(q) == local.match_count(q), q
        assert svc.match_count(queries[0], must="data",
                               exclude="house") == \
            local.match_count(queries[0], must="data", exclude="house")
    finally:
        svc.shutdown()

    svc_bmw = DocShardedQueryService(shard_dirs)
    try:
        local = InvertedIndex(global_dir)
        for q in queries:
            want = local.search(q, k=10, method="daat")
            got = svc_bmw.search(q, k=10)
            # block-max path: rank-identical, scores to ~ulp
            assert [d for d, _ in got] == [d for d, _ in want], q
            assert all(abs(a - b) < 1e-9
                       for (_, a), (_, b) in zip(got, want)), q
    finally:
        svc_bmw.shutdown()


def test_doc_sharded_suggest_threshold_algorithm(ray_session,
                                                 tmp_path_factory):
    """TA suggest (per-shard top-m + remainder bounds + targeted exact
    fetch) is BIT-IDENTICAL to the exhaustive merge and to one global
    index, while shipping far fewer rows than the full prefixed range
    for a short prefix."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from engine.build import build_index
    from engine.config import EngineConfig
    from engine.query import InvertedIndex
    from engine.serve import DocShardedQueryService, QueryService

    rng = np.random.default_rng(17)
    vocab = np.array([f"p{i:04d}" for i in range(240)], dtype=object)
    probs = 1.0 / np.arange(1, 241)
    probs /= probs.sum()
    rows = []
    for i in range(400):
        words = rng.choice(vocab, size=int(rng.integers(20, 60)), p=probs)
        text = " ".join(words.tolist())
        rows.append({
            "url": f"https://x.org/d/{i:06d}",
            "warc_ts": 1_600_000_000_000_000 + i,
            "html": f"<html><body><p>{text}</p></body></html>".encode(),
        })
    base = tmp_path_factory.mktemp("tasugg")

    def write(sel, name):
        t = pa.table({
            "url": pa.array([r["url"] for r in sel], pa.string()),
            "warc_ts": pa.array([r["warc_ts"] for r in sel],
                                pa.timestamp("us")),
            "html": pa.array([r["html"] for r in sel], pa.binary()),
        })
        p = str(base / f"{name}.parquet")
        pq.write_table(t, p)
        return p

    cfg = EngineConfig(num_parts=4, docmeta_parts=2)
    global_dir = str(base / "global")
    build_index(write(rows, "all"), global_dir, cfg)
    shard_dirs = []
    for si in range(2):
        d = str(base / f"s{si}")
        build_index(write(rows[si::2], f"half{si}"), d, cfg)
        shard_dirs.append(d)

    local = InvertedIndex(global_dir)
    shards = [InvertedIndex(d) for d in shard_dirs]

    def suggest_full(prefix, k):
        """Exhaustive merge: every shard's whole prefixed range, dfs
        summed — the reference the TA path is pinned against."""
        if k <= 0 or not prefix:
            return []
        tot: dict[str, int] = {}
        for sh in shards:
            for t, df in sh.suggest(prefix, k=1 << 62):
                tot[t] = tot.get(t, 0) + df
        return sorted(tot.items(), key=lambda x: (-x[1], x[0]))[:k]

    svc = DocShardedQueryService(shard_dirs)
    # the replica tier runs the same TA over its one shard
    replica = QueryService(global_dir, replicas=2)
    try:
        for prefix in ("p", "p0", "p01", "p0001", "zz"):
            for k in (3, 10, 50, 500):
                want = local.suggest(prefix, k=k)
                assert svc.suggest(prefix, k=k) == want, (prefix, k)
                assert replica.suggest(prefix, k=k) == want, (prefix, k)
                assert suggest_full(prefix, k=k) == want, (prefix, k)
        # a tie at the k-th df: the cut keeps the smaller terms
        full = local.suggest("p", k=1 << 62)
        tie_ks = [k for k in range(1, len(full))
                  if full[k - 1][1] == full[k][1]]
        assert tie_ks, "no tie at any k-th df: fixture drifted"
        for k in tie_ks[:4]:
            want = local.suggest("p", k=k)
            assert svc.suggest("p", k=k) == want, k
            assert replica.suggest("p", k=k) == want, k
        # exchange bound: a 1-char prefix matches all 240 terms on both
        # shards (~480 full-enumeration rows); TA at k=5 ships a small
        # multiple of k per shard
        full_rows = sum(len(sh.suggest("p", k=1 << 62)) for sh in shards)
        assert full_rows > 400
        assert svc.suggest("p", k=5) == local.suggest("p", k=5)
        stats = svc.last_suggest_stats
        assert stats["wire_rows"] < full_rows / 4, stats
    finally:
        svc.shutdown()
        replica.shutdown()


def test_list_media_files(ray_session, tmp_path):
    """S2/S3 media-path discovery: recursive, per-kind extension sets."""
    from engine.sources import list_media_files
    (tmp_path / "a.jpg").write_bytes(b"\xff\xd8fakejpeg")
    (tmp_path / "b.png").write_bytes(b"\x89PNGfake")
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "c.wav").write_bytes(b"RIFFfake")
    (sub / "d.mp4").write_bytes(b"ftypfake")
    (tmp_path / "e.txt").write_text("not media")

    imgs = list_media_files(str(tmp_path), "image").to_pandas()
    assert sorted(p.rsplit("/", 1)[-1] for p in imgs["path"]) == \
        ["a.jpg", "b.png"]
    assert (imgs["kind"] == "image").all()
    assert set(imgs["size_bytes"]) == {10, 8}
    auds = list_media_files(str(tmp_path), "audio").to_pandas()
    assert [p.rsplit("/", 1)[-1] for p in auds["path"]] == ["c.wav"]
    vids = list_media_files(str(tmp_path), "video").to_pandas()
    assert [p.rsplit("/", 1)[-1] for p in vids["path"]] == ["d.mp4"]


def test_front_gate_cache_eviction(ray_session, e2e_webtext,
                                   tmp_path_factory):
    """The front's gate-set LRU stays under its byte budget (oldest
    out), caches absence, and eviction never corrupts results — the
    query re-fetches and stays bit-identical."""
    import json
    from engine.build import build_index
    from engine.config import EngineConfig
    from engine.query import InvertedIndex
    from engine.serve import ShardedQueryService

    idx_dir = str(tmp_path_factory.mktemp("gateidx") / "index")
    build_index(e2e_webtext, idx_dir, EngineConfig(num_parts=8,
                                                   docmeta_parts=3))
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "queries.json")) as f:
        queries = json.load(f)

    svc = ShardedQueryService(idx_dir, n_shards=2, replicas_per_shard=1)
    try:
        local = InvertedIndex(idx_dir)
        front = svc
        # tiny budget: every distinct gate term evicts the previous one
        front._gate_cache.budget = 1 << 10
        gates = [w for q in queries[:6] for w in q.split()][:8]
        for q in queries[:4]:
            for g in gates:
                assert svc.search(q, k=10, exclude=g) == \
                    local.search(q, k=10, method="daat", exclude=g), \
                    (q, g)
                assert front._gate_cache.nbytes <= front._gate_cache.budget
        # absence is cached under the budget too
        svc.search(queries[0], k=10, exclude="zzz_unseen_term")
        assert front._gate_cache.get("zzz_unseen_term", False) is None \
            or "zzz_unseen_term" not in front._gate_cache  # may be evicted
        # repeated gate on a warm cache: still exact
        g = gates[0]
        a = svc.search(queries[0], k=10, exclude=g)
        b = svc.search(queries[0], k=10, exclude=g)
        assert a == b == local.search(queries[0], k=10, method="daat",
                                      exclude=g)
    finally:
        svc.shutdown()

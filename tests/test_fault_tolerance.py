"""Serving faults: a worker that dies, and an index part that is gone.

On a real cluster workers die (node loss, OOM, preemption).  Every
serving actor runs with max_restarts + max_task_retries, every serving
method is read-only / idempotent, and ALL revival state rides in the
constructor — so a killed worker is restarted by Ray, the in-flight
call is retried transparently, and post-revival answers stay
bit-identical to the local engine.

The doc-sharded tier is the load-bearing case: a worker's loader takes
the global N and avgdl as constructor arguments and each call brings
its per-term global dfs, so no state set after construction can be lost
on a restart (a revived shard scoring with LOCAL stats would give wrong
answers and no error).  The kill test here pins score bit-identity
after revival.

A postings part the manifest lists but whose directory is gone fails
loudly, as a server fault: the loader raises, and /v1/search answers
500 instead of empty hits.
"""

import json
import os
import shutil
import urllib.error
import urllib.request

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from engine.build import build_index
from engine.config import EngineConfig
from engine.index_io import CorruptIndexError, part_dir
from engine.query import InvertedIndex, part_of

CFG = EngineConfig(num_parts=8, docmeta_parts=3)
Q = "the of data"


@pytest.fixture(scope="module")
def ft_idx(ray_session, e2e_webtext, tmp_path_factory):
    base = tmp_path_factory.mktemp("ftserve")
    d = str(base / "global")
    build_index(e2e_webtext, d, CFG)
    return d, base


def _kill(actor):
    ray.kill(actor, no_restart=False)


def test_replica_tier_survives_worker_kill(ray_session, ft_idx):
    from engine.serve import QueryService
    d, _ = ft_idx
    local = InvertedIndex(d)
    want = local.search(Q, k=10, method="daat")
    svc = QueryService(d, replicas=2, num_cpus=0.5)
    try:
        assert svc.search(Q, k=10, method="daat") == want
        for w in svc.workers:
            _kill(w)
        # every replica was killed; retried calls hit revived actors
        assert svc.search(Q, k=10, method="daat") == want
        assert svc.search_weighted({"the": 2.0, "data": 1.25}, k=10) == \
            local.search_weighted({"the": 2.0, "data": 1.25}, k=10)
    finally:
        svc.shutdown()


def test_term_sharded_tier_survives_worker_kill(ray_session, ft_idx):
    from engine.serve import ShardedQueryService
    d, _ = ft_idx
    local = InvertedIndex(d)
    want = local.search(Q, k=10, method="daat")
    svc = ShardedQueryService(d, n_shards=2, num_cpus=0.25)
    try:
        assert svc.search(Q, k=10) == want
        _kill(svc.shards[0][0][0])
        assert svc.search(Q, k=10) == want
        # boolean gate path exercises term_doc_ids on the revived actor
        assert svc.search(Q, k=10, must="data") == \
            local.search(Q, k=10, method="daat", must="data")
    finally:
        svc.shutdown()


def test_doc_sharded_revival_keeps_global_stats(ray_session, e2e_webtext,
                                                ft_idx, tmp_path_factory):
    """THE regression this file exists for: a revived doc-shard worker
    must score with the ctor-supplied GLOBAL (n_docs, avgdl), not its
    local manifest stats — scores after the kill must stay bit-identical
    to one global index."""
    import ray.data
    from engine.serve import DocShardedQueryService
    from engine.tokenize import stable_hash64

    d, base = ft_idx
    n_shards = 2
    shard_dirs = []
    for si in range(n_shards):
        def keep(batch: pa.Table, _si=si) -> pa.Table:
            urls = np.asarray(batch.column("url").to_pylist(),
                              dtype=object)
            m = (stable_hash64(urls) % np.uint64(n_shards)
                 ) == np.uint64(_si)
            return batch.filter(pa.array(m))

        ds = (ray.data.read_parquet(e2e_webtext,
                                    columns=["url", "warc_ts", "html"])
              .map_batches(keep, batch_format="pyarrow"))
        sd = str(base / f"ftshard{si}")
        build_index(ds, sd, CFG)
        shard_dirs.append(sd)

    local = InvertedIndex(d)
    want = local.search(Q, k=10, method="daat")
    svc = DocShardedQueryService(shard_dirs)
    try:
        assert svc.search(Q, k=10, method="daat") == want
        for w in svc.workers:
            _kill(w)
        # revived shards must reapply global stats from ctor args:
        # with local stats the scores would differ (not just rank)
        assert svc.search(Q, k=10, method="daat") == want
        assert svc.search_weighted({"the": 2.0, "data": 1.25}, k=10) == \
            local.search_weighted({"the": 2.0, "data": 1.25}, k=10)
    finally:
        svc.shutdown()


def test_missing_listed_part_fails_loud(ft_idx, tmp_path):
    """A listed postings part whose directory is deleted raises a
    CorruptIndexError (an OSError, not the FileNotFoundError that reads
    as a missing sidecar) and answers HTTP 500; a part the manifest
    does not list stays an empty part.  A missing listed docmeta part
    and a positional segment's missing positions.bin raise too."""
    d, _ = ft_idx
    local = InvertedIndex(d)
    term = next(t for t in local.query_terms(Q)
                if local.search(t, k=1))
    part = part_of(term, local.cfg)
    broken = str(tmp_path / "broken")
    shutil.copytree(d, broken)
    shutil.rmtree(part_dir(broken, "postings", part))
    with pytest.raises(CorruptIndexError, match="listed in the manifest"
                       ) as err:
        InvertedIndex(broken).search(term, k=10)
    assert isinstance(err.value, OSError)
    assert not isinstance(err.value, FileNotFoundError)

    assert "listed in the manifest" in _http_500(broken, {"query": term})

    # unlisted (a part the build never wrote): empty, not an error
    mpath = os.path.join(broken, "_manifest.json")
    with open(mpath) as f:
        manifest = json.load(f)
    del manifest["parts"][f"postings:{part:05d}"]
    with open(mpath, "w") as f:
        json.dump(manifest, f)
    assert InvertedIndex(broken).search(term, k=10) == []

    # a listed docmeta part gone from disk: every later part's docs
    # would shift into its slots, so the loader refuses to open
    shutil.rmtree(part_dir(broken, "docmeta", 1))
    with pytest.raises(CorruptIndexError, match="docmeta part 1 is listed"):
        InvertedIndex(broken)

    # a positional segment without its positions.bin: phrase search
    # raises instead of reading offsets into an empty blob
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([11, 12, 13], pa.int64()),
        "text": ["hash join table", "a hash join", "join hash"]}), src)
    pos = str(tmp_path / "pos")
    cfg = EngineConfig(num_parts=2, docmeta_parts=1, store_positions=True)
    build_index(src, pos, cfg, mode="docs")
    assert InvertedIndex(pos).search_phrase("hash join")
    os.remove(os.path.join(part_dir(pos, "postings", part_of("hash", cfg)),
                           "positions.bin"))
    with pytest.raises(CorruptIndexError, match="positions.bin"):
        InvertedIndex(pos).search_phrase("hash join")
    assert "positions.bin" in _http_500(pos, {"query": "hash join",
                                              "phrase": True})


def _http_500(index_dir: str, req: dict) -> str:
    """POST ``req`` to /v1/search on a local-index server over
    ``index_dir``; assert a JSON 500 internal_error -> its message."""
    from engine.http_serve import EngineHttpServer
    srv = EngineHttpServer(index_dir=index_dir)
    port = srv.start()
    try:
        rq = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/search",
            data=json.dumps(req).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as resp:
            urllib.request.urlopen(rq, timeout=30)
    finally:
        srv.stop()
    assert resp.value.code == 500
    body = json.loads(resp.value.read())
    assert body["error"]["code"] == "internal_error"
    return body["error"]["message"]

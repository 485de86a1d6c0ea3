"""A read-only loader: nothing mutates an ``InvertedIndex`` after
construction, so one loader serves concurrent calls with no lock, and
global statistics come with the call instead of being written into it.

- An unlocked 8-thread mix of every local query shape (search with
  each clause, weighted, phrase, match_count, facets, ``where`` /
  ``where_range`` and suggest) on ONE cold loader whose cache budget
  is far below the working set (so runs are evicted and re-decoded
  while other threads read them) equals the single-thread answers,
  and so do 4 concurrent clients of a local-index ``EngineHttpServer``
  against its sequential responses.
- Per-term global dfs travel with the call (``scored_with``): two
  views of one doc-range loader with different df maps, interleaved,
  each equal a fresh loader scoring with that map, bit for bit; a
  doc-shard worker whose dfs are fixed decodes each term once across
  search, match_count, facets and a repeated search.
"""

import json
import sys
import threading
import urllib.request

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from engine.build import build_index
from engine.config import EngineConfig
from engine.docvalues import attach_doc_values
from engine.query import InvertedIndex
from engine.serve import IndexWorker

# 8-posting blocks: the common terms span tens of blocks, so the
# pruned route and its block-by-block decode run on a small corpus
CFG = EngineConfig(num_parts=8, docmeta_parts=2, block_size=8,
                   store_positions=True)
N_DOCS = 600
VOCAB = [f"t{i:03d}" for i in range(240)]
SMALL_BUDGET = 16 << 10


@pytest.fixture(scope="module")
def ro_index(ray_session, tmp_path_factory):
    """A positional docs-mode index with ``lang`` and ``n_chars``
    doc values over Zipf-distributed synthetic text."""
    rng = np.random.default_rng(11)
    p = 1.0 / np.arange(1, len(VOCAB) + 1)
    p /= p.sum()
    texts = [" ".join(rng.choice(VOCAB, size=int(rng.integers(10, 80)),
                                 p=p).tolist()) for _ in range(N_DOCS)]
    d = tmp_path_factory.mktemp("readonly")
    src = str(d / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(rng.choice(1 << 62, N_DOCS, replace=False),
                           pa.int64()),
        "text": texts,
        "lang": [("en", "de", "fr", "ja")[i % 4] for i in range(N_DOCS)],
        "n_chars": pa.array([len(t) for t in texts], pa.int64())}), src)
    out = str(d / "idx")
    build_index(src, out, CFG, mode="docs")
    attach_doc_values(out, src, ["lang", "n_chars"])
    return out


def _mix(seed: int) -> list[tuple[str, tuple, dict]]:
    """(method, args, kwargs) calls covering every local query shape."""
    rng = np.random.default_rng(seed)

    def q(n):
        # half common terms (long runs), half from the tail
        return " ".join(VOCAB[int(rng.integers(0, 12 if rng.random() < 0.5
                                               else len(VOCAB)))]
                        for _ in range(n))
    calls = []
    for i in range(12):
        calls += [
            ("search", (q(int(rng.integers(1, 5))), 10), {}),
            ("search", (q(3), 5), {"method": "daat"}),
            ("search", (q(3), 10), {"where": ("lang", ("en", "de"))}),
            ("search", (q(2), 10), {"where": ("lang", ("ja",))}),
            ("search", (q(3), 10), {"where_range": ("n_chars", 100, 300)}),
            ("search", (q(3), 10), {"must": q(1), "exclude": q(1)}),
            ("search", (q(2), 10), {"require_all": True}),
            ("search_weighted",
             ({VOCAB[int(j)]: float(w) for j, w in zip(
                 rng.integers(0, 40, 4), rng.uniform(-0.5, 2.0, 4))}, 10),
             {}),
            ("search_phrase", (q(2), 10), {"slop": i % 3}),
            ("match_count", (q(3),), {"exclude": q(1)}),
            ("facet_counts", (q(2), "lang"), {}),
            ("facet_histogram", (q(2), "n_chars", [0, 100, 200, 400]), {}),
            ("suggest", (f"t{int(rng.integers(0, 24)):02d}", 5), {}),
        ]
    return calls


def _run(idx, calls):
    return [getattr(idx, name)(*args, **kw) for name, args, kw in calls]


def test_unlocked_threads_equal_single_thread(ro_index):
    calls = _mix(3)
    want = _run(InvertedIndex(ro_index), calls)
    assert sum(bool(w) for w in want) > len(calls) * 3 // 4
    shared = InvertedIndex(ro_index, cache_budget_bytes=SMALL_BUDGET)
    got = [None] * 8
    errors = []
    # all threads start together on the cold loader, so they race on
    # its first part and doc-values loads too
    gate = threading.Barrier(8)

    def work(tid):
        try:
            order = np.random.default_rng(tid).permutation(len(calls))
            gate.wait(timeout=60)
            out = [None] * len(calls)
            for _ in range(2):
                for i in order.tolist():
                    out[i] = _run(shared, [calls[i]])[0]
            got[tid] = out
        except Exception as e:          # surfaced below, not swallowed
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for out in got:
        for call, g, w in zip(calls, out, want):
            assert g == w, call
    # the budget really evicted: the working set is many times larger
    assert shared._postings_cache.nbytes <= SMALL_BUDGET
    full = InvertedIndex(ro_index)
    _run(full, calls)
    assert full._postings_cache.nbytes > 4 * SMALL_BUDGET


def _post(port: int, path: str, body: dict):
    rq = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(rq, timeout=60) as r:
        return r.status, json.loads(r.read())


def test_concurrent_http_clients_equal_sequential(ro_index):
    from engine.http_serve import EngineHttpServer
    rng = np.random.default_rng(5)
    reqs = []
    for i in range(24):
        q = " ".join(VOCAB[int(j)] for j in rng.integers(0, 30, 3))
        reqs += [("/v1/search", {"query": q, "k": 5, "with_total": True,
                                 "facet": "lang"}),
                 ("/v1/search", {"query": q, "k": 5,
                                 "filter": {"col": "lang",
                                            "values": ["en"]}}),
                 ("/v1/search", {"query": q, "phrase": True, "slop": 2}),
                 ("/v1/search", {"weights": {VOCAB[i]: 1.5,
                                             VOCAB[i + 1]: 0.5}}),
                 ("/v1/suggest", {"prefix": f"t{i:02d}", "k": 3})]
    seq_srv = EngineHttpServer(index_dir=ro_index)
    port = seq_srv.start()
    try:
        want = [_post(port, p, b) for p, b in reqs]
    finally:
        seq_srv.stop()
    assert all(s == 200 for s, _ in want)
    srv = EngineHttpServer(index_dir=ro_index)
    srv.index = InvertedIndex(ro_index, cache_budget_bytes=SMALL_BUDGET)
    port = srv.start()
    got = [None] * 4
    errors = []

    def client(cid):
        try:
            order = np.random.default_rng(cid).permutation(len(reqs))
            out = [None] * len(reqs)
            for i in order.tolist():
                out[i] = _post(port, *reqs[i])
            got[cid] = out
        except Exception as e:
            errors.append(e)

    try:
        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        srv.stop()
    assert errors == []
    assert got == [want] * 4


# ---------------------------------------------------------------------------
# global statistics travel with the call
# ---------------------------------------------------------------------------

def _local(actor_cls, *args, **kwargs):
    """An instance of a Ray actor class's own class, run in-process."""
    return actor_cls.__ray_metadata__.modified_class(*args, **kwargs)


SCORED = [
    ("search", ("t000 t001 t005 t030", 10), {}),
    ("search", ("t000 t002 t050", 10), {"method": "daat"}),
    ("search", ("t001 t003", 10), {"require_all": True}),
    ("search", ("t000 t004 t020", 10), {"where": ("lang", ("en", "fr"))}),
    ("search", ("t002 t006", 10), {"must": "t001", "exclude": "t009"}),
    ("search_weighted", ({"t000": 1.5, "t003": 0.25, "t040": 2.0}, 10), {}),
    ("search_phrase", ("t000 t001", 10), {"slop": 3}),
    ("match_count", ("t000 t007",), {"must": "t002"}),
]


def test_interleaved_df_views_equal_fresh_loaders(ro_index):
    """One doc-range loader, two views with different per-term df maps
    (and the bare loader, which scores with its local dfs) called in
    turn: each answer equals a fresh loader's under the same map, to
    the bit, and the views never change the loader."""
    rng = (0, 1 << 61)               # about half the docs
    base = InvertedIndex(ro_index, doc_range=rng, stats=(5000, 31.5))
    terms = {t for _, args, kw in SCORED
             for t in (args[0] if isinstance(args[0], dict)
                       else args[0].split())}
    df_a = {t: 3 * base.df_of(t) + 1 for t in sorted(terms)}
    df_b = {t: base.df_of(t) + 40 for t in sorted(terms)}
    want = {}
    for key, dfs in (("a", df_a), ("b", df_b), ("local", None)):
        fresh = InvertedIndex(ro_index, doc_range=rng, stats=(5000, 31.5))
        want[key] = _run(fresh.scored_with(dfs), SCORED)
    assert want["a"] != want["b"] != want["local"]
    state = dict(base.__dict__)
    for _ in range(2):
        for i, call in enumerate(SCORED):
            for key, dfs in (("a", df_a), ("b", df_b), ("local", None)):
                assert _run(base.scored_with(dfs), [call])[0] == \
                    want[key][i], (key, call)
    # the views shared every cache and replaced none of the loader's
    # attributes: no df map leaked into it
    assert base.__dict__.keys() == state.keys() and base._gdfs == {}
    assert all(base.__dict__[k] is v for k, v in state.items())


def test_fixed_dfs_decode_each_term_once(ro_index, monkeypatch):
    """A doc-shard worker scoring with fixed global stats decodes each
    term once across search -> match_count -> facets -> search."""
    decodes = []
    real = InvertedIndex._decode_term

    def counted(self, e):
        decodes.append(e.term)
        return real(self, e)
    monkeypatch.setattr(InvertedIndex, "_decode_term", counted)
    w = _local(IndexWorker, ro_index, stats=(9000, 42.0))
    q = "t000 t001 t002 t011"
    dfs = {t: 5 * w.idx.df_of(t) for t in q.split()}
    first = w.call("search", dfs, q, 10, method="daat")
    assert sorted(decodes) == sorted(q.split())
    w.call("match_count", dfs, q)
    w.call("facet_counts", dfs, q, "lang")
    w.call("search_weighted", dfs, {t: 1.0 for t in q.split()}, 10)
    assert w.call("search", dfs, q, 10, method="daat") == first
    assert sorted(decodes) == sorted(q.split())
    # the ctor stats and the call's dfs are what it scored with
    ref = InvertedIndex(ro_index, stats=(9000, 42.0)).scored_with(dfs)
    assert first == ref.search(q, 10, method="daat")
    assert first != InvertedIndex(ro_index).search(q, 10, method="daat")

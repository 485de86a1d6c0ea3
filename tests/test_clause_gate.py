"""One clause gate for every query shape.

``InvertedIndex._gate`` is the one reader of a request's must /
exclude / where / where_range clauses, and phrase search scores through
the AND core, so:

- a phrase hit's score is, bit for bit, the score
  ``search(q, require_all=True)`` gives that doc (200 random 2-4-token
  phrases drawn from the fixture text, slop 0-2) on the local loader, a
  ``QueryService`` and a ``DocShardedQueryService``;
- ``search_phrase`` with gate clauses equals the unfiltered phrase hits
  restricted to the docs the clauses keep (an oracle built from the
  fixture table);
- ``facet_counts`` / ``facet_histogram`` with ``where_range`` (alone
  and with must / exclude / where / require_all) on the replica,
  term-sharded and doc-sharded tiers equal the local loader;
- ``/v1/search`` takes ``"range": {"col", "lo", "hi"}`` for hits,
  ``with_total`` and facets on every tier, and answers 400 for a
  malformed one;
- weighted snippets window on the weight keys verbatim.
"""

import json
import urllib.error
import urllib.request

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from engine.build import build_index
from engine.config import EngineConfig
from engine.docvalues import attach_doc_values
from engine.query import InvertedIndex
from engine.tokenize import tokenize

CFG = EngineConfig(num_parts=8, docmeta_parts=2, store_positions=True)
N_DOCS = 500
VOCAB = [f"w{i:03d}" for i in range(160)]
# the verbatim-snippet doc: "hash-join" analyzes to two tokens that the
# window would chase if the weight keys were re-tokenized
SNIPPET_DOC = ("hash join hash join hash join a b c d e f g h i j k l "
               "table m n o p q r s t")
RANGE = ("n_chars", 150, 400)


@pytest.fixture(scope="module")
def gate_index(ray_session, tmp_path_factory):
    """A positional docs-mode index over Zipf text with ``lang``,
    ``n_chars`` and ``text`` doc values, and the same docs split into
    two doc shards (doc_id parity) -> (index, shard dirs, docs)."""
    rng = np.random.default_rng(23)
    p = 1.0 / np.arange(1, len(VOCAB) + 1)
    p /= p.sum()
    texts = [" ".join(rng.choice(VOCAB, size=int(rng.integers(8, 70)),
                                 p=p).tolist()) for _ in range(N_DOCS)]
    texts[7] = SNIPPET_DOC
    ids = rng.choice(1 << 62, N_DOCS, replace=False)
    table = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": texts,
        "lang": [("en", "de", "fr")[i % 3] for i in range(N_DOCS)],
        "n_chars": pa.array([len(t) for t in texts], pa.int64())})
    d = tmp_path_factory.mktemp("gate")
    src = str(d / "docs.parquet")
    pq.write_table(table, src)
    cols = ["lang", "n_chars", "text"]
    # every build and attach before any serving actor exists
    out = str(d / "idx")
    build_index(src, out, CFG, mode="docs")
    attach_doc_values(out, src, cols)
    shards = []
    for si in range(2):
        s_src = str(d / f"docs{si}.parquet")
        pq.write_table(table.filter(pa.array(ids % 2 == si)), s_src)
        s_dir = str(d / f"shard{si}")
        build_index(s_src, s_dir, CFG, mode="docs")
        attach_doc_values(s_dir, s_src, cols)
        shards.append(s_dir)
    docs = {int(i): (tokenize(t), lang, len(t))
            for i, t, lang in zip(ids, texts, table.column("lang")
                                  .to_pylist())}
    return out, shards, docs


def _phrases(docs: dict, n: int, seed: int) -> list[str]:
    """``n`` 2-4-token windows of the fixture text (so each has a hit),
    half of them with at least 3 distinct terms."""
    rng = np.random.default_rng(seed)
    toks = [t for t, _, _ in docs.values() if len(t) >= 4]
    out = []
    while len(out) < n:
        t = toks[int(rng.integers(len(toks)))]
        size = int(rng.integers(2, 5))
        s = int(rng.integers(len(t) - size + 1))
        win = t[s:s + size]
        if len(out) % 2 and len(set(win)) < 3:
            continue
        out.append(" ".join(win))
    return out


def test_phrase_scores_are_and_scores(gate_index):
    """Every phrase hit scores the bits of its AND query's score, on
    the local loader and on the replica and doc-sharded tiers (whose
    phrase answers equal the local ones)."""
    from engine.serve import DocShardedQueryService, QueryService
    idx_dir, shards, docs = gate_index
    local = InvertedIndex(idx_dir)
    phrases = _phrases(docs, 200, seed=5)
    assert sum(len(set(q.split())) >= 3 for q in phrases) >= 100
    want = []
    for i, q in enumerate(phrases):
        slop = i % 3
        hits = local.search_phrase(q, k=20, slop=slop)
        assert hits, q
        and_scores = dict(local.search(q, k=N_DOCS, require_all=True,
                                       method="daat"))
        for d, s in hits:
            assert s == and_scores[d], (q, d)
        want.append(hits)
    svcs = [QueryService(idx_dir, replicas=2, num_cpus=0.5),
            DocShardedQueryService(shards)]
    try:
        for svc in svcs:
            got = [svc.search_phrase(q, k=20, slop=i % 3)
                   for i, q in enumerate(phrases)]
            assert got == want, type(svc).__name__
    finally:
        for svc in svcs:
            svc.shutdown()


def _kept(docs: dict, must=None, exclude=None, where=None,
          where_range=None) -> set:
    """Oracle: the doc ids the gate clauses keep, from the fixture."""
    out = set()
    for d, (toks, lang, n) in docs.items():
        if must and not all(t in toks for t in tokenize(must)):
            continue
        if exclude and any(t in toks for t in tokenize(exclude)):
            continue
        if where and lang not in where[1]:
            continue
        if where_range and not where_range[1] <= n <= where_range[2]:
            continue
        out.add(d)
    return out


PHRASE_CLAUSES = [{"where_range": RANGE},
                  {"must": VOCAB[3]},
                  {"must": VOCAB[3], "where_range": RANGE},
                  {"exclude": VOCAB[9], "where": ("lang", ("en", "de"))},
                  {"must": f"{VOCAB[3]} {VOCAB[9]}", "exclude": VOCAB[1],
                   "where_range": ("n_chars", 100, 300)},
                  {"must": "zz_absent"},
                  {"exclude": "zz_absent"}]


def test_phrase_clauses_restrict_unfiltered_hits(gate_index):
    """search_phrase with gate clauses == the unfiltered phrase hits
    kept by the clauses (top-k cut after the restriction), locally and
    on the replica and doc-sharded tiers."""
    from engine.serve import DocShardedQueryService, QueryService
    idx_dir, shards, docs = gate_index
    local = InvertedIndex(idx_dir)
    phrases = ([" ".join(VOCAB[i:i + 2]) for i in range(0, 6)]
               + _phrases(docs, 20, seed=9))
    calls = []
    for q in phrases:
        full = local.search_phrase(q, k=N_DOCS, slop=1)
        for cl in PHRASE_CLAUSES:
            keep = _kept(docs, **cl)
            want = [h for h in full if h[0] in keep]
            for k in (3, N_DOCS):
                got = local.search_phrase(q, k=k, slop=1, **cl)
                assert got == want[:k], (q, cl, k)
            calls.append((q, cl, want[:5]))
    assert any(w for _, cl, w in calls if "must" in cl and
               "where_range" in cl)
    svcs = [QueryService(idx_dir, replicas=2, num_cpus=0.5),
            DocShardedQueryService(shards)]
    try:
        for svc in svcs:
            for q, cl, want in calls[::3]:
                assert svc.search_phrase(q, k=5, slop=1, **cl) == want, \
                    (type(svc).__name__, q, cl)
    finally:
        for svc in svcs:
            svc.shutdown()


FACET_CLAUSES = [{"where_range": RANGE},
                 {"where_range": RANGE, "must": VOCAB[2]},
                 {"where_range": RANGE, "exclude": VOCAB[0]},
                 {"where_range": RANGE, "where": ("lang", ("en",)),
                  "require_all": True},
                 {"where_range": RANGE, "must": "zz_absent"}]
EDGES = [0, 100, 200, 300, 10**6]


def _facet_answers(backend, queries):
    return [(backend.facet_counts(q, "lang", **cl),
             backend.facet_histogram(q, "n_chars", EDGES, **cl),
             backend.match_count(q, **cl))
            for q in queries for cl in FACET_CLAUSES]


def test_facets_where_range_every_tier(gate_index):
    """Facets and counts under where_range (+ must / exclude / where /
    require_all) equal the local loader on all three tiers, and the
    range really narrows the facet base."""
    from engine.serve import (DocShardedQueryService, QueryService,
                              ShardedQueryService)
    idx_dir, shards, docs = gate_index
    local = InvertedIndex(idx_dir)
    queries = [f"{VOCAB[0]} {VOCAB[5]}", f"{VOCAB[2]} {VOCAB[40]} "
               f"{VOCAB[7]}"]
    want = _facet_answers(local, queries)
    q = queries[0]
    assert sum(n for _, n in local.facet_counts(q, "lang",
                                                where_range=RANGE)) == \
        len(_kept(docs, where_range=RANGE) & {
            d for d, (t, _, _) in docs.items()
            if VOCAB[0] in t or VOCAB[5] in t}) > 0
    assert local.facet_counts(q, "lang", where_range=RANGE) != \
        local.facet_counts(q, "lang")
    svcs = [QueryService(idx_dir, replicas=2, num_cpus=0.5),
            ShardedQueryService(idx_dir, n_shards=2, n_doc_ranges=2,
                                num_cpus=0.25),
            DocShardedQueryService(shards)]
    try:
        for svc in svcs:
            assert _facet_answers(svc, queries) == want, \
                type(svc).__name__
    finally:
        for svc in svcs:
            svc.shutdown()


def _post(port: int, body: dict):
    rq = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/search", data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(rq, timeout=60) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def test_http_range_every_tier(gate_index):
    """/v1/search ``range`` is where_range for hits, with_total and
    facets, on a local index and every service tier; a malformed range
    answers 400 invalid_request."""
    from engine.http_serve import EngineHttpServer
    from engine.serve import (DocShardedQueryService, QueryService,
                              ShardedQueryService)
    idx_dir, shards, _ = gate_index
    local = InvertedIndex(idx_dir)
    q = f"{VOCAB[0]} {VOCAB[4]} {VOCAB[30]}"
    wr = RANGE
    rbody = {"col": wr[0], "lo": wr[1], "hi": wr[2]}
    want_hits = local.search(q, k=5, where_range=wr, exclude=VOCAB[1])
    want = {"hits": [[d, s] for d, s in want_hits],
            "total": local.match_count(q, where_range=wr,
                                       exclude=VOCAB[1]),
            "facets": local.facet_counts(q, "lang", where_range=wr,
                                         exclude=VOCAB[1])}
    assert want_hits != local.search(q, k=5, exclude=VOCAB[1])
    phrase = f"{VOCAB[0]} {VOCAB[1]}"
    want_phrase = local.search_phrase(phrase, k=5, where_range=wr)
    weights = {VOCAB[0]: 1.5, VOCAB[30]: 0.5}
    want_w = local.search_weighted(weights, k=5, where_range=wr)
    backends = [("local", None),
                ("replica", QueryService(idx_dir, replicas=2,
                                         num_cpus=0.5)),
                ("termshard", ShardedQueryService(idx_dir, n_shards=2,
                                                  num_cpus=0.25)),
                ("docshard", DocShardedQueryService(shards))]
    try:
        for name, svc in backends:
            srv = (EngineHttpServer(index_dir=idx_dir) if svc is None
                   else EngineHttpServer(service=svc))
            port = srv.start()
            try:
                st, resp = _post(port, {"query": q, "k": 5, "range": rbody,
                                        "exclude": VOCAB[1],
                                        "with_total": True,
                                        "facet": "lang"})
                assert st == 200, (name, resp)
                assert [[h["doc_id"], h["score"]] for h in resp["hits"]] \
                    == want["hits"], name
                assert resp["total"] == want["total"], name
                assert [(f["value"], f["n_docs"]) for f in resp["facets"]] \
                    == want["facets"], name
                st, resp = _post(port, {"weights": weights, "k": 5,
                                        "range": rbody})
                assert st == 200, (name, resp)
                assert [(h["doc_id"], h["score"]) for h in resp["hits"]] \
                    == want_w, name
                if name != "termshard":
                    st, resp = _post(port, {"query": phrase, "k": 5,
                                            "phrase": True,
                                            "range": rbody})
                    assert st == 200, (name, resp)
                    assert [(h["doc_id"], h["score"])
                            for h in resp["hits"]] == want_phrase, name
                for bad in ({"col": "n_chars", "lo": 1}, [1, 2],
                            {"col": 3, "lo": 1, "hi": 2},
                            {"col": "n_chars", "lo": "1", "hi": 2},
                            {"col": "n_chars", "lo": 1, "hi": True}):
                    st, resp = _post(port, {"query": q, "range": bad})
                    assert st == 400, (name, bad)
                    assert resp["error"]["code"] == "invalid_request"
            finally:
                srv.stop()
    finally:
        for _, svc in backends:
            if svc is not None:
                svc.shutdown()


def test_weighted_snippets_take_keys_verbatim(gate_index):
    """A weighted query's snippet windows on its keys as given: the key
    "hash-join" matches no token, so the window follows "table", not
    the analyzed "hash" / "join" run at the start of the doc."""
    from engine.http_serve import EngineHttpServer
    idx_dir, _, docs = gate_index
    local = InvertedIndex(idx_dir)
    toks = tokenize(SNIPPET_DOC)
    at = toks.index("table")
    want = " ".join(toks[at - 7:at + 1])          # earliest window with it
    doc = next(d for d, (t, _, _) in docs.items() if t == toks)
    assert local.snippets_of(["hash-join", "table"], [doc]) == [want]
    # a string is still analyzed: the hash/join run wins
    assert local.snippets_of("hash-join table", [doc]) == \
        [" ".join(toks[:8])]
    srv = EngineHttpServer(index_dir=idx_dir)
    port = srv.start()
    try:
        st, resp = _post(port, {"weights": {"hash-join": 1, "table": 1},
                                "k": 3, "snippets": True})
    finally:
        srv.stop()
    assert st == 200, resp
    assert [(h["doc_id"], h["snippet"]) for h in resp["hits"]] == \
        [(doc, want)]

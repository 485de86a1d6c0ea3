"""The traced run (``--trace 1``): per-layer metrics.

Spans are recorded from the benchmark's own code around calls into each
layer's public functions, never inside the engine:

* build: ``duplicate_losers`` + ``make_dedup_filter`` (dedup),
  ``extract_batch`` (extract) and ``count_terms`` (tokenize) run
  in-process over the fixture, batch by batch as the build feeds them;
* postings: ``decode_postings`` / ``encode_postings`` round trip over
  every term of the built index;
* query: ``query_terms`` (analyze), ``lookup``, ``decode_postings``,
  ``search(method="bmw"|"daat")``, ``search_phrase``, ``search_weighted``;
* serve: each tier runs in-process behind a counting proxy and an
  in-process ``EngineHttpServer``; every service call an HTTP request
  makes is recorded and then replayed directly, which gives the direct
  call times and the HTTP overhead of the same requests.

Every answer is checked as in the measured run.  The spans are written
to ``.perfbench/traces/``.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

import fixture
from hostprobe import HostProbe
from oracle import check_ranking
from lifecycle import (SCRATCH, TIERS, CheckFailed, Session, check_queries,
                       check_response, is_kept_failure, post, query_items,
                       run_query)
from spans import Tracer

QUERY_ROUNDS = 3     # rounds of the query mix per probe
SERVE_ROUNDS = 2     # rounds of the request mix per tier (first is warm-up)
LOAD_REPEATS = 5     # InvertedIndex constructions timed


def p50(values) -> float:
    return statistics.median(values) if values else float("nan")


class CountingProxy:
    """Stands in for a serving tier: forwards every method call and
    records (name, args, kwargs).  A capability the tier lacks raises the
    same AttributeError it would raise without the proxy."""

    def __init__(self, svc):
        self._svc = svc
        self.calls: list[tuple] = []

    def __getattr__(self, name):
        attr = getattr(self._svc, name)
        if not callable(attr):
            return attr

        def call(*a, **kw):
            self.calls.append((name, a, kw))
            return attr(*a, **kw)
        return call


def build_layers(tr: Tracer, s: Session, out: dict) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data
    from engine.build import duplicate_losers, make_dedup_filter
    from engine.extract import extract_batch
    from engine.tokenize import count_terms, doc_ids_from_urls

    raw = pq.read_table(s.fx["all"], columns=["url", "warc_ts", "html"])
    with tr.span("dedup"):
        losers = duplicate_losers(
            ray.data.from_arrow(raw.select(["url", "warc_ts"])))
        kept = make_dedup_filter(losers)(raw)
    dropped = raw.num_rows - kept.num_rows
    if kept.num_rows != s.corpus.n_docs:
        raise CheckFailed(f"dedup kept {kept.num_rows} rows, "
                          f"oracle {s.corpus.n_docs}")
    urls, texts, html_bytes = [], [], 0
    for b in kept.to_batches(max_chunksize=s.cfg.extract_batch_size):
        batch = pa.Table.from_batches([b])
        html_bytes += sum(len(h) for h in batch.column("html").to_pylist())
        with tr.span("extract"):
            ext = extract_batch(batch)
        urls += ext.column("url").to_pylist()
        texts += ext.column("text").to_pylist()
    truth = dict(zip(s.corpus.urls, s.corpus.texts))
    if any(truth.get(u) != t for u, t in zip(urls, texts)):
        raise CheckFailed("extract_batch text differs from the fixture text")
    n_tokens = 0
    step = s.cfg.tokenize_batch_size
    for i in range(0, len(texts), step):
        ids = doc_ids_from_urls(urls[i:i + step])
        with tr.span("tokenize"):
            _, pos = count_terms(texts[i:i + step], ids, positions=True)
        n_tokens += int(pos.size)
    if n_tokens != s.corpus.total_tokens:
        raise CheckFailed(f"tokenize: {n_tokens} tokens, "
                          f"oracle {s.corpus.total_tokens}")
    busy = {n: sum(tr.durations(n)) for n in ("dedup", "extract", "tokenize")}
    out["dedup.busy_s"] = (busy["dedup"], "s")
    out["dedup.rows_dropped"] = (dropped, "rows")
    out["extract.busy_s"] = (busy["extract"], "s")
    out["extract.html_mb_per_s"] = (html_bytes / busy["extract"] / 1e6,
                                    "MB/s")
    out["tokenize.busy_s"] = (busy["tokenize"], "s")
    out["tokenize.tokens_per_s"] = (n_tokens / busy["tokenize"], "tokens/s")


def postings_layers(tr: Tracer, s: Session, out: dict) -> None:
    from engine import index_io
    from engine.postings import decode_postings, encode_postings

    dm = index_io.read_docmeta(s.full, s.cfg)
    order = np.argsort(dm.column("doc_id").to_numpy())
    dm_ids = dm.column("doc_id").to_numpy()[order]
    dm_len = dm.column("doclen").to_numpy()[order]
    n_post = skip_bytes = enc_bytes = pos_bytes = 0
    bs = s.cfg.block_size
    for part in range(s.cfg.num_parts):
        d = index_io.part_dir(s.full, "postings", part)
        if not os.path.isdir(d):
            continue
        terms, postings, skips = index_io.read_postings_part(s.full, part)
        pos_bytes += os.path.getsize(os.path.join(d, "positions.bin"))
        cols = [terms.column(c).to_numpy() for c in
                ("df", "post_off", "post_len", "skip_off", "skip_len")]
        rows = list(zip(*(c.tolist() for c in cols)))
        decoded = []
        with tr.span("postings.decode"):
            for df, po, pl, so, sl in rows:
                decoded.append(decode_postings(postings[po:po + pl],
                                               skips[so:so + sl], df, bs))
        lens = [dm_len[np.searchsorted(dm_ids, ids.astype(np.int64))]
                for ids, _ in decoded]
        encoded = []
        with tr.span("postings.encode"):
            for (ids, tfs), dls in zip(decoded, lens):
                encoded.append(encode_postings(ids, tfs, dls, bs))
        for (df, po, pl, so, sl), (pb, sb) in zip(rows, encoded):
            if pb != bytes(postings[po:po + pl]) or \
                    sb != bytes(skips[so:so + sl]):
                raise CheckFailed(f"part {part}: postings round trip differs")
            n_post += df
            skip_bytes += sl
            enc_bytes += pl + sl
    if n_post != s.corpus.n_postings:
        raise CheckFailed(f"decoded {n_post} postings, "
                          f"oracle {s.corpus.n_postings}")
    out["postings.decode_postings_per_s"] = (
        n_post / sum(tr.durations("postings.decode")), "postings/s")
    out["postings.encode_mb_per_s"] = (
        enc_bytes / sum(tr.durations("postings.encode")) / 1e6, "MB/s")
    out["postings.skip_bytes_per_posting"] = (skip_bytes / n_post,
                                              "B/posting")
    out["positions.bytes_per_position"] = (pos_bytes / s.corpus.total_tokens,
                                           "B/position")


def query_layers(tr: Tracer, s: Session, workload: str, out: dict) -> None:
    from engine.postings import decode_postings
    from engine.query import InvertedIndex

    for _ in range(LOAD_REPEATS):
        with tr.span("index_io.load"):
            InvertedIndex(s.full)
    budget = s.cache_budget(workload)
    idx = InvertedIndex(s.full, cache_budget_bytes=budget)
    warm = InvertedIndex(s.full)
    items = query_items(s.mix, s.seed)
    for kind, q in items:                       # warm-up pass
        run_query(idx, kind, q)
        run_query(warm, kind, q)
    hits = looked = 0
    for rnd in range(QUERY_ROUNDS):
        for i, q in enumerate(s.mix["bm25"]):
            with tr.span("query.analyze"):
                terms = idx.query_terms(q)
            for t in terms:
                with tr.span("query.lookup"):
                    ent = idx.lookup(t)
                if ent is None:
                    continue
                df, pbytes, skips = ent
                with tr.span("query.decode"):
                    decode_postings(pbytes, skips.tobytes(), df,
                                    s.cfg.block_size)
            # the loader keeps no hit counter: a term already in its
            # decoded-term cache before the search is a hit
            looked += len(terms)
            hits += sum(t in idx._postings_cache for t in terms)
            with tr.span("query.search"):
                idx.search(q, k=fixture.K)
            # alternate which method runs first, so neither always finds
            # the caches as the other left them
            methods = ("bmw", "daat") if (rnd + i) % 2 else ("daat", "bmw")
            for method in methods:
                with tr.span(f"query.score_{method}"):
                    warm.search(q, k=fixture.K, method=method)
            s.attempted += 3
        for q in s.mix["phrase"]:
            with tr.span("query.phrase"):
                idx.search_phrase(q, k=fixture.K)
            s.attempted += 1
        for w in s.mix["weighted"]:
            with tr.span("query.weighted"):
                idx.search_weighted(w, k=fixture.K)
            s.attempted += 1
    errs = check_queries(s.corpus, items,
                         [run_query(idx, k, q) for k, q in items])
    for q in s.mix["bm25"]:
        err = check_ranking(warm.search(q, k=fixture.K, method="daat"),
                            s.corpus.bm25(q, fixture.K))
        if err:
            errs.append(f"daat {q!r}: {err}")
    if errs:
        raise CheckFailed("; ".join(errs[:5]))

    # tracing overhead: the same searches with and without a span, on
    # the loader whose cache holds everything (so neither call warms the
    # other's cache), interleaved and in alternating order so host drift
    # hits both alike
    bare, spanned = [], []
    for r in range(QUERY_ROUNDS):
        for i, q in enumerate(s.mix["bm25"]):
            for spanning in ((False, True) if (r + i) % 2 else (True, False)):
                t = time.perf_counter()
                if spanning:
                    with tr.span("query.search_spanned"):
                        warm.search(q, k=fixture.K)
                else:
                    warm.search(q, k=fixture.K)
                (spanned if spanning else bare).append(
                    time.perf_counter() - t)
                s.attempted += 1

    def us(name):
        return (p50(tr.durations(name)) * 1e6, "us")

    def ms(name):
        return (p50(tr.durations(name)) * 1e3, "ms")
    out["index_io.load_s"] = (p50(tr.durations("index_io.load")), "s")
    out["query.analyze_us"] = us("query.analyze")
    out["query.lookup_us"] = us("query.lookup")
    out["query.decode_us"] = us("query.decode")
    out["query.cache_hit_ratio"] = (hits / max(looked, 1), "ratio")
    out["query.working_set_postings"] = (s.working_set_postings(),
                                         "postings")
    out["query.cache_budget_bytes"] = (budget, "B")
    out["query.score_bmw_ms"] = ms("query.score_bmw")
    out["query.score_daat_ms"] = ms("query.score_daat")
    out["query.phrase_ms"] = ms("query.phrase")
    out["query.weighted_ms"] = ms("query.weighted")
    out["trace.overhead_pct"] = (
        (p50(spanned) / p50(bare) - 1.0) * 100.0, "%")


def serve_layers(tr: Tracer, s: Session, out: dict) -> None:
    from engine.http_serve import EngineHttpServer
    from server import start_tiers, stop_tiers

    services = {}
    servers = []
    overhead_ms, resp_bytes = [], []
    errs = []
    try:
        services = start_tiers(s.full, s.shards)
        for tier in TIERS:
            proxy = CountingProxy(services[tier])
            srv = EngineHttpServer(service=proxy)
            port = srv.start()
            servers.append(srv)
            calls_by_shape: dict[str, list[int]] = {}
            for rnd in range(SERVE_ROUNDS):
                for i, r in enumerate(s.reqs):
                    proxy.calls = []
                    t = time.perf_counter()
                    with tr.span(f"http.{tier}", req=i):
                        status, raw = post(port, r["body"])
                    t_http = time.perf_counter() - t
                    calls = list(proxy.calls)
                    t = time.perf_counter()
                    with tr.span(f"direct.{tier}", req=i):
                        for name, a, kw in calls:
                            with tr.span(f"serve.{tier}.{name}", req=i):
                                getattr(services[tier], name)(*a, **kw)
                    t_direct = time.perf_counter() - t
                    if rnd == 0:        # warm-up round: check answers
                        payload = json.loads(raw) if raw else None
                        if not is_kept_failure(tier, r, status, payload):
                            err = check_response(s.corpus, tier, r,
                                                 status, payload)
                            if err:
                                errs.append(f"{tier} {r['shape']}: {err}")
                        continue
                    s.attempted += 1
                    s.failed += status != 200
                    calls_by_shape.setdefault(r["shape"], []).append(
                        len(calls))
                    resp_bytes.append(len(raw))
                    if status == 200:
                        overhead_ms.append((t_http - t_direct) * 1e3)
            for name, key in (("search", "search_ms"),
                              ("url_of", "url_of_ms"),
                              ("match_count", "match_count_ms"),
                              ("snippets_of", "snippets_ms")):
                out[f"serve.{tier}.{key}"] = (
                    p50(tr.durations(f"serve.{tier}.{name}")) * 1e3, "ms")
            for shape in fixture.REQ_SHAPES:
                out[f"serve.{tier}.calls_per_request.{shape}"] = (
                    statistics.mean(calls_by_shape[shape]), "calls")
    finally:
        for srv in servers:
            srv.stop()
        stop_tiers(services)
    if errs:
        raise CheckFailed("; ".join(errs[:5]))
    out["http.overhead_ms"] = (p50(overhead_ms), "ms")
    out["http.response_bytes"] = (statistics.mean(resp_bytes), "B")


def traced_run(s: Session, probe: HostProbe, workload: str) -> dict:
    """Per-layer metrics of one run.  It does a fixed amount of work per
    layer, so ``--seconds`` does not apply."""
    tr = Tracer()
    s.make_inputs()
    out: dict = {}
    try:
        s.start_ray()
        s.build_all()
        s.attach_all()
        out["docvalues.attach_s"] = (s.phases["attach"], "s")
        build_layers(tr, s, out)
        postings_layers(tr, s, out)
        query_layers(tr, s, workload, out)
        serve_layers(tr, s, out)
    finally:
        s.stop_ray()
    os.makedirs(os.path.join(SCRATCH, "traces"), exist_ok=True)
    tr.dump(os.path.join(SCRATCH, "traces", f"{workload}-s{s.seed}.json"))
    record = {"workload": workload, "seed": s.seed, "trace": 1,
              "cpus": s.cpus, "phases": s.phases,
              "self_s": tr.self_times(), "host": probe.finish()}
    return {"correct": True, "attempted": s.attempted, "failed": s.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in out.items()},
            "record": record}

"""Distributed query serving: two layouts over one worker actor.

Reference analog: the actix-web embedding server (S9, the reference's
``server/src/lib.rs``) and its one warm ``Arc<Embedder>`` per process.
Every serving actor here is an ``IndexWorker``: one warm
``InvertedIndex`` with a generic ``call(name, dfs, ...)`` that runs the
loader method, which owns every query shape's parameter list.  The
layouts differ only in how a request is scattered and merged.

* Doc-partitioned — ``DocShardedQueryService``: each shard is a complete
  index over a disjoint doc range, held by one or more warm replicas.
  A request goes to one replica per shard (its routing key's hash, so
  a repeated request finds that replica's caches warm), every shard
  answers whole with GLOBAL statistics (manifest N/avgdl in the worker
  constructor, per-term dfs exchanged and sent with the call), and the
  front merges S small answers: top-k lists merge, counts and facet
  buckets sum, hydration takes the one shard that holds each doc.
  ``QueryService`` — N full replicas — is this layout with one shard:
  that shard's dfs are the global dfs (no exchange) and each merge of
  one list returns it unchanged.  Throughput scales with replicas;
  memory shrinks with shards.
* Term-partitioned — ``ShardedQueryService``: the index's term parts
  are split part-range per shard actor; the front tokenizes, routes
  each query term to its owning shard (part = hash64(term) % num_parts;
  shard = part % n_shards), scatter-gathers per-term scored posting
  arrays and accumulates exactly like the exhaustive DAAT path —
  bit-identical to a single-process index (pytest-asserted).  With
  ``n_doc_ranges > 1`` each term shard becomes a GROUP of doc-range
  workers that hold only their hash range's docmeta slice and decode
  only the posting blocks intersecting it; the front concatenates the
  per-range fragments in range order, which reproduces the full
  docID-sorted decode bit-for-bit.  The trade-off: it ships the query
  terms' decoded postings (bounded by df, large for stopwords), where
  the doc-partitioned layout ships O(S * k) rows.

Per-tier query surface: every tier serves search, match_count, facets
and histogram facets with one clause set (must / exclude / require_all
/ where / where_range, read by ``InvertedIndex._gate``), weighted
search and counts with where / where_range, suggest, and url_of /
snippets_of top-k hydration.  ``search_phrase`` takes the same clauses
but require_all, and runs on the doc-partitioned layout only (phrase
matching is a per-doc predicate, so per-shard match + global-stats
scores merge exactly) — a term-partitioned layout would have to ship
position runs between shards for every multi-term phrase.

The module creates actors only when a service is explicitly
instantiated — never at import (the driver owns the Ray session).
"""

from __future__ import annotations

import numpy as np

import ray

from engine import index_io
from engine.config import EngineConfig
from engine.lru import LRUCache
from engine.query import (InvertedIndex, parts_of, sum_order, terms_of,
                          weight_items)
from engine.tokenize import stable_hash64


def _route(group: list, key):
    """The replica of ``group`` a routing key lands on.  stable_hash64,
    not builtin ``hash`` (salted per process by PYTHONHASHSEED), so a
    repeated query reaches the same replica's caches across driver
    restarts; a group of one needs no hash."""
    if len(group) == 1:
        return group[0]
    h = stable_hash64([repr(key)])[0]
    return group[int(h % np.uint64(len(group)))]


def _first_held(parts: list[list]) -> list:
    """Per position, the first non-None answer across workers that hold
    disjoint doc sets (at most one of them answers for a doc)."""
    return [next((a for a in col if a is not None), None)
            for col in zip(*parts)]


def _merge_topk(parts: list[list], k: int) -> list:
    merged = [hit for p in parts for hit in p]
    # (score desc, doc_id asc) — same order the local engine uses
    merged.sort(key=lambda h: (-h[1], h[0]))
    return merged[:k]


def _sum_counts(parts: list[list]) -> list[tuple]:
    """Facet counts summed over disjoint doc sets, (count desc, value
    asc) like InvertedIndex.facet_counts."""
    tot: dict = {}
    for p in parts:
        for v, n in p:
            tot[v] = tot.get(v, 0) + n
    return sorted(tot.items(), key=lambda t: (-t[1], t[0]))


def _sum_buckets(parts: list[list]) -> list[tuple]:
    """Histogram buckets summed over disjoint doc sets (the buckets are
    fixed by the edges, so they line up)."""
    if not parts or not parts[0]:
        return []
    return [(lo, hi, sum(p[i][2] for p in parts))
            for i, (lo, hi, _) in enumerate(parts[0])]


@ray.remote
class IndexWorker:
    """One warm ``InvertedIndex``: a replica, a doc shard, or a term
    shard's (doc-range slice) worker.  Heavy load in __init__, cheap
    calls after.

    Everything the loader scores with besides per-term dfs is a
    constructor argument (``stats`` = global N / avgdl, ``doc_range``,
    ``cache_budget_bytes``): with ``max_restarts`` set, Ray re-runs
    only ``__init__`` after an actor death and replays its args, so the
    revived actor scores exactly as the original did.  Nothing mutates
    the loader after that.  A term shard's loader loads term parts
    lazily, so its postings memory is the warmed part range (mmap)."""

    def __init__(self, index_dir: str, **loader):
        self.idx = InvertedIndex(index_dir, **loader)

    def call(self, name: str, dfs: dict[str, int] | None, *args,
             **kwargs):
        """Run ``InvertedIndex.<name>`` on a view that scores with the
        GLOBAL per-term ``dfs`` (a doc shard's exchange), or on the
        loader itself when ``dfs`` is None: a replica's dfs are global,
        and so are a term shard's, whose one part holds all of a term's
        postings.  On a term shard it is safe for calls that need no
        other shard's terms or docs: a whole query whose terms all live
        here, suggest over this shard's ``parts``, snippets (disk-side
        sidecar reads) and url_of (None for ids outside the doc
        range)."""
        return getattr(self.idx.scored_with(dfs), name)(*args, **kwargs)

    def term_dfs(self, terms: list[str]) -> dict[str, int]:
        return dict(zip(terms, self.idx.dfs_of(terms)))

    # -- term-shard exchange ------------------------------------------------
    def warm(self, parts: list[int]) -> bool:
        for p in parts:
            self.idx._load_part(p)
        return True

    def docmeta_rows(self) -> int:
        """Resident docmeta rows (the memory assertion hook)."""
        return int(self.idx._doc_ids.size)

    def score_terms(self, terms: list[str],
                    where: tuple | None = None,
                    where_range: tuple | None = None) -> dict:
        """term -> (doc_ids int64, bm25 scores float64) or None,
        restricted to this worker's doc range.  Decoding + scoring
        happen shard-side; only scored arrays move.  ``where`` /
        ``where_range`` filter each term's entries by the worker's OWN
        doc-values mask (each doc-range worker holds its range's
        sidecar slice) BEFORE shipping — per-doc masks commute with
        per-term accumulation, so the front's filtered result is
        bit-identical to local daat-with-mask, and selective filters
        also shrink the bytes on the wire."""
        out = {}
        # one routing hash serves every uncached term; a cached run
        # carries its df, so a warm term is neither hashed nor probed
        route, keep = self.idx._gate(terms, where=where,
                                     where_range=where_range)
        mask = keep()
        for t in terms:
            dec = self.idx._decoded(t, route)
            pos, s = (None, None) if dec is None else dec[:2]
            if pos is not None and mask is not None:
                keep = mask[pos]
                pos, s = pos[keep], s[keep]
            # df rides along for the front's sum_order: a term's one
            # part holds ALL its postings, so this df is the global df
            out[t] = (None if pos is None or pos.size == 0
                      else (self.idx._doc_ids[pos], s, dec[2]))
        return out

    def term_doc_ids(self, terms: list[str]) -> dict:
        """term -> int64 doc ids (this worker's doc range), an EMPTY
        int64 array when the term is in the dictionary but has no live
        postings in this range, or None only for true dictionary
        ABSENCE — the distinction matters at the front: an absent
        must-term empties the result globally, an empty fragment only
        says no match in this range.  The loader's cached decode is
        None exactly on absence.
        The boolean-gate exchange of the term-sharded tier: must /
        exclude terms live on their owning shard, so the front fetches
        their global doc-id sets from here (cost = df ids, the same
        wire class as an ordinary scored term)."""
        route = self.idx._router(terms)
        decs = {t: self.idx._decoded(t, route, scored=False)
                for t in terms}
        return {t: None if dec is None else self.idx._doc_ids[dec[0]]
                for t, dec in decs.items()}

    def facets_of(self, doc_ids, col: str, edges=None) -> list[tuple]:
        """Facet counts (histogram buckets when ``edges`` is given) of
        the ids among ``doc_ids`` whose docmeta THIS worker holds — the
        counting code of InvertedIndex.facet_counts / facet_histogram,
        fed the front's gated match set instead of a local match."""
        pos, held = self.idx._held(doc_ids)
        mask = np.zeros(self.idx._doc_ids.size, dtype=bool)
        mask[pos[held]] = True
        if edges is None:
            return self.idx._value_counts(mask, col)
        return self.idx._bucket_counts(mask, col, edges)


# ---------------------------------------------------------------------------
# doc-partitioned layout: doc-range shards x replicas, distributed-IDF
# ---------------------------------------------------------------------------

class DocShardedQueryService:
    """The QPS-optimal distributed layout (classic web-search design):
    each shard holds a COMPLETE index over a disjoint doc range, answers
    top-k locally, and the front merges S small top-k lists — network
    per query is O(S * k), independent of posting lengths (vs the
    term-sharded tier's O(sum df)).  ``shards[si]`` lists shard si's
    ``replicas`` warm workers; a request runs on the one replica per
    shard its routing key (query, weight items, prefix or id list)
    hashes to, so a repeated request reuses that replica's caches.

    Exactness: naive per-shard BM25 would use local df/N/avgdl and
    drift from a single global index.  This front runs the classic
    distributed-statistics exchange instead: global N/avgdl are summed
    from the manifests and passed to each worker's constructor once;
    per query, phase 1 sums each shard's df for the query terms
    (memoized front-side) and phase 2 sends those dfs with the call,
    so each shard scores with GLOBAL stats and the merged top-k is
    exact: scores are BIT-identical to a single global index on every
    route (pytest-asserted; the sum order keys on the global df).  With
    one shard its dfs are the global dfs, so nothing is exchanged.  No
    call changes a worker's state: a shard's cached runs record the
    global df they were scored with, which is fixed for a term, so
    steady-state serving re-decodes nothing.

    Every other clause is a per-doc predicate over docs each shard
    owns whole (where / where_range sidecars, must / exclude /
    require_all postings, phrase matching), so shard-local gating
    merges exactly: top-k lists merge, counts and facet buckets sum,
    and hydration takes the one shard that answers per doc.

    Requirement: the doc partitioner must be doc-consistent (e.g.
    hash64(url) % S) so a url's duplicates dedup within one shard.
    Doc-values filters need attach_doc_values per SHARD index.
    """

    def __init__(self, index_dirs: list[str], num_cpus: float = 0.5,
                 replicas: int = 1):
        # global stats from the manifests DRIVER-side (cheap JSON reads)
        # so they can ride in the worker CONSTRUCTOR — restart-safe
        # (see IndexWorker); max_task_retries replays a read-only call
        # on the revived actor transparently
        stats = [index_io.load_manifest(d)["stats"] for d in index_dirs]
        self.n_docs = sum(int(s["n_docs"]) for s in stats)
        tot = sum(int(s["total_tokens"]) for s in stats)
        # same float op as index_io.finalize -> bitwise-equal avgdl
        self.avgdl = (tot / self.n_docs) if self.n_docs else 0.0
        self.shards = [
            [IndexWorker.options(num_cpus=num_cpus, max_restarts=4,
                                 max_task_retries=2)
             .remote(d, stats=(self.n_docs, self.avgdl))
             for _ in range(replicas)]
            for d in index_dirs]
        self.workers = [w for group in self.shards for w in group]
        # block until every replica is warm (index loaded)
        ray.get([w.call.remote("search", None, "", 1)
                 for w in self.workers])
        self.cfg = EngineConfig.from_dict(
            index_io.load_manifest(index_dirs[0])["config"])
        # count-bounded LRU: the front's global-df memo otherwise grows
        # with distinct query terms forever
        self._df_cache = LRUCache(1_000_000)
        # ops probe: wire rows + rounds of the latest TA suggest call
        self.last_suggest_stats: dict = {}

    def _global_dfs(self, terms: list[str]) -> dict[str, int] | None:
        """term -> df summed over the shards; None with one shard, whose
        own dfs are the global dfs."""
        if len(self.shards) == 1:
            return None
        out = {t: self._df_cache.get(t) for t in terms}
        missing = [t for t, v in out.items() if v is None]
        if missing:
            per_shard = ray.get([group[0].term_dfs.remote(missing)
                                 for group in self.shards])
            for t in missing:
                out[t] = sum(d[t] for d in per_shard)
        # put only after ``out`` holds every term: the puts then make
        # this query's terms the newest entries, in query order
        for t in terms:
            self._df_cache.put(t, out[t], 1)
        return out

    def _dfs(self, query: str) -> dict[str, int] | None:
        # must / exclude terms are membership masks, df-independent:
        # only scored terms exchange
        return self._global_dfs(terms_of(query, self.cfg))

    def _submit(self, key, name: str, dfs, *args, **kwargs) -> list:
        """Start ``InvertedIndex.<name>`` on the replica ``key`` routes
        to in every shard -> the futures, in shard order."""
        return [_route(group, key).call.remote(name, dfs, *args, **kwargs)
                for group in self.shards]

    def _fan(self, key, name: str, dfs, *args, **kwargs) -> list:
        return ray.get(self._submit(key, name, dfs, *args, **kwargs))

    def search(self, query: str, k: int = 10, **clauses):
        if k <= 0:
            return []
        return _merge_topk(self._fan(query, "search", self._dfs(query),
                                     query, k, **clauses), k)

    def search_many(self, queries: list[str], k: int = 10, **clauses):
        """Pipelined: all queries' per-shard top-k futures are in flight
        before the first merge (merges touch only shards x k rows)."""
        if k <= 0:
            return [[] for _ in queries]
        plans = [self._submit(q, "search", self._dfs(q), q, k, **clauses)
                 for q in queries]
        return [_merge_topk(ray.get(p), k) for p in plans]

    def search_phrase(self, query: str, k: int = 10, **kwargs):
        """Distributed phrase / proximity top-k (positional shard
        indexes only).  Phrase matching is a PER-DOCUMENT predicate and
        every doc lives whole on one shard, so scattering the phrase
        and merging per-shard top-k is exact — the reason real engines
        shard by document, not by term: a term-sharded layout would
        have to ship position runs between shards for every multi-term
        phrase."""
        if k <= 0:
            return []
        return _merge_topk(self._fan(query, "search_phrase",
                                     self._dfs(query), query, k, **kwargs),
                           k)

    def search_weighted(self, term_weights, k: int = 10, **filters):
        """Weighted-term (SPLADE-seam) top-k: the weight keys are the
        scored terms VERBATIM (callers supply already-analyzed terms,
        the learned-sparse contract), so the global-df exchange runs
        over them directly — no tokenize."""
        if k <= 0:
            return []
        items = weight_items(term_weights)
        dfs = self._global_dfs(list(dict.fromkeys(t for t, _ in items)))
        return _merge_topk(self._fan(items, "search_weighted", dfs, items,
                                     k, **filters), k)

    def match_count_weighted(self, term_weights, **filters) -> int:
        items = weight_items(term_weights)
        return sum(self._fan(items, "match_count_weighted", None, items,
                             **filters))

    def match_count(self, query: str, **clauses) -> int:
        # masks need no df, but a miss decodes with the global dfs, so
        # the scored searches that follow reuse the run
        return sum(self._fan(query, "match_count", self._dfs(query), query,
                             **clauses))

    def facet_counts(self, query: str, col: str, **gates):
        return _sum_counts(self._fan(query, "facet_counts",
                                     self._dfs(query), query, col, **gates))

    def facet_histogram(self, query: str, col: str, edges, **gates):
        return _sum_buckets(self._fan(query, "facet_histogram",
                                      self._dfs(query), query, col,
                                      list(edges), **gates))

    def snippets_of(self, query: str, doc_ids, *args, **kwargs):
        """Each shard windows the docs it owns (doc text never crosses
        the wire — only the k window strings return)."""
        return _first_held(self._fan(query, "snippets_of", None, query,
                                     list(doc_ids), *args, **kwargs))

    def url_of(self, doc_ids):
        ids = list(doc_ids)
        return _first_held(self._fan(ids, "url_of", None, ids))

    def suggest(self, prefix: str, k: int = 10):
        """Distributed prefix suggestion by THRESHOLD ALGORITHM (Fagin
        TA shape) — a term outside one shard's local top-k can still
        win on the SUMMED df, but full per-shard enumeration ships
        ~every prefixed (term, df) pair per keystroke.  Instead:

        phase 1: each shard returns its local top-(m+1) (m = 2k + 8,
        doubling per round): the top-m, and as REMAINDER BOUND the
        (m+1)th df — an upper bound on any term it didn't return (the
        rows are df-desc sorted).  theta = the kth
        largest PARTIAL sum over seen terms (a lower bound of the true
        kth summed df); rounds deepen until no UNSEEN term's upper
        bound (sum of all remainder bounds) can reach theta, or every
        shard is exhausted.

        phase 2: exact dfs are fetched ONLY for seen terms whose upper
        bound (partial + non-reporting shards' remainder bounds) can
        still reach theta, and only from the shards that didn't report
        them.  Terms pruned by either phase have exact sum strictly
        below the kth exact sum (partial <= exact, bounds are upper
        bounds), so the cut is BIT-IDENTICAL to the exhaustive merge —
        pytest pins this against the exhaustive merge of every
        shard's whole prefixed range on the fixture set.  With one
        shard the rounds deepen until its (m+1)th df falls below the
        kth, which keeps every tie at the kth df.

        ``last_suggest_stats`` records wire rows + rounds (the test's
        exchange-size assertion and an ops probe)."""
        if k <= 0 or not prefix:
            return []
        workers = [_route(group, prefix) for group in self.shards]
        n_shards = len(workers)
        seen: list[dict[str, int]] = [dict() for _ in range(n_shards)]
        bounds = [0] * n_shards
        exhausted = [False] * n_shards
        wire_rows = 0
        m = 2 * k + 8
        rounds = 0
        while True:
            rounds += 1
            live = [si for si in range(n_shards) if not exhausted[si]]
            parts = ray.get([workers[si].call.remote(
                "suggest", None, prefix, m + 1) for si in live])
            for si, rows in zip(live, parts):
                wire_rows += len(rows)
                exhausted[si] = len(rows) <= m
                bounds[si] = 0 if exhausted[si] else int(rows[m][1])
                seen[si] = dict(rows[:m])  # refetch supersedes (superset)
            partial: dict[str, int] = {}
            for s in seen:
                for t, df in s.items():
                    partial[t] = partial.get(t, 0) + df
            if all(exhausted):
                # every (term, shard) df is known — partials are exact
                out = sorted(partial.items(), key=lambda x: (-x[1], x[0]))
                self.last_suggest_stats = {"wire_rows": wire_rows,
                                           "rounds": rounds, "exact_fetch": 0}
                return out[:k]
            unseen_upper = sum(bounds)
            if len(partial) >= k:
                theta = sorted(partial.values(), reverse=True)[k - 1]
                if unseen_upper < theta:
                    break
            m *= 2
        # phase 2: exact sums for candidates whose upper bound reaches
        # theta, fetched only from the shards that didn't report them
        need: list[list[str]] = [[] for _ in range(n_shards)]
        cand = []
        for t, p in partial.items():
            upper = p + sum(bounds[si] for si in range(n_shards)
                            if t not in seen[si])
            if upper >= theta:
                cand.append(t)
                for si in range(n_shards):
                    if t not in seen[si] and not exhausted[si]:
                        need[si].append(t)
        fetch = [(si, ts) for si, ts in enumerate(need) if ts]
        extra = ray.get([workers[si].term_dfs.remote(ts)
                         for si, ts in fetch])
        exact_fetch = sum(len(ts) for _, ts in fetch)
        for (si, _ts), dfs in zip(fetch, extra):
            for t, df in dfs.items():
                seen[si][t] = df
        tot = {t: sum(s.get(t, 0) for s in seen) for t in cand}
        out = sorted(tot.items(), key=lambda x: (-x[1], x[0]))
        self.last_suggest_stats = {"wire_rows": wire_rows + exact_fetch,
                                   "rounds": rounds,
                                   "exact_fetch": exact_fetch}
        return out[:k]

    def shutdown(self):
        for w in self.workers:
            ray.kill(w)
        self.shards = []
        self.workers = []


class QueryService(DocShardedQueryService):
    """N warm full replicas: the doc-partitioned layout with one shard.
    Throughput scales with replicas; memory does not shrink."""

    def __init__(self, index_dir: str, replicas: int = 2,
                 num_cpus: float = 1.0):
        super().__init__([index_dir], num_cpus=num_cpus, replicas=replicas)


# ---------------------------------------------------------------------------
# term-partitioned layout: part-range shards + scatter-gather front
# ---------------------------------------------------------------------------

_MISS = object()    # cache-miss sentinel: None is a cached gate value


class _Front:
    """Stateless routing + accumulation logic shared by
    ShardedQueryService (the local front) and the FrontWorker pool.  ``shards[si][ri]`` is the replica
    list for term-shard si, doc-range ri: a query term is routed to its
    owning term shard and fanned across that shard's doc-range workers;
    the per-range scored fragments are concatenated in ascending-range
    order, which reproduces the full docID-sorted decode exactly.

    Every query shape runs on one core: ``_scatter`` fires the scored
    term fragments (and the gate-term id sets), ``_match`` gathers them
    into the gated candidate set with its (weighted) BM25 sums.  search
    and search_weighted rank it, match_count counts it and the facets
    count it on one worker per doc range."""

    # gate-set cache budget: sorted int64 id arrays of must/exclude
    # terms (8 B/id).  Gate terms repeat across queries (a tenant's
    # exclusion list, a stopword MUST_NOT) and the sets are immutable
    # for a served index, so caching front-side turns the per-query
    # df-sized exchange into a one-time cost — measured at 3.2M docs:
    # exclude-stopword warm p50 240 ms -> ~plain without the refetch.
    GATE_CACHE_BYTES = 256 << 20

    _EMPTY = (np.empty(0, dtype=np.int64), np.empty(0))

    def __init__(self, cfg: EngineConfig, shards: list):
        self.cfg = cfg
        self.n_shards = len(shards)
        self.shards = shards
        self.n_ranges = len(shards[0]) if shards else 1
        self._rr = 0
        # term -> sorted global int64 ids, or None for absent terms
        # (absence is worth caching too: an absent must-term empties
        # every query that names it; it costs a nominal 64 B).  The
        # LOCAL front is called concurrently by the threaded HTTP
        # server — the cache's own lock covers it.  A scatter plan
        # holds the cached sets it found, so no later eviction can
        # take them from its gather.
        self._gate_cache = LRUCache(self.GATE_CACHE_BYTES)

    def _shards_of(self, terms: list[str]) -> dict[str, int]:
        """term -> owning term shard for all of one request's terms,
        routed by one hasher call."""
        return {t: p % self.n_shards
                for t, p in zip(terms, parts_of(terms, self.cfg))}

    def _replica(self, si: int, ri: int):
        replicas = self.shards[si][ri]
        return replicas[self._rr % len(replicas)]

    def _scatter(self, terms: list[str], where: tuple | None = None,
                 where_range: tuple | None = None, must: str | None = None,
                 exclude: str | None = None, require_all: bool = False,
                 shard: dict | None = None):
        """Submit score_terms futures for distinct ``terms`` (no
        blocking) -> plan, or None when there is no term.  ``shard``:
        the request's ``_shards_of`` when the caller already routed
        every term this scatter names (one routing hash per request).

        ``where`` / ``where_range`` apply SHARD-SIDE: each doc-range
        worker masks its scored fragments with its own sidecar slice
        before shipping (per-doc masks commute with per-term
        accumulation, and selective filters shrink the wire bytes).
        Boolean gates: ``must`` / ``exclude`` terms are routed to their
        OWNING shards for doc-id sets (term_doc_ids — fired together
        with the score futures, no extra round-trip of latency), and
        the gather applies the gate masks before the top-k cut, exactly
        reproducing the local engine's mask-then-_topk order.
        ``require_all`` needs no extra exchange at all: the per-term
        fragments the front already holds say which terms cover each
        candidate."""
        if not terms:
            return None
        must_terms = terms_of(must, self.cfg) if must else []
        ex_terms = terms_of(exclude, self.cfg) if exclude else []
        if shard is None:
            shard = self._shards_of(terms + must_terms + ex_terms)
        by_shard: dict[int, list[str]] = {}
        for t in terms:
            by_shard.setdefault(shard[t], []).append(t)
        self._rr += 1
        futs = {(si, ri): self._replica(si, ri).score_terms.remote(
                    ts, where, where_range)
                for si, ts in by_shard.items()
                for ri in range(self.n_ranges)}
        gate = None
        if must_terms or ex_terms:
            sets: dict[str, "np.ndarray | None"] = {}
            gate_by_shard: dict[int, list[str]] = {}
            for t in dict.fromkeys(must_terms + ex_terms):
                v = self._gate_cache.get(t, _MISS)
                if v is _MISS:
                    gate_by_shard.setdefault(shard[t], []).append(t)
                else:
                    sets[t] = v                 # cached set: no fetch
            gfuts = [(ri, self._replica(si, ri).term_doc_ids.remote(ts))
                     for si, ts in gate_by_shard.items()
                     for ri in range(self.n_ranges)]
            gate = (must_terms, ex_terms, gfuts, sets)
        return terms, futs, gate, require_all

    @staticmethod
    def _fragments(futs: dict) -> dict:
        """term -> (ids, scores, df): per-range fragments concatenated
        in ascending doc-range order, which equals the full docID-sorted
        decode (so float accumulation is bit-identical to the local
        engine's daat path).  df rides from the term's one owning part,
        so it is the global df."""
        keys = sorted(futs, key=lambda sr: sr[1])
        parts: dict[str, list] = {}
        for res in ray.get([futs[key] for key in keys]):
            for t, ent in res.items():
                if ent is not None:
                    parts.setdefault(t, []).append(ent)
        return {t: ents[0] if len(ents) == 1 else
                (np.concatenate([e[0] for e in ents]),
                 np.concatenate([e[1] for e in ents]), ents[0][2])
                for t, ents in parts.items()}

    def _match(self, plan, items=None):
        """Gather a scatter plan -> (ids, scores): the gated candidate
        doc ids (sorted) and their sums of ``w * score`` over ``items``
        ((term, weight) pairs; None = every plan term at weight 1.0),
        added in the local engine's ``sum_order``."""
        if plan is None:
            return self._EMPTY
        terms, futs, gate, require_all = plan
        frags = self._fragments(futs)
        if not frags or (require_all and any(t not in frags
                                             for t in terms)):
            return self._EMPTY              # a query term matched nowhere
        entries = sum_order(
            [e for e in (items or [(t, 1.0) for t in terms])
             if e[0] in frags], lambda e: frags[e[0]][2])
        ids = np.concatenate([frags[t][0] for t, _ in entries])
        scores = np.concatenate([frags[t][1] if w == 1.0
                                 else w * frags[t][1] for t, w in entries])
        uniq, inv = np.unique(ids, return_inverse=True)
        # bincount does the same input-order per-bin accumulation as
        # np.add.at (bit-identical float sums) in buffered C — add.at
        # is unbuffered and costs seconds at multi-M stopword df
        acc = np.bincount(inv, weights=scores, minlength=uniq.size)
        keep = None
        if require_all:
            # each term contributes a doc at most once (ranges are
            # disjoint), so per-candidate fragment count == number of
            # query terms containing it
            keep = np.bincount(inv, minlength=uniq.size) == len(terms)
        if gate is not None:
            keep = self._gate_keep(gate, uniq, keep)
        if keep is not None:
            uniq, acc = uniq[keep], acc[keep]
        return uniq, acc

    def _gate_keep(self, gate, uniq: np.ndarray, keep):
        """AND the must / exclude gates of ``gate`` into ``keep`` (None
        = keep all) over the candidate ids ``uniq``."""
        # the plan's cached sets, overlaid with the fetched ones
        must_terms, ex_terms, gfuts, sets = gate
        if gfuts:
            res = ray.get([f for _, f in gfuts])
            per_term: dict[str, list] = {}
            for i in sorted(range(len(gfuts)),
                            key=lambda j: gfuts[j][0]):  # range order
                for t, tids in res[i].items():
                    per_term.setdefault(t, []).append(tids)
            for t, frs in per_term.items():
                # None (dictionary absence) comes from every range alike
                full = (None if frs[0] is None else frs[0] if len(frs) == 1
                        else np.concatenate(frs))
                sets[t] = full
                self._gate_cache.put(t, full,
                                     64 if full is None else full.nbytes)

        def member(sorted_ids: np.ndarray) -> np.ndarray:
            pos = np.searchsorted(sorted_ids, uniq)
            safe = np.minimum(pos, sorted_ids.size - 1)
            return ((pos < sorted_ids.size)
                    & (sorted_ids[safe] == uniq))

        for t in must_terms:
            tids = sets.get(t)
            if tids is None:               # absent must-term empties
                return np.zeros(uniq.size, dtype=bool)
            m = (member(tids) if tids.size
                 else np.zeros(uniq.size, dtype=bool))
            keep = m if keep is None else (keep & m)
        for t in ex_terms:
            tids = sets.get(t)
            if tids is not None and tids.size:
                m = ~member(tids)
                keep = m if keep is None else (keep & m)
        return keep

    def _submit(self, query: str, k: int, where: tuple | None = None,
                where_range: tuple | None = None, **gates):
        """Start one search -> a plan, or a whole-query future when
        every term lives on one shard and nothing gates: the single-
        shard fast path ships the query and gets k rows back (O(k)
        network instead of the terms' decoded postings); daat there is
        the same decode order + float accumulation as the gather, so
        results stay bit-identical."""
        terms = terms_of(query, self.cfg)
        if any(gates.values()):
            return self._scatter(terms, where, where_range, **gates)
        shard = self._shards_of(terms)
        shards = set(shard.values())
        if len(shards) == 1 and self.n_ranges == 1:
            self._rr += 1
            return self._replica(shards.pop(), 0).call.remote(
                "search", None, query, k, method="daat", where=where,
                where_range=where_range)
        return self._scatter(terms, where, where_range, shard=shard)

    def _finish(self, plan, k: int):
        if isinstance(plan, ray.ObjectRef):
            return ray.get(plan)
        return InvertedIndex._topk(*self._match(plan), k)

    def search(self, query: str, k: int = 10, **clauses):
        if k <= 0:
            return []
        return self._finish(self._submit(query, k, **clauses), k)

    def search_many(self, queries: list[str], k: int = 10, **clauses):
        """Pipelined scatter-gather: every query's shard futures are in
        flight before the first gather, so shard work for query i+1
        overlaps the front's accumulate for query i."""
        if k <= 0:
            return [[] for _ in queries]
        plans = [self._submit(q, k, **clauses) for q in queries]
        return [self._finish(p, k) for p in plans]

    def match_count(self, query: str, **clauses) -> int:
        """Total hits under the full clause set (hits.total): the
        gated candidate set search() scores, counted."""
        plan = self._scatter(terms_of(query, self.cfg), **clauses)
        return int(self._match(plan)[0].size)

    def search_weighted(self, term_weights, k: int = 10,
                        where: tuple | None = None,
                        where_range: tuple | None = None):
        """Weighted-term (learned-sparse / SPLADE-seam) top-k over the
        term-sharded tier — the tier this retrieval shape is MADE for:
        a sparse learned query names many terms, and each term's whole
        posting list lives on exactly one shard, so scoring stays
        shard-side and only scored fragments cross the wire.

        Weight keys are routed VERBATIM to their owning shards (callers
        supply already-analyzed terms — no tokenize, the learned-sparse
        contract); a repeated key stays a separate ``_match`` item."""
        if k <= 0:
            return []
        items = weight_items(term_weights)
        return InvertedIndex._topk(*self._match(self._scatter(
            list(dict.fromkeys(t for t, _ in items)), where, where_range),
            items), k)

    def match_count_weighted(self, term_weights,
                             where: tuple | None = None,
                             where_range: tuple | None = None) -> int:
        keys = list(dict.fromkeys(t for t, _ in weight_items(term_weights)))
        return int(self._match(self._scatter(keys, where,
                                             where_range))[0].size)

    def facet_counts(self, query: str, col: str, **gates):
        return _sum_counts(self._facets(query, col, None, **gates))

    def facet_histogram(self, query: str, col: str, edges, **gates):
        edges = [float(e) for e in edges]
        if len(edges) < 2:
            return []
        return _sum_buckets(self._facets(query, col, edges, **gates))

    def _facets(self, query: str, col: str, edges, **clauses) -> list:
        """Per-doc-range facet parts: the scatter match_count uses gives
        the gated match set, and one worker per doc range counts the
        matched docs it holds from its own sidecar slice."""
        ids = self._match(self._scatter(terms_of(query, self.cfg),
                                        **clauses))[0]
        si = self._rr % self.n_shards
        return ray.get([self._replica(si, ri).facets_of.remote(
            ids, col, edges) for ri in range(self.n_ranges)])


@ray.remote
class FrontWorker:
    """A front as an actor: tokenize + route + accumulate off the
    driver.  Fronts are stateless routers (only shard HANDLES are
    state), so throughput scales by adding fronts — the serial
    accumulate is otherwise the sharded tier's bottleneck."""

    def __init__(self, cfg_dict: dict, shards: list):
        self.front = _Front(EngineConfig.from_dict(cfg_dict), shards)

    def search_many(self, queries: list[str], k: int = 10, **clauses):
        return self.front.search_many(queries, k, **clauses)


class ShardedQueryService(_Front):
    """Scatter-gather over part-range shards (optionally replicated per
    shard, optionally with an actor pool of fronts); the service is
    itself the local front.  Results are bit-identical to a local
    ``InvertedIndex.search(..., method="daat")`` — every front
    reproduces its exact accumulation order (see _Front; clauses:
    where / where_range / must / exclude / require_all)."""

    def __init__(self, index_dir: str, n_shards: int = 2,
                 replicas_per_shard: int = 1, n_fronts: int = 0,
                 num_cpus: float = 0.5, n_doc_ranges: int = 1,
                 cache_budget_bytes: int = 1 << 30):
        # num_cpus=0.5 per actor: shard/front actors alternate decode
        # and network waits, and a full-CPU reservation per actor can
        # STARVE small sessions (shards x replicas + fronts actors must
        # all be placed before warm() returns — a 1.0 reservation each
        # deadlocks a 4-cpu pytest session; round-1 aggregator-pool
        # lesson applied to serving)
        #
        # n_doc_ranges > 1 splits each term shard into a GROUP of
        # doc-range workers: doc ids are uniform 63-bit hashes, so
        # equal-width hash ranges are balanced with no docmeta scan.
        # Each worker holds only its range's docmeta (the residency
        # fix) and decodes only its range's posting-block window.
        # The per-worker decoded-term cache budget divides by the
        # total worker count so the tier's aggregate cache stays
        # within one budget.
        cfg = EngineConfig.from_dict(
            index_io.load_manifest(index_dir)["config"])
        bounds = [(2 ** 63) * r // n_doc_ranges
                  for r in range(n_doc_ranges + 1)]
        per_worker_budget = max(
            1 << 20,
            cache_budget_bytes
            // (n_shards * n_doc_ranges * replicas_per_shard))
        shards = []
        self._shard_parts: list[list[int]] = []
        for si in range(n_shards):
            parts = [p for p in range(cfg.num_parts) if p % n_shards == si]
            self._shard_parts.append(parts)
            ranges = []
            for ri in range(n_doc_ranges):
                doc_range = ((bounds[ri], bounds[ri + 1])
                             if n_doc_ranges > 1 else None)
                replicas = [IndexWorker.options(
                                num_cpus=num_cpus, max_restarts=4,
                                max_task_retries=2)
                            .remote(index_dir, doc_range=doc_range,
                                    cache_budget_bytes=per_worker_budget)
                            for _ in range(replicas_per_shard)]
                ray.get([r.warm.remote(parts) for r in replicas])
                ranges.append(replicas)
            shards.append(ranges)
        super().__init__(cfg, shards)
        self.fronts = [
            FrontWorker.options(num_cpus=num_cpus, max_restarts=4,
                                max_task_retries=2)
            .remote(cfg.to_dict(), shards)
            for _ in range(n_fronts)
        ]

    def search_many(self, queries: list[str], k: int = 10, **clauses):
        """With fronts: interleave the batch across the front pool
        (results in input order); without: this front, pipelined."""
        if not self.fronts:
            return super().search_many(queries, k, **clauses)
        n = len(self.fronts)
        batches = [queries[i::n] for i in range(n)]
        parts = ray.get([f.search_many.remote(b, k, **clauses)
                         for f, b in zip(self.fronts, batches) if b])
        out = [None] * len(queries)
        for fi, res in enumerate(parts):
            for j, r in enumerate(res):
                out[fi + j * n] = r
        return out

    def suggest(self, prefix: str, k: int = 10):
        """Distributed prefix suggestion on the term-sharded tier.
        Unlike the doc-sharded tier (summed dfs -> threshold
        algorithm), term shards hold DISJOINT dictionary parts, so each
        shard's local top-k is already exact for its term subset and
        the front needs one concat + cut — O(S x k) wire rows, no
        exchange rounds.  Dictionaries are identical across a shard's
        doc-range workers; one replica per shard answers."""
        if k <= 0 or not prefix:
            return []
        futs = [ranges[0][0].call.remote("suggest", None, prefix, k,
                                         self._shard_parts[si])
                for si, ranges in enumerate(self.shards)]
        cand = [r for p in ray.get(futs) for r in p]
        cand.sort(key=lambda t: (-t[1], t[0]))
        return cand[:k]

    def snippets_of(self, query: str, doc_ids, *args, **kwargs):
        """Top-k snippet hydration: routed to ONE worker (the sidecar
        read is disk-side and independent of the worker's term-part /
        doc-range residency), so only the k window strings move."""
        return ray.get(self.shards[0][0][0].call.remote(
            "snippets_of", None, query, list(doc_ids), *args, **kwargs))

    def url_of(self, doc_ids):
        """Top-k url hydration: shard 0's doc-range workers tile the id
        space, so scattering the ids to that ONE group and taking the
        first non-None per position is exact (with n_doc_ranges=1 it is
        a single call).  Only k urls move."""
        ids = list(doc_ids)
        return _first_held(ray.get([
            replicas[0].call.remote("url_of", None, ids)
            for replicas in self.shards[0]]))

    def shutdown(self):
        for ranges in self.shards:
            for replicas in ranges:
                for w in replicas:
                    ray.kill(w)
        for f in self.fronts:
            ray.kill(f)
        self.shards = []
        self.fronts = []

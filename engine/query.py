"""BM25 top-k query engine over the built index.

Reference analog: query-side embed + external vector-DB search
(/root/reference/rust/src/lib.rs:195-210 embed_query;
/root/reference/examples/SearchAgent/SearchR1/lance_retrieval.py:103-147
table.search().limit(num)).  Here retrieval is in-engine: tokenize the
query with the SAME analyzer, fetch postings for the query terms from
the term-partitioned segments (a broadcast join of the tiny query-term
set against the term dictionary, SURVEY.md J3), score with Okapi BM25
and merge a top-k heap.

Scoring (BASELINE.md §2; float64 throughout, ties broken doc_id asc):

    idf(t)  = ln(1 + (N - df + 0.5) / (df + 0.5))
    s(t, d) = idf(t) * tf * (k1+1) / (tf + k1 * (1 - b + b * dl/avgdl))
    score(q, d) = sum over DISTINCT query terms of s(t, d)

Sum order.  Float addition is not associative, so the order in which a
document's term scores are added is part of the answer.  Every scorer
(exhaustive, pruned, filtered, AND, and phrase, which scores through
the AND core) and the term-sharded front (engine/serve.py) add them in
ascending (global df, term) order, the one key of ``sum_order``,
starting from 0.0.  So ``search`` equals ``search_weighted`` with every
weight 1.0 bit for bit, a phrase hit scores what ``search(q,
require_all=True)`` gives that doc, both routes below return the same
bits, and every serving tier equals the local engine.

Clauses.  ``_gate`` is the one reader of a request's ``must`` /
``exclude`` / ``where`` / ``where_range`` clauses: every query shape
(search, weighted, phrase, counts, facets) takes its keep-mask from it.

One top-k core serves ``search`` (weighted search at w = 1) and
``search_weighted``, with two routes that give identical answers:
  * exhaustive — decode every query term's postings (cached) and add
    them into a dense per-position array.
  * pruned — two-phase MaxScore over per-block (max_tf, min_doclen)
    upper bounds: pruning only picks the surviving documents, whose
    scores are then re-added in ``sum_order``.
``method="bmw"`` (the default) takes the pruned route when every weight
is positive and the cost rule ``_prunes`` expects phase B to skip
blocks: some term has more than ``4 * k`` posting blocks and another is
at most half as common.  ``method="daat"`` always runs exhaustive.
Because the bits match, the route never changes an answer.

Beyond ranked OR: ``require_all`` (AND), the ``_gate`` clauses,
``search_phrase`` (positional, slop), ``suggest``
(prefix autocomplete), ``facet_counts`` / ``facet_histogram`` (match-set
aggregations), ``values_of`` (stored-field hydration).

The loaded state (term dictionaries, docmeta arrays) is the per-worker
state the reference keeps in ``Arc<Embedder>``
(/root/reference/rust/src/lib.rs:839); serve it inside a Ray actor for
distributed query serving (one `QueryActor` per replica).
"""

from __future__ import annotations

import copy
import functools
import os
from typing import NamedTuple

import numpy as np
import pyarrow.parquet as pq

from engine import index_io
from engine.config import EngineConfig
from engine.lru import LRUCache
from engine.postings import (decode_blocks, decode_postings, decode_skips,
                             decode_positions, gather_slices)
from engine.tokenize import HASH_FNS, tokenize


def terms_of(query: str, cfg: EngineConfig) -> list[str]:
    """Distinct query terms in first-occurrence order (qtf ignored —
    BASELINE.md): the one analyzer every loader and serving front uses."""
    return list(dict.fromkeys(tokenize(query, cfg.cjk_unigrams)))


def parts_of(terms: list[str], cfg: EngineConfig) -> list[int]:
    """Terms -> their term-partition ids (the build's routing hash,
    engine/build.py ``make_tokenize_partial``), with ONE hasher call for
    the whole list: the call's fixed cost (~14 us for SipHash via
    pandas) dwarfs the per-term work, so a request routes all of its
    terms at once.  The hash is elementwise, so each id equals
    ``part_of`` of that term alone.  The term-sharded tier derives
    term -> shard from it."""
    if not terms:
        return []
    return (HASH_FNS[cfg.term_hash](np.array(terms, dtype=object))
            % np.uint64(cfg.num_parts)).tolist()


def part_of(term: str, cfg: EngineConfig) -> int:
    """One term's ``parts_of``."""
    return parts_of([term], cfg)[0]


def sum_order(entries, gdf) -> list:
    """``entries`` (tuples led by their term) in the one order an exact
    scorer adds a document's term scores: ascending (global df, term),
    where ``gdf(entry)`` is the entry's global df.  The sort is stable,
    so a term repeated in a weighted query keeps its input order."""
    return sorted(entries, key=lambda e: (gdf(e), e[0]))


def weight_items(term_weights) -> list[tuple[str, float]]:
    """A weighted query (dict term -> weight, or iterable of (term,
    weight) pairs) as its nonzero (term, weight) pairs in input order.
    A repeated term stays repeated: each pair is its own accumulation
    step, on every tier alike."""
    items = (term_weights.items() if isinstance(term_weights, dict)
             else term_weights)
    return [(str(t), float(w)) for t, w in items if float(w) != 0.0]


class _Item(NamedTuple):
    """One (term, weight) of a query as the top-k core scores it: its
    global df (the ``sum_order`` key and the idf's df), its local df
    (postings to decode), and either its cached run ``(pos, scores,
    df, gdf)`` or the encoded postings and skips a miss decodes
    from."""
    term: str
    w: float
    gdf: int
    df: int
    run: tuple | None
    pbytes: bytes | None = None
    skips: np.ndarray | None = None


class InvertedIndex:
    """Loads the manifest + docmeta eagerly, term dictionaries lazily;
    posting/skip blobs are mmapped by default (a term lookup touches
    only its byte range — resident memory tracks the query working set,
    not the segment size).  At 10^12-doc scale the part-range sharding
    lives in engine.serve.ShardedQueryService (scatter-gather over this
    same loader); docmeta sharding per actor group is the remaining
    documented step.

    Nothing mutates a loader after construction, so one loader serves
    concurrent searches with no lock.  Its caches are ``LRUCache``s
    (thread-safe) or per-key single assignments of idempotent loads.
    Corpus statistics are inputs: ``stats=(n_docs, avgdl)`` replaces
    the manifest's (a doc-range shard scoring with GLOBAL statistics),
    and per-term global dfs come with a call through ``scored_with``.
    A decoded run records the global df it was scored with, so a
    request whose df differs re-decodes that term alone.
    """

    def __init__(self, index_dir: str, use_mmap: bool = True,
                 cache_budget_bytes: int = 1 << 30,
                 doc_range: tuple[int, int] | None = None,
                 deleted=None,
                 stats: tuple[int, float] | None = None):
        self.index_dir = index_dir
        self.use_mmap = use_mmap  # serving default: page-cache-backed blobs
        self.manifest = index_io.load_manifest(index_dir)
        self.cfg = EngineConfig.from_dict(self.manifest["config"])
        st = self.manifest["stats"]
        n_docs, avgdl = stats or (st["n_docs"], st["avgdl"])
        self.n_docs = int(n_docs)
        self.avgdl = float(avgdl) or 1.0
        # doc_range=[lo, hi): this loader holds ONLY that range's docmeta
        # (O(corpus / n_ranges) resident) and decodes only posting blocks
        # intersecting the range — the term-sharded serving tier's
        # docmeta-residency fix.  N/avgdl stay GLOBAL (from the
        # manifest), so per-range scores equal the full index's.
        self.doc_range = doc_range
        dm = index_io.read_docmeta(index_dir, self.cfg, doc_range=doc_range)
        ids = dm.column("doc_id").to_numpy()
        order = np.argsort(ids, kind="stable")
        self._doc_ids = ids[order]                       # sorted for searchsorted
        self._doclens = dm.column("doclen").to_numpy()[order].astype(np.float64)
        self._urls = np.asarray(dm.column("url").to_pylist(), dtype=object)[order]
        # Deletion overlay (Lucene-style tombstones): deleted docs are
        # masked out of every decoded run BEFORE caching, so they never
        # score — but N/avgdl/df stay the STALE stored values until
        # engine.merge.compact_index rewrites the segments (documented
        # semantics; a fresh build over the survivors re-bases stats).
        # ``deleted`` overrides the on-disk ``_deletes.parquet`` (lets a
        # caller query "as if deleted" without mutating a shared dir).
        if deleted is None:
            deleted = index_io.load_deletes(index_dir)
        deleted = np.asarray(deleted, dtype=np.int64)
        self._del_mask = None
        pos, held = self._held(deleted)
        if held.any():
            self._del_mask = np.zeros(self._doc_ids.size, dtype=bool)
            self._del_mask[pos[held]] = True
        # part -> (dictionary, postings blob, skips blob), stored in one
        # assignment so a concurrent reader never sees half a part
        self._parts: dict[int, tuple] = {}
        self._posblob_cache: dict[int, bytes] = {}  # positional indexes
        # decoded-term caches budget BYTES, not term count: one
        # stopword list at 10^6+ df decodes to tens of MB, so a count
        # cap either thrashes (every query re-decodes its stopwords —
        # measured 1.02 s p95 at 1.6M docs with a 64-term cap) or
        # overruns memory.  LRU by bytes holds the query working set.
        self._postings_cache = LRUCache(cache_budget_bytes)  # hot terms
        # the pruned route's per-term state, computed once per global
        # df: term -> (df, postings bytes, skips, global df, score bound)
        self._bounds_cache = LRUCache(max(1 << 20, cache_budget_bytes // 8))
        self._positions_cache = LRUCache(cache_budget_bytes)  # phrase terms
        # doc-values sidecars (engine/docvalues.py): per column, the
        # factorized value codes aligned to _doc_ids (-1 = no sidecar
        # row) + the unique value array; masks cached per (col, values)
        self._dv_cache: dict[str, tuple] = {}
        # each mask is 1 byte/doc and every DISTINCT (col, values) or
        # (col, lo, hi) tuple is its own key — per-tenant filters or
        # sliding range windows would otherwise grow it without bound
        self._dv_mask_cache = LRUCache(max(1 << 20, cache_budget_bytes // 8))
        # term -> global df to score with; empty here, set per call on a
        # ``scored_with`` view
        self._gdfs: dict[str, int] = {}

    @property
    def cache_budget_bytes(self) -> int:
        """Byte budget of each decoded-term cache (scores, positions)."""
        return self._postings_cache.budget

    def scored_with(self, dfs: dict[str, int] | None) -> "InvertedIndex":
        """This loader as one call sees it when each term of ``dfs``
        scores with that global df (the doc-sharded tier's distributed-
        IDF exchange): a shallow copy that shares every cache and
        differs only in its df map.  Without ``dfs``, the loader
        itself."""
        if not dfs:
            return self
        view = copy.copy(self)
        view._gdfs = dict(dfs)
        return view

    # -- doc-values filters ---------------------------------------------------
    def _load_doc_values(self, col: str):
        """Sidecar column -> (codes aligned to ``_doc_ids``, uniques).
        Values are FACTORIZED once at load so every later mask is pure
        integer work (an object-dtype isin over multi-M docs would be a
        per-query Python-level scan); docs without a sidecar row get
        code -1.  Respects ``doc_range`` (per-part filter before concat,
        like docmeta itself)."""
        hit = self._dv_cache.get(col)
        if hit is not None:
            return hit
        import pandas as pd
        from engine.docvalues import read_doc_values
        t = read_doc_values(self.index_dir, self.cfg, col,
                            doc_range=self.doc_range)
        ids = t.column("doc_id").to_numpy()
        vals = np.asarray(t.column(col).to_pylist(), dtype=object)
        codes, uniq = pd.factorize(vals)
        # int32 codes: 4 B/doc resident per column (a 100M-doc shard's
        # column costs 400 MB at int64 — half that matters; cardinality
        # beyond 2^31 values would overflow doc memory long before this)
        aligned = np.full(self._doc_ids.size, -1, dtype=np.int32)
        pos, held = self._held(ids)
        aligned[pos[held]] = codes[held]
        out = (aligned, np.asarray(uniq, dtype=object))
        self._dv_cache[col] = out
        return out

    def range_mask(self, col: str, lo, hi) -> np.ndarray:
        """Boolean keep-mask for ``lo <= col <= hi`` (inclusive both
        ends, the BETWEEN rule) over a NUMERIC doc-values column.  The
        compare runs over the column's UNIQUE values (the factorized
        dictionary), then one lut gather — O(distinct) compares even
        when n_docs is huge; missing docs never match."""
        def want(uniq):
            try:
                # exact for ints up to 2^53 (epoch-us timestamps included)
                u = uniq.astype(np.float64)
                return (u >= lo) & (u <= hi)
            except (TypeError, ValueError):
                # non-castable values: exact Python compare, still only
                # O(distinct) — never O(n_docs)
                return np.array([v is not None and lo <= v <= hi
                                 for v in uniq.tolist()], dtype=bool)
        return self._value_mask((col, "__range__", lo, hi), col, want)

    def where_mask(self, col: str, values) -> np.ndarray:
        """Boolean keep-mask over ``_doc_ids`` positions for
        ``col IN values`` (``values`` may be a scalar).  A doc with no
        sidecar row never matches.  Cached per (col, values)."""
        if isinstance(values, (str, bytes)):
            values = (values,)
        else:
            try:
                values = tuple(values)
            except TypeError:      # scalar (int/float/np number)
                values = (values,)
        return self._value_mask(
            (col, values), col,
            lambda uniq: np.isin(uniq, np.asarray(list(values), dtype=object)))

    def _value_mask(self, key: tuple, col: str, want_of) -> np.ndarray:
        """Keep-mask of the docs whose ``col`` value passes ``want_of``
        (a bool test over the column's unique values), cached under
        ``key``.  The lut's last entry stays False, so code -1 (no
        sidecar row) never matches."""
        mask = self._dv_mask_cache.get(key)
        if mask is None:
            aligned, uniq = self._load_doc_values(col)
            mask = np.concatenate((want_of(uniq), [False]))[aligned]
            mask = self._dv_mask_cache.put(key, mask, mask.nbytes)
        return mask

    # -- segment access -----------------------------------------------------
    _TERM_COLS = ("df", "cf", "post_off", "post_len", "skip_off",
                  "skip_len")

    def _load_part(self, part: int):
        """Part term dictionary as (sorted term array, 2-D int64 block
        of the numeric columns: one row per term, ``_TERM_COLS`` plus
        pos_off/pos_len on a positional segment, so a probe reads its
        row with one ``tolist``).  The segment writer emits terms SORTED
        (factorize sort=True in build, sorted k-way merge in
        merge_indexes), so lookups are a binary search over the
        Arrow-loaded array — no per-term Python dict build, which would
        cost seconds per part at real web vocabularies (10^5-10^6
        terms/part).  Sortedness is
        verified with one vectorized Arrow compare at load (fail-loud
        on a corrupt segment rather than silently missing terms).
        -> (dictionary or None, postings, skips): a part the manifest
        does not list holds no term; a listed part whose directory is
        gone raises ``CorruptIndexError``."""
        hit = self._parts.get(part)
        if hit is not None:
            return hit
        d = index_io.part_dir(self.index_dir, "postings", part)
        if os.path.isdir(d):
            terms, postings, skips = index_io.read_postings_part(
                self.index_dir, part, use_mmap=self.use_mmap)
            ca = terms.column("term").combine_chunks()
            if len(ca) > 1:
                import pyarrow.compute as pc
                ok = pc.all(pc.less_equal(
                    ca.slice(0, len(ca) - 1), ca.slice(1))).as_py()
                if not ok:
                    raise ValueError(
                        f"part {part}: term dictionary not sorted")
            cols = list(self._TERM_COLS)
            if "pos_off" in terms.column_names:  # positional segment
                cols += ["pos_off", "pos_len"]
            nums = np.column_stack(
                [terms.column(c).to_numpy() for c in cols]
            ).astype(np.int64, copy=False)
            hit = ((ca.to_numpy(zero_copy_only=False), nums), postings,
                   skips)
        elif f"postings:{part:05d}" in self.manifest.get("parts", {}):
            raise index_io.CorruptIndexError(
                f"postings part {part} is listed in the manifest but "
                f"{d} is missing")
        else:
            hit = (None, b"", b"")
        self._parts[part] = hit
        return hit

    def _term_row(self, part: int, term: str):
        """Binary-search probe of ``part``'s dictionary -> [df, cf, po,
        pl, so, sl] (+ [qo, ql] on a positional segment) or None."""
        entry = self._load_part(part)[0]
        if entry is None:
            return None
        term_arr, nums = entry
        i = int(term_arr.searchsorted(term))
        if i >= term_arr.size or term_arr[i] != term:
            return None
        return nums[i].tolist()

    def _router(self, terms: list[str]):
        """-> ``route(term) -> part`` over one request's ``terms``.  The
        first call hashes ALL of them with one ``parts_of`` call, so a
        request makes at most one hasher call, and none when the
        decoded caches answer every term."""
        parts: dict[str, int] = {}

        def route(term: str) -> int:
            if not parts:
                parts.update(zip(terms, parts_of(terms, self.cfg)))
            return parts[term]
        return route

    def _lookup(self, term: str, route=None, positions: bool = False):
        """``lookup`` (``lookup_positions`` with ``positions``) with the
        term routed by ``route`` (a request's ``_router``), or by its
        own ``part_of`` hash when None."""
        part = part_of(term, self.cfg) if route is None else route(term)
        row = self._term_row(part, term)
        if row is None:
            return None
        _, postings, skips = self._load_part(part)
        df, _, po, pl, so, sl = row[:6]
        out = (df, postings[po:po + pl], decode_skips(skips[so:so + sl]))
        if not positions:
            return out
        if len(row) < 8:
            raise ValueError(
                "phrase search needs a positional index — rebuild with "
                "EngineConfig(store_positions=True)")
        qo, ql = row[6:]
        return out + (self._positions_blob(part)[qo:qo + ql],)

    def lookup(self, term: str):
        """term -> (df, postings bytes, skips ndarray) or None.  Always
        hashes the term (one hasher call) and probes its part's
        dictionary; it never reads the decoded cache."""
        return self._lookup(term)

    def _decode_term_positions(self, term: str, route):
        """Phrase-match state for one term -> (docID-run positions,
        tfs, raw varbyte positions blob, per-entry byte offsets, eidx),
        cached in a byte-budget LRU of its own.

        The position VALUES are NOT decoded here: one boundary scan
        over the blob (the varbyte terminator bitmap) yields each
        posting entry's byte range, and ``_phrase_verify`` decodes only
        the candidate entries it actually inspects.  A stopword's cold
        cost drops from the full O(cf) value decode (~10 s at 20M+
        occurrences) to the boundary scan, and the cached footprint is
        the ~1.2 B/occurrence blob instead of 4 B/occurrence int32
        positions — more phrase terms stay resident in the same budget.
        ``eidx`` maps kept entries to original entry indices when a
        tombstone overlay or the loader's ``doc_range`` dropped some
        (None otherwise).  A positions-cache hit routes and probes
        nothing; a miss routes with ``route`` as in ``_lookup``, and its
        postings decode also scores and caches the term's run when the
        decoded-term cache lacks it, so ``_resolve`` reads that run."""
        hit = self._positions_cache.get(term)
        if hit is not None:
            return hit
        ent = self._lookup(term, route, positions=True)
        if ent is None:
            return None
        df, pbytes, skips, pblob = ent
        ids, tfs = decode_postings(pbytes, skips, df, self.cfg.block_size)
        pos, keep = self._kept(ids.view(np.int64))
        run, gdf = self._postings_cache.get(term), self._gdfs.get(term, df)
        if run is None or run[3] != gdf:
            self._scored_run(_Item(term, 1.0, gdf, df, None),
                             pos[keep], tfs[keep])
        tfs = tfs.astype(np.int64)
        # entry byte boundaries: value v ends at the v-th clear
        # continuation bit; entry i ends with value cumsum(tfs)[i] - 1
        blob = np.frombuffer(pblob, dtype=np.uint8)
        ends = np.flatnonzero((blob & 0x80) == 0)
        offs = np.concatenate(([0], ends[np.cumsum(tfs) - 1] + 1))
        eidx = None
        if not keep.all():
            eidx = np.flatnonzero(keep)
            pos, tfs = pos[keep], tfs[keep]
        if self._doc_ids.size < (1 << 31):
            pos = pos.astype(np.int32)
        size = (pos.nbytes + tfs.nbytes * 2 + blob.nbytes + offs.nbytes
                + (0 if eidx is None else eidx.nbytes))
        return self._positions_cache.put(
            term, (pos, tfs.astype(np.int32), blob, offs, eidx), size)

    def _positions_blob(self, part: int):
        """Lazy per-part positions.bin (phrase path only — BM25 serving
        never touches it, so non-phrase memory cost is zero)."""
        if part not in self._posblob_cache:
            self._posblob_cache[part] = index_io.read_positions_blob(
                self.index_dir, part, use_mmap=self.use_mmap)
        return self._posblob_cache[part]

    def lookup_positions(self, term: str):
        """term -> (df, postings bytes, skips, positions bytes) or None.
        Raises on an index built without ``store_positions=True``."""
        return self._lookup(term, positions=True)

    def df_of(self, term: str) -> int:
        """Local document frequency (0 if absent) — the term-dictionary
        probe of the distributed-stats exchange; no posting decode."""
        return self.dfs_of([term])[0]

    def dfs_of(self, terms: list[str]) -> list[int]:
        """``df_of`` of each term, all routed by one hasher call."""
        route = self._router(terms)
        return [0 if row is None else row[0]
                for row in (self._term_row(route(t), t) for t in terms)]

    # -- scoring ------------------------------------------------------------
    def idf(self, df: int) -> float:
        return float(np.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5)))

    def url_of(self, doc_ids: np.ndarray) -> list:
        """Resident-docmeta url per doc_id; None for ids this loader
        does not hold.  The equality check (not bare searchsorted)
        makes the method safe on doc_range-restricted loaders, where a
        foreign id would otherwise map to a neighbour's slot — the
        serving tiers rely on the None to merge per-worker answers
        (each doc's url is resident on exactly one range worker)."""
        pos, held = self._held(doc_ids)
        return [self._urls[p] if h else None
                for p, h in zip(pos.tolist(), held.tolist())]

    def _held(self, doc_ids) -> tuple[np.ndarray, np.ndarray]:
        """doc ids -> (slot in ``_doc_ids``, held by this loader?)."""
        ids = np.asarray(doc_ids, np.int64)
        if self._doc_ids.size == 0:
            return np.zeros(ids.size, np.int64), np.zeros(ids.size, bool)
        pos = np.minimum(np.searchsorted(self._doc_ids, ids),
                         self._doc_ids.size - 1)
        return pos, self._doc_ids[pos] == ids

    def query_terms(self, query: str) -> list[str]:
        return terms_of(query, self.cfg)

    def values_of(self, doc_ids, col: str) -> list:
        """Per-hit stored-field hydration (Lucene stored-fields read):
        sidecar column values for a FEW doc_ids (top-k results), read
        lazily with parquet predicate pushdown — sidecars are written
        sorted by doc_id, so row-group stats prune the scan; nothing is
        held resident (unlike the filter path's factorized codes, which
        are per-column O(n_docs) and only justified for filtering).
        Docs without a sidecar row hydrate as None."""
        from engine.docvalues import get_doc_values
        return get_doc_values(self.index_dir, self.cfg, doc_ids, col)

    def snippets_of(self, query, doc_ids, col: str = "text") -> list:
        """Best query-term window per (top-k) doc — the
        ``/v1/search?snippets=true`` rule (docops.best_snippet_window)
        over ``values_of``-hydrated text.  ``query`` is a string (its
        analyzed terms) or a list of terms used as given (a weighted
        query's keys).  None for docs without a sidecar row or without
        a qualifying window; fail-loud when the sidecar/column was
        never attached (a silent all-None response would read as 'no
        hits had windows').  Safe on doc_range-restricted loaders:
        touches only the query tokenizer and the on-disk sidecars
        (part-pruned by doc_id % D), never postings."""
        from engine.docops import best_snippet_window
        from engine.docvalues import has_doc_values
        if not has_doc_values(self.index_dir, self.cfg, col):
            raise FileNotFoundError(
                f"doc-values sidecar column {col!r} not attached "
                "(attach_doc_values)")
        terms = frozenset(self.query_terms(query) if isinstance(query, str)
                          else query)
        out = []
        for t in self.values_of(doc_ids, col):
            win = (best_snippet_window(
                tokenize(t, self.cfg.cjk_unigrams), terms)
                if t is not None else None)
            out.append(None if win is None else win[2])
        return out

    def suggest(self, prefix: str, k: int = 10,
                parts=None) -> list[tuple[str, int]]:
        """Prefix term suggestion (the autocomplete / did-you-mean
        base): -> [(term, df)] of the top-k index terms starting with
        ``prefix``, ranked (df desc, term asc).

        Each part's term dictionary is SORTED (build factorize
        sort=True, merge keeps order), so a prefix is one binary-search
        range per part: [prefix, prefix + U+10FFFF).  U+10FFFF is a
        Unicode noncharacter (category Cn) the tokenizer can never emit
        — terms are word-segmented \\w runs — so the upper bound is
        exact.  Within a part the range is pruned to its own top-k by
        df (keeping ALL ties at the kth value, so the global cut with
        the term-asc tie-break stays exact); the merge sees at most
        parts x (k + ties) rows.  df is the STORED value — stale under
        a tombstone overlay until compaction, like idf (documented
        deletion semantics)."""
        if k <= 0 or not prefix:
            return []
        prefix = prefix.lower()   # dictionary terms are lowercased
        hi_key = prefix + "\U0010FFFF"
        cand: list[tuple[int, str]] = []
        # ``parts``: restrict to a part subset (term-sharded serving —
        # a term shard's worker owns a part range and must neither load nor
        # answer for other shards' dictionary parts; parts partition
        # the term space, so per-shard top-k merges exactly)
        for part in (range(self.cfg.num_parts) if parts is None
                     else parts):
            entry, _, _ = self._load_part(part)
            if entry is None:
                continue
            term_arr, nums = entry
            lo = int(np.searchsorted(term_arr, prefix))
            hi = int(np.searchsorted(term_arr, hi_key))
            if hi <= lo:
                continue
            dfs = nums[lo:hi, 0]
            terms = term_arr[lo:hi]
            if dfs.size > k:
                kth = np.partition(dfs, dfs.size - k)[dfs.size - k]
                sel = dfs >= kth
                terms, dfs = terms[sel], dfs[sel]
            cand.extend(zip(dfs.tolist(), terms.tolist()))
        cand.sort(key=lambda t: (-t[0], t[1]))
        return [(t, int(df)) for df, t in cand[:k]]

    def facet_counts(self, query: str, col: str,
                     where: tuple | None = None,
                     require_all: bool = False,
                     must: str | None = None,
                     exclude: str | None = None,
                     where_range: tuple | None = None) -> list[tuple]:
        """Facet aggregation over the query's match set: -> [(value,
        n_docs)] sorted (count desc, value asc) for the doc-values
        column ``col``, counting documents that contain >=1 query term
        (the standard disjunctive facet base; ``require_all=True``
        switches to the AND match set) and pass the ``_gate`` clauses,
        so a facet counts the same gated set the hits come from.  Docs
        without a sidecar row are not counted under any facet value;
        deletes are already masked out of decoded runs."""
        terms = self.query_terms(query)
        matched = self._match_mask(terms, require_all, *self._gate(
            terms, must, exclude, where, where_range))
        return [] if matched is None else self._value_counts(matched, col)

    def _value_counts(self, matched: np.ndarray, col: str) -> list[tuple]:
        """[(value, n_docs)] of ``col`` over a doc mask, (count desc,
        value asc).  Pure integer work: the mask indexes the factorized
        code array once, then one bincount."""
        codes, uniq = self._load_doc_values(col)
        c = codes[matched]
        c = c[c >= 0]
        if c.size == 0:
            return []
        cnt = np.bincount(c, minlength=uniq.size)
        nz = np.flatnonzero(cnt)
        # nz is one entry per distinct facet value — tiny; Python sort
        # avoids np.lexsort's lack of object-dtype (string) support
        order = sorted(nz.tolist(), key=lambda i: (-int(cnt[i]), uniq[i]))
        return [(uniq[i], int(cnt[i])) for i in order]

    def match_count(self, query: str, where: tuple | None = None,
                    where_range: tuple | None = None,
                    must: str | None = None,
                    exclude: str | None = None,
                    require_all: bool = False) -> int:
        """Total hits of a query under the full clause set (the
        ``hits.total`` every search UI shows next to top-k): documents
        containing >=1 query term (every term with ``require_all``)
        that pass the ``_gate`` clauses.  Pure mask work over the same
        decoded runs search() uses — no scoring, no top-k cut; an
        absent must-term gives 0 (matching search's empty result)."""
        terms = self.query_terms(query)
        matched = self._match_mask(terms, require_all, *self._gate(
            terms, must, exclude, where, where_range))
        return 0 if matched is None else int(matched.sum())

    def _decoded(self, term: str, route=None, scored: bool = True):
        """One term's full decode -> (pos, scores, df, gdf), or None
        when the term is absent: its cached run, read with no routing
        hash and no dictionary probe, or else its decode, as ``_item``
        resolves it (``route``: the request's ``_router``; the term's
        own ``part_of`` hash when None).  ``scored=False`` (mask-only
        callers, which read positions alone) takes a cached run scored
        with any global df; a miss still decodes with this call's
        global df, as a later scored search will want it."""
        e = self._item(term, 1.0, route, scored)
        return None if e is None else e.run or self._decode_term(e)

    def _match_mask(self, terms: list[str], require_all: bool, route,
                    keep=None) -> np.ndarray | None:
        """Boolean match set over ``_doc_ids`` positions: docs holding
        >=1 of ``terms`` (every term under ``require_all``) that the
        ``_gate`` keep-mask ``keep`` (when given) keeps; None when
        nothing can match.  ``keep`` runs only once some term matched.
        A fresh array — callers may mutate.  ``route``: the request's
        ``_router``."""
        matched = None
        for t in terms:
            dec = self._decoded(t, route, scored=False)
            if dec is None:
                if require_all:
                    return None
                continue
            pos = dec[0]
            if matched is None:
                matched = np.zeros(self._doc_ids.size, dtype=bool)
                matched[pos] = True
            elif require_all:
                tm = np.zeros(self._doc_ids.size, dtype=bool)
                tm[pos] = matched[pos]
                matched = tm
            else:
                matched[pos] = True
        if matched is not None and keep is not None:
            mask = keep()
            if mask is False:
                return None
            if mask is not None:
                matched &= mask
        return matched

    def _gate(self, terms: list[str], must: str | None = None,
              exclude: str | None = None, where: tuple | None = None,
              where_range: tuple | None = None):
        """The one reader of a request's clauses -> (route, keep).
        ``route`` is the request's one ``_router``, over ``terms`` and
        the analyzed must / exclude terms.  ``keep()`` builds the
        clause keep-mask over ``_doc_ids`` positions; callers run it
        only once some query term is present.  It returns None when no
        clause filters, False when a must-term is absent from the index
        (nothing can match), else the AND of:

          * ``must`` (Lucene ``+term``): docs holding EVERY must-term.
            Scores still sum the query's own terms (the required-plus-
            optional shape; ``require_all=True`` is the case where
            every query term is required);
          * ``exclude`` (MUST_NOT): docs holding NO excluded term.  An
            excluded term absent from the index excludes nothing, and
            excluded terms add nothing to scores;
          * ``where=(col, values)``: docs whose doc-values column
            (engine/docvalues.py) holds one of ``values`` (a scalar or
            an IN-list);
          * ``where_range=(col, lo, hi)``: docs with ``lo <= col <=
            hi`` over a numeric doc-values column (BETWEEN-inclusive).

        Clauses only narrow the candidates.  Corpus statistics stay
        global (the Lucene filter-query rule), so a kept document
        scores the same bits with and without them."""
        must_t = self.query_terms(must) if must else []
        ex_t = self.query_terms(exclude) if exclude else []
        route = self._router(terms + must_t + ex_t)

        def keep():
            masks = []
            if must_t:
                m = self._match_mask(must_t, True, route)
                if m is None:
                    return False
                masks.append(m)
            if ex_t:
                hit = self._match_mask(ex_t, False, route)
                if hit is not None:
                    masks.append(~hit)
            if where is not None:
                masks.append(self.where_mask(*where))
            if where_range is not None:
                masks.append(self.range_mask(*where_range))
            return functools.reduce(np.logical_and, masks) if masks else None
        return route, keep

    def facet_histogram(self, query: str, col: str, edges,
                        where: tuple | None = None,
                        require_all: bool = False,
                        must: str | None = None,
                        exclude: str | None = None,
                        where_range: tuple | None = None) -> list[tuple]:
        """Histogram facet over a NUMERIC doc-values column (the
        date-histogram analog): -> [(lo, hi, n_docs)] per half-open
        bucket ``[edges[i], edges[i+1])`` counting matched documents,
        empty buckets included (the UI contract).  Values outside
        [edges[0], edges[-1]) and docs without a sidecar row are not
        counted.  Same match set as facet_counts."""
        edges = np.asarray(list(edges), dtype=np.float64)
        if edges.size < 2:
            return []
        terms = self.query_terms(query)
        return self._bucket_counts(self._match_mask(
            terms, require_all, *self._gate(terms, must, exclude, where,
                                            where_range)), col, edges)

    def _bucket_counts(self, matched: np.ndarray | None, col: str,
                      edges) -> list[tuple]:
        """[(lo, hi, n_docs)] of a doc mask (None = no doc) over the
        buckets of ``edges`` (>= 2 of them).  The binning runs on the
        column's UNIQUE values (np.digitize over the factorized
        dictionary), then one lut gather + bincount — O(distinct)
        compares, never O(n_docs)."""
        edges = np.asarray(edges, dtype=np.float64)
        if matched is None:
            counts = np.zeros(edges.size - 1, dtype=np.int64)
        else:
            codes, uniq = self._load_doc_values(col)
            c = codes[matched]
            c = c[c >= 0]
            per_val = np.bincount(c, minlength=uniq.size)
            try:
                u = uniq.astype(np.float64)
            except (TypeError, ValueError) as e:
                raise TypeError(
                    f"facet_histogram needs a numeric doc-values "
                    f"column; {col!r} holds e.g. {uniq[:1].tolist()}"
                ) from e
            bucket = np.digitize(u, edges) - 1
            ok = (bucket >= 0) & (bucket < edges.size - 1)
            counts = np.bincount(bucket[ok], weights=per_val[ok],
                                 minlength=edges.size - 1).astype(np.int64)
        return [(float(edges[i]), float(edges[i + 1]), int(counts[i]))
                for i in range(counts.size)]

    def search(self, query: str, k: int = 10, method: str = "bmw",
               require_all: bool = False, where: tuple | None = None,
               exclude: str | None = None,
               where_range: tuple | None = None,
               must: str | None = None):
        """-> list of (doc_id, score) sorted score desc, doc_id asc.

        ``method`` is ``"bmw"`` (the default: the pruned route where
        the cost rule ``_prunes`` picks it) or ``"daat"`` (always
        exhaustive); both return the same bits, and any other value
        raises ValueError.

        ``require_all=True`` switches to conjunctive (AND) semantics:
        only documents containing EVERY query term are candidates (a
        term absent from the index empties the result, the classic
        boolean-AND rule); scores stay full BM25 sums.  Conjunctive
        queries route to the intersection scorer regardless of
        ``method`` — block-max upper bounds prune by score, while AND
        prunes by membership, and the rarest-first intersection is the
        stronger cut.

        ``where`` / ``where_range`` / ``exclude`` / ``must`` are the
        ``_gate`` clauses.  A gated disjunctive query routes by the
        keep-mask's density: at or below ``filtered_dense_cutoff`` the
        selective candidate-block scorer runs (decode only blocks
        containing a candidate — the win case for per-tenant filters);
        above it the mask applies to the unfiltered routes — a block's
        unfiltered upper bound still bounds its masked subset, and θ
        (the running kth-best) is taken over masked candidates only.
        """
        if method not in ("bmw", "daat"):
            raise ValueError(
                f"unknown search method {method!r} (use 'bmw' or 'daat')")
        if k <= 0:
            return []
        terms = self.query_terms(query)
        return self._topk_items(
            [(t, 1.0) for t in terms], k,
            *self._gate(terms, must, exclude, where, where_range),
            method, require_all)

    def _item(self, term: str, w: float, route,
              scored: bool = True) -> _Item | None:
        """``term`` as an ``_Item``, or None when it is absent.  A hit
        in the decoded cache (the run carries its df) or in the bounds
        cache (postings and skips) neither hashes nor probes; a miss
        routes with ``route`` (the request's ``_router``) and probes.
        A cached run counts as a hit only when it was scored with this
        call's global df, unless ``scored`` is False."""
        run = self._postings_cache.get(term)
        if run is not None:
            gdf = self._gdfs.get(term, run[2])
            if run[3] == gdf or not scored:
                return _Item(term, w, gdf, run[2], run)
        ent = self._bounds_cache.get(term) or self._lookup(term, route)
        if ent is None:
            return None
        df, pbytes, skips = ent[:3]
        return _Item(term, w, self._gdfs.get(term, df), df, None,
                     pbytes, skips)

    def _weighted_run(self, e: _Item, mask: np.ndarray | None = None):
        """``e``'s (pos, w * scores) — its cached run or a (cached)
        decode — keeping only the positions ``mask`` holds.  At w = 1
        the scores are the cached array itself (1.0 * s == s)."""
        pos, s = (e.run or self._decode_term(e))[:2]
        if e.w != 1.0:
            s = e.w * s
        if mask is not None:
            keep = mask[pos]
            pos, s = pos[keep], s[keep]
        return pos, s

    def _resolve(self, items, route, keep, require_all: bool = False):
        """``items`` ((term, weight) pairs) -> (their ``_Item``s in
        ``sum_order``, the ``_gate`` keep-mask), or None when nothing
        can match: no term is present, one is absent under
        ``require_all``, or a must-term is absent.  Absent terms are
        dropped; ``keep`` runs only once some term is present."""
        entries = []
        for t, w in items:
            e = self._item(t, w, route)
            if e is None:
                if require_all:
                    return None
                continue
            entries.append(e)
        if not entries:
            return None
        mask = keep()
        if mask is False:
            return None
        return sum_order(entries, lambda e: e.gdf), mask

    def _topk_items(self, items, k: int, route, keep,
                    method: str = "bmw", require_all: bool = False):
        """Top-k by the weighted sum over ``items`` ((term, weight)
        pairs) — the one core of ``search`` (w = 1) and
        ``search_weighted``.  It resolves the items (``_resolve``) and
        picks a route: AND, the selective filter, pruned or exhaustive,
        all of which return the exhaustive route's bits."""
        got = self._resolve(items, route, keep, require_all)
        if got is None:
            return []
        entries, mask = got
        if require_all:
            inter, sums = self._and_sums(entries, mask)
            return self._topk(self._doc_ids[inter], sums, k)
        if mask is not None and (int(mask.sum()) <= self.filtered_dense_cutoff
                                 * self._doc_ids.size):
            return self._search_filtered(entries, k, mask)
        if (method == "bmw" and all(e.w > 0 for e in entries)
                and self._prunes(entries, k)):
            return self._search_pruned(entries, k, mask, route)
        return self._accumulate_topk(map(self._weighted_run, entries), k,
                                     mask)

    def _prunes(self, entries, k: int) -> bool:
        """The cost rule between the pruned and exhaustive routes (their
        answers are equal, only the time differs), read from the dfs
        alone.  Pruning pays only on a term long enough for phase B to
        score a few candidates without touching most of its postings:
        more than ``4 * k`` posting blocks.  And only when the terms
        phase A adds whole leave few candidates: some term must be at
        most half as common as the most common one.

        On a 60k-row gen_webtext index (seed 5, 4 CPUs, warm cache,
        best of 5) this routes 235 of perfbench's 400 BM25 queries to
        the pruned route: p50 0.23 ms, p95 1.22 ms, against 0.89 / 1.44
        ms all exhaustive and 0.23 / 1.44 ms all pruned; pruning all of
        them loses only on all-stopword queries.  Every weighted query
        of the mix prunes (p50 1.09 vs 2.76 ms)."""
        dfs = [e.df for e in entries]
        top = max(dfs)
        return top > 4 * k * self.cfg.block_size and 2 * min(dfs) < top

    def search_weighted(self, term_weights, k: int = 10,
                        where: tuple | None = None,
                        where_range: tuple | None = None):
        """Learned-sparse (SPLADE-style) retrieval seam: top-k by
        ``sum over matching terms of w_q(term) * score_d(term)`` where
        ``w_q`` is a caller-supplied per-term weight (a sparse learned
        query vector) and ``score_d`` is the engine's cached per-term
        BM25 contribution.  This is the retrieval shape of the
        reference's learned-sparse embedders (EmbedAnything scores
        sparse query/document term-weight dot products,
        rust/src/embeddings/local/bert.rs:379-396, examples/splade.py:
        37-48).  With weights all 1.0 it is bit-identical to
        ``search``; any weight <= 0 keeps it on the exhaustive route.

        ``term_weights``: dict term -> weight, or iterable of
        (term, weight).  Terms are looked up verbatim (callers supply
        already-analyzed terms, the learned-sparse contract); unknown
        terms contribute nothing; weight 0 terms are skipped.
        ``where`` / ``where_range`` are the ``_gate`` doc-values
        clauses (tenant-filtered sparse retrieval)."""
        if k <= 0:
            return []
        items = weight_items(term_weights)
        return self._topk_items(items, k, *self._gate(
            [t for t, _ in items], where=where, where_range=where_range))

    def match_count_weighted(self, term_weights,
                             where: tuple | None = None,
                             where_range: tuple | None = None) -> int:
        """hits.total for a weighted query: membership is
        weight-INDEPENDENT (a doc matches iff it contains any term with
        a nonzero weight), so this counts the union of those terms'
        postings under the doc-values filters — the with_total dual of
        ``search_weighted``, same decode/tombstone path."""
        terms = [t for t, _ in weight_items(term_weights)]
        matched = self._match_mask(terms, False, *self._gate(
            terms, where=where, where_range=where_range))
        return 0 if matched is None else int(matched.sum())

    def search_phrase(self, query: str, k: int = 10, slop: int = 0,
                      where: tuple | None = None,
                      exclude: str | None = None,
                      where_range: tuple | None = None,
                      must: str | None = None):
        """Exact-phrase / proximity top-k: documents containing the
        query's tokens in order with at most ``slop`` interleaving
        non-query tokens in total (``slop=0`` = consecutive, the exact
        phrase), ranked by BM25 over the phrase's distinct terms: a hit
        scores the bits ``search(query, require_all=True)`` gives it.
        ``where`` / ``exclude`` / ``where_range`` / ``must`` are the
        ``_gate`` clauses.  Needs an index built with
        ``EngineConfig(store_positions=True)``.

        An ordered occurrence ``p_1 < ... < p_n`` has total gap
        ``p_n - p_1 - (n-1)`` regardless of the interior choices, and
        picking the EARLIEST valid next position minimizes ``p_n`` for
        a fixed start — so greedy matching decides existence exactly.

        Execution: the AND core (``_and_sums``) gives the candidates,
        the docs holding every phrase term that the gate keeps, with
        their BM25 sums.  The positional predicate (``_phrase_verify``
        — vectorized composite-key matching) then runs over them in
        (score desc, doc asc) rank order — the total order ``_topk``
        uses — in exponentially growing chunks, with EXACT early
        termination at k verified hits: verification only filters, so
        the first k survivors in rank order are the global top-k.  A
        stopword in the phrase costs its one boundary scan (amortized
        by the positions LRU), but occurrence keys are gathered only
        for the verified prefix of the candidate ranking; a
        never-matching phrase degrades to <=2x the all-at-once gather
        (geometric chunk sum).
        """
        if slop < 0:
            raise ValueError(f"slop must be >= 0, got {slop}")
        if k <= 0:
            return []
        toks = tokenize(query, self.cfg.cjk_unigrams)
        uniq = list(dict.fromkeys(toks))
        route, keep = self._gate(uniq, must, exclude, where, where_range)
        runs: dict[str, tuple] = {}
        for t in uniq:
            runs[t] = self._decode_term_positions(t, route)
            if runs[t] is None:
                return []
        got = self._resolve([(t, 1.0) for t in uniq], route, keep, True)
        if got is None:
            return []
        inter, cscores = self._and_sums(*got)
        order = np.lexsort((inter, -cscores))
        out: list[tuple[int, float]] = []
        lo, chunk = 0, max(1024, 4 * k)
        while lo < order.size and len(out) < k:
            sel = order[lo:lo + chunk]
            lo += sel.size
            chunk *= 2
            cand_idx = np.sort(sel)          # ascending candidate rows
            ok = self._phrase_verify(runs, toks, uniq,
                                     inter[cand_idx], slop)
            if ok.any():
                vi = cand_idx[ok]
                o = np.lexsort((inter[vi], -cscores[vi]))  # rank order
                for j in o:
                    out.append((int(self._doc_ids[inter[vi[j]]]),
                                float(cscores[vi[j]])))
        return out[:k]

    def _phrase_verify(self, runs: dict, toks: list[str],
                       uniq: list[str], cand: np.ndarray,
                       slop: int) -> np.ndarray:
        """Positional predicate for a candidate-doc batch -> bool mask
        over ``cand`` (ascending docmeta positions, each present in
        every phrase term's run).  Composite occurrence keys
        ``doc_slot << 32 | token_position`` are gathered ONLY for the
        batch (variable-slice gather out of the cached position
        streams); slop=0 tests ``key + i`` membership per phrase token,
        slop>0 runs the greedy earliest-successor advance with the gap
        budget applied once at the end."""
        keyruns: dict[str, np.ndarray] = {}
        for t in uniq:
            pos, tfs, blob, offs, eidx = runs[t]
            e = np.searchsorted(pos, cand)
            counts = tfs[e].astype(np.int64)
            oe = e if eidx is None else eidx[e]
            # gather ONLY the candidate entries' byte slices out of the
            # raw varbyte stream, then decode just those values
            bb = gather_slices(blob, offs[oe],
                               offs[oe + 1] - offs[oe],
                               np.arange(oe.size))
            occ = decode_positions(bb, counts)
            keyruns[t] = ((cand.astype(np.int64) << np.int64(32))
                          .repeat(counts) | occ.astype(np.int64))

        def _member(sorted_arr: np.ndarray, vals: np.ndarray) -> np.ndarray:
            j = np.searchsorted(sorted_arr, vals)
            ok = j < sorted_arr.size
            ok[ok] &= sorted_arr[j[ok]] == vals[ok]
            return ok

        starts = keyruns[toks[0]]
        empty = np.zeros(cand.size, dtype=bool)
        if slop == 0:
            for i, t in enumerate(toks[1:], start=1):
                if starts.size == 0:
                    return empty
                starts = starts[_member(keyruns[t],
                                        starts + np.int64(i))]
        else:
            # greedy: advance each start's cursor to the earliest
            # same-doc successor in the next term's run; the total-gap
            # budget is checked once at the end (it depends only on
            # the first and last positions)
            cur = starts
            for t in toks[1:]:
                if starts.size == 0:
                    return empty
                kt = keyruns[t]
                if kt.size == 0:
                    return empty
                j = np.searchsorted(kt, cur + np.int64(1))
                ok = j < kt.size
                nxt = kt[np.minimum(j, max(kt.size - 1, 0))]
                ok &= (nxt >> np.int64(32)) == (cur >> np.int64(32))
                starts, cur = starts[ok], nxt[ok]
            n = np.int64(len(toks))
            ok = ((cur & np.int64(0xFFFFFFFF))
                  - (starts & np.int64(0xFFFFFFFF))
                  - (n - 1)) <= np.int64(slop)
            starts = starts[ok]
        if starts.size == 0:
            return empty
        matched = np.unique(starts >> np.int64(32))
        mask = np.zeros(cand.size, dtype=bool)
        mask[np.searchsorted(cand, matched)] = True
        return mask

    def _and_sums(self, entries, mask: np.ndarray | None = None):
        """The AND core -> (positions, sums): the docs holding every
        entry's term that ``mask`` keeps, positions ascending, with
        their weighted sums.  The docID-sorted runs are intersected in
        entry order (``sum_order``: rarest first; each run is
        sorted-unique, so ``np.intersect1d(assume_unique=True)`` is a
        linear merge bounded by the RAREST term's df — the candidate
        set only shrinks, with an early exit on empty), and ``mask`` is
        applied to the rarest run before the merge.  Per-term scores
        for the survivors are gathered by searchsorted into each
        term's own run and added in entry order from 0.0."""
        decoded = []
        inter = None
        for e in entries:
            pos, s = self._weighted_run(e)
            decoded.append((pos, s))
            if inter is None:
                inter = pos if mask is None else pos[mask[pos]]
            else:
                inter = np.intersect1d(inter, pos, assume_unique=True)
            if inter.size == 0:
                break
        acc = np.zeros(inter.size, dtype=np.float64)
        for pos, s in decoded:
            acc += s[np.searchsorted(pos, inter)]
        return inter, acc

    def _term_score(self, tfs: np.ndarray, dls: np.ndarray, idf: float) -> np.ndarray:
        k1, b = self.cfg.k1, self.cfg.b
        tfs = tfs.astype(np.float64)
        return idf * tfs * (k1 + 1.0) / (tfs + k1 * (1.0 - b + b * dls / self.avgdl))

    @staticmethod
    def _topk(doc_ids: np.ndarray, scores: np.ndarray, k: int):
        if doc_ids.size == 0:
            return []
        k = min(k, doc_ids.size)
        if doc_ids.size > 4 * k + 1024:
            # prune to the candidates that can place: everything >= the
            # kth-largest score (keeps ALL ties at the threshold, so
            # the doc_id tie-break below stays exact); O(n) partition
            # instead of an O(n log n) lexsort over millions
            kth = np.partition(scores, scores.size - k)[scores.size - k]
            sel = np.flatnonzero(scores >= kth)
            doc_ids, scores = doc_ids[sel], scores[sel]
        # rank by (score desc, doc_id asc): lexsort keys last = primary
        order = np.lexsort((doc_ids, -scores))[:k]
        return [(int(doc_ids[i]), float(scores[i])) for i in order]

    def _accumulate_topk(self, runs, k: int,
                         mask: np.ndarray | None = None):
        """Top-k of per-doc sums over ``(pos, contribution)`` runs, added
        in the order given into a DENSE per-position array.  Positions
        are unique within a run (docID-sorted postings), so buffered
        fancy ``acc[pos] += s`` is exact — the earlier sparse np.unique +
        np.add.at merge cost seconds per stopword term at multi-M df
        (np.add.at is unbuffered); the dense array is O(n_docs) = 8
        bytes/doc, bounded per doc-range shard when serving sharded.
        ``mask`` keeps only its True docs for the cut."""
        acc = np.zeros(self._doc_ids.size, dtype=np.float64)
        touched = np.zeros(self._doc_ids.size, dtype=bool)
        for pos, s in runs:
            acc[pos] += s
            touched[pos] = True
        if mask is not None:
            touched &= mask
        nz = np.flatnonzero(touched)
        return self._topk(self._doc_ids[nz], acc[nz], k)

    # selective-filter routing: when the filter keeps at most this
    # fraction of docs, score only the candidates (from the posting
    # BLOCKS holding one, where few) instead of the full-width
    # accumulate.  Public knob; tests pin both routes bit-identical.
    filtered_dense_cutoff = 0.25

    def _search_filtered(self, entries, k: int, mask: np.ndarray):
        """Filtered top-k over a candidate mask: each term scores the
        candidates as phase B of the pruned route does
        (``_candidate_scores``: from only the blocks holding a
        candidate when the term is uncached and they are few, else
        from its whole run, cached), and the scores add in entry order
        into an array over the CANDIDATES (O(matches) per term) — the
        same per-doc sums, scores and tie-breaks as the exhaustive
        route with the mask.  The win case is the selective filter on
        a large tier: a per-tenant ``where`` whose candidates fall in
        under 1/16 of a stopword's blocks scores only those blocks
        instead of decoding its whole multi-MB run."""
        if self._del_mask is not None:
            # decodes drop deleted docs; make them non-candidates so
            # the block decodes agree
            mask = mask & ~self._del_mask
        cand_pos = np.flatnonzero(mask)
        if cand_pos.size == 0:
            return []
        acc = np.zeros(cand_pos.size, dtype=np.float64)
        touched = np.zeros(cand_pos.size, dtype=bool)
        for e in entries:
            pos, s = self._candidate_scores(e, cand_pos)
            keep = mask[pos]            # a whole run holds non-candidates
            slot = np.searchsorted(cand_pos, pos[keep])
            acc[slot] += s[keep]        # unique per term: buffered, exact
            touched[slot] = True
        nz = np.flatnonzero(touched)
        return self._topk(self._doc_ids[cand_pos[nz]], acc[nz], k)

    def _decode_term(self, e: _Item):
        """Decode + per-posting BM25 scores of item ``e``'s term ->
        (pos, scores, df, gdf), where ``pos`` indexes the loader's sorted
        ``_doc_ids``.  Cached in a byte-budget LRU: scores are a pure
        function of (tf, doclen, global df), so they cache with the
        global df they were scored with, and a decode under another
        global df replaces the entry.

        A doc-range loader decodes ONLY the posting blocks whose docID
        window meets its range (postings are docID-sorted, so a binary
        search on the skip table's last_doc column finds the window)
        and drops the ids it does not hold.  Concatenating every range's
        run in ascending-range order reproduces the full decode bit for
        bit."""
        # decoded since it was resolved: a repeated term's twin
        hit = self._postings_cache.get(e.term)
        if hit is not None and hit[3] == e.gdf:
            return hit
        blocks = np.arange(e.skips.shape[0])
        if self.doc_range is not None:
            lo, hi = self.doc_range
            hi_in = min(hi, (1 << 63)) - 1  # inclusive upper (int64-safe)
            b0, b1 = np.searchsorted(e.skips[:, 0], (lo, hi_in))
            blocks = blocks[b0:b1 + 1]
        ids, tfs = decode_blocks(e.pbytes, e.skips, blocks, e.df,
                                 self.cfg.block_size)
        pos, keep = self._kept(ids.view(np.int64))
        return self._scored_run(e, pos[keep], tfs[keep])

    def _kept(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decoded doc ids -> (slot in ``_doc_ids``, kept?): held by
        this loader and not deleted."""
        pos, keep = self._held(ids)
        if self._del_mask is not None:
            keep &= ~self._del_mask[pos]
        return pos, keep

    def _scored_run(self, e: _Item, pos: np.ndarray, tfs: np.ndarray):
        """Item ``e``'s run (pos, scores, df, gdf) from the ``_doc_ids``
        slots and tfs of its kept postings, cached."""
        scores = self._term_score(tfs, self._doclens[pos],
                                  self.idf(e.gdf))
        # cache the SLIM form: (position, score) is all scoring needs
        # (ids reconstruct as self._doc_ids[pos]); int32 positions
        # whenever the per-loader doc count allows -> 12 bytes/posting
        # vs 32 for (ids, tfs, scores, pos), ~2.7x more hot terms in
        # the same byte budget.  The local df rides along, so a hit
        # needs no dictionary probe.
        if self._doc_ids.size < (1 << 31):
            pos = pos.astype(np.int32)
        return self._postings_cache.put(e.term, (pos, scores, e.df, e.gdf),
                                        pos.nbytes + scores.nbytes)

    # relative slack on every comparison against θ.  The pruned route's
    # partial sums add in bound order, so they may differ from the
    # ``sum_order`` scores in the last bits; a doc is dropped only when
    # its bound is below θ by more than this, which no reordering of a
    # sum of positive terms reaches, so a doc that ties the k-th score
    # is never lost.
    _THETA_SLACK = 1e-9

    def _search_pruned(self, entries, k: int, mask: np.ndarray | None,
                       route):
        """Two-phase MaxScore top-k (Turtle & Flood 1995; PISA shape)
        over ``entries`` (in ``sum_order``, every weight > 0).  A term's
        bound is w times its largest per-block (max_tf, min_doclen)
        score bound (``_bound``, once per loader).

        Phase A (essential terms, descending bound): decode and add
        whole, keeping θ, the running kth-best partial score.  Once the
        remaining terms' summed bounds fall below θ, no unseen doc can
        enter the top-k, and the rest are non-essential.

        Phase B (non-essential terms): each candidate whose partial
        score plus the remaining bounds is below θ is dropped, then the
        term scores the survivors, from only the blocks that hold one
        where it can (``_candidate_scores``).

        Pruning only picks the survivors.  Their scores are then
        re-added from the per-term contributions in ``sum_order`` from
        0.0, as the exhaustive route adds them, so both routes return
        the same bits.

        ``mask`` (dense doc-values filter): non-candidates are dropped
        right after decode, so θ is the kth-best over filter
        candidates; a block's unfiltered bound still bounds its masked
        subset, so pruning stays exact."""
        slack = 1.0 - self._THETA_SLACK
        ubs = np.array([e.w * self._bound(e, route) for e in entries])
        order = np.argsort(-ubs, kind="stable")
        ubs = ubs[order]
        # suffix_ub[i]: bound of terms order[i:]; prefix_ub[i]: of
        # order[:i], which bounds any partial score after i terms and
        # so θ itself.  While prefix_ub[i+1] <= suffix_ub[i+1] the
        # phase-A break cannot fire at the next step, so θ upkeep is
        # skipped there (SAP, ICDE 2018: keep the threshold cheap), as
        # it is after the last term, when no break is left to test.
        # The upkeep itself reads only the docs the term just touched:
        # partial scores only grow, so the kth-best of any doc subset,
        # or an older θ, stays a lower bound of the kth-best score, and
        # the O(df) gather avoids an O(n_docs) pass per term.
        suffix_ub = np.concatenate([np.cumsum(ubs[::-1])[::-1], [0.0]])
        prefix_ub = np.concatenate([[0.0], np.cumsum(ubs)])
        acc = np.zeros(self._doc_ids.size, dtype=np.float64)
        touched = np.zeros(self._doc_ids.size, dtype=bool)
        contrib = [None] * len(entries)   # entry -> (positions, scores)
        theta = -np.inf
        n_ess = len(entries)
        for a, i in enumerate(order.tolist()):
            if suffix_ub[a] < theta * slack:
                n_ess = a
                break
            pos, s = contrib[i] = self._weighted_run(entries[i], mask)
            acc[pos] += s
            touched[pos] = True
            if (prefix_ub[a + 1] > suffix_ub[a + 1] > 0.0
                    and pos.size >= k):
                theta = max(theta, float(np.partition(acc[pos], -k)[-k]))
        cand_pos = np.flatnonzero(touched)
        for a in range(n_ess, len(entries)):
            cand_scores = acc[cand_pos]
            if a > n_ess and cand_scores.size >= k:
                theta = max(theta,
                            float(np.partition(cand_scores, -k)[-k]))
            keep = cand_scores + suffix_ub[a] >= theta * slack
            cand_pos = cand_pos[keep]
            if cand_pos.size == 0:
                return []
            i = int(order[a])
            pos, s = contrib[i] = self._candidate_scores(entries[i],
                                                         cand_pos)
            acc[pos] += s
        cand_scores = acc[cand_pos]
        if cand_scores.size > k:
            # every term is in: the kth-best full sum bounds the cut
            kth = np.partition(cand_scores, -k)[-k]
            cand_pos = cand_pos[cand_scores >= kth * slack]
        final = np.zeros(cand_pos.size, dtype=np.float64)
        for pos, s in contrib:
            if pos.size:
                j = np.minimum(np.searchsorted(pos, cand_pos), pos.size - 1)
                hit = pos[j] == cand_pos
                final[hit] += s[j[hit]]
        return self._topk(self._doc_ids[cand_pos], final, k)

    def _bound(self, e: _Item, route) -> float:
        """Upper bound of ``e``'s term's unweighted score: its largest
        per-block score at (max_tf, min_doclen).  Computed once per
        global df and kept in ``_bounds_cache`` with the term's df,
        postings and skips, so a later miss of the decoded cache needs
        no probe either."""
        hit = self._bounds_cache.get(e.term)
        if hit is None or hit[3] != e.gdf:
            df, pbytes, skips = ((e.df, e.pbytes, e.skips)
                                 if e.skips is not None
                                 else hit[:3] if hit is not None
                                 else self._lookup(e.term, route))
            block_ub = self._term_score(skips[:, 2],
                                        skips[:, 3].astype(np.float64),
                                        self.idf(e.gdf))
            ub = float(block_ub.max()) if block_ub.size else 0.0
            hit = self._bounds_cache.put(
                e.term, (df, pbytes, skips, e.gdf, ub),
                len(pbytes) + skips.nbytes)
        return hit[4]

    # an uncached term needing fewer than 1 / _BLOCK_SHARE of its blocks
    # decodes only those, else decodes whole (cached); a cached run is
    # searched for fewer candidates than 1 / _BLOCK_SHARE of its
    # postings.  Pruned route, 60k rows, cold budget, against 16: 2 cut
    # BM25 / weighted p50 by 27% / 22%, 4 and 8 by half that, 32 lost
    # 30%; 1 lost 30% of warm BM25 p95 (tools/ab_query.py, 4 CPUs)
    _BLOCK_SHARE = 2

    def _candidate_scores(self, e: _Item, cand_pos: np.ndarray):
        """Item ``e``'s weighted scores for (at least) the candidates at
        the sorted positions ``cand_pos`` -> (positions, scores),
        positions ascending and unique.  An uncached term whose
        candidates fall in few of its blocks decodes only those blocks;
        otherwise its whole run (cached) is searched for few candidates,
        or returned whole for many: a non-candidate's score is never
        read, and adding it is cheaper than finding the candidates."""
        if e.run is None:
            # the blocks whose docID window holds a candidate: binary
            # search against the skip table's last_doc column
            cand_ids = self._doc_ids[cand_pos]
            need = np.unique(np.searchsorted(e.skips[:, 0], cand_ids))
            need = need[need < e.skips.shape[0]]
            if need.size * self._BLOCK_SHARE < e.skips.shape[0]:
                ids, tfs = decode_blocks(e.pbytes, e.skips, need, e.df,
                                         self.cfg.block_size)
                ids = ids.view(np.int64)
                slot = np.searchsorted(cand_ids, ids)
                hit = slot < cand_ids.size
                hit[hit] &= cand_ids[slot[hit]] == ids[hit]
                pos = cand_pos[slot[hit]]
                s = self._term_score(tfs[hit], self._doclens[pos],
                                     self.idf(e.gdf))
                return pos, (s if e.w == 1.0 else e.w * s)
        pos, s = self._weighted_run(e)
        if cand_pos.size * self._BLOCK_SHARE < pos.size:
            j = np.minimum(np.searchsorted(pos, cand_pos), pos.size - 1)
            hit = pos[j] == cand_pos
            return cand_pos[hit], s[j[hit]]
        return pos, s

"""Sidecar doc-values columns + metadata-filtered search support.

The Lucene-docvalues analog: per-document metadata columns (``lang``,
``source``, a crawl label, ...) stored OUTSIDE the inverted index as one
``docvalues.parquet`` per docmeta part, attached AFTER the build by a
single narrow Ray Data shuffle.  The index core stays lean; filters are
a query-time mask over the aligned value arrays (``InvertedIndex.search
(..., where=(col, values))`` — engine/query.py), with corpus statistics
(N, avgdl, df) unchanged, i.e. the standard search-engine filter
semantics (a Lucene filter query does not re-weight idf).

Why no join: the build's document identity is a pure function of the
build key (``doc_ids_from_urls(url)`` in webtext mode, the ``doc_id``
column in docs mode — engine/build.py make_tokenize_partial), and
docmeta parts split by ``doc_id % docmeta_parts`` (engine/build.py).
So attaching values to an existing index is map_batches (compute
doc_id + part) -> one keyed repartition of just (part, doc_id, cols)
-> one atomic parquet per part.  At 10^12 docs that is a shuffle of
narrow columns only — no full-corpus join, no index rewrite.

Reference parity note: EmbedAnything carries per-document metadata as
string maps on every embedded chunk (rust/src/text_loader.rs:33-52,
metadata on EmbedData); this module is that surface re-expressed for a
shared index: metadata lives once per document beside docmeta, not
copied into every posting.

Scale/limits:
- The sidecar source must have at most one row per document key;
  duplicate doc_ids within a part fail loudly (the index build already
  deduplicated its input, so duplicates mean the caller attached the
  pre-dedup table).
- Docs present in the index but absent from the sidecar simply never
  match any ``where`` filter (mask False); source rows for docs the
  index does not hold are dropped at attach, so a doc shard can take
  the whole corpus table.
- An index built with ``wide_doc_ids=True`` remaps colliding ids
  (engine/build.py resolve_id_collisions); remapped docs (a ~0
  fraction) are treated as absent from the sidecar.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from engine import index_io
from engine.config import EngineConfig
from engine.lru import LRUCache
from engine.tokenize import doc_ids_from_urls


class DocValuesMissing(KeyError):
    """A doc-values column the sidecar does not hold (a client error:
    the column was never attached)."""


SIDECAR = "docvalues.parquet"

# sidecar row-group size: hydration (get_doc_values) decodes whole row
# groups after the stats prune, so a part-sized default group makes one
# top-k snippet read decode O(corpus / docmeta_parts) text values.  A
# small fixed group bounds every point lookup at <= SIDECAR_ROW_GROUP
# decoded rows per hit regardless of corpus size (Lucene's stored-field
# block shape); the filter path is unaffected (it reads full columns).
SIDECAR_ROW_GROUP = 128


def _held_by(index_dir: str, part: int, ids: np.ndarray):
    """Bool mask of ``ids`` held by docmeta part ``part`` of the index,
    or None when the index never wrote that part."""
    path = os.path.join(index_io.part_dir(index_dir, "docmeta", part),
                        "docmeta.parquet")
    if not os.path.exists(path):
        return None
    keep_ids = np.sort(pq.read_table(path, columns=["doc_id"])
                       .column("doc_id").to_numpy())
    j = np.searchsorted(keep_ids, ids)
    ok = j < keep_ids.size
    ok[ok] &= keep_ids[j[ok]] == ids[ok]
    return ok


def _writer_for(index_dir: str, columns: list[str]):
    """Per-bucket writer: slice the repartitioned batch by part, keep
    the rows of docs that part's docmeta holds (a part the index never
    wrote gets no sidecar), sort by doc_id (deterministic bytes at any
    upstream parallelism), fail-loud on duplicate keys, atomic
    tmp+rename into the docmeta part dir."""

    def write(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"part": pa.array([], pa.int32()),
                             "rows": pa.array([], pa.int64())})
        parts = batch.column("part").to_numpy()
        out_p, out_n = [], []
        for part in np.unique(parts):
            sl = batch.filter(pa.array(parts == part))
            held = _held_by(index_dir, int(part),
                            sl.column("doc_id").to_numpy())
            if held is None:
                continue
            sl = sl.filter(pa.array(held))
            ids = sl.column("doc_id").to_numpy()
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            if ids.size > 1 and (ids[1:] == ids[:-1]).any():
                dup = int(ids[np.flatnonzero(ids[1:] == ids[:-1])[0]])
                raise ValueError(
                    f"attach_doc_values: duplicate doc_id {dup} in part "
                    f"{int(part)} — the sidecar source must be unique "
                    "per document key (attach the post-dedup table)")
            cols = {"doc_id": pa.array(ids)}
            for c in columns:
                cols[c] = sl.column(c).take(pa.array(order))
            d = index_io.part_dir(index_dir, "docmeta", int(part))
            tmp = os.path.join(d, SIDECAR + ".tmp")
            pq.write_table(pa.table(cols), tmp,
                           row_group_size=SIDECAR_ROW_GROUP)
            os.replace(tmp, os.path.join(d, SIDECAR))
            out_p.append(int(part))
            out_n.append(int(ids.size))
        return pa.table({"part": pa.array(out_p, pa.int32()),
                         "rows": pa.array(out_n, pa.int64())})

    return write


def attach_doc_values(index_dir: str,
                      source: "str | list[str] | ray.data.Dataset",
                      columns: list[str] | tuple[str, ...],
                      key: str | None = None,
                      dedup: str | None = None) -> dict:
    """Attach per-document metadata columns to an existing index.

    ``source`` is the document table — a parquet path/list or a Dataset
    — carrying ``key`` plus ``columns``.  ``key`` defaults to ``url``
    for webtext-mode indexes and ``doc_id`` for docs-mode ones (read
    from the index manifest).  Re-attaching REPLACES the sidecar (one
    docvalues.parquet per docmeta part).

    ``dedup="earliest"`` lets the RAW (pre-dedup) build input be the
    sidecar source: duplicate urls are resolved to the earliest-warc_ts
    row with the build's own winner rule (engine/build.py
    duplicate_losers + make_dedup_filter), so the attached values are
    the indexed documents'.  Requires ``key="url"`` and a ``warc_ts``
    column.  Default (None) fail-louds on duplicates instead.

    Rows for documents the index does not hold are dropped (a doc
    shard may attach the whole corpus table); parts the index never
    wrote get no sidecar.

    Returns {"parts": n_parts_written, "rows": total_rows}.
    """
    columns = list(columns)
    manifest = index_io.load_manifest(index_dir)
    cfg = EngineConfig.from_dict(manifest["config"])
    D = cfg.docmeta_parts
    if key is None:
        mode = (manifest.get("lineage") or {}).get("mode", "webtext")
        key = "url" if mode == "webtext" else "doc_id"

    if isinstance(source, ray.data.Dataset):
        ds = source
    else:
        cols = [key] + columns
        if dedup == "earliest":
            cols.append("warc_ts")
        ds = ray.data.read_parquet(source, columns=cols)

    if dedup is not None and dedup != "earliest":
        raise ValueError(f"unknown dedup mode {dedup!r}")
    if dedup == "earliest" and key != "url":
        raise ValueError("dedup='earliest' needs key='url' "
                         "(the webtext winner rule is per url)")

    # keyed repartition (and the dedup groupby) require the hash-shuffle
    # strategy; Datasets capture a deepcopy of the ambient DataContext
    # at creation (and a caller-supplied Dataset carries its own), so
    # set + restore on both — same discipline as the build shuffle
    # (engine/build.py).  ds.context covers BOTH source kinds: a
    # read_parquet Dataset has already captured its deepcopy by now, and
    # datasets derived below inherit the mutated copy.
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy
    ctxs = [DataContext.get_current(), ds.context]
    n_cpus = int(ray.cluster_resources().get("CPU", 8))
    dedup_parts = min(cfg.dedup_partitions, max(4, n_cpus * 2))
    max_parts = max(D, dedup_parts if dedup else 0)
    n_aggr = max(2, min(max_parts, n_cpus // 2))
    ppa = -(-max_parts // n_aggr)
    prevs = [(c.shuffle_strategy, c.max_hash_shuffle_aggregators,
              c.hash_shuffle_operator_actor_num_cpus_per_partition_override,
              c.min_hash_shuffle_aggregator_wait_time_in_s) for c in ctxs]
    for c in ctxs:
        c.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
        c.max_hash_shuffle_aggregators = n_aggr
        c.hash_shuffle_operator_actor_num_cpus_per_partition_override = \
            0.5 / ppa
        c.min_hash_shuffle_aggregator_wait_time_in_s = 30

    def to_parted(batch: pa.Table) -> pa.Table:
        if key == "doc_id":
            ids = batch.column("doc_id").to_numpy().astype(np.int64)
        else:
            urls = np.asarray(batch.column(key).to_pylist(), dtype=object)
            ids = doc_ids_from_urls(urls)
        cols = {"part": pa.array((ids % D).astype(np.int32)),
                "doc_id": pa.array(ids)}
        for c in columns:
            cols[c] = batch.column(c)
        return pa.table(cols)

    try:
        if dedup == "earliest":
            from engine.build import duplicate_losers, make_dedup_filter
            # keys from their own 2-column read when possible, and
            # n_keys estimated from the manifest's post-dedup doc count
            # (it only routes driver-vs-distributed resolution; raw
            # rows exceed it by the duplicate fraction) — both avoid a
            # full extra pipeline execution inside duplicate_losers
            keys = (ds.select_columns(["url", "warc_ts"])
                    if isinstance(source, ray.data.Dataset)
                    else ray.data.read_parquet(
                        source, columns=["url", "warc_ts"]))
            keys.context.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
            losers = duplicate_losers(
                keys, dedup_parts,
                n_keys=int(manifest["stats"]["n_docs"]))
            ds = ds.map_batches(make_dedup_filter(losers),
                                batch_format="pyarrow")
        metrics = (ds.map_batches(to_parted, batch_format="pyarrow")
                   .repartition(D, keys=["part"], sort=False)
                   .map_batches(_writer_for(index_dir, columns),
                                batch_format="pyarrow", batch_size=None)
                   .take_all())
    finally:
        for c, prev in zip(ctxs, prevs):
            (c.shuffle_strategy, c.max_hash_shuffle_aggregators,
             c.hash_shuffle_operator_actor_num_cpus_per_partition_override,
             c.min_hash_shuffle_aggregator_wait_time_in_s) = prev
    return {"parts": len({m["part"] for m in metrics}),
            "rows": int(sum(m["rows"] for m in metrics))}


def carry_doc_values(src_dirs: "str | list[str]", out_dir: str) -> dict:
    """Carry sidecars into a merged / compacted / updated index.

    ``engine.merge.merge_indexes`` / ``compact_index`` /
    ``build.update_index`` rewrite docmeta parts and do NOT copy
    sidecars (doc values derive from the source table, not the index).
    This helper re-derives them from the INPUT indexes' sidecars
    instead of a re-attach: per docmeta part (the ``doc_id % D`` split
    is preserved by merge/compact when configs match, which
    ``_check_compatible`` already enforces), concatenate the source
    sidecars' rows, keep only doc_ids present in the OUTPUT part's
    docmeta (drops compacted-away docs), sort, write atomically.

    Sources with NO sidecar contribute nothing (their docs simply
    never match a filter — the standard missing-row rule); duplicate
    doc_ids across sources fail loudly (merge inputs are disjoint doc
    sets); mismatched column sets across source sidecars fail loudly.
    Runs as a driver loop over D parts with O(part) memory — the same
    residency class as read_docmeta; at extreme D wrap it in a Ray
    task per part.

    Returns {"parts": n_written, "rows": total}.
    """
    if isinstance(src_dirs, str):
        src_dirs = [src_dirs]
    cfg = EngineConfig.from_dict(
        index_io.load_manifest(out_dir)["config"])
    n_parts = n_rows = 0
    for p in range(cfg.docmeta_parts):
        srcs = []
        for d in src_dirs:
            path = os.path.join(index_io.part_dir(d, "docmeta", p),
                                SIDECAR)
            if os.path.exists(path):
                srcs.append(pq.read_table(path))
        if not srcs:
            continue
        names = [tuple(sorted(t.column_names)) for t in srcs]
        if len(set(names)) > 1:
            raise ValueError(
                f"carry_doc_values: source sidecars disagree on "
                f"columns in part {p}: {sorted(set(names))}")
        t = pa.concat_tables(srcs)
        held = _held_by(out_dir, p, t.column("doc_id").to_numpy())
        if held is None:
            continue
        t = t.filter(pa.array(held))
        ids = t.column("doc_id").to_numpy()
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        if ids.size > 1 and (ids[1:] == ids[:-1]).any():
            dup = int(ids[np.flatnonzero(ids[1:] == ids[:-1])[0]])
            raise ValueError(
                f"carry_doc_values: doc_id {dup} present in more than "
                "one source sidecar (merge inputs must be disjoint)")
        t = t.take(pa.array(order))
        d = index_io.part_dir(out_dir, "docmeta", p)
        tmp = os.path.join(d, SIDECAR + ".tmp")
        pq.write_table(t, tmp, row_group_size=SIDECAR_ROW_GROUP)
        os.replace(tmp, os.path.join(d, SIDECAR))
        n_parts += 1
        n_rows += t.num_rows
    return {"parts": n_parts, "rows": n_rows}


def has_doc_values(index_dir: str, cfg: EngineConfig, col: str) -> bool:
    """True when a sidecar exists and carries ``col`` (schema probe of
    the first present part — attach writes every part atomically, so
    one part's schema speaks for all).  Lets callers distinguish 'no
    sidecar' (an error worth surfacing) from 'doc has no row' (the
    documented None hydration) without loading anything resident."""
    for p in range(cfg.docmeta_parts):
        path = os.path.join(index_io.part_dir(index_dir, "docmeta", p),
                            SIDECAR)
        if os.path.exists(path):
            return col in pq.read_schema(path).names
    return False


def get_doc_values(index_dir: str, cfg: EngineConfig, doc_ids,
                   col: str) -> list:
    """Point lookups of a sidecar column for a FEW doc_ids (result
    hydration) -> values in input order, None where absent.

    Each doc lives in part ``doc_id % D``; the per-part read pushes a
    doc_id IN-filter down to parquet (sidecars are sorted by doc_id, so
    row-group statistics prune), keeping the cost proportional to the
    touched row groups, not the corpus.  For filtering/faceting use the
    resident factorized codes instead (InvertedIndex.where_mask)."""
    ids = np.asarray(list(doc_ids), dtype=np.int64)
    out: dict[int, object] = {}
    D = cfg.docmeta_parts
    for p in np.unique(ids % D):
        path = os.path.join(index_io.part_dir(index_dir, "docmeta",
                                              int(p)), SIDECAR)
        if not os.path.exists(path):
            continue
        pf, mins, maxs = _sidecar_file(path)
        if col not in pf.schema_arrow.names:
            raise DocValuesMissing(
                f"doc-values column {col!r} not in the sidecar "
                f"(have {pf.schema_arrow.names}) — re-attach with the "
                "full column set (attach REPLACES the sidecar)")
        want = np.sort(ids[ids % D == p])
        # row groups whose [min, max] doc_id span contains a wanted id
        # (sidecars are doc_id-sorted, so spans are disjoint+ordered)
        gs = np.flatnonzero(np.searchsorted(want, mins)
                            != np.searchsorted(want, maxs, side="right"))
        if gs.size == 0:
            continue
        t = pf.read_row_groups([int(g) for g in gs],
                               columns=["doc_id", col])
        d_arr = t.column("doc_id").to_numpy()
        j = np.searchsorted(want, d_arr)
        sel = j < want.size
        sel[sel] &= want[j[sel]] == d_arr[sel]
        vals = t.column(col).take(
            pa.array(np.flatnonzero(sel))).to_pylist()
        for d, v in zip(d_arr[sel], vals):
            out[int(d)] = v
    return [out.get(int(d)) for d in ids]


# hydration handle cache: ParquetFile (footer parsed ONCE) + per-row-
# group doc_id min/max — the per-call pq.read_table(filters=...) dataset
# machinery cost ~5 ms per part file touched, which dominated top-k
# hydration.  Keyed on (path -> (mtime_ns, size)) so an atomic
# re-attach (os.replace) invalidates even within the filesystem's
# mtime granularity (size differs in practice; mtime_ns beats the
# float-seconds mtime either way); bounded by count (a sidecar set has
# docmeta_parts entries per index — 512 spans many live indexes).
# get_doc_values is public and EngineHttpServer is a ThreadingHTTPServer:
# the cache's own lock makes concurrent insert/evict safe.
_PF_CACHE = LRUCache(512)


def _sidecar_file(path: str):
    st_ = os.stat(path)
    key = (st_.st_mtime_ns, st_.st_size)
    hit = _PF_CACHE.get(path)
    if hit is not None and hit[0] == key:
        return hit[1], hit[2], hit[3]
    pf = pq.ParquetFile(path)
    md = pf.metadata
    ci = pf.schema_arrow.names.index("doc_id")
    mins = np.empty(md.num_row_groups, np.int64)
    maxs = np.empty(md.num_row_groups, np.int64)
    for g in range(md.num_row_groups):
        st = md.row_group(g).column(ci).statistics
        mins[g], maxs[g] = st.min, st.max
    _PF_CACHE.put(path, (key, pf, mins, maxs), 1)
    return pf, mins, maxs


def read_doc_values(index_dir: str, cfg: EngineConfig, col: str,
                    doc_range: tuple[int, int] | None = None) -> pa.Table:
    """All sidecar parts' (doc_id, col), optionally doc-range filtered
    per part BEFORE concat (same O(corpus / n_ranges) residency rule as
    index_io.read_docmeta)."""
    import pyarrow.compute as pc
    tables = []
    for p in range(cfg.docmeta_parts):
        path = os.path.join(index_io.part_dir(index_dir, "docmeta", p),
                            SIDECAR)
        if not os.path.exists(path):
            continue
        if col not in pq.read_schema(path).names:
            raise DocValuesMissing(
                f"doc-values column {col!r} not in the sidecar "
                f"(have {pq.read_schema(path).names}) — re-attach with "
                "the full column set (attach REPLACES the sidecar)")
        t = pq.read_table(path, columns=["doc_id", col])
        if doc_range is not None:
            lo, hi = doc_range
            ids = t.column("doc_id")
            # doc ids are 63-bit positive; the last range's hi is 2^63,
            # which overflows int64 — drop the upper test then (same
            # rule as index_io.read_docmeta)
            mask = pc.greater_equal(ids, pa.scalar(lo, pa.int64()))
            if hi <= (1 << 63) - 1:
                mask = pc.and_(mask, pc.less(ids, pa.scalar(hi, pa.int64())))
            t = t.filter(mask)
        tables.append(t)
    if not tables:
        raise FileNotFoundError(
            f"no doc-values sidecar for column {col!r} under {index_dir} "
            "— run engine.docvalues.attach_doc_values first")
    return pa.concat_tables(tables)

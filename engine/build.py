"""The index build pipeline — Ray-Data-first rebuild of the reference's
flagship ingest path ``embed_directory_stream``
(/root/reference/rust/src/lib.rs:815-971).

Reference shape: dir walk -> per-file extract+chunk -> mpsc channel ->
buffered embed -> adapter upsert.  Ours (SURVEY.md §3.1):

    read_parquet(url, warc_ts, html)         # prune at the read
      -> dedup-by-url filter                  # broadcast loser set
      -> map_batches(extract_batch)           # html -> text, html dropped
      -> map_batches(tokenize_partial)        # doc_id assign + per-batch
                                              #   partial posting lists +
                                              #   docmeta rows (one shuffle
                                              #   payload, schema.SHUFFLE)
      -> repartition(keys=["part"]) -> writer  # THE shuffle: merge partials,
                                              #   docID-sort, delta+varbyte
                                              #   encode, atomic part commit
      -> finalize manifest

Design notes for 100 TB / 10^12-doc scale:
  * ONE all-to-all exchange (groupby on the int ``part`` key).  Partial
    aggregation inside ``tokenize_partial`` (one row per distinct term
    per batch, posting entries packed as Arrow lists) is the combiner
    that keeps stopword skew bounded: a stopword contributes one
    list-row per input batch, spread over the part's many terms.
  * ``num_parts`` is fixed by config, not by input blocking, so segment
    bytes are identical at any parallelism (FIXTURES.md §5) and the
    part key doubles as the checkpoint unit.
  * Resume: committed parts are anti-joined out of the shuffle payload
    inside ``tokenize_partial`` (the reference's get_files_to_index
    anti-join, /root/reference/rust/src/file_loader.rs:118-126).
  * The dedup loser set (~2% of urls) is collected to the driver and
    broadcast into the filter closure.  At 10^12 docs the loser set no
    longer fits; the scale path is a hash-bucketed anti-join on url —
    same filter body, bucketed build of the loser sets.
"""

from __future__ import annotations

import os
import time
from collections.abc import Mapping
from typing import Iterable

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data
from ray.data.aggregate import Count, Min

from engine import index_io as index_io_mod
from engine.config import EngineConfig, DEFAULT_CONFIG
from engine.extract import extract_batch
from engine.metrics import PartMetrics, Timer, sha256_of
from engine.postings import (encode_postings, encode_postings_many,
                             encode_positions_sized, gather_slices)
from engine.tokenize import (HASH_FNS, count_terms, doc_ids_from_urls,
                             stable_hash64)
from engine.schema import SHUFFLE, shuffle_schema


# --------------------------------------------------------------------------
# dedup (D1: exact dedup by url, keep earliest warc_ts — FIXTURES.md §1)
# --------------------------------------------------------------------------

def duplicate_losers(keys_ds: "ray.data.Dataset",
                     num_partitions: int = 32,
                     driver_threshold: int = 2_000_000,
                     n_keys: int | None = None) -> dict[str, int]:
    """Find urls with >1 row -> {url: winner warc_ts (us)}.

    Input: a Dataset of just (url, warc_ts) — tiny columns, so nothing
    heavier than ~20 bytes/row ever moves.  Below ``driver_threshold``
    rows the keys are collected and resolved driver-side (one pandas
    groupby — the aggregator-pool startup of a distributed groupby costs
    more than the whole job at this size); above it, a hash-shuffled
    groupby keyed by url with explicit ``num_partitions``.  The result
    dict is broadcast either way, so the driver-memory class is the same.
    """
    import pyarrow.compute as pc
    if n_keys is None:
        n_keys = keys_ds.count()
    if n_keys <= driver_threshold:
        # Arrow-native: block refs fetched zero-copy, one multithreaded
        # C++ group_by — no pandas conversion on the driver.
        tab = pa.concat_tables(ray.get(keys_ds.to_arrow_refs()))
        g = tab.group_by("url").aggregate([("warc_ts", "min"),
                                           ("warc_ts", "count")])
        dup = g.filter(pc.greater(g.column("warc_ts_count"), 1))
        ts_us = dup.column("warc_ts_min").cast(pa.int64()).to_pylist()
        return dict(zip(dup.column("url").to_pylist(), ts_us))
    agg = keys_ds.groupby("url", num_partitions=num_partitions).aggregate(
        Min("warc_ts", alias_name="min_ts"), Count(alias_name="n")
    )
    dup = agg.map_batches(lambda t: t.filter(pc.greater(t["n"], 1)),
                          batch_format="pyarrow").to_pandas()
    ts_us = (dup["min_ts"].astype("datetime64[us]").astype(np.int64)
             if len(dup) else [])
    return dict(zip(dup["url"].tolist(), (int(t) for t in ts_us)))


def make_dedup_filter(losers: dict[str, int]):
    """Vectorized keep-filter: row survives unless a duplicate url with a
    non-winning warc_ts.  The loser set becomes a hash-backed
    ``pd.Index`` ONCE here (driver side, shipped in the closure); each
    batch does one get_indexer probe + one integer compare — no per-row
    Python in the build's hot path."""
    if not losers:
        return lambda batch: batch
    loser_urls = pd.Index(np.asarray(list(losers.keys()), dtype=object))
    loser_ts = np.fromiter(losers.values(), dtype=np.int64,
                           count=len(losers))

    def dedup_filter(batch: pa.Table) -> pa.Table:
        urls = np.asarray(batch.column("url").to_pylist(), dtype=object)
        ts = batch.column("warc_ts").cast(pa.int64()).to_numpy()
        idx = loser_urls.get_indexer(urls)
        keep = (idx < 0) | (ts == loser_ts[np.maximum(idx, 0)])
        return batch.filter(pa.array(keep))
    return dedup_filter


# --------------------------------------------------------------------------
# tokenize + per-batch partial aggregation (the combiner; SURVEY.md G3)
# --------------------------------------------------------------------------

def resolve_id_collisions(keys: "ray.data.Dataset",
                          num_partitions: int) -> dict[str, int]:
    """Wide-doc-id pre-pass: find 63-bit ids claimed by >=2 DISTINCT
    urls and deterministically re-id every url of a colliding group
    except the lexicographically smallest.

    Scale shape: one (doc_id, url) aggregate with Min/Max(url) — a
    colliding id has min != max; only THOSE groups' rows come back to
    the driver (at 10^12 docs, ~54 expected pairs), so the remap dict
    broadcast into tokenize is tiny.  Replacement ids are a salted
    rehash chain of the url (pure function of the url — deterministic
    at any parallelism); the docmeta fail-loud check backstops the
    ~1e-7-per-probe residual risk of a replacement landing on an
    existing id."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max as AggMax

    def to_ids(t: pa.Table) -> pa.Table:
        urls = np.asarray(t.column("url").to_pylist(), dtype=object)
        return pa.table({
            "doc_id": pa.array(doc_ids_from_urls(urls)),
            "url": pa.array(urls.tolist(), pa.large_string()),
        })

    ids_ds = keys.select_columns(["url"]).map_batches(
        to_ids, batch_format="pyarrow")
    agg = ids_ds.groupby("doc_id", num_partitions=num_partitions).aggregate(
        Min("url", alias_name="u_min"), AggMax("url", alias_name="u_max"))
    coll = agg.map_batches(
        lambda t: t.filter(pc.invert(pc.equal(t["u_min"], t["u_max"]))),
        batch_format="pyarrow").to_pandas()
    if not len(coll):
        return {}
    bad_ids = set(coll["doc_id"].tolist())
    rows = ids_ds.map_batches(
        lambda t: t.filter(pa.array(np.isin(
            t.column("doc_id").to_numpy(),
            np.fromiter(bad_ids, dtype=np.int64)))),
        batch_format="pyarrow").to_pandas()
    remap: dict[str, int] = {}
    mask63 = np.uint64(0x7FFFFFFFFFFFFFFF)
    for _, g in rows.groupby("doc_id"):
        group_urls = sorted(set(g["url"]))
        taken = {int(g["doc_id"].iloc[0])} | set(remap.values())
        for u in group_urls[1:]:       # smallest url keeps the id
            for salt in range(1, 64):
                cand = int(stable_hash64(
                    np.array([f"{u}#wide{salt}"], dtype=object))[0]
                    & mask63)
                if cand not in taken:
                    break
            taken.add(cand)
            remap[u] = cand
    return remap


def make_tokenize_partial(cfg: EngineConfig, done_postings: frozenset[int],
                          done_docmeta: frozenset[int], with_url: bool = True,
                          id_remap: dict[str, int] | None = None):
    """Build the map_batches UDF producing the single-shuffle payload."""
    P, D = cfg.num_parts, cfg.docmeta_parts
    SHUF = shuffle_schema(cfg.store_positions)
    if id_remap:
        remap_urls = pd.Index(np.asarray(list(id_remap.keys()),
                                         dtype=object))
        remap_ids = np.fromiter(id_remap.values(), dtype=np.int64,
                                count=len(id_remap))

    def tokenize_partial(batch) -> pa.Table:
        # Runs under batch_format="numpy" in the build: dict batches are
        # Mappings, which Ray Data always hands to the UDF — pyarrow
        # EMPTY batches would be passed through with their upstream
        # schema instead, poisoning the output buffer's concat (see
        # extract_batch's docstring).  pa.Table accepted for tests.
        if isinstance(batch, Mapping):
            if not batch:  # schema-less empty block from an upstream join
                return SHUF.empty_table()
            col = batch.__getitem__
        else:
            col = lambda name: batch.column(name).to_numpy(
                zero_copy_only=False)  # noqa: E731
        if with_url:
            urls = np.asarray(col("url"), dtype=object)
            doc_ids = doc_ids_from_urls(urls)
            if id_remap:
                ri = remap_urls.get_indexer(urls)
                hit = ri >= 0
                doc_ids[hit] = remap_ids[ri[hit]]
        else:
            doc_ids = np.asarray(col("doc_id"), dtype=np.int64)
            urls = doc_ids.astype(str).astype(object)
        texts = list(col("text"))
        if cfg.store_positions:
            tf, pos_flat = count_terms(texts, doc_ids, cfg.cjk_unigrams,
                                       positions=True)
        else:
            tf = count_terms(texts, doc_ids, cfg.cjk_unigrams)

        tables = []
        # postings partial rows: one per distinct term in the batch,
        # posting entries packed as Arrow lists built straight from
        # sort-order offsets (no per-term Python loop).
        if len(tf):
            codes, uniq_terms = pd.factorize(
                tf["term"].to_numpy(dtype=object), sort=True)
            order = np.lexsort((tf["doc_id"].to_numpy(), codes))
            c_s = codes[order]
            d_s = tf["doc_id"].to_numpy()[order]
            tf_s = tf["tf"].to_numpy()[order].astype(np.int32)
            dl_s = tf["doclen"].to_numpy()[order].astype(np.int32)
            starts = np.flatnonzero(
                np.concatenate(([True], c_s[1:] != c_s[:-1])))
            offsets = np.concatenate((starts, [c_s.size])).astype(np.int64)
            uniq_obj = np.asarray(uniq_terms, dtype=object)
            part_arr = (HASH_FNS[cfg.term_hash](uniq_obj)
                        % np.uint64(P)).astype(np.int32)
            cols = {
                "part": pa.array(part_arr),
                "term": pa.array(uniq_obj, pa.large_string()),
                "doc_ids": pa.LargeListArray.from_arrays(
                    offsets, pa.array(d_s.astype(np.int64))),
                "tfs": pa.LargeListArray.from_arrays(offsets, pa.array(tf_s)),
                "doclens": pa.LargeListArray.from_arrays(
                    offsets, pa.array(dl_s)),
                "url": pa.nulls(uniq_obj.size, pa.large_string()),
            }
            if cfg.store_positions:
                # reorder the per-(doc, term) position slices into the
                # same (term, doc) order as the posting entries; list
                # offsets per term row = running occurrence totals
                tf_rows = tf["tf"].to_numpy().astype(np.int64)
                row_starts = np.concatenate(([0], np.cumsum(tf_rows)[:-1]))
                pos_sorted = gather_slices(pos_flat, row_starts,
                                            tf_rows, order)
                per_term = np.add.reduceat(tf_rows[order], starts)
                pos_offs = np.concatenate(
                    ([0], np.cumsum(per_term))).astype(np.int64)
                cols["positions"] = pa.LargeListArray.from_arrays(
                    pos_offs, pa.array(pos_sorted))
            t_post = pa.table(cols, schema=SHUF)
            if done_postings:  # resume: drop already-committed parts
                keep = ~np.isin(part_arr,
                                np.fromiter(done_postings, dtype=np.int32))
                t_post = t_post.filter(pa.array(keep))
            tables.append(t_post)

        # docmeta rows: one per doc (doclen; empty docs get doclen 0)
        doclens = np.zeros(len(doc_ids), dtype=np.int32)
        if len(tf):
            per_doc = tf.groupby("doc_id", sort=False)["doclen"].first()
            doclens = (per_doc.reindex(pd.Index(doc_ids)).fillna(0)
                       .to_numpy().astype(np.int32))
        dparts = ((doc_ids % D) + P).astype(np.int32)
        n = len(doc_ids)
        unit_off = np.arange(n + 1, dtype=np.int64)
        meta_cols = {
            "part": pa.array(dparts),
            "term": pa.nulls(n, pa.large_string()),
            "doc_ids": pa.LargeListArray.from_arrays(
                unit_off, pa.array(doc_ids.astype(np.int64))),
            "tfs": pa.LargeListArray.from_arrays(
                unit_off, pa.array(np.zeros(n, np.int32))),
            "doclens": pa.LargeListArray.from_arrays(
                unit_off, pa.array(doclens)),
            "url": pa.array(urls.tolist(), pa.large_string()),
        }
        if cfg.store_positions:
            meta_cols["positions"] = pa.LargeListArray.from_arrays(
                np.zeros(n + 1, np.int64), pa.array([], pa.int32()))
        t_meta = pa.table(meta_cols, schema=SHUF)
        if done_docmeta:
            keep = ~np.isin(dparts - np.int32(P),
                            np.fromiter(done_docmeta, dtype=np.int32))
            t_meta = t_meta.filter(pa.array(keep))
        tables.append(t_meta)
        return pa.concat_tables(tables) if len(tables) > 1 else tables[0]

    return tokenize_partial


# --------------------------------------------------------------------------
# per-part merge + encode + atomic write (the reduce side of the shuffle)
# --------------------------------------------------------------------------

def make_part_writer(sink, cfg: EngineConfig,
                     lineage: dict | None = None,
                     fail_parts: frozenset[int] = frozenset()):
    """Group fn for groupby("part").map_groups: merge partial posting
    lists into docID-sorted runs, encode, commit the segment atomically
    through the ``sink`` (engine.sink.IndexSink — the reference's
    Adapter.upsert slot, called per partition), return one metrics row.
    ``fail_parts`` is a test hook for the resume test (FIXTURES.md §5
    injected failure)."""
    P = cfg.num_parts

    def write_part(g: pa.Table) -> pa.Table:
        part = int(g.column("part")[0].as_py())
        if part in fail_parts:
            raise RuntimeError(f"injected failure for part {part}")
        with Timer() as t:
            if part >= P:
                m = _write_docmeta(g, part - P)
            else:
                m = _write_postings(g, part)
        m.wall_s = t.wall_s
        return pa.table({
            "part": [part], "kind": [m.kind], "n_terms": [m.n_terms],
            "n_postings": [m.n_postings], "n_docs": [m.n_docs],
            "sum_doclen": [m.sum_doclen], "checksum": [m.checksum],
        })

    def write_parts(batch: pa.Table) -> pa.Table:
        """One hash-shuffle partition -> its parts, written sequentially.

        The shuffle is ``repartition(keys=["part"], sort=False)`` rather
        than ``groupby("part").map_groups``: map_groups sorts each
        aggregated partition by key inside the aggregator actor, and
        Ray's hash shuffle broadcasts the schema to all aggregators only
        with the FIRST input block — an empty block arriving first (an
        all-empty map task from join-produced empty blocks bypasses the
        UDF and is emitted with the upstream schema) loses the broadcast
        and the zero-shard aggregators then crash sorting a schema-less
        empty table (ArrowInvalid 'No match for FieldRef.Name(part)',
        reproduced via update_index's anti-join under a 4-cpu session).
        Without the sort the race is harmless: schema-less empties skip
        this UDF and contribute no rows.  Grouping by part is one stable
        argsort + run-boundary slices here instead."""
        parts_col = batch.column("part").to_numpy()
        order = np.argsort(parts_col, kind="stable")
        batch = batch.take(pa.array(order))
        ps = parts_col[order]
        starts = np.flatnonzero(
            np.concatenate(([True], ps[1:] != ps[:-1])))
        ends = np.concatenate((starts[1:], [ps.size]))
        return pa.concat_tables(
            [write_part(batch.slice(int(lo), int(hi - lo)))
             for lo, hi in zip(starts, ends)])

    def _flat(g: pa.Table, col: str) -> tuple[np.ndarray, np.ndarray]:
        """large_list column -> (flat values, per-row counts), zero-copy."""
        arr = g.column(col)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        flat = arr.flatten().to_numpy(zero_copy_only=False)
        counts = np.diff(arr.offsets.to_numpy(zero_copy_only=False))
        return flat, counts

    def _write_docmeta(g: pa.Table, dpart: int) -> PartMetrics:
        doc_ids, _ = _flat(g, "doc_ids")
        doclens, _ = _flat(g, "doclens")
        doc_ids = doc_ids.astype(np.int64)
        doclens = doclens.astype(np.int32)
        urls = np.asarray(g.column("url").to_pylist(), dtype=object)
        order = np.argsort(doc_ids, kind="stable")
        doc_ids, doclens, urls = doc_ids[order], doclens[order], urls[order]
        # a doc appears exactly once (dedup upstream); tolerate re-runs —
        # but a repeated doc_id carrying a DIFFERENT url is a hash64(url)
        # COLLISION (63-bit id space, SURVEY.md §7.5): dropping it would
        # silently corrupt postings, so fail loudly instead.  The scale
        # path is EngineConfig(wide_doc_ids=True): resolve_id_collisions
        # detects and remaps collisions pre-build; this check then
        # backstops the residual rehash risk.
        uniq = np.concatenate(([True], np.diff(doc_ids) != 0))
        if not uniq.all():
            dup_pos = np.flatnonzero(~uniq)
            clash = urls[dup_pos] != urls[dup_pos - 1]
            if clash.any():
                i = int(dup_pos[np.flatnonzero(clash)[0]])
                raise ValueError(
                    f"doc_id collision: urls {urls[i - 1]!r} and "
                    f"{urls[i]!r} both hash to doc_id {int(doc_ids[i])}; "
                    "widen the id space before indexing this corpus")
        doc_ids, doclens, urls = doc_ids[uniq], doclens[uniq], urls[uniq]
        table = pa.table({"doc_id": doc_ids, "url": urls.tolist(),
                          "doclen": doclens})
        m = PartMetrics(part=dpart, kind="docmeta", n_docs=len(doc_ids),
                        sum_doclen=int(doclens.sum()),
                        checksum=sha256_of(doc_ids.tobytes(), doclens.tobytes()),
                        lineage=lineage or {})
        sink.write_docmeta_part(dpart, table, m)
        return m

    def _write_postings(g: pa.Table, part: int) -> PartMetrics:
        # vectorized merge: explode every partial list (zero-copy), one
        # global lexsort by (term, doc_id), then per-term slices encode.
        has_pos = "positions" in g.column_names
        terms = np.asarray(g.column("term").to_pylist(), dtype=object)
        id_flat, counts = _flat(g, "doc_ids")
        tf_flat, _ = _flat(g, "tfs")
        dl_flat, _ = _flat(g, "doclens")
        codes, uniq_terms = pd.factorize(terms, sort=True)
        rep = np.repeat(codes, counts)
        order = np.lexsort((id_flat, rep))
        c_s = rep[order]
        d_s = id_flat[order].astype(np.int64)
        t_s = tf_flat[order].astype(np.int64)
        l_s = dl_flat[order].astype(np.int64)
        if has_pos:
            # per-entry occurrence counts == tfs, so the flat position
            # stream reorders with the same variable-slice gather
            pos_part, _ = _flat(g, "positions")
            ent_lens = tf_flat.astype(np.int64)
            ent_starts = np.concatenate(([0], np.cumsum(ent_lens)[:-1]))
            pos_s = gather_slices(pos_part, ent_starts, ent_lens, order)
        # collapse duplicate (term, doc) runs: sum tfs, keep first doclen
        # (only possible on dirty input; tolerated for idempotent re-runs)
        new_run = np.concatenate(
            ([True], (c_s[1:] != c_s[:-1]) | (d_s[1:] != d_s[:-1])))
        if not new_run.all():
            if has_pos:
                # a duplicated (term, doc) partial would interleave two
                # occurrence streams for one posting — there is no right
                # merge (upstream dedup guarantees each doc tokenizes
                # exactly once), so fail loudly rather than corrupt
                raise ValueError(
                    f"part {part}: duplicate (term, doc) partials in a "
                    "positional build — input contains a repeated doc")
            starts_r = np.flatnonzero(new_run)
            t_s = np.add.reduceat(t_s, starts_r)
            c_s, d_s, l_s = c_s[starts_r], d_s[starts_r], l_s[starts_r]

        tstarts = np.flatnonzero(
            np.concatenate(([True], c_s[1:] != c_s[:-1])))
        tends = np.concatenate((tstarts[1:], [c_s.size]))
        terms_out = [str(uniq_terms[c]) for c in c_s[tstarts]]
        n_postings = int(c_s.size)
        # byte-identical strategies (equivalence test-pinned), chosen by
        # term count: the per-term loop wins when a part holds few terms
        # (this engine's synthetic fixtures: ~10^2/part — measured 36%
        # faster end-to-end builds than always-bulk), the single-pass
        # bulk encode wins when Python iteration would dominate (real
        # web vocabularies: ~10^5-10^6 terms/part)
        if tstarts.size >= 4096:
            (postings_blob, skips_blob, offs, lens, soffs, slens) = \
                encode_postings_many(d_s, t_s, l_s, tstarts, tends,
                                     cfg.block_size)
        else:
            offs, lens, soffs, slens = [], [], [], []
            post_blobs, skip_blobs = [], []
            post_off = skip_off = 0
            for lo, hi in zip(tstarts, tends):
                pb, sb = encode_postings(d_s[lo:hi], t_s[lo:hi],
                                         l_s[lo:hi], cfg.block_size)
                offs.append(post_off); lens.append(len(pb))
                soffs.append(skip_off); slens.append(len(sb))
                post_off += len(pb); skip_off += len(sb)
                post_blobs.append(pb); skip_blobs.append(sb)
            postings_blob = b"".join(post_blobs)
            skips_blob = b"".join(skip_blobs)
        cfs = np.add.reduceat(t_s, tstarts)
        tcols = {
            "term": pa.array(terms_out, pa.large_string()),
            "df": pa.array((tends - tstarts).astype(np.int64)),
            "cf": pa.array(cfs.astype(np.int64)),
            "post_off": pa.array(offs, pa.int64()),
            "post_len": pa.array(lens, pa.int64()),
            "skip_off": pa.array(soffs, pa.int64()),
            "skip_len": pa.array(slens, pa.int64()),
        }
        positions_blob = None
        if has_pos:
            # one bulk varbyte pass over the whole part's position
            # stream; per-term byte ranges from the per-value size array
            # (a term's occurrence total is exactly its cf)
            pb_arr, nb = encode_positions_sized(pos_s, t_s)
            positions_blob = pb_arr.tobytes()
            term_flat_starts = (np.concatenate(([0], np.cumsum(cfs)[:-1]))
                                .astype(np.int64))
            plens = np.add.reduceat(nb, term_flat_starts) \
                if nb.size else np.zeros(len(terms_out), np.int64)
            poffs = np.concatenate(([0], np.cumsum(plens)[:-1]))
            tcols["pos_off"] = pa.array(poffs.astype(np.int64))
            tcols["pos_len"] = pa.array(plens.astype(np.int64))
        terms_table = pa.table(tcols)
        m = PartMetrics(part=part, kind="postings", n_terms=len(terms_out),
                        n_postings=n_postings,
                        postings_bytes=len(postings_blob),
                        skip_bytes=len(skips_blob),
                        positions_bytes=(len(positions_blob)
                                         if positions_blob else 0),
                        checksum=(sha256_of(postings_blob, skips_blob,
                                            positions_blob)
                                  if positions_blob is not None else
                                  sha256_of(postings_blob, skips_blob)),
                        lineage=lineage or {})
        if positions_blob is not None:
            sink.write_postings_part(part, terms_table,
                                     postings_blob, skips_blob, m,
                                     positions_blob=positions_blob)
        else:
            # positional kwarg omitted so pre-positions custom
            # IndexSink implementations keep working for plain builds
            sink.write_postings_part(part, terms_table,
                                     postings_blob, skips_blob, m)
        return m

    return write_parts


# --------------------------------------------------------------------------
# pipeline assembly
# --------------------------------------------------------------------------

def build_index(
    source: "str | list[str] | ray.data.Dataset",
    index_dir: str,
    cfg: EngineConfig = DEFAULT_CONFIG,
    *,
    mode: str = "webtext",
    resume: bool = True,
    fail_parts: Iterable[int] = (),
    sink=None,
) -> dict:
    """Run the full build; returns the manifest dict.

    mode="webtext": source columns (url, warc_ts, html) — dedup + extract.
    mode="docs":    source columns (doc_id, text) — pre-extracted corpus
                    (e.g. /root/testdata documents), skips dedup/extract.

    Concurrency note: the hash-shuffle strategy + aggregator-pool sizing
    are set on the PROCESS-GLOBAL DataContext for the duration of the
    build (restored in ``finally``).  A concurrent Ray Data pipeline
    launched from the same driver mid-build would inherit these
    overrides; one build (or other pipeline) at a time per driver is the
    supported mode.  (Ray Data has no public per-pipeline context yet —
    when it does, scope the overrides there.)
    """
    t0 = time.perf_counter()
    if sink is None:
        from engine.sink import LocalIndexSink
        sink = LocalIndexSink(index_dir)
    sink.create_index()
    done = sink.committed_parts() if resume else {}
    done_postings = frozenset(p for (k, p) in done if k == "postings")
    done_docmeta = frozenset(p for (k, p) in done if k == "docmeta")
    all_done = (len(done_postings) >= cfg.num_parts
                and len(done_docmeta) >= cfg.docmeta_parts)

    lineage = {"source": str(source) if not isinstance(source, ray.data.Dataset)
               else "<dataset>", "mode": mode}

    if not all_done:
        # The build's one exchange is a hash shuffle on the int ``part``
        # key (term-partition id), sized to the index layout — not the
        # 200-partition sort-shuffle default, whose reduce serializes on
        # small key cardinality.  Strategy is restored after execution.
        from ray.data.context import DataContext, ShuffleStrategy
        num_partitions = cfg.num_parts + cfg.docmeta_parts
        n_cpus = int(ray.cluster_resources().get("CPU", 8))
        # Every Dataset captures a DEEPCOPY of the ambient DataContext at
        # creation, and derived datasets copy from their PARENT — so for
        # a caller-supplied Dataset source the overrides must also be
        # applied to the source's captured context, or the whole build
        # pipeline silently falls back to the 200-partition sort shuffle
        # (observed: AllToAllOperator[Sort] in a 3.2M-doc shard build fed
        # a pre-filtered Dataset; 1.9x slower than the hash shuffle).
        ctxs = [DataContext.get_current()]
        if isinstance(source, ray.data.Dataset):
            ctxs.append(source.context)
        prevs = [(c.shuffle_strategy, c.max_hash_shuffle_aggregators,
                  c.hash_shuffle_operator_actor_num_cpus_per_partition_override,
                  c.hash_aggregate_operator_actor_num_cpus_per_partition_override,
                  c.min_hash_shuffle_aggregator_wait_time_in_s)
                 for c in ctxs]
        # Size the aggregator actor pool to the session: ~half the CPUs
        # worth of aggregators, each actor budgeted ~0.5 CPU (they only
        # collect/concat partition blocks; the heavy merge runs in
        # write_part map tasks).  The override is per PARTITION, so it
        # is derived from the largest partition count any groupby in
        # this build uses — an oversized pool deadlocks small sessions
        # (aggregators wait forever for CPUs the map tasks hold).  The
        # pool's total stays at most n_cpus - 1 so one whole CPU is
        # always left for the 1-CPU map tasks: in a 1-CPU session the
        # aggregators reserve none.
        dedup_eff = min(cfg.dedup_partitions, max(4, n_cpus * 2))
        max_parts = max(num_partitions, dedup_eff)
        n_aggr = max(2, min(max_parts, n_cpus // 2))
        ppa = -(-max_parts // n_aggr)  # partitions per aggregator, ceil
        cpu_override = max(0.0, min(0.5, (n_cpus - 1) / n_aggr)) / ppa
        for c in ctxs:
            c.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
            c.max_hash_shuffle_aggregators = n_aggr
            c.hash_shuffle_operator_actor_num_cpus_per_partition_override = cpu_override
            c.hash_aggregate_operator_actor_num_cpus_per_partition_override = cpu_override
            c.min_hash_shuffle_aggregator_wait_time_in_s = 30
        try:
            id_remap: dict[str, int] | None = None
            if mode == "webtext":
                if isinstance(source, ray.data.Dataset):
                    ds = source
                    keys = source.select_columns(["url", "warc_ts"])
                else:
                    ds = ray.data.read_parquet(
                        source, columns=["url", "warc_ts", "html"])
                    keys = ray.data.read_parquet(
                        source, columns=["url", "warc_ts"])
                if cfg.wide_doc_ids:
                    id_remap = resolve_id_collisions(
                        keys, min(cfg.dedup_partitions,
                                  max(4, n_cpus * 2)))
                    lineage["id_collisions_resolved"] = len(id_remap)
                strategy = cfg.dedup_strategy
                n_keys = None
                if strategy == "auto":
                    n_keys = keys.count()
                    strategy = ("broadcast"
                                if n_keys <= 2_000_000 else "join")
                if strategy == "join":
                    # fully distributed keep-earliest: no driver state
                    winners = keys.groupby(
                        "url", num_partitions=dedup_eff).aggregate(
                        Min("warc_ts", alias_name="warc_ts"))
                    ds = ds.join(winners, "left_semi",
                                 num_partitions=dedup_eff,
                                 on=("url", "warc_ts"))
                else:
                    losers = duplicate_losers(keys, dedup_eff,
                                              n_keys=n_keys)
                    ds = ds.map_batches(make_dedup_filter(losers),
                                        batch_format="pyarrow")
                # numpy batches (Mappings) so Ray calls the UDF even on
                # empty blocks — the join above emits schema-less
                # empties that would otherwise pass through unchanged
                # and break the fused stage's rebatch concat (see
                # extract_batch docstring).
                ds = ds.map_batches(extract_batch, batch_format="numpy",
                                    batch_size=cfg.extract_batch_size)
                with_url = True
            elif mode == "docs":
                if isinstance(source, ray.data.Dataset):
                    ds = source
                else:
                    ds = ray.data.read_parquet(source,
                                               columns=["doc_id", "text"])
                with_url = False
            else:
                raise ValueError(f"unknown mode {mode!r}")

            shuffle_payload = ds.map_batches(
                make_tokenize_partial(cfg, done_postings, done_docmeta,
                                      with_url, id_remap=id_remap),
                batch_format="numpy", batch_size=cfg.tokenize_batch_size,
            )
            writer = make_part_writer(sink, cfg, lineage,
                                      frozenset(fail_parts))
            # keyed hash repartition, NOT groupby().map_groups — see
            # write_parts' docstring for the empty-first-block schema
            # race this sidesteps; each output partition holds all rows
            # of its part-hash bucket, whole-block batches keep every
            # part intact in one writer call
            metrics_rows = (
                shuffle_payload
                .repartition(cfg.num_parts + cfg.docmeta_parts,
                             keys=["part"], sort=False)
                .map_batches(writer, batch_format="pyarrow",
                             batch_size=None)
                .take_all()
            )
            lineage["n_parts_written"] = len(metrics_rows)
        finally:
            for c, prev in zip(ctxs, prevs):
                (c.shuffle_strategy, c.max_hash_shuffle_aggregators,
                 c.hash_shuffle_operator_actor_num_cpus_per_partition_override,
                 c.hash_aggregate_operator_actor_num_cpus_per_partition_override,
                 c.min_hash_shuffle_aggregator_wait_time_in_s) = prev

    lineage["wall_s"] = round(time.perf_counter() - t0, 3)
    return sink.finalize(cfg, lineage)


def update_index(
    source: "str | list[str] | ray.data.Dataset",
    index_dir: str,
    out_dir: str,
    *,
    mode: str = "webtext",
    delta_dir: str | None = None,
) -> dict:
    """Incrementally add NEW documents to an existing index.

    Three composed primitives, each already scale-tested on its own:
      1. distributed anti-join of the source against the index's
         docmeta key (url in webtext mode, doc_id in docs mode) — the
         reference's ``get_files_to_index`` incremental rule
         (/root/reference/rust/src/file_loader.rs:118-126) promoted to
         a Ray left_anti join (no driver-side key set; the docmeta
         parquet parts ARE the join's small side, read distributed);
      2. a delta-segment build over only the new docs (same layout
         config as the base index, so segments stay merge-compatible);
      3. ``merge_indexes([index_dir, delta_dir], out_dir)`` — the
         checksum-tested segment merge.

    First-indexed wins: a source row whose key is already indexed is
    skipped, NOT re-indexed (re-crawls don't churn the index; refresh
    content via ``index_io.delete_docs`` + update, then
    ``compact_index``).  The base index's deletion overlay is carried
    into ``out_dir`` unchanged.  Returns the merged manifest.
    """
    import shutil

    man = index_io_mod.load_manifest(index_dir)
    cfg = EngineConfig.from_dict(man["config"])
    key = "url" if mode == "webtext" else "doc_id"
    meta_paths = [
        os.path.join(index_io_mod.part_dir(index_dir, "docmeta", p),
                     "docmeta.parquet")
        for p in range(cfg.docmeta_parts)]
    meta_paths = [p for p in meta_paths if os.path.exists(p)]
    if isinstance(source, ray.data.Dataset):
        ds = source
    elif mode == "webtext":
        ds = ray.data.read_parquet(source,
                                   columns=["url", "warc_ts", "html"])
    else:
        ds = ray.data.read_parquet(source, columns=["doc_id", "text"])
    if meta_paths:
        existing = ray.data.read_parquet(meta_paths, columns=[key])
        n_cpus = int(ray.cluster_resources().get("CPU", 8))
        ds = ds.join(existing, "left_anti", on=(key,),
                     num_partitions=max(4, min(cfg.dedup_partitions,
                                               n_cpus * 2)))
    if delta_dir is None:
        delta_dir = out_dir + ".delta"
    shutil.rmtree(delta_dir, ignore_errors=True)
    build_index(ds, delta_dir, cfg, mode=mode, resume=False)
    from engine.merge import merge_indexes
    manifest = merge_indexes([index_dir, delta_dir], out_dir)
    overlay = os.path.join(index_dir, index_io_mod.DELETES)
    if os.path.exists(overlay):
        shutil.copy2(overlay, os.path.join(out_dir, index_io_mod.DELETES))
    shutil.rmtree(delta_dir, ignore_errors=True)
    return manifest

"""Driver-contract pipelines over the /root/testdata tables.

One function per ``__ray_entry__.queries()`` entry; each takes ``sf_dir``
and returns a Dataset / pandas DataFrame.  Column names and rounding are
chosen to match the DuckDB oracle SQL in __ray_entry__.py exactly
(the driver hashes values after sorting columns by name).

The BM25 entries run against a REAL index built by engine.build in docs
mode (doc_id + text), cached per sf_dir under /tmp — so the correctness
gate exercises the full build+query engine, not a shortcut
reimplementation.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data
from ray.data.aggregate import Count, Sum

from engine.build import build_index
from engine.config import EngineConfig, pool_size
from engine.query import InvertedIndex
from engine.tokenize import count_terms
from engine import dedup as dedup_ops
from engine import similarity as sim_ops
from engine import textstats

DOCS_CFG = EngineConfig(num_parts=8, docmeta_parts=2)

# bump when the on-disk index format or build semantics change, so a
# /tmp cache built by older code is never reused across rounds
INDEX_FORMAT_VERSION = 2


def documents_ds(sf_dir: str, columns=("doc_id", "text")) -> "ray.data.Dataset":
    return ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                                 columns=list(columns))


def docs_index(sf_dir: str, cfg: EngineConfig = DOCS_CFG) -> InvertedIndex:
    """Build (or resume) the documents-table index for this sf_dir."""
    key = hashlib.sha256(
        f"{os.path.abspath(sf_dir)}|v{INDEX_FORMAT_VERSION}|"
        f"{sorted(cfg.to_dict().items())}".encode()).hexdigest()[:12]
    idx_dir = os.path.join("/tmp", "engine_cache", f"docsidx-{key}")
    if not os.path.exists(os.path.join(idx_dir, "_manifest.json")):
        build_index(os.path.join(sf_dir, "documents.parquet"), idx_dir,
                    cfg, mode="docs")
    return InvertedIndex(idx_dir)


# --- tokenization / stats ---------------------------------------------------

def q_doclen(sf_dir: str):
    def f(batch: pa.Table) -> pa.Table:
        tf = count_terms(batch.column("text").to_pylist(),
                         batch.column("doc_id").to_numpy())
        per = tf.groupby("doc_id", sort=False)["doclen"].first()
        ids = batch.column("doc_id").to_numpy()
        dl = per.reindex(ids).fillna(0).to_numpy().astype(np.int64)
        return pa.table({"doc_id": pa.array(ids), "doclen": pa.array(dl)})
    return documents_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def _exploded_tf(sf_dir: str) -> "ray.data.Dataset":
    """(term, doc_id, tf) rows — per-batch partial already unique per
    (doc, term), the combiner for the df/cf aggregates."""
    def f(batch: pa.Table) -> pa.Table:
        tf = count_terms(batch.column("text").to_pylist(),
                         batch.column("doc_id").to_numpy())
        return pa.table({
            "term": pa.array(tf["term"].to_numpy(dtype=object), pa.string()),
            "doc_id": pa.array(tf["doc_id"].to_numpy()),
            "tf": pa.array(tf["tf"].to_numpy().astype(np.int64)),
        })
    return documents_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def _exploded_tf_dl(sf_dir: str) -> "ray.data.Dataset":
    """(term, doc_id, tf, dl) rows — _exploded_tf with the document
    length riding along (the BM25 doc-side weight needs it)."""
    def f(batch: pa.Table) -> pa.Table:
        tf = count_terms(batch.column("text").to_pylist(),
                         batch.column("doc_id").to_numpy())
        return pa.table({
            "term": pa.array(tf["term"].to_numpy(dtype=object), pa.string()),
            "doc_id": pa.array(tf["doc_id"].to_numpy()),
            "tf": pa.array(tf["tf"].to_numpy().astype(np.int64)),
            "dl": pa.array(tf["doclen"].to_numpy().astype(np.int64)),
        })
    return documents_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_sparse_doc_vectors(sf_dir: str) -> pd.DataFrame:
    """Document-side sparse vectors (engine/embed.py sparse_doc_vectors
    — the SPLADE doc-embedding analog): per-(doc, term) BM25 weight in
    integer micro-units after ONE term-keyed hash shuffle (exact global
    df computed in-block, no driver vocabulary).  Contract cut: global
    top-200 triplets by (w_micro desc, doc_id, term) via the per-block
    prune — only 200 x n_blocks rows reach the driver."""
    from engine.embed import sparse_doc_vectors

    def stats_part(t: pa.Table) -> pa.Table:
        dlv = t.column("doclen").to_numpy()
        m = dlv > 0      # SQL's dl CTE has a row only for docs w/ tokens
        return pa.table({"n": pa.array([int(m.sum())], pa.int64()),
                         "tot": pa.array([int(dlv[m].sum())], pa.int64())})

    st = (q_doclen(sf_dir).map_batches(stats_part, batch_format="pyarrow")
          .aggregate(Sum("n", alias_name="n"), Sum("tot", alias_name="tot")))
    n, tot = int(st["n"]), int(st["tot"])
    vecs = sparse_doc_vectors(_exploded_tf_dl(sf_dir), n, tot / n)

    def prune(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            ["w_micro", "doc_id", "term"],
            ascending=[False, True, True]).head(200)
        return pa.Table.from_pandas(df, preserve_index=False)

    out = (vecs.map_batches(prune, batch_format="pyarrow")
           .to_pandas()
           .sort_values(["w_micro", "doc_id", "term"],
                        ascending=[False, True, True])
           .head(200).reset_index(drop=True))
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["w_micro"] = out["w_micro"].astype(np.int64)
    return out[["doc_id", "term", "w_micro"]]


def _topk_by(agg: "ray.data.Dataset", val_col: str, k: int = 100) -> pd.DataFrame:
    """Global top-k of a groupby-aggregate output WITHOUT collecting the
    full vocabulary: each output block holds a term exactly once (hash
    shuffle on the key), so a per-block top-k prune is exact — only
    k * n_blocks rows ever reach the driver."""
    def prune(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.sort_values([val_col, "term"],
                            ascending=[False, True]).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    out = agg.map_batches(prune, batch_format="pyarrow").to_pandas()
    out = out.sort_values([val_col, "term"], ascending=[False, True]).head(k)
    out[val_col] = out[val_col].astype(np.int64)
    return out.reset_index(drop=True)


def q_term_df_top100(sf_dir: str) -> pd.DataFrame:
    return _topk_by(_exploded_tf(sf_dir).groupby("term").aggregate(
        Count(alias_name="df")), "df")


def q_bigram_cf_top100(sf_dir: str) -> pd.DataFrame:
    """Top-100 bigram collection frequencies (phrase statistics for the
    indexing path — the unigram stats' natural extension).  Same shape
    as term_cf_top100: per-batch partial counts (the combiner), hash
    groupby on the bigram, exact per-block top-k prune."""
    from engine.tokenize import tokenize_batch

    def f(batch: pa.Table) -> pa.Table:
        toks = tokenize_batch(batch.column("text").to_pylist())
        lens = np.fromiter((len(t) for t in toks), dtype=np.int64,
                           count=len(toks))
        flat = np.concatenate(
            [np.asarray(t, dtype=object) for t in toks if t]
        ) if lens.sum() else np.empty(0, dtype=object)
        # drop each doc's last token position: bigrams never cross docs
        mask = np.ones(flat.size, dtype=bool)
        ends = np.cumsum(lens[lens > 0])
        if ends.size:
            mask[ends - 1] = False
        pos = np.flatnonzero(mask)
        big = pd.Series(flat[pos]).str.cat(pd.Series(flat[pos + 1]),
                                           sep=" ")
        part = big.value_counts()
        return pa.table({
            "term": pa.array(part.index.to_numpy(dtype=object),
                             pa.string()),
            "cf": pa.array(part.to_numpy().astype(np.int64)),
        })

    out = _topk_by(documents_ds(sf_dir).map_batches(
        f, batch_format="pyarrow").groupby("term").aggregate(
        Sum("cf", alias_name="cf")), "cf")
    return out.rename(columns={"term": "bigram"})


QUANTILE_PPM = (250000, 500000, 750000, 900000, 990000)


def q_doclen_quantiles(sf_dir: str) -> pd.DataFrame:
    """Exact distributed quantiles of the doclen distribution via a value
    histogram: doclen is small-integer-valued, so groupby(doclen).count()
    is tiny (distinct values, not docs) and the driver-side cumsum +
    rank lookup is exact — no sampling, no full sort, no t-digest
    approximation.  Rank rule ceil(n*q), 1-based, verified empirically
    == DuckDB quantile_disc for these q at realistic n (including its
    float products)."""
    import math

    def part(t: pa.Table) -> pa.Table:
        v, c = np.unique(t.column("doclen").to_numpy(), return_counts=True)
        return pa.table({"doclen": pa.array(v.astype(np.int64)),
                         "n": pa.array(c.astype(np.int64))})

    hist = (q_doclen(sf_dir).map_batches(part, batch_format="pyarrow")
            .groupby("doclen").aggregate(Sum("n", alias_name="n"))
            .to_pandas().sort_values("doclen"))
    cum = hist["n"].to_numpy().cumsum()
    n = int(cum[-1])
    vals = hist["doclen"].to_numpy()
    out = []
    for ppm in QUANTILE_PPM:
        rank = math.ceil(n * (ppm / 1e6))
        out.append((ppm, int(vals[np.searchsorted(cum, rank, "left")])))
    return pd.DataFrame(out, columns=["q_ppm", "doclen"]).astype(np.int64)


def q_term_cf_top100(sf_dir: str) -> pd.DataFrame:
    return _topk_by(_exploded_tf(sf_dir).groupby("term").aggregate(
        Sum("tf", alias_name="cf")), "cf")


def q_corpus_stats(sf_dir: str) -> pd.DataFrame:
    """Distributed aggregate — nothing but three scalars reaches the
    driver (avgdl as integer micro-units, derived from the exact integer
    sum/count so it is order-insensitive)."""
    from engine.textstats import micro_units
    res = q_doclen(sf_dir).aggregate(Count(alias_name="n_docs"),
                                     Sum("doclen", alias_name="total_tokens"))
    n = int(res["n_docs"])
    tot = int(res["total_tokens"])
    return pd.DataFrame([{
        "n_docs": np.int64(n),
        "total_tokens": np.int64(tot),
        "avgdl_micro": np.int64(micro_units(np.array([tot / max(n, 1)]))[0]),
    }])


# --- the real engine: BM25 + postings lookup --------------------------------

BM25_QUERY = "hash join table"


def _hits_frame(hits) -> pd.DataFrame:
    """A search answer as the contract's (doc_id int64, score rounded
    to 6 places) frame."""
    return pd.DataFrame({
        "doc_id": pd.Series([d for d, _ in hits], dtype=np.int64),
        "score": pd.Series([round(s, 6) for _, s in hits], dtype=np.float64),
    })


def q_bm25_topk(sf_dir: str) -> pd.DataFrame:
    idx = docs_index(sf_dir)
    return _hits_frame(idx.search(BM25_QUERY, k=10, method="bmw"))


# SPLADE-style learned-sparse query vector: weights are exact binary
# fractions so engine-float and SQL-decimal multiplication agree bitwise
WEIGHTED_QUERY = {"hash": 2.0, "join": 0.5, "table": 1.25}


def q_search_weighted(sf_dir: str) -> pd.DataFrame:
    """Weighted-term (learned-sparse seam) top-k: sum of
    query_weight * per-term BM25 contribution (engine/query.py
    search_weighted)."""
    idx = docs_index(sf_dir)
    return _hits_frame(idx.search_weighted(WEIGHTED_QUERY, k=10))


def q_weighted_totals(sf_dir: str) -> pd.DataFrame:
    """hits.total for the weighted query, unfiltered and lang-filtered
    (match_count_weighted — membership is weight-independent, so the
    oracle is a COUNT DISTINCT over the weight keys' postings)."""
    idx = docs_index(sf_dir)
    _ensure_docvalues(idx, sf_dir)
    return pd.DataFrame([{
        "total": np.int64(idx.match_count_weighted(WEIGHTED_QUERY)),
        "total_filtered": np.int64(idx.match_count_weighted(
            WEIGHTED_QUERY, where=("lang", ("en",)))),
    }])


def q_search_weighted_filtered(sf_dir: str) -> pd.DataFrame:
    """Tenant-filtered learned-sparse retrieval: the weighted-term
    top-k restricted to lang='en' via the doc-values sidecar
    (search_weighted(where=...)); statistics stay corpus-global, so a
    survivor's score equals its unfiltered search_weighted score —
    the Lucene filter-query rule applied to the SPLADE seam."""
    idx = docs_index(sf_dir)
    _ensure_docvalues(idx, sf_dir)
    return _hits_frame(idx.search_weighted(WEIGHTED_QUERY, k=10,
                                           where=("lang", ("en",))))


DOCVALUE_COLS = ["lang", "n_chars"]


def _ensure_docvalues(idx: InvertedIndex, sf_dir: str) -> None:
    """Attach the contract's doc-values columns once per cached index.
    attach REPLACES the sidecar, so every entry shares ONE attach of
    the full column set (a partial attach would drop the other
    entries' columns)."""
    from engine.docvalues import SIDECAR, attach_doc_values
    from engine import index_io
    import pyarrow.parquet as pq_mod
    for p in range(DOCS_CFG.docmeta_parts):
        path = os.path.join(
            index_io.part_dir(idx.index_dir, "docmeta", p), SIDECAR)
        if not os.path.exists(path):
            break
        have = set(pq_mod.read_schema(path).names)
        if not set(DOCVALUE_COLS) <= have:
            break
    else:
        return
    attach_doc_values(idx.index_dir,
                      os.path.join(sf_dir, "documents.parquet"),
                      DOCVALUE_COLS)


def q_bm25_topk_filtered(sf_dir: str) -> pd.DataFrame:
    """Metadata-filtered BM25 top-k: candidates restricted to lang='en'
    via the doc-values sidecar (engine/docvalues.py attach_doc_values +
    search(where=...)); scores/statistics stay global (Lucene
    filter-query semantics), so each survivor's score equals its
    unfiltered bm25_topk score."""
    idx = docs_index(sf_dir)
    _ensure_docvalues(idx, sf_dir)
    return _hits_frame(idx.search(BM25_QUERY, k=10,
                                  where=("lang", ("en",))))


def q_bm25_topk_range(sf_dir: str) -> pd.DataFrame:
    """Numeric-range-filtered BM25 top-k: candidates restricted to
    500 <= n_chars <= 2500 (BETWEEN-inclusive) via the doc-values
    range mask (engine/query.py range_mask — O(distinct) compares over
    the factorized dictionary); statistics stay global."""
    idx = docs_index(sf_dir)
    _ensure_docvalues(idx, sf_dir)
    return _hits_frame(idx.search(BM25_QUERY, k=10,
                                  where_range=("n_chars", 500, 2500)))


def q_bm25_topk_filtered_narrow(sf_dir: str) -> pd.DataFrame:
    """NARROW numeric-range-filtered BM25 top-k (200 <= n_chars <= 240,
    ~8-10% density at every sf) — routes through the selective-filter
    scorer (engine/query.py _search_filtered: density under
    filtered_dense_cutoff decodes only posting blocks containing a
    filter candidate), unlike bm25_topk_range whose 500..2500 window
    is near-total.  Pinned bit-identical to daat-with-mask in pytest;
    this entry makes the driver exercise the selective route against
    the SQL oracle at contract scale.  Statistics stay global."""
    idx = docs_index(sf_dir)
    _ensure_docvalues(idx, sf_dir)
    assert idx.filtered_dense_cutoff >= 0.25   # default routing in force
    return _hits_frame(idx.search(BM25_QUERY, k=10,
                                  where_range=("n_chars", 200, 240)))


def q_bm25_topk_not(sf_dir: str) -> pd.DataFrame:
    """Boolean MUST_NOT: docs containing 'sort' are excluded from the
    candidate set; survivors keep their exact unexcluded BM25 scores
    (the excluded term contributes nothing — Lucene BooleanQuery
    semantics, engine/query.py search(exclude=...))."""
    idx = docs_index(sf_dir)
    return _hits_frame(idx.search(BM25_QUERY, k=10, exclude="sort"))


def q_facet_nchars_hist(sf_dir: str) -> pd.DataFrame:
    """Histogram facet (date-histogram analog): matched-doc counts per
    n_chars bucket [150i, 150(i+1)), empty buckets included
    (engine/query.py facet_histogram — np.digitize over the factorized
    value dictionary, O(distinct) compares)."""
    idx = docs_index(sf_dir)
    _ensure_docvalues(idx, sf_dir)
    rows = idx.facet_histogram(BM25_QUERY, "n_chars",
                               edges=[0, 150, 300, 450, 600])
    return pd.DataFrame({
        "lo": pd.Series([r[0] for r in rows], dtype=np.float64),
        "hi": pd.Series([r[1] for r in rows], dtype=np.float64),
        "n_docs": pd.Series([r[2] for r in rows], dtype=np.int64),
    })


def q_match_totals(sf_dir: str) -> pd.DataFrame:
    """hits.total under the full clause set (engine/query.py
    match_count — the total every search UI shows next to top-k):
    disjunctive match count, conjunctive (require_all), must+exclude
    gated, and lang-filtered, all over the BM25 query's decoded runs
    with no scoring and no top-k cut."""
    idx = docs_index(sf_dir)
    _ensure_docvalues(idx, sf_dir)
    q = BM25_QUERY
    return pd.DataFrame({
        "n_or": pd.Series([idx.match_count(q)], dtype=np.int64),
        "n_and": pd.Series([idx.match_count(q, require_all=True)],
                           dtype=np.int64),
        "n_gated": pd.Series(
            [idx.match_count(q, must="merge", exclude="sort")],
            dtype=np.int64),
        "n_filtered": pd.Series(
            [idx.match_count(q, where=("lang", ("en",)))],
            dtype=np.int64),
    })


def q_bm25_topk_must(sf_dir: str) -> pd.DataFrame:
    """Mixed boolean MUST (Lucene '+term'): candidates must contain
    'merge', scores still sum all of the query's matching terms
    (engine/query.py search(must=...))."""
    idx = docs_index(sf_dir)
    return _hits_frame(idx.search(BM25_QUERY, k=10, must="merge"))


def q_suggest_terms(sf_dir: str) -> pd.DataFrame:
    """Prefix term suggestion over the index dictionary: top-20 terms
    starting with 'ha' ranked (df desc, term asc) — one binary-search
    range per sorted part dictionary + per-part tie-keeping top-k prune
    (engine/query.py suggest)."""
    idx = docs_index(sf_dir)
    rows = idx.suggest("ha", k=20)
    return pd.DataFrame({
        "term": pd.Series([t for t, _ in rows], dtype=object),
        "df": pd.Series([d for _, d in rows], dtype=np.int64),
    })


def q_facet_lang_counts(sf_dir: str) -> pd.DataFrame:
    """Facet aggregation: per-lang document counts over the disjunctive
    match set of the BM25 query (docs containing >=1 query term) —
    engine/query.py facet_counts over the doc-values sidecar."""
    idx = docs_index(sf_dir)
    _ensure_docvalues(idx, sf_dir)
    rows = idx.facet_counts(BM25_QUERY, "lang")
    return pd.DataFrame({
        "lang": pd.Series([v for v, _ in rows], dtype=object),
        "n_docs": pd.Series([n for _, n in rows], dtype=np.int64),
    })


def q_bm25_topk_and(sf_dir: str) -> pd.DataFrame:
    """Conjunctive (boolean-AND) BM25 top-k: only docs containing every
    query term rank; same scoring as bm25_topk over the survivors."""
    idx = docs_index(sf_dir)
    return _hits_frame(idx.search(BM25_QUERY, k=10, require_all=True))


def q_bm25_topk_deleted(sf_dir: str) -> pd.DataFrame:
    """BM25 top-k under a tombstone overlay (doc_id % 7 == 0 deleted):
    deleted docs stop ranking, survivors keep their EXACT pre-delete
    scores — statistics stay stale until compaction (Lucene semantics,
    engine/index_io.py delete_docs).  The in-memory ``deleted=``
    override queries the shared cached index without mutating it."""
    base = docs_index(sf_dir)
    deleted = base._doc_ids[base._doc_ids % 7 == 0]
    idx = InvertedIndex(base.index_dir, deleted=deleted)
    return _hits_frame(idx.search(BM25_QUERY, k=10))


STOP_QUERY = "the a value"  # high-df terms: the default route's cost rule


def q_bm25_topk_stop(sf_dir: str) -> pd.DataFrame:
    idx = docs_index(sf_dir)
    return _hits_frame(idx.search(STOP_QUERY, k=10, method="bmw"))


# positional twin of DOCS_CFG: same layout plus per-occurrence token
# positions (positions.bin), cached separately (the cfg is in the key)
DOCS_POS_CFG = EngineConfig(num_parts=8, docmeta_parts=2,
                            store_positions=True)
PHRASE_QUERY = "table hash"


def q_phrase_topk(sf_dir: str) -> pd.DataFrame:
    """Exact-phrase top-k over a POSITIONAL index: docs where the query
    tokens appear consecutively, BM25-ranked over the phrase's distinct
    terms (engine/query.py search_phrase; postings + delta+varbyte
    position runs, Lucene .prx shape)."""
    idx = docs_index(sf_dir, DOCS_POS_CFG)
    return _hits_frame(idx.search_phrase(PHRASE_QUERY, k=10))


NEAR_QUERY, NEAR_SLOP = "hash table", 2


def q_phrase_near_topk(sf_dir: str) -> pd.DataFrame:
    """Proximity top-k: 'hash' before 'table' with at most NEAR_SLOP
    interleaving tokens (ordered-window semantics: total gap
    p_n - p_1 - (n-1) <= slop), BM25-ranked like phrase_topk."""
    idx = docs_index(sf_dir, DOCS_POS_CFG)
    return _hits_frame(idx.search_phrase(NEAR_QUERY, k=10, slop=NEAR_SLOP))


LOOKUP_TERM = "hash"


def q_term_top_docs(sf_dir: str) -> pd.DataFrame:
    """Postings lookup for one term -> top 20 docs by tf (J3 query path)."""
    idx = docs_index(sf_dir)
    ent = idx.lookup(LOOKUP_TERM)
    if ent is None:
        return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                             "tf": pd.Series(dtype=np.int64)})
    df, pbytes, skips = ent
    from engine.postings import decode_postings
    ids, tfs = decode_postings(pbytes, skips, df, idx.cfg.block_size)
    order = np.lexsort((ids.astype(np.int64), -tfs.astype(np.int64)))[:20]
    return pd.DataFrame({
        "doc_id": ids.astype(np.int64)[order],
        "tf": tfs.astype(np.int64)[order],
    })


# --- dedup family -----------------------------------------------------------

def q_dedup_exact(sf_dir: str) -> pd.DataFrame:
    out = dedup_ops.exact_dedup(documents_ds(sf_dir)).to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    out["n_dups"] = out["n_dups"].astype(np.int64)
    return out.sort_values("doc_id").reset_index(drop=True)


def q_minhash_candidates(sf_dir: str) -> pd.DataFrame:
    """Oracle-parity configuration: md5 shingle hashes + md5-of-string
    band combiner, both reproduced exactly in the DuckDB oracle SQL.
    Same signature/banding code path as the (faster) SipHash default."""
    return dedup_ops.minhash_candidates(documents_ds(sf_dir),
                                        hash_fn="md5", band_mode="md5str")


def q_simhash(sf_dir: str):
    def f(t: pa.Table) -> pa.Table:
        return dedup_ops.simhash_batch(t, hash_fn="md5")
    return documents_ds(sf_dir).map_batches(
        f, batch_format="pyarrow"
    ).select_columns(["doc_id", "simhash"])


def q_simhash_candidates(sf_dir: str) -> pd.DataFrame:
    """Hamming-band candidate mining over the simhash sketch (md5
    oracle mode): 4 bands x 16 bits, exact popcount verify <= 3.
    DuckDB reproduces band extraction with >>/& and the verify with
    bit_count(xor(...))."""
    return dedup_ops.simhash_candidates(documents_ds(sf_dir),
                                        max_hamming=3, hash_fn="md5")


def q_ngram_jaccard_adjacent(sf_dir: str):
    return dedup_ops.ngram_jaccard_adjacent(documents_ds(sf_dir))


def q_neardup_dedup(sf_dir: str) -> pd.DataFrame:
    """End-to-end near-dup dedup (candidates -> verify -> components ->
    canonical map) in md5 oracle mode; threshold 0.5 so the synthetic
    tier actually clusters."""
    return dedup_ops.neardup_dedup(documents_ds(sf_dir), threshold=0.5,
                                   hash_fn="md5", band_mode="md5str")


def q_neardup_dedup_star(sf_dir: str) -> pd.DataFrame:
    """Star-edge near-dup dedup (the 100-TB hot-band configuration):
    per band run only (run_min, member) candidate edges are verified —
    O(g) per run instead of O(g^2) — then components over the verified
    star graph.  Its oracle mirrors the star candidate set exactly
    (min-per-band-group join), so this entry is value-checked, not just
    'usually equal to all-pairs'."""
    return dedup_ops.neardup_dedup(documents_ds(sf_dir), threshold=0.5,
                                   hash_fn="md5", band_mode="md5str",
                                   edge_mode="star")


def q_neardup_dedup_dist(sf_dir: str) -> pd.DataFrame:
    """Same pipeline resolved by the DISTRIBUTED connected-components
    path (alternating-star rounds; nothing but per-round checksums on
    the driver) — proves the beyond-driver-memory path against the
    identical recursive-CTE oracle."""
    return dedup_ops.neardup_dedup(documents_ds(sf_dir), threshold=0.5,
                                   hash_fn="md5", band_mode="md5str",
                                   cc="distributed").reset_index(drop=True)


# --- similarity search ------------------------------------------------------

def _query_vec(sf_dir: str, vec_id: int) -> np.ndarray:
    import pyarrow.parquet as pq
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    i = t.column("vec_id").to_pylist().index(vec_id)
    return np.asarray(t.column("embedding")[i].as_py(), dtype=np.float64)


def _embeddings_ds(sf_dir: str) -> "ray.data.Dataset":
    return ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))


def q_knn_cosine(sf_dir: str) -> pd.DataFrame:
    q = _query_vec(sf_dir, 0)
    return sim_ops.knn_cosine(_embeddings_ds(sf_dir), q[None, :], [0], k=10)


def q_lsh_knn(sf_dir: str) -> pd.DataFrame:
    """All-bucket probe == exact (oracle-checked); prod uses nprobe<<2^bits."""
    q = _query_vec(sf_dir, 1)
    return sim_ops.lsh_knn(_embeddings_ds(sf_dir), q[None, :], [1], k=10,
                           n_bits=4, nprobe=None)


def q_ivf_knn(sf_dir: str) -> pd.DataFrame:
    """IVF-cell ANN with all cells probed == exact (oracle-checked);
    production uses nprobe << n_centroids."""
    q = _query_vec(sf_dir, 2)
    return sim_ops.ivf_knn(_embeddings_ds(sf_dir), q[None, :], [2], k=10,
                           n_centroids=8, nprobe=None)


def q_embed_neardup(sf_dir: str) -> pd.DataFrame:
    return sim_ops.neardup_pairs_blocked(_embeddings_ds(sf_dir),
                                         threshold=0.3)


# --- text analysis ----------------------------------------------------------

def q_langid(sf_dir: str):
    return documents_ds(sf_dir).map_batches(
        textstats.langid_batch, batch_format="pyarrow"
    ).select_columns(["doc_id", "pred_lang"])


def q_quality(sf_dir: str):
    return documents_ds(sf_dir).map_batches(
        textstats.quality_batch, batch_format="pyarrow"
    ).select_columns(["doc_id", "n_tokens", "stopword_ratio_ppm",
                      "alnum_ratio_ppm"])


def q_token_counts(sf_dir: str):
    return documents_ds(sf_dir).map_batches(
        textstats.token_count_batch, batch_format="pyarrow"
    ).select_columns(["doc_id", "ws_tokens", "bpeish_tokens"])


def q_fingerprints(sf_dir: str):
    def f(t: pa.Table) -> pa.Table:
        return textstats.fingerprint_batch(t, hash_fn="md5")
    return documents_ds(sf_dir).map_batches(
        f, batch_format="pyarrow"
    ).select_columns(["doc_id", "fingerprint"])


# --- training-data filtering (Gopher / CCNet / decontamination) -------------

def q_gopher_quality(sf_dir: str):
    """Gopher-style repetition metrics (all-integer, shuffle-free)."""
    from engine.filtering import gopher_over
    return gopher_over(documents_ds(sf_dir))


def q_lm_perplexity(sf_dir: str):
    """CCNet-style corpus-trained unigram-LM scoring: integer
    micro-bits per doc (train pass -> broadcast vocab -> score pass)."""
    from engine.filtering import lm_perplexity_over
    return lm_perplexity_over(documents_ds(sf_dir))


DECONTAM_BENCH_MOD = 97  # doc_id % 97 == 0 is the "benchmark" split


def q_decontaminate(sf_dir: str):
    """Test-set decontamination: corpus docs sharing any 5-gram with
    the deterministic benchmark split (doc_id % 97 == 0) get their
    overlap counted; benchmark grams broadcast once via ray.put."""
    from engine.filtering import decontaminate_over

    def side(is_bench: bool):
        def f(t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy()
            mask = (ids % DECONTAM_BENCH_MOD == 0) == is_bench
            return t.filter(pa.array(mask))
        return f

    bench = documents_ds(sf_dir).map_batches(side(True),
                                             batch_format="pyarrow")
    corpus = documents_ds(sf_dir).map_batches(side(False),
                                              batch_format="pyarrow")
    return decontaminate_over(corpus, bench)


def q_image_features_md5(sf_dir: str):
    """md5-mode image feature extraction: the same actor-pool decode
    shape as `image_features`, but the synthetic payload is an md5
    chain so the per-channel word sums are SQL-recomputable — the
    oracle-parity twin of the PCG64-payload stub (which stays
    rows-only)."""
    from engine.multimodal import (MD5_IMAGE_WORDS, Md5ImageFeatureActor,
                                   md5_image_payload)

    def mk_assets(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        img = ids[ids % 3 == 0]                 # image-kind assets
        return pa.table({
            "asset_id": pa.array(img, pa.int64()),
            "payload": pa.array([md5_image_payload(int(i)) for i in img],
                                pa.binary()),
        })

    assets = documents_ds(sf_dir, columns=("doc_id",)).map_batches(
        mk_assets, batch_format="pyarrow")
    return assets.map_batches(Md5ImageFeatureActor,
                              batch_format="pyarrow", batch_size=64,
                              concurrency=pool_size())


SNIPPET_WINDOW = 8


def best_snippet_window(toks: list, terms, w: int = SNIPPET_WINDOW):
    """The q_snippets window rule for ONE doc: -> (start, n_hits,
    ' '.join(window)) of the best w-token window (max query-term hits,
    ties to the earliest start), or None when the doc is shorter than
    the window or has zero hits — the same drop rule as the batch
    pipeline below.  Serving-path entry (the HTTP front computes
    snippets for the top-k hits only)."""
    if len(toks) < w:
        return None
    hit = np.isin(np.asarray(toks, dtype=object),
                  list(terms)).astype(np.int64)
    pref = np.concatenate(([0], np.cumsum(hit)))
    wins = pref[w:] - pref[:-w]
    best = int(np.argmax(wins))                # first max = earliest
    if wins[best] == 0:
        return None
    return best, int(wins[best]), " ".join(toks[best:best + w])


def q_snippets(sf_dir: str):
    """Search-result snippet extraction: for every doc containing a
    query term, the best ``SNIPPET_WINDOW``-token window (max query-term
    hits, ties to the earliest start) with its token text — the serving
    feature next to BM25 top-k.  Shuffle-free: one vectorized
    map_batches (prefix-sum sliding window counts, reduceat argmax);
    the oracle states the same rule with a window-frame sum +
    row_number.  Docs shorter than the window or with zero hits are
    dropped on both sides."""
    from engine.tokenize import tokenize_batch
    w = SNIPPET_WINDOW
    terms = frozenset(BM25_QUERY.split())

    def f(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        toks = tokenize_batch(batch.column("text").to_pylist())
        out_id, out_start, out_hits, out_text = [], [], [], []
        lens = np.fromiter((len(t) for t in toks), dtype=np.int64,
                           count=len(toks))
        flat = np.concatenate(
            [np.asarray(t, dtype=object) for t in toks if t]
        ) if lens.sum() else np.empty(0, dtype=object)
        hit = np.isin(flat, list(terms)).astype(np.int64)
        offs = np.concatenate(([0], np.cumsum(lens)))
        pref = np.concatenate(([0], np.cumsum(hit)))
        for d in np.flatnonzero(lens >= w):
            o, n = offs[d], lens[d]
            # hits in window starting at i: pref[o+i+w] - pref[o+i]
            wins = pref[o + w:o + n + 1] - pref[o:o + n - w + 1]
            best = int(np.argmax(wins))        # first max = earliest
            if wins[best] == 0:
                continue
            out_id.append(int(ids[d]))
            out_start.append(best)
            out_hits.append(int(wins[best]))
            out_text.append(" ".join(flat[o + best:o + best + w]))
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "best_start": pa.array(out_start, pa.int64()),
            "hits": pa.array(out_hits, pa.int64()),
            "snippet": pa.array(out_text, pa.large_string()),
        })

    return documents_ds(sf_dir).map_batches(f, batch_format="pyarrow")


def q_pack_sequences(sf_dir: str):
    """Training-sequence packing by running token count — distributed
    range-partitioned prefix scan (engine/packing.py)."""
    from engine.packing import pack_sequences
    return pack_sequences(documents_ds(sf_dir))


def q_dsir_weights(sf_dir: str):
    """DSIR importance weights for data selection: hashed unigram+bigram
    features, smoothed target/raw log-ratio summed per raw-split doc
    (integer micro units end to end)."""
    from engine.filtering import dsir_weights_over
    return dsir_weights_over(documents_ds(sf_dir))


# --- chunking (reference M2/M3) ---------------------------------------------

def q_chunks_fixed(sf_dir: str):
    """Fixed-window chunking (SQL-parity variant), chunk_size=200."""
    from engine.chunk import chunk_documents
    return chunk_documents(documents_ds(sf_dir), chunk_size=200,
                           mode="fixed")


def q_chunks_sentence(sf_dir: str):
    """Sentence splitting-strategy chunker (reference config.rs:52-59
    ``SplittingStrategy::Sentence``): split on sentence boundaries,
    greedy-pack to the char budget.  SQL-guarded + oracle-checked: the
    guard keeps docs whose packing reduces to the word-level greedy
    walk (no ". " boundary, no oversize unit — on the fixture corpus
    that is EVERY doc), which the DuckDB oracle replays exactly with a
    recursive-CTE boundary jump; the unguarded general case (markdown-
    style sequential packing, PROVEN SQL-infeasible) stays covered by
    the pytest lossless/budget properties."""
    from engine.chunk import chunk_documents, sentence_sql_guard
    docs = documents_ds(sf_dir).map_batches(sentence_sql_guard(200),
                                            batch_format="pyarrow")
    return chunk_documents(docs, chunk_size=200, mode="sentence")


def q_chunks_markdown(sf_dir: str):
    """Structure-aware greedy chunker (pinned reference-shaped spec).
    SQL-guarded + oracle-checked: with no newline and no ". " (every
    doc of the fixture corpus) the paragraphs->lines->sentences cascade
    collapses to the word-level greedy walk, which the recursive-CTE
    oracle replays exactly.  The general nested hierarchy stays
    SQL-infeasible as a flat boundary rule (falsified conjecture
    documented in round 2) and is pytest-verified instead."""
    from engine.chunk import chunk_documents, sentence_sql_guard
    docs = documents_ds(sf_dir).map_batches(
        sentence_sql_guard(200, forbid=(". ", "\n")),
        batch_format="pyarrow")
    return chunk_documents(docs, chunk_size=200, mode="markdown")


def q_index_stats(sf_dir: str) -> pd.DataFrame:
    """Per-partition lineage + metrics from the built index manifest
    (north_rule: 'every partition emits lineage + token/posting
    metrics').  One row per committed part."""
    idx = docs_index(sf_dir)
    rows = []
    for key, m in sorted(idx.manifest["parts"].items()):
        kind, part = key.split(":")
        rows.append({
            "kind": kind, "part": np.int64(int(part)),
            "n_terms": np.int64(m["n_terms"]),
            "n_postings": np.int64(m["n_postings"]),
            "n_docs": np.int64(m["n_docs"]),
            "checksum": m["checksum"],
        })
    return pd.DataFrame(rows)


def q_index_stats_md5(sf_dir: str) -> pd.DataFrame:
    """Per-partition postings lineage from a build routed with the
    SQL-reproducible md5 term hash (EngineConfig.term_hash="md5"):
    part = md5_number_lower(term) % num_parts, so DuckDB recomputes
    each part's (n_terms, n_postings) from raw text — the per-part
    metrics the north_rule requires, value-checked end to end.  The
    production sip routing keeps its rows-only `index_stats` twin."""
    cfg = EngineConfig(num_parts=8, docmeta_parts=2, term_hash="md5")
    idx = docs_index(sf_dir, cfg)
    rows = []
    for key, m in sorted(idx.manifest["parts"].items()):
        kind, part = key.split(":")
        if kind != "postings" or m["n_terms"] == 0:
            continue
        rows.append({
            "part": np.int64(int(part)),
            "n_terms": np.int64(m["n_terms"]),
            "n_postings": np.int64(m["n_postings"]),
        })
    return pd.DataFrame(rows)


def q_index_totals(sf_dir: str) -> pd.DataFrame:
    """Corpus-level totals FROM THE BUILT INDEX MANIFEST (n_docs,
    total_tokens, n_terms, n_postings) — oracle-checked against DuckDB
    recomputing the same totals from raw text.  This value-checks the
    whole build path (dedup -> tokenize -> shuffle -> segment commit ->
    manifest rollup) end to end, not just individual operators."""
    st = docs_index(sf_dir).manifest["stats"]
    return pd.DataFrame([{
        "n_docs": np.int64(st["n_docs"]),
        "total_tokens": np.int64(st["total_tokens"]),
        "n_terms": np.int64(st["n_terms"]),
        "n_postings": np.int64(st["n_postings"]),
    }])


def q_chunks_semantic(sf_dir: str):
    """Actor-pool semantic chunker (reference A7 statistical shape over
    the deterministic hashing encoder).  SQL-guarded + oracle-checked
    on the SINGLE-SENTENCE subset (no '. ' / newline boundary — on the
    fixture corpus that is EVERY doc, so the guard drops nothing):
    there the pinned spec emits exactly one chunk = the original text,
    which the oracle states directly; the encoder-driven multi-sentence
    boundary logic (rolling-window cosine, adaptive threshold) cannot
    be stated in SQL and stays pytest-verified
    (tests/test_semantic_chunk.py)."""
    from engine.semantic_chunk import semantic_chunk_documents

    def guard(t: pa.Table) -> pa.Table:
        keep = [bool(x) and ". " not in x and "\n" not in x
                and bool(x.strip())
                for x in t.column("text").to_pylist()]
        return t.filter(pa.array(keep))

    docs = documents_ds(sf_dir).map_batches(guard, batch_format="pyarrow")
    return semantic_chunk_documents(docs, kind="statistical",
                                    concurrency=pool_size())


# --- embedding / rerank / hybrid (reference A1-A5, hybridsearch RRF) --------

EMBED_DIM = 64


def _doc_embeddings(sf_dir: str):
    """Contract embeddings: md5 hash mode + float64 storage — the
    oracle-parity configuration (DuckDB reproduces md5_number_lower
    hashing-trick vectors in doubles; f32 storage would add ~1e-6
    quantization noise the 6-dp value hash cannot absorb)."""
    from engine.embed import embed_documents
    return embed_documents(documents_ds(sf_dir), dim=EMBED_DIM,
                           concurrency=pool_size(), batch_size=256,
                           hash_fn="md5", out_dtype="float64")


def q_embed_knn(sf_dir: str) -> pd.DataFrame:
    """Text-query kNN over actor-pool hashing embeddings of documents
    -> (doc_id, cos_ppm) top 10, oracle-checked via the md5 hash mode."""
    from engine.embed import HashingEmbedder
    from engine.textstats import micro_units
    q = HashingEmbedder(dim=EMBED_DIM,
                        hash_fn="md5").embed_texts([BM25_QUERY])[0]
    out = sim_ops.knn_cosine(_doc_embeddings(sf_dir), q[None, :], [-1],
                             k=10, id_col="doc_id", vec_col="embedding",
                             round_dp=None)
    return pd.DataFrame({"doc_id": out["vec_id"].astype(np.int64),
                         "cos_ppm": pd.Series(
                             micro_units(out["cos"].to_numpy()),
                             dtype=np.int64)})


def q_late_chunk_knn(sf_dir: str) -> pd.DataFrame:
    """LATE chunking end-to-end (reference ``TextEmbedConfig::
    late_chunking``): ONE full-document encoder pass per doc, chunk
    embeddings mean-pooled from fixed 200-char token spans, then
    text-query kNN over the CHUNK vectors -> (doc_id, chunk_id,
    cos_ppm) top 10.  md5 hash mode + float64 storage = the
    SQL-oracle-parity configuration (with the engine's linear encoders
    the pooled chunk vector equals embedding the chunk alone, which is
    what makes the DuckDB oracle expressible)."""
    from engine.embed import HashingEmbedder, LateChunkingEmbedder
    from engine.textstats import micro_units
    emb = documents_ds(sf_dir).map_batches(
        LateChunkingEmbedder,
        fn_constructor_kwargs=dict(chunk_size=200, overlap=0,
                                   strategy="fixed", dim=EMBED_DIM,
                                   hash_fn="md5", out_dtype="float64"),
        concurrency=pool_size(), batch_size=256, batch_format="pyarrow")

    def cid(t: pa.Table) -> pa.Table:
        # composite key doc_id * 2^20 + chunk_id: single int column for
        # the generic knn merge; chunk counts are << 2^20
        d = t.column("doc_id").to_numpy()
        c = t.column("chunk_id").to_numpy()
        return pa.table({"cid": pa.array(d * (1 << 20) + c, pa.int64()),
                         "embedding": t.column("embedding")})

    q = HashingEmbedder(dim=EMBED_DIM,
                        hash_fn="md5").embed_texts([BM25_QUERY])[0]
    out = sim_ops.knn_cosine(emb.map_batches(cid, batch_format="pyarrow"),
                             q[None, :], [-1], k=10, id_col="cid",
                             vec_col="embedding", round_dp=None)
    cids = out["vec_id"].to_numpy().astype(np.int64)
    return pd.DataFrame({
        "doc_id": pd.Series(cids >> 20, dtype=np.int64),
        "chunk_id": pd.Series(cids & ((1 << 20) - 1), dtype=np.int64),
        "cos_ppm": pd.Series(micro_units(out["cos"].to_numpy()),
                             dtype=np.int64),
    })


def q_stratified_sample(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic stratified (per-language) sampling — the
    data-MIXING primitive of training-corpus curation: keep 80% en /
    40% de / 20% es / 10% other, decided by a pure hash of
    (doc_id, seed), identical at any parallelism and across retries.
    md5 mode -> exact DuckDB oracle (integer threshold compare)."""
    from engine.sampling import stratified_sample
    return stratified_sample(
        documents_ds(sf_dir, columns=("doc_id", "lang")),
        fractions={"en": 0.8, "de": 0.4, "es": 0.2}, strata_col="lang",
        seed=7, hash_fn="md5", default_fraction=0.1)


def q_maxsim_topk(sf_dir: str) -> pd.DataFrame:
    """Late-interaction (ColBERT-family MultiVector) retrieval: score =
    sum over query token positions of max over doc tokens of
    cos(q_tok, d_tok), formula token matrix in md5 mode -> (doc_id,
    score_ppm) top 10 — full DuckDB oracle."""
    from engine.embed import maxsim_topk
    from engine.textstats import micro_units
    # score EVERY doc, round to integer ppm, THEN cut: the query terms
    # tie dozens of docs at the exact same score, and a float cut
    # diverges from the oracle on cross-system ulps — the established
    # all-integer-before-selection discipline (k is the operator's
    # scale knob; the parity entry runs the slow-by-design exhaustive
    # configuration like the other md5-mode oracles)
    hits = maxsim_topk(documents_ds(sf_dir), BM25_QUERY, k=1 << 30,
                       hash_fn="md5")
    df = pd.DataFrame({
        "doc_id": pd.Series([d for d, _ in hits], dtype=np.int64),
        "score_ppm": pd.Series(
            micro_units(np.array([s for _, s in hits])), dtype=np.int64),
    })
    return (df.sort_values(["score_ppm", "doc_id"],
                           ascending=[False, True])
            .head(10).reset_index(drop=True))


def q_rerank_topk(sf_dir: str) -> pd.DataFrame:
    """BM25 top-20 candidates re-scored by the actor-shaped cross-scorer
    (reference reranker semantics: sigmoid score, desc sort, 1-based
    rank, /root/reference/rust/src/reranker/model.rs:239,253-268)."""
    import pyarrow.parquet as pq
    from engine.embed import Reranker
    idx = docs_index(sf_dir)
    hits = idx.search(BM25_QUERY, k=20, method="bmw")
    ids = [d for d, _ in hits]
    tab = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"])
    texts = dict(zip(tab.column("doc_id").to_pylist(),
                     tab.column("text").to_pylist()))
    ranked = Reranker(dim=EMBED_DIM, hash_fn="md5").rerank(
        BM25_QUERY, [(d, texts[d]) for d in ids])
    from engine.textstats import micro_units
    return pd.DataFrame({
        "rank": pd.Series([r for r, _, _ in ranked], dtype=np.int64),
        "doc_id": pd.Series([d for _, d, _ in ranked], dtype=np.int64),
        "score_ppm": pd.Series(
            micro_units(np.array([s for _, _, s in ranked])),
            dtype=np.int64),
    })


def q_hybrid_rrf(sf_dir: str) -> pd.DataFrame:
    """Hybrid retrieval: RRF fusion of BM25 top-k and embedding-kNN
    top-k (reference /root/reference/examples/hybridsearch.py:64-77)."""
    from engine.embed import rrf_fuse
    from engine.textstats import micro_units
    bm25_ids = [d for d, _ in docs_index(sf_dir).search(BM25_QUERY, k=10)]
    knn_ids = q_embed_knn(sf_dir)["doc_id"].tolist()
    fused = rrf_fuse([bm25_ids, knn_ids], k=10)
    return pd.DataFrame({
        "doc_id": pd.Series([d for d, _ in fused], dtype=np.int64),
        "rrf_score_ppm": pd.Series(
            micro_units(np.array([s for _, s in fused])),
            dtype=np.int64),
    })


# --- file-format corpus (reference S1/M4/M6 dispatch path) ------------------

FILES_FORMAT_VERSION = 1


def q_file_corpus(sf_dir: str):
    """Deterministic synthetic file corpus (pdf/docx/txt/html + one
    corrupt pdf + one unsupported ext) -> read_text_corpus extraction
    rows (file, n_chars, head, error).  Exercises the full dispatcher
    incl. the pure-Python PDF/DOCX extractors; rows-only driver check
    (extraction is pytest-golden-verified, engine/pdf.py engine/docx.py)."""
    from engine.pdf import write_simple_pdf
    from engine.docx import write_simple_docx
    from engine.sources import read_text_corpus

    seed = int(hashlib.sha256(sf_dir.encode()).hexdigest()[:8], 16) % 10**6
    root = os.path.join("/tmp", "engine_cache",
                        f"files-v{FILES_FORMAT_VERSION}-{seed}")
    if not os.path.isdir(root):
        rng = np.random.default_rng([seed, 17])
        vocab = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
        os.makedirs(root + ".tmp", exist_ok=True)
        for i in range(8):
            lines = [" ".join(rng.choice(vocab, 5)) for _ in range(20)]
            with open(os.path.join(root + ".tmp", f"doc{i}.pdf"), "wb") as f:
                f.write(write_simple_pdf([lines[:10], lines[10:]]))
        for i in range(4):
            paras = [(1, f"Doc {i}")] + [
                " ".join(rng.choice(vocab, 8)) for _ in range(5)]
            with open(os.path.join(root + ".tmp", f"doc{i}.docx"), "wb") as f:
                f.write(write_simple_docx(paras))
        for i in range(4):
            with open(os.path.join(root + ".tmp", f"doc{i}.txt"), "w") as f:
                f.write(" ".join(rng.choice(vocab, 40)))
        with open(os.path.join(root + ".tmp", "broken.pdf"), "wb") as f:
            f.write(b"not really a pdf")
        os.rename(root + ".tmp", root)  # atomic: cache never half-built

    def project(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        files = pa.array([u.rsplit("/", 1)[-1]
                          for u in batch.column("url").to_pylist()],
                         pa.string())
        return pa.table({
            "file": files,
            "n_chars": pc.utf8_length(
                batch.column("text").cast(pa.large_string())),
            "head": pc.utf8_slice_codeunits(
                batch.column("text").cast(pa.large_string()), 0, 32),
            "error": batch.column("error"),
        })

    return read_text_corpus(root).map_batches(project,
                                              batch_format="pyarrow")


# --- multimodal actor-pool stages (stubbed decode, real plumbing) -----------

def _assets_ds(sf_dir: str) -> "ray.data.Dataset":
    """Asset table derived deterministically from the registered
    ``documents`` table (kind/duration are pure functions of doc_id,
    audio payloads are real WAVs) — synthesized as a STREAMING
    map_batches stage, never materialized on the driver, so the DuckDB
    oracle can reproduce the frame/segment explosions from `documents`
    alone.  The real deployment reads an assets parquet instead."""
    from engine.multimodal import make_assets_batch
    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id"]).map_batches(
            make_assets_batch, batch_format="pyarrow", batch_size=256)


def q_image_features(sf_dir: str):
    """Actor-pool image decode + feature extraction over REAL PNG bytes
    (round 5: stdlib-zlib chunk/CRC/inflate/unfilter decoder,
    engine/multimodal.py decode_png — the reference decodes real image
    files before embedding, /root/reference/rust/src/embeddings/local/
    clip.rs).  Value-checked: fixture pixels are a closed-form function
    of doc_id, so the DuckDB oracle recomputes the per-channel sums
    from `documents` while the engine round-trips genuine PNGs whose
    scanline filters cycle through all five PNG filter types."""
    from engine.multimodal import PngImageFeatureActor, synth_png_payload

    def mk_assets(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        img = ids[ids % 3 == 0]                 # image-kind assets
        return pa.table({
            "asset_id": pa.array(img, pa.int64()),
            "payload": pa.array([synth_png_payload(int(i)) for i in img],
                                pa.binary()),
        })

    assets = documents_ds(sf_dir, columns=("doc_id",)).map_batches(
        mk_assets, batch_format="pyarrow")
    return assets.map_batches(PngImageFeatureActor,
                              batch_format="pyarrow", batch_size=64,
                              concurrency=pool_size())


def q_frame_samples(sf_dir: str):
    """Video frame-sampling explosion (frame_index layout,
    /root/reference/rust/src/lib.rs:546-550).  DuckDB-oracle-checked:
    kind/duration are pure functions of doc_id, so the explosion is
    `unnest(range((dur+249)//250))` over `documents`."""
    from engine.multimodal import FrameSampleActor
    return _assets_ds(sf_dir).map_batches(
        FrameSampleActor, batch_format="pyarrow", batch_size=64,
        concurrency=pool_size())


def q_audio_segments(sf_dir: str):
    """Audio segment explosion over REAL WAV decode (start/end/text
    layout, /root/reference/rust/src/embeddings/mod.rs:40-52; stdlib
    `wave` header+PCM parse; ASR text is an md5-derived stub).  The
    contract projects the SQL-reproducible columns — decoded duration
    equals the doc_id-derived duration, so segment layout is
    oracle-checked; per-segment RMS (`rms_milli`, computed from decoded
    samples) is pytest-verified instead."""
    from engine.multimodal import AudioSegmentActor
    return _assets_ds(sf_dir).map_batches(
        AudioSegmentActor, batch_format="pyarrow", batch_size=64,
        concurrency=pool_size()).select_columns(
            ["asset_id", "segment", "start_ms", "end_ms", "text",
             "decode_ok"])


# --- relational wide-step patterns over the TPC-H-ish tables ----------------

PRICING_CUTOFF = np.datetime64("1997-06-01")


def q_lineitem_pricing(sf_dir: str) -> pd.DataFrame:
    """TPC-H-Q1-shaped pricing summary: filter at the read (column prune
    + predicate), PARTIAL aggregation inside map_batches (one row per
    (returnflag, linestatus) per batch — the combiner that keeps the
    final groupby at group-cardinality scale, never row scale), exact
    integer micro-unit sums (order-insensitive)."""
    import pyarrow.compute as pc
    from engine.textstats import micro_units

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pc.field("l_shipdate") <= pa.scalar(
            PRICING_CUTOFF.astype("datetime64[us]"))))

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["qty_micro"] = micro_units(df["l_quantity"].to_numpy())
        df["base_micro"] = micro_units(df["l_extendedprice"].to_numpy())
        df["disc_micro"] = micro_units(
            (df["l_extendedprice"] * (1.0 - df["l_discount"])).to_numpy())
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            count_order=("qty_micro", "size"),
            sum_qty_micro=("qty_micro", "sum"),
            sum_base_micro=("base_micro", "sum"),
            sum_disc_micro=("disc_micro", "sum"))
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["l_returnflag", "l_linestatus"]).aggregate(
               Sum("count_order", alias_name="count_order"),
               Sum("sum_qty_micro", alias_name="sum_qty_micro"),
               Sum("sum_base_micro", alias_name="sum_base_micro"),
               Sum("sum_disc_micro", alias_name="sum_disc_micro"))
           .to_pandas())
    for c in ("count_order", "sum_qty_micro", "sum_base_micro",
              "sum_disc_micro"):
        agg[c] = agg[c].astype(np.int64)
    return (agg.sort_values(["l_returnflag", "l_linestatus"])
            .reset_index(drop=True))


def q_orders_by_nation(sf_dir: str) -> pd.DataFrame:
    """orders ⋈ customer ⋈ nation rollup as a BROADCAST join: the small
    side (customer key -> nation key, nation names) is ray.put once and
    read inside every task — no shuffle join for a fact⋈dim pattern.
    Per-batch partial counts/sums, then a tiny final groupby."""
    import pyarrow.parquet as pq
    from engine.textstats import micro_units

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_nationkey"])
    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                        columns=["n_nationkey", "n_name"])
    # sorted-key searchsorted map, not a dense max_key+1 array: works
    # unchanged for sparse 64-bit keys (a dense array would be O(max
    # key) memory; this is O(n_customers) and still one vectorized
    # probe per batch)
    ck = cust.column("c_custkey").to_numpy()
    order = np.argsort(ck, kind="stable")
    lookup_ref = ray.put((ck[order],
                          cust.column("c_nationkey").to_numpy()
                          .astype(np.int32)[order]))
    names = dict(zip(nat.column("n_nationkey").to_pylist(),
                     nat.column("n_name").to_pylist()))

    ds = ray.data.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                               columns=["o_custkey", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        keys, vals = ray.get(lookup_ref)
        # every order references an existing customer (FK integrity of
        # the generator), so the searchsorted position is exact
        nk = vals[np.searchsorted(keys, batch.column("o_custkey")
                                  .to_numpy())]
        micro = micro_units(batch.column("o_totalprice").to_numpy())
        df = pd.DataFrame({"nationkey": nk, "micro": micro})
        g = df.groupby("nationkey", sort=False).agg(
            n_orders=("micro", "size"), sum_totalprice_micro=("micro", "sum"))
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("nationkey").aggregate(
               Sum("n_orders", alias_name="n_orders"),
               Sum("sum_totalprice_micro",
                   alias_name="sum_totalprice_micro"))
           .to_pandas())
    agg["n_name"] = agg["nationkey"].map(names)
    agg["n_orders"] = agg["n_orders"].astype(np.int64)
    agg["sum_totalprice_micro"] = agg["sum_totalprice_micro"].astype(np.int64)
    return (agg[["n_name", "n_orders", "sum_totalprice_micro"]]
            .sort_values("n_name").reset_index(drop=True))


# --- windowed aggregate over the events stream table ------------------------

def q_events_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1h window per event_type: count + sum(value).

    Partial-aggregates inside map_batches (one row per (type, hour) per
    batch), then a small groupby — the pre-agg + final-agg shape that
    holds at stream scale (ray_guide 'Aggregation at scale')."""
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_type", "ts", "value"])

    from engine.textstats import micro_units

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["hour"] = df["ts"].dt.floor("h")
        # scale each value to integer micro-units BEFORE summing: the
        # integer sum is exact and therefore insensitive to the
        # nondeterministic addition order of a distributed (or DuckDB)
        # group-sum — floats rounded after summing are not
        df["value_micro"] = micro_units(df["value"].to_numpy())
        g = df.groupby(["event_type", "hour"], sort=False).agg(
            n_events=("value_micro", "size"),
            sum_value_micro=("value_micro", "sum"))
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby(
        ["event_type", "hour"]).aggregate(
        Sum("n_events", alias_name="n_events"),
        Sum("sum_value_micro", alias_name="sum_value_micro"),
    ).to_pandas()
    agg["n_events"] = agg["n_events"].astype(np.int64)
    agg["sum_value_micro"] = agg["sum_value_micro"].astype(np.int64)
    return agg.sort_values(["event_type", "hour"]).reset_index(drop=True)


SLIDE_WINDOW_S = 3600
SLIDE_STEP_S = 900


def q_events_sliding(sf_dir: str) -> pd.DataFrame:
    """Sliding 1h windows every 15 min per event_type: each event
    belongs to window_s/step_s = 4 windows, EXPLODED inside map_batches
    (the partial), then summed in a small groupby — the same pre-agg +
    final-agg shape as the tumbling variant, with the explosion factor
    (4x) paid before the shuffle on already-reduced rows."""
    from engine.textstats import micro_units
    k = SLIDE_WINDOW_S // SLIDE_STEP_S
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        ts_s = df["ts"].to_numpy().astype("datetime64[s]").astype(np.int64)
        # last window starting at or before the event, then k-1 earlier
        last_start = (ts_s // SLIDE_STEP_S) * SLIDE_STEP_S
        starts = (last_start[:, None]
                  - np.arange(k, dtype=np.int64)[None, :] * SLIDE_STEP_S)
        rep = pd.DataFrame({
            "event_type": np.repeat(df["event_type"].to_numpy(), k),
            "win_start": starts.reshape(-1),
            "value_micro": np.repeat(micro_units(df["value"].to_numpy()), k),
        })
        g = rep.groupby(["event_type", "win_start"], sort=False).agg(
            n_events=("value_micro", "size"),
            sum_value_micro=("value_micro", "sum"))
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["event_type", "win_start"]).aggregate(
               Sum("n_events", alias_name="n_events"),
               Sum("sum_value_micro", alias_name="sum_value_micro"))
           .to_pandas())
    agg["win_start"] = agg["win_start"].astype(np.int64)
    agg["n_events"] = agg["n_events"].astype(np.int64)
    agg["sum_value_micro"] = agg["sum_value_micro"].astype(np.int64)
    return (agg.sort_values(["event_type", "win_start"])
            .reset_index(drop=True))


SESSION_GAP_S = 1800


def q_events_sessions(sf_dir: str) -> pd.DataFrame:
    """Gap-based sessionization: per user, a new session starts when the
    gap to the previous event exceeds 30 min.  The streaming-window
    extension op (the reference has no windows, SURVEY.md §2.9).

    Scale shape: the shuffle key is a coarse BUCKET of the user hash
    (never one group per user — millions of near-singleton groups at
    web scale); inside a bucket one lexsort + vectorized run detection
    computes every user's sessions at once.  A user's events land
    wholly in one bucket, the invariant a sessionizer needs."""
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["user_id", "ts", "value",
                                        "event_id"])
    n_buckets = 64

    def add_bucket(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy()
        return t.append_column(
            "bucket", pa.array((u % n_buckets).astype(np.int32)))

    from engine.textstats import micro_units

    def sess(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g["event_id"].to_numpy(),
                            g["ts"].to_numpy().astype("datetime64[us]"),
                            g["user_id"].to_numpy()))
        u = g["user_id"].to_numpy()[order]
        ts = g["ts"].to_numpy().astype("datetime64[us]")[order]
        # per-event integer micro-units, then exact integer reduceat:
        # order-insensitive, unlike rounding a float sum (the round-1
        # hash flake was DuckDB's arbitrary group-sum addition order)
        val = micro_units(g["value"].to_numpy())[order]
        gap_s = np.diff(ts).astype("timedelta64[us]").astype(np.int64) / 1e6
        brk = np.concatenate(
            ([True], (u[1:] != u[:-1]) | (gap_s > SESSION_GAP_S)))
        starts = np.flatnonzero(brk)
        ends = np.concatenate((starts[1:], [u.size]))
        # session_id: 0-based per user
        user_first = np.concatenate(([True], u[starts][1:] != u[starts][:-1]))
        sid = np.arange(starts.size) - np.maximum.accumulate(
            np.where(user_first, np.arange(starts.size), 0))
        # start/end as epoch-microsecond BIGINTs, not timestamps: the
        # driver's value-hash canonicalizes timestamp columns outside
        # our control (round-2 hash_match flake on an output that was
        # bitwise-equal to DuckDB locally) — an all-integer frame has
        # exactly one representation on both sides.
        return pd.DataFrame({
            "user_id": u[starts],
            "session_id": sid.astype(np.int64),
            "n_events": (ends - starts).astype(np.int64),
            "start_us": ts[starts].astype(np.int64),
            "end_us": ts[ends - 1].astype(np.int64),
            "sum_value_micro": np.add.reduceat(val, starts),
        })

    out = (ds.map_batches(add_bucket, batch_format="pyarrow")
           .groupby("bucket").map_groups(sess, batch_format="pandas")
           .to_pandas())
    if "bucket" in out.columns:
        out = out.drop(columns=["bucket"])
    out["user_id"] = out["user_id"].astype(np.int64)
    out["sum_value_micro"] = out["sum_value_micro"].astype(np.int64)
    return out.sort_values(["user_id", "session_id"]).reset_index(drop=True)

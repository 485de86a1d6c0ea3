"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

The reference's only dedup is the path-set anti-join
(/root/reference/rust/src/file_loader.rs:118-126); these are the
training-data-pipeline extensions (SURVEY.md §2.7 D3) built Ray-Data-first:

  exact     content-hash column -> groupby(hash) -> keep min id.  Only
            16-byte hashes shuffle, never the text.
  minhash   shingle -> 64-perm minhash -> band rows -> groupby(band,
            band_hash) -> candidate pairs -> Jaccard verify.
  simhash   64-bit weighted sign sketch per doc (stateless map_batches).
  jaccard   token-shingle Jaccard between explicit pairs.

Determinism: all hashes via the fixed-key SipHash in tokenize.stable_hash64
and fixed-seed permutation parameters — identical output at any
parallelism.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from engine.tokenize import HASH_FNS, stable_hash64, tokenize_batch

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def exact_dedup(
    docs: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """-> (doc_id, n_dups): the surviving (minimum) id per distinct text
    and the group size.  Shuffles only (hash, id) pairs.

    The reduce is a plain ``aggregate(Min, Count)`` — content_hash is a
    near-unique key (millions of near-singleton groups at web scale), so
    a per-group ``map_groups`` would pay Python group overhead once per
    distinct document; the vectorized aggregate does not."""
    from ray.data.aggregate import Count, Min

    def add_hash(batch: pa.Table) -> pa.Table:
        h = stable_hash64(np.asarray(batch.column(text_col).to_pylist(),
                                     dtype=object))
        return pa.table({
            "content_hash": pa.array(h.astype(np.int64)),
            id_col: batch.column(id_col),
        })

    return (docs.map_batches(add_hash, batch_format="pyarrow")
            .groupby("content_hash")
            .aggregate(Min(id_col, alias_name=id_col),
                       Count(alias_name="n_dups"))
            .select_columns([id_col, "n_dups"]))


# ---------------------------------------------------------------------------
# shingles + minhash
# ---------------------------------------------------------------------------

_MERSENNE = np.uint64((1 << 61) - 1)


def _perm_params(n_perm: int, seed: int = 77) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=n_perm, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=n_perm, dtype=np.uint64)
    return a, b


def shingle_hashes(tokens: list[str], k: int = 3,
                   hash_fn: str = "sip") -> np.ndarray:
    """k-token shingle strings -> unique 64-bit hashes."""
    if len(tokens) < k:
        shingles = [" ".join(tokens)] if tokens else []
    else:
        shingles = [" ".join(tokens[i:i + k]) for i in range(len(tokens) - k + 1)]
    if not shingles:
        return np.array([], dtype=np.uint64)
    return np.unique(HASH_FNS[hash_fn](np.asarray(shingles, dtype=object)))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (deterministic 64-bit mix)."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def batch_signatures(sh_list: list[np.ndarray], a: np.ndarray,
                     b: np.ndarray, perm_slab: int = 16) -> np.ndarray:
    """All docs' minhash signatures in one vectorized pass:
    concatenate shingles, (a*h+b) mod p per permutation slab, per-doc
    minimum via reduceat.  -> (n_docs, n_perm) uint64."""
    n_docs, n_perm = len(sh_list), a.size
    sig = np.full((n_docs, n_perm), np.iinfo(np.uint64).max >> 1,
                  dtype=np.uint64)
    counts = np.fromiter((s.size for s in sh_list), dtype=np.int64,
                         count=n_docs)
    nz = counts > 0
    if not nz.any():
        return sig
    allsh = np.concatenate([s for s in sh_list if s.size]) & _MERSENNE
    offs = np.concatenate(([0], np.cumsum(counts[nz])[:-1]))
    for lo in range(0, n_perm, perm_slab):  # slab caps peak memory
        hi = min(lo + perm_slab, n_perm)
        vals = (a[lo:hi, None] * allsh[None, :] + b[lo:hi, None]) % _MERSENNE
        sig[np.flatnonzero(nz), lo:hi] = \
            np.minimum.reduceat(vals, offs, axis=1).T
    return sig


def minhash_bands(
    docs: "ray.data.Dataset",
    n_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    hash_fn: str = "sip",
    band_mode: str = "splitmix",
) -> "ray.data.Dataset":
    """-> exploded (band, band_hash, doc_id) rows — the LSH index table.
    groupby((band, band_hash)) downstream yields candidate groups.
    Fully vectorized per batch: one signature matrix, then a splitmix64
    column mix per band (no per-doc Python loop).

    ``hash_fn="md5"`` + ``band_mode="md5str"`` is the oracle-parity
    configuration: shingles hashed like DuckDB md5_number_lower and the
    band combiner = md5 of the '-'-joined signature slice — both
    reproducible in SQL, so the driver can check candidate pairs
    exactly.  Same signature/banding code path either way."""
    assert n_perm % bands == 0
    r = n_perm // bands
    a, b = _perm_params(n_perm)
    hasher = HASH_FNS[hash_fn]

    def to_bands(batch: pa.Table) -> pa.Table:
        toks = tokenize_batch(batch.column(text_col).to_pylist())
        ids = batch.column(id_col).to_numpy().astype(np.int64)
        sig = batch_signatures([shingle_hashes(ts, shingle_k, hash_fn)
                                for ts in toks], a, b)
        n_docs = ids.size
        bh = np.empty((bands, n_docs), dtype=np.uint64)
        if band_mode == "md5str":
            for bi in range(bands):
                sl = sig[:, bi * r:(bi + 1) * r]
                keys = np.asarray(
                    ["-".join(str(int(v)) for v in row) for row in sl],
                    dtype=object)
                bh[bi] = hasher(keys)
        else:
            for bi in range(bands):
                h = np.full(n_docs, np.uint64(0x2545F4914F6CDD1D),
                            dtype=np.uint64) ^ np.uint64(bi)
                for c in range(bi * r, (bi + 1) * r):
                    h = _splitmix64(h ^ sig[:, c])
                bh[bi] = h
        return pa.table({
            "band": pa.array(np.repeat(np.arange(bands, dtype=np.int32),
                                       n_docs)),
            "band_hash": pa.array(
                (bh.reshape(-1) & np.uint64(0x7FFFFFFFFFFFFFFF))
                .astype(np.int64)),
            id_col: pa.array(np.tile(ids, bands)),
        })

    return docs.map_batches(to_bands, batch_format="pyarrow")


def minhash_candidates(
    docs: "ray.data.Dataset",
    n_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    hash_fn: str = "sip",
    band_mode: str = "splitmix",
    max_group: int | None = None,
    edge_mode: str = "pairs",
) -> pd.DataFrame:
    """LSH candidate pairs -> DataFrame(id_a, id_b) distinct, id_a<id_b.

    The (band, band_hash) key space has ~bands*n_docs nearly-singleton
    groups; a map_groups per key would pay per-group overhead millions
    of times at scale.  Instead the shuffle key is a coarse BUCKET of
    the band hash (fixed count), and equal-key runs inside each bucket
    are found vectorized after one lexsort — same result, 64 groups.

    ``max_group`` (scale knob, same contract as simhash_candidates):
    skip band runs with more than max_group DISTINCT docs instead of
    going quadratic — at web scale one degenerate run (empty docs all
    share the sentinel signature; boilerplate pages collide in every
    band) of g docs would otherwise emit g^2/2 pairs.  None = exact,
    the oracle-parity configuration.

    ``edge_mode="star"``: emit only (run_min, member) edges per band
    run — O(g) instead of O(g^2).  The star edges span the same
    band-co-membership graph, so connected components over them are
    IDENTICAL to components over all pairs; only the pair LIST differs.
    Use for clustering consumers (neardup_dedup edge_mode="star");
    keep "pairs" for the oracle-checked candidate-pair entry.
    """
    if edge_mode not in ("pairs", "star"):
        raise ValueError(f"edge_mode must be 'pairs' or 'star': {edge_mode!r}")
    band_rows = minhash_bands(docs, n_perm, bands, shingle_k, id_col,
                              text_col, hash_fn, band_mode)
    n_buckets = 64

    def add_bucket(t: pa.Table) -> pa.Table:
        bh = t.column("band_hash").to_numpy()
        return t.append_column(
            "bucket", pa.array((bh % n_buckets).astype(np.int32)))

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        b = g["band"].to_numpy().astype(np.int64)
        h = g["band_hash"].to_numpy().astype(np.int64)
        i = g[id_col].to_numpy().astype(np.int64)
        order = np.lexsort((i, h, b))
        b, h, i = b[order], h[order], i[order]
        new = np.concatenate(([True], (np.diff(b) != 0) | (np.diff(h) != 0)))
        starts = np.concatenate((np.flatnonzero(new), [b.size]))
        sizes = np.diff(starts)
        out_a, out_b = [], []
        for k in np.flatnonzero(sizes >= 2):
            ids_run = np.unique(i[starts[k]:starts[k] + sizes[k]])
            if ids_run.size < 2:
                continue
            if max_group is not None and ids_run.size > max_group:
                continue   # documented hot-band skip (scale knob)
            if edge_mode == "star":
                # ids_run is sorted: [0] is the run minimum
                out_a.append(np.full(ids_run.size - 1, ids_run[0],
                                     dtype=np.int64))
                out_b.append(ids_run[1:])
            else:
                iu = np.triu_indices(ids_run.size, 1)
                out_a.append(ids_run[iu[0]])
                out_b.append(ids_run[iu[1]])
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                                 "id_b": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"id_a": np.concatenate(out_a),
                             "id_b": np.concatenate(out_b)})

    cand = (band_rows.map_batches(add_bucket, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(pairs, batch_format="pandas")
            .to_pandas())
    if "bucket" in cand.columns:
        cand = cand.drop(columns=["bucket"])
    if not len(cand):
        return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                             "id_b": pd.Series([], dtype=np.int64)})
    return (cand.drop_duplicates().astype(np.int64)
            .sort_values(["id_a", "id_b"]).reset_index(drop=True))


def verify_jaccard(
    docs: "ray.data.Dataset",
    pairs: pd.DataFrame,
    threshold: float = 0.8,
    shingle_k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    hash_fn: str = "sip",
) -> pd.DataFrame:
    """Exact shingle-Jaccard for candidate pairs -> (id_a, id_b, jaccard)
    filtered to >= threshold, sorted by (id_a, id_b), where jaccard is
    |A∩B| / |A∪B| over the two docs' unique shingle hashes, round(j, 6).

    Each pair is hash-bucketed on id_a; every needed doc's shingle set
    is emitted from the corpus scan into exactly the buckets whose pairs
    reference it (membership via one broadcast searchsorted — the
    request table is pair-sized, the shingle sets are not); verification
    runs vectorized (numpy set intersections on unique-sorted hash
    arrays) inside ``groupby(bucket).map_groups``.  The corpus-side
    shingle sets never reach the driver — only the verified pairs do.
    """
    if not len(pairs):
        return pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
    import ray

    pa_ids = pairs["id_a"].to_numpy().astype(np.int64)
    pb_ids = pairs["id_b"].to_numpy().astype(np.int64)
    n_buckets = 64

    bkt = (_splitmix64(pa_ids.astype(np.uint64))
           % np.uint64(n_buckets)).astype(np.int64)
    # request table (doc_id, bucket) distinct, sorted by (doc_id, bucket):
    # which buckets need which doc's shingle set
    rq_ids = np.concatenate((pa_ids, pb_ids))
    rq_bkt = np.concatenate((bkt, bkt))
    order = np.lexsort((rq_bkt, rq_ids))
    rq_ids, rq_bkt = rq_ids[order], rq_bkt[order]
    keep = np.r_[True, (rq_ids[1:] != rq_ids[:-1])
                 | (rq_bkt[1:] != rq_bkt[:-1])]
    rq_ids, rq_bkt = rq_ids[keep], rq_bkt[keep]
    # pairs sorted by bucket for per-group slicing
    p_order = np.argsort(bkt, kind="stable")
    req_ref = ray.put((rq_ids, rq_bkt))
    pair_ref = ray.put((bkt[p_order], pa_ids[p_order], pb_ids[p_order]))

    def emit_shingles(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy().astype(np.int64)
        r_ids, r_bkt = ray.get(req_ref)
        lo = np.searchsorted(r_ids, ids, side="left")
        hi = np.searchsorted(r_ids, ids, side="right")
        sel = np.flatnonzero(hi > lo)
        if sel.size == 0:
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int64()),
                "shingles": pa.array([], pa.large_list(pa.int64())),
            })
        toks = tokenize_batch(
            batch.filter(pa.array(np.isin(np.arange(ids.size), sel)))
            .column(text_col).to_pylist())
        sh = [shingle_hashes(t, shingle_k, hash_fn).astype(np.int64).tolist()
              for t in toks]
        reps = hi[sel] - lo[sel]
        total = int(reps.sum())
        # concat of ranges lo[j]..hi[j]: offsets into the request table
        base = np.repeat(lo[sel], reps)
        step = np.arange(total) - np.repeat(np.cumsum(reps) - reps, reps)
        ridx = base + step
        doc_rep = np.repeat(np.arange(sel.size), reps)
        return pa.table({
            id_col: pa.array(np.repeat(ids[sel], reps)),
            "bucket": pa.array(r_bkt[ridx]),
            "shingles": pa.array([sh[int(j)] for j in doc_rep],
                                 pa.large_list(pa.int64())),
        })

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        bt = int(g["bucket"].iloc[0])
        p_bkt, p_a, p_b = ray.get(pair_ref)
        plo = np.searchsorted(p_bkt, bt, side="left")
        phi = np.searchsorted(p_bkt, bt, side="right")
        ia, ib = p_a[plo:phi], p_b[plo:phi]
        arrs: dict[int, np.ndarray] = {}
        for did, s in zip(g[id_col].to_numpy().astype(np.int64),
                          g["shingles"]):
            arrs[int(did)] = np.asarray(s, dtype=np.int64)
        oa, ob, oj = [], [], []
        for a, b in zip(ia, ib):
            sa = arrs.get(int(a))
            sb = arrs.get(int(b))
            la = sa.size if sa is not None else 0
            lb = sb.size if sb is not None else 0
            inter = (np.intersect1d(sa, sb, assume_unique=True).size
                     if la and lb else 0)
            union = la + lb - inter
            j = (inter / union) if union else 0.0
            if j >= threshold:
                oa.append(int(a))
                ob.append(int(b))
                oj.append(round(j, 6))
        return pd.DataFrame({
            "id_a": pd.Series(oa, dtype=np.int64),
            "id_b": pd.Series(ob, dtype=np.int64),
            "jaccard": pd.Series(oj, dtype=np.float64),
        })

    res = (docs.map_batches(emit_shingles, batch_format="pyarrow")
           .groupby("bucket")
           .map_groups(verify, batch_format="pandas")
           .to_pandas())
    if "bucket" in res.columns:
        res = res.drop(columns=["bucket"])
    if not len(res):
        return pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
    return res.sort_values(["id_a", "id_b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------

def simhash_batch(batch: pa.Table, text_col: str = "text",
                  hash_fn: str = "sip") -> pa.Table:
    """-> adds simhash:int64 — 64-bit weighted sign sketch over token
    hashes (tf-weighted).  Hamming-close simhashes = near-dup candidates.
    ``hash_fn="md5"`` = oracle-parity mode (md5_number_lower in SQL).

    One vectorized pass for the whole batch: factorize tokens (each
    DISTINCT term hashed once per batch — matters for the per-string
    md5 mode), per-(doc, term) tf via integer-key unique, signed bit
    contributions reduced per doc with one reduceat.  Bit-for-bit equal
    to the per-doc formulation: the summed contributions are integers,
    exact in float64 regardless of addition order."""
    toks = tokenize_batch(batch.column(text_col).to_pylist())
    hasher = HASH_FNS[hash_fn]
    shifts = np.arange(64, dtype=np.uint64)
    mask63 = np.uint64(0x7FFFFFFFFFFFFFFF)
    n_docs = len(toks)
    out = np.zeros(n_docs, dtype=np.int64)
    lens = np.fromiter((len(t) for t in toks), dtype=np.int64, count=n_docs)
    if lens.sum():
        allt = np.concatenate([np.asarray(t, dtype=object)
                               for t in toks if t])
        codes, uniq = pd.factorize(allt, sort=False)
        doc_pos = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
        key = doc_pos * np.int64(uniq.size) + codes
        uk, counts = np.unique(key, return_counts=True)
        d_idx = uk // np.int64(uniq.size)
        t_code = uk % np.int64(uniq.size)
        h = hasher(np.asarray(uniq, dtype=object))[t_code]
        bits = ((h[:, None] >> shifts[None, :]) & np.uint64(1)
                ).astype(np.float64) * 2.0 - 1.0
        contrib = bits * counts[:, None].astype(np.float64)
        starts = np.flatnonzero(
            np.concatenate(([True], d_idx[1:] != d_idx[:-1])))
        acc = np.add.reduceat(contrib, starts, axis=0)
        code = (((acc > 0).astype(np.uint64) << shifts[None, :])
                .sum(axis=1) & mask63)
        out[d_idx[starts]] = code.astype(np.int64)
    return batch.append_column("simhash", pa.array(out, pa.int64()))


# byte-popcount LUT: hamming distance of packed uint64 sketches without
# per-element Python (no np.popcount in this numpy)
_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                      axis=1).sum(axis=1).astype(np.int64)


def hamming64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount over a uint64 array (LUT on the byte view)."""
    return _POP8[np.ascontiguousarray(x).view(np.uint8)
                 .reshape(-1, 8)].sum(axis=1)


def simhash_candidates(
    docs: "ray.data.Dataset",
    max_hamming: int = 3,
    n_bands: int = 4,
    id_col: str = "doc_id",
    text_col: str = "text",
    hash_fn: str = "sip",
    max_group: int | None = None,
) -> pd.DataFrame:
    """SimHash near-dup candidate pairs -> (id_a, id_b, hamming), the
    Hamming-band consumer the sketch was missing: split the 64-bit code
    into ``n_bands`` contiguous bit bands; by pigeonhole any pair within
    Hamming distance < n_bands agrees on at least one whole band, so
    banding has perfect recall for max_hamming <= n_bands - 1.  Pairs
    from equal-band groups are verified with the exact popcount of the
    XOR (the sketches ride along with the exploded band rows, so the
    verify costs no second pass over the corpus).

    Scale shape is the minhash_candidates pattern: shuffle on a coarse
    64-bucket function of (band, band_val) — never one group per band
    value — and vectorized run detection inside each bucket.
    ``max_group`` (scale knob) skips degenerate hot bands (e.g. the
    all-empty-doc band) instead of going quadratic; None = exact, the
    oracle-parity configuration.
    """
    band_bits = 64 // n_bands
    mask = np.uint64((1 << band_bits) - 1)
    n_buckets = 64

    def to_bands(batch: pa.Table) -> pa.Table:
        t = simhash_batch(batch, text_col, hash_fn)
        ids = t.column(id_col).to_numpy().astype(np.int64)
        sh = t.column("simhash").to_numpy().astype(np.int64)
        shu = sh.astype(np.uint64)
        shifts = (np.arange(n_bands, dtype=np.uint64)
                  * np.uint64(band_bits))
        bv = ((shu[None, :] >> shifts[:, None]) & mask).astype(np.int64)
        band = np.repeat(np.arange(n_bands, dtype=np.int32), ids.size)
        return pa.table({
            "band": pa.array(band),
            "band_val": pa.array(bv.reshape(-1)),
            id_col: pa.array(np.tile(ids, n_bands)),
            "simhash": pa.array(np.tile(sh, n_bands)),
            "bucket": pa.array(((bv.reshape(-1) * n_bands
                                 + band) % n_buckets).astype(np.int32)),
        })

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        b = g["band"].to_numpy().astype(np.int64)
        v = g["band_val"].to_numpy().astype(np.int64)
        i = g[id_col].to_numpy().astype(np.int64)
        s = g["simhash"].to_numpy().astype(np.int64)
        order = np.lexsort((i, v, b))
        b, v, i, s = b[order], v[order], i[order], s[order]
        new = np.concatenate(([True], (np.diff(b) != 0) | (np.diff(v) != 0)))
        starts = np.concatenate((np.flatnonzero(new), [b.size]))
        sizes = np.diff(starts)
        out_a, out_b, out_h = [], [], []
        for k in np.flatnonzero(sizes >= 2):
            if max_group is not None and sizes[k] > max_group:
                continue   # documented hot-band skip (scale knob)
            lo = starts[k]
            run_i = i[lo:lo + sizes[k]]
            run_s = s[lo:lo + sizes[k]]
            iu = np.triu_indices(run_i.size, 1)
            x = (run_s[iu[0]].astype(np.uint64)
                 ^ run_s[iu[1]].astype(np.uint64))
            h = hamming64(x)
            keep = h <= max_hamming
            if keep.any():
                out_a.append(run_i[iu[0]][keep])
                out_b.append(run_i[iu[1]][keep])
                out_h.append(h[keep])
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                                 "id_b": pd.Series(dtype=np.int64),
                                 "hamming": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"id_a": np.concatenate(out_a),
                             "id_b": np.concatenate(out_b),
                             "hamming": np.concatenate(out_h)})

    cand = (docs.map_batches(to_bands, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(pairs, batch_format="pandas")
            .to_pandas())
    if "bucket" in cand.columns:
        cand = cand.drop(columns=["bucket"])
    if not len(cand):
        return pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                             "id_b": pd.Series([], dtype=np.int64),
                             "hamming": pd.Series([], dtype=np.int64)})
    a = np.minimum(cand["id_a"].to_numpy(), cand["id_b"].to_numpy())
    bb = np.maximum(cand["id_a"].to_numpy(), cand["id_b"].to_numpy())
    cand = pd.DataFrame({"id_a": a, "id_b": bb,
                         "hamming": cand["hamming"].to_numpy()})
    return (cand.drop_duplicates(["id_a", "id_b"]).astype(np.int64)
            .sort_values(["id_a", "id_b"]).reset_index(drop=True))


def ngram_jaccard_adjacent(
    docs: "ray.data.Dataset",
    shingle_k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    bucket_width: int = 512,
) -> "ray.data.Dataset":
    """n-gram Jaccard between each doc and the doc with the next id
    (a linear, SQL-checkable slice of the all-pairs similarity).
    -> Dataset(id_a, id_b, jaccard_ppm).

    Scale shape: docs shuffle on a coarse ``doc_id // bucket_width``
    bucket (a doc whose id is a bucket boundary is ALSO emitted into the
    previous bucket as overlap), so every (i, i+1) pair co-locates in
    exactly one group — no full-corpus driver materialization, no
    per-pair groups.  Jaccard is emitted as integer ppm (micro_units)."""
    from engine.textstats import micro_units
    B = bucket_width

    def rows(batch: pa.Table) -> pa.Table:
        toks = tokenize_batch(batch.column(text_col).to_pylist())
        ids = batch.column(id_col).to_numpy().astype(np.int64)
        sh = [sorted(set(
                  " ".join(t[i:i + shingle_k])
                  for i in range(max(len(t) - shingle_k + 1, 0))) or
                  ([" ".join(t)] if t else []))
              for t in toks]
        bucket = ids // B
        # overlap copy: bucket-boundary docs serve as right neighbor below
        extra = np.flatnonzero((ids % B == 0) & (bucket > 0))
        out_ids = np.concatenate((ids, ids[extra]))
        out_bkt = np.concatenate((bucket, bucket[extra] - 1))
        out_sh = sh + [sh[int(i)] for i in extra]
        return pa.table({
            id_col: pa.array(out_ids),
            "bucket": pa.array(out_bkt.astype(np.int64)),
            "shingles": pa.array(out_sh, pa.large_list(pa.large_string())),
        })

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        b = int(g["bucket"].iloc[0])
        g = g.sort_values(id_col)
        ids = g[id_col].to_numpy()
        sets = [set(s) for s in g["shingles"]]
        out_a, out_b, out_j = [], [], []
        for i in range(len(ids) - 1):
            # pair owned by the left doc's home bucket (overlap copies
            # only ever sit on the right side)
            if ids[i + 1] != ids[i] + 1 or ids[i] // B != b:
                continue
            union = len(sets[i] | sets[i + 1])
            out_a.append(int(ids[i]))
            out_b.append(int(ids[i + 1]))
            out_j.append((len(sets[i] & sets[i + 1]) / union) if union else 0.0)
        return pd.DataFrame({
            "id_a": pd.Series(out_a, dtype=np.int64),
            "id_b": pd.Series(out_b, dtype=np.int64),
            "jaccard_ppm": pd.Series(micro_units(np.asarray(out_j)),
                                     dtype=np.int64),
        })

    return (docs.map_batches(rows, batch_format="pyarrow")
            .groupby("bucket").map_groups(pairs, batch_format="pandas")
            .select_columns(["id_a", "id_b", "jaccard_ppm"]))


# ---------------------------------------------------------------------------
# end-to-end near-dup dedup: candidates -> verify -> components -> canonical
# ---------------------------------------------------------------------------

def connected_components(
    pairs: pd.DataFrame,
    n_buckets: int = 64,
    max_rounds: int = 50,
) -> pd.DataFrame:
    """Distributed connected components over an edge list -> DataFrame
    (doc_id, canonical_id) for every node, canonical = component min.

    Alternating large-star / small-star rounds (Kiveris et al.,
    "Connected Components in MapReduce and Beyond", SoCC'14): every
    round is ONE coarse-bucket shuffle + a vectorized per-node
    min-neighbor emit, every emitted edge points at a smaller id, and
    the fixpoint is the star graph node -> component min.  Converges in
    O(log n) rounds even on path graphs (where plain min-label
    propagation needs O(diameter)).  Per round only a 2-int checksum
    reaches the driver, so the edge list may exceed driver memory —
    the beyond-driver-memory path that neardup_dedup's default
    union-find cannot cover.

    Edge layout between rounds: columns (u, v) with u > v, globally
    distinct after each small-star (all rows of one u land in one
    group, which dedupes vectorized).
    """
    import ray.data as rd

    src = pd.DataFrame({
        "u": pairs["id_b"].to_numpy().astype(np.int64),
        "v": pairs["id_a"].to_numpy().astype(np.int64),
    })  # candidates come id_a < id_b, so u > v holds already
    if not len(src):
        return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64),
                             "canonical_id": pd.Series(dtype=np.int64)})
    edges = rd.from_pandas(src)

    def _emit_unique(uu: np.ndarray, vv: np.ndarray) -> pd.DataFrame:
        if uu.size == 0:
            return pd.DataFrame({"u": pd.Series(dtype=np.int64),
                                 "v": pd.Series(dtype=np.int64)})
        order = np.lexsort((vv, uu))
        uu, vv = uu[order], vv[order]
        keep = np.r_[True, (uu[1:] != uu[:-1]) | (vv[1:] != vv[:-1])]
        return pd.DataFrame({"u": uu[keep], "v": vv[keep]})

    def large_expand(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy()
        v = t.column("v").to_numpy()
        x = np.concatenate([u, v])       # node key: both directions
        n = np.concatenate([v, u])
        return pa.table({"x": x, "n": n,
                         "bucket": (x % n_buckets).astype(np.int32)})

    def large_emit(g: pd.DataFrame) -> pd.DataFrame:
        x = g["x"].to_numpy()
        n = g["n"].to_numpy()
        order = np.lexsort((n, x))
        x, n = x[order], n[order]
        starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
        counts = np.diff(np.r_[starts, x.size])
        m = np.minimum(np.minimum.reduceat(n, starts), x[starts])
        m_full = np.repeat(m, counts)
        keep = n > x                     # strictly larger neighbors
        return _emit_unique(n[keep], m_full[keep])

    def small_key(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy()
        return t.append_column(
            "bucket", pa.array((u % n_buckets).astype(np.int32)))

    def small_emit(g: pd.DataFrame) -> pd.DataFrame:
        u = g["u"].to_numpy()
        v = g["v"].to_numpy()
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        counts = np.diff(np.r_[starts, u.size])
        m = np.minimum.reduceat(v, starts)   # all v < u, so m < u
        m_full = np.repeat(m, counts)
        # (v, m) for every smaller neighbor, plus (u, m); drop (m, m)
        uu = np.concatenate([v, u[starts]])
        vv = np.concatenate([m_full, m])
        keep = uu > vv
        return _emit_unique(uu[keep], vv[keep])

    def checksum(ds: "ray.data.Dataset") -> tuple[int, int]:
        def partial(t: pa.Table) -> pa.Table:
            u = t.column("u").to_numpy().astype(np.uint64)
            v = t.column("v").to_numpy().astype(np.uint64)
            chk = _splitmix64(u * np.uint64(0x9E3779B97F4A7C15) ^ v)
            return pa.table({
                "chk": pa.array([int(chk.sum(dtype=np.uint64))],
                                pa.uint64()),
                "cnt": pa.array([len(t)], pa.int64())})
        parts = ds.map_batches(partial,
                               batch_format="pyarrow").to_pandas()
        return (int(parts["chk"].to_numpy()
                    .astype(np.uint64).sum(dtype=np.uint64)),
                int(parts["cnt"].sum()))

    prev = None
    for _ in range(max_rounds):
        edges = (edges.map_batches(large_expand, batch_format="pyarrow")
                 .groupby("bucket")
                 .map_groups(large_emit, batch_format="pandas"))
        edges = (edges.map_batches(small_key, batch_format="pyarrow")
                 .groupby("bucket")
                 .map_groups(small_emit, batch_format="pandas")
                 .materialize())
        cur = checksum(edges)
        if cur == prev:
            break
        prev = cur
    else:  # pragma: no cover - 2^50 nodes exceeds any real input
        raise RuntimeError("connected_components did not converge")

    # fixpoint = star set: each non-root appears exactly once as u;
    # roots appear only as v.  Mapping = edges + (root, root) rows.
    star = edges.to_pandas()
    roots = np.unique(star["v"].to_numpy())
    out_ids = np.concatenate([star["u"].to_numpy(), roots])
    out_canon = np.concatenate([star["v"].to_numpy(), roots])
    order = np.argsort(out_ids, kind="stable")
    return pd.DataFrame({
        "doc_id": pd.Series(out_ids[order], dtype=np.int64),
        "canonical_id": pd.Series(out_canon[order], dtype=np.int64),
    })


def neardup_dedup(
    docs: "ray.data.Dataset",
    threshold: float = 0.8,
    n_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    hash_fn: str = "sip",
    band_mode: str = "splitmix",
    cc: str = "driver",
    edge_mode: str = "pairs",
    max_group: int | None = None,
) -> pd.DataFrame:
    """The operator a training-data user actually runs: MinHash-LSH
    candidates -> exact Jaccard verify (>= threshold) -> connected
    components -> (doc_id, canonical_id) for every clustered doc, where
    canonical = the minimum doc id of the component.  Dropping rows with
    ``doc_id != canonical_id`` deduplicates the corpus.

    Scale shape: the distributed stages (banding shuffle, bucketed pair
    extraction, co-partitioned vectorized verify) touch the corpus; only
    the VERIFIED pair list — bounded by the true near-dup rate — reaches
    the driver, where union-find resolves components in O(pairs α).
    ``cc="distributed"`` routes the component resolution through
    ``connected_components`` (alternating-star rounds, nothing but
    per-round checksums on the driver) for pair sets beyond driver
    memory; both paths are equivalence-tested bit-identical.

    Scale knobs (both change WHICH candidate edges are verified, so each
    has its own exact semantics — the defaults reproduce classic
    all-pairs LSH):

    ``edge_mode="star"`` verifies only (run-min, member) edges per band
    run — O(g) instead of O(g^2) on a g-doc hot band (identical
    boilerplate, empty-doc sentinel signatures).  Components are those
    of the verified STAR graph: identical to all-pairs whenever run
    members that pass verification against each other also pass against
    the run min (always true for exact-duplicate runs, the degenerate
    case that motivates it); in general a refinement (never merges more
    docs than "pairs", may split a cluster whose only strong links avoid
    the run min).  Exactly reproducible in SQL — see the
    ``neardup_dedup_star`` oracle.

    ``max_group=g`` skips band runs with more than g distinct docs
    outright (the simhash_candidates contract).
    """
    if cc not in ("driver", "distributed"):
        raise ValueError(f"cc must be 'driver' or 'distributed': {cc!r}")
    cand = minhash_candidates(docs, n_perm, bands, shingle_k, id_col,
                              text_col, hash_fn, band_mode,
                              max_group=max_group, edge_mode=edge_mode)
    ver = verify_jaccard(docs, cand, threshold, shingle_k, id_col,
                         text_col, hash_fn)
    if cc == "distributed":
        return connected_components(ver)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    for a, b in zip(ver["id_a"].astype(int), ver["id_b"].astype(int)):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            # union by min id keeps the canonical deterministic
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    rows = sorted((x, find(x)) for x in parent)
    return pd.DataFrame({
        "doc_id": pd.Series([r[0] for r in rows], dtype=np.int64),
        "canonical_id": pd.Series([r[1] for r in rows], dtype=np.int64),
    })

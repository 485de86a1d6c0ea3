"""Posting-list codec: delta + variable-byte encoding with block-max skips.

The reference delegates all index structure to external vector DBs
(/root/reference/python/python/embed_anything/vectordb.py:9-28); here the
index is the product, so the codec is first-class (north_rule: "docID-sorted
runs compressed with delta + variable-byte encoding and block-max skip
metadata").

Layout per term:
  postings bytes = per block of <= block_size entries:
      varbyte(delta doc_ids)  ++  varbyte(tfs)
    where the first delta of block i is relative to the last doc_id of
    block i-1 (0 for the first block) — blocks decode independently given
    the skip entry, enabling block skipping in WAND.
  skip bytes = little-endian int64 array, 4 per block:
      (last_doc_id, byte_offset_of_block, max_tf, min_doclen)
    max_tf / min_doclen give a safe per-block BM25 upper bound: the
    term score is increasing in tf and decreasing in doclen, so
    score(max_tf, min_doclen) >= any entry in the block.

Varbyte is LEB128-style (7 data bits/byte, high bit = continuation),
encoded and decoded with vectorized numpy — no per-int Python loops.
Every postings, block and positions decode is one ``varbyte_decode``
call, whose work per byte is fixed (Lemire & Boytsov, "Decoding
billions of integers per second through vectorization", SPE 2015);
its docstring gives its speed on 24 MB streams and on a few bytes.
"""

from __future__ import annotations

import numpy as np

SKIP_WIDTH = 4  # int64 fields per block in skip metadata


def _varbyte_encode_with_sizes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized LEB128 encode -> (uint8 array, bytes-per-value)."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return np.array([], dtype=np.uint8), np.array([], dtype=np.int64)
    # bytes needed per value: 1 + floor(bitlen/7) for bitlen>0
    nb = np.ones(v.size, dtype=np.int64)
    for k in range(1, 10):
        nb += (v >= (np.uint64(1) << np.uint64(7 * k))).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(nb)[:-1]))
    out = np.zeros(int(nb.sum()), dtype=np.uint8)
    maxnb = int(nb.max())
    for j in range(maxnb):
        mask = nb > j
        byte = (v[mask] >> np.uint64(7 * j)) & np.uint64(0x7F)
        cont = (nb[mask] - 1 > j).astype(np.uint8) << 7
        out[offsets[mask] + j] = byte.astype(np.uint8) | cont
    return out, nb


def varbyte_encode(values: np.ndarray) -> bytes:
    """Vectorized LEB128 encode of a non-negative int array."""
    out, _ = _varbyte_encode_with_sizes(values)
    return out.tobytes()


# bytes per decode pass: a longer stream is cut after a value's last
# byte, so each pass's per-byte temporaries stay cache-sized
_CHUNK = 1 << 16


def varbyte_decode(buf: bytes | memoryview | np.ndarray, count: int | None = None) -> np.ndarray:
    """Vectorized LEB128 decode -> uint64 array, with fixed work per
    byte whatever the value widths: a byte under 0x80 ends a value,
    each byte's shift (7 x its index in its value) is one uint8 cumsum
    that resets at each value's first byte, and one
    ``bitwise_or.reduceat`` over the values' first bytes joins the
    shifted bytes.  A stream over ``_CHUNK`` bytes decodes in pieces.
    On one core of a 4-CPU Xeon host it decodes 24 MB of 8-byte values
    in 0.16 s, 24 MB of 1-2-byte values in 0.30 s and a 5-value buffer
    in 14 us (the earlier loop over byte-length classes, same run:
    0.43 s, 0.55 s, 49 us).  Raises ``ValueError`` on a malformed stream: it
    ends inside a value, a value runs longer than 10 bytes, or it does
    not hold ``count`` values."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size > _CHUNK + 10:
        # cut after the first value end at or past each _CHUNK-th byte;
        # with none in 10 bytes, the piece before the cut raises
        cuts = np.arange(_CHUNK, b.size - 9, _CHUNK)
        ends = b[cuts[:, None] + np.arange(-1, 9)] < np.uint8(0x80)
        vals = np.concatenate([varbyte_decode(r) for r in
                               np.split(b, cuts + ends.argmax(axis=1))])
    elif b.size == 0:
        vals = np.empty(0, dtype=np.uint64)
    else:
        last = b < np.uint8(0x80)      # uint8 scalars: no value-based casting
        if not last[-1]:
            raise ValueError("varbyte_decode: the stream ends inside a "
                             "value, or a value runs over 10 bytes")
        ends = np.flatnonzero(last)
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        extra = ends - starts             # bytes after each value's first
        if np.maximum.reduce(extra) > 9:
            raise ValueError("varbyte_decode: a value runs longer than 10 bytes")
        shift = np.full(b.size, 7, dtype=np.uint8)
        shift[0] = 0
        shift[starts[1:]] = (-7 * extra[:-1]).astype(np.uint8)  # mod 256
        np.add.accumulate(shift, dtype=np.uint8, out=shift)
        vals = np.bitwise_or.reduceat(
            (b & np.uint8(0x7F)).astype(np.uint64) << shift, starts)
    if count is not None and vals.size != count:
        raise ValueError(f"varbyte_decode: expected {count} values, got {vals.size}")
    return vals


def encode_postings(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    doclens: np.ndarray,
    block_size: int = 128,
) -> tuple[bytes, bytes]:
    """Encode one term's docID-sorted postings -> (postings_bytes, skip_bytes).

    ``doc_ids`` must be strictly increasing (docID-sorted runs are the
    north-rule invariant, enforced by the merge stage; asserted here).
    """
    doc_ids = np.asarray(doc_ids, dtype=np.uint64)
    tfs = np.asarray(tfs, dtype=np.uint64)
    doclens = np.asarray(doclens, dtype=np.uint64)
    n = doc_ids.size
    if n == 0:
        return b"", b""
    if n > 1 and not (np.diff(doc_ids.astype(np.int64)) > 0).all():
        raise ValueError("encode_postings: doc_ids must be strictly increasing")

    # Single-pass vectorized encode.  The value stream is
    # [deltas_b0, tfs_b0, deltas_b1, tfs_b1, ...]; because every block
    # except the last is full, block b's first value-stream index is
    # simply 2*block_size*b, so one varbyte pass over the interleaved
    # array plus a cumsum of per-value byte sizes yields the per-block
    # byte offsets — no per-block Python loop (the loop made stopword
    # terms ~1 us/posting; this is ~30 ns/posting).
    n_blocks = (n + block_size - 1) // block_size
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = doc_ids[0]
    if n > 1:
        deltas[1:] = doc_ids[1:] - doc_ids[:-1]
    idx = np.arange(n, dtype=np.int64)
    b = idx // block_size
    i_in = idx - b * block_size
    bstarts = np.arange(n_blocks, dtype=np.int64) * block_size
    cnt = np.full(n_blocks, block_size, dtype=np.int64)
    cnt[-1] = n - block_size * (n_blocks - 1)
    vstart = b * (2 * block_size)
    vals = np.empty(2 * n, dtype=np.uint64)
    vals[vstart + i_in] = deltas
    vals[vstart + cnt[b] + i_in] = tfs
    out, nb = _varbyte_encode_with_sizes(vals)
    csum = np.concatenate(([np.int64(0)], np.cumsum(nb)))

    skips = np.empty((n_blocks, SKIP_WIDTH), dtype=np.int64)
    ends = np.minimum(bstarts + block_size, n) - 1
    skips[:, 0] = doc_ids[ends].astype(np.int64)
    skips[:, 1] = csum[2 * block_size * np.arange(n_blocks, dtype=np.int64)]
    skips[:, 2] = np.maximum.reduceat(tfs, bstarts).astype(np.int64)
    skips[:, 3] = np.minimum.reduceat(doclens, bstarts).astype(np.int64)
    return out.tobytes(), skips.tobytes()


def encode_postings_many(
    d_s: np.ndarray,
    t_s: np.ndarray,
    l_s: np.ndarray,
    tstarts: np.ndarray,
    tends: np.ndarray,
    block_size: int = 128,
) -> tuple[bytes, bytes, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Encode EVERY term of a part in one vectorized pass.

    Inputs are the part's (term, doc)-lexsorted flat arrays plus the
    per-term slice boundaries; output is byte-identical to looping
    ``encode_postings`` per term and concatenating (the merge-equivalence
    and checksum tests pin this), but runs one varbyte pass over the
    whole part instead of ~vocab/parts Python iterations — the reduce
    side's hot path at scale.

    -> (postings_blob, skips_blob, post_off, post_len, skip_off, skip_len)
    """
    B = block_size
    d_s = np.asarray(d_s, dtype=np.uint64)
    t_s = np.asarray(t_s, dtype=np.uint64)
    l_s = np.asarray(l_s, dtype=np.uint64)
    tstarts = np.asarray(tstarts, dtype=np.int64)
    tends = np.asarray(tends, dtype=np.int64)
    N = d_s.size
    T = tstarts.size
    if N == 0:
        z = np.zeros(0, dtype=np.int64)
        return b"", b"", z, z, z, z
    n_per_term = tends - tstarts
    if not (n_per_term > 0).all():
        raise ValueError("encode_postings_many: empty term slice")

    # per-posting coordinates
    term_of = np.repeat(np.arange(T, dtype=np.int64), n_per_term)
    j = np.arange(N, dtype=np.int64)
    in_term = j - tstarts[term_of]
    b = in_term // B
    p = in_term - b * B
    cnt_b = np.minimum(B, n_per_term[term_of] - b * B)

    # docID-sorted invariant per term (strictly increasing)
    deltas = d_s.copy()
    if N > 1:
        deltas[1:] = d_s[1:] - d_s[:-1]
    deltas[tstarts] = d_s[tstarts]
    inner = np.ones(N, dtype=bool)
    inner[tstarts] = False
    if inner.any() and not (deltas[inner].astype(np.int64) > 0).all():
        raise ValueError("encode_postings_many: doc_ids must be strictly "
                         "increasing within a term")

    # interleaved value stream: per block [deltas, tfs]; value index of
    # a term's block b starts at 2*B*b relative to the term (all prior
    # blocks full), terms concatenated
    val_start = np.concatenate(([0], np.cumsum(2 * n_per_term)[:-1]))
    base = val_start[term_of] + 2 * B * b
    vals = np.empty(2 * N, dtype=np.uint64)
    vals[base + p] = deltas
    vals[base + cnt_b + p] = t_s
    out, nb = _varbyte_encode_with_sizes(vals)
    csum = np.concatenate(([np.int64(0)], np.cumsum(nb)))

    post_off = csum[val_start]
    post_len = csum[np.concatenate((val_start[1:], [np.int64(2 * N)]))] - post_off

    # per-block skip rows, in (term, block) order
    nblocks_per_term = (n_per_term + B - 1) // B
    total_blocks = int(nblocks_per_term.sum())
    blk_term = np.repeat(np.arange(T, dtype=np.int64), nblocks_per_term)
    blk_first = np.concatenate(([0], np.cumsum(nblocks_per_term)[:-1]))
    blk_idx = np.arange(total_blocks, dtype=np.int64) - blk_first[blk_term]
    gstart = tstarts[blk_term] + blk_idx * B          # global posting start
    gend = np.minimum(gstart + B, tends[blk_term])    # global posting end
    skips = np.empty((total_blocks, SKIP_WIDTH), dtype=np.int64)
    skips[:, 0] = d_s[gend - 1].astype(np.int64)
    skips[:, 1] = (csum[val_start[blk_term] + 2 * B * blk_idx]
                   - post_off[blk_term])
    skips[:, 2] = np.maximum.reduceat(t_s, gstart).astype(np.int64)
    skips[:, 3] = np.minimum.reduceat(l_s, gstart).astype(np.int64)

    skip_len = nblocks_per_term * (SKIP_WIDTH * 8)
    skip_off = np.concatenate(([0], np.cumsum(skip_len)[:-1]))
    return (out.tobytes(), skips.tobytes(), post_off, post_len,
            skip_off, skip_len)


def decode_skips(skip_bytes: bytes | memoryview | np.ndarray) -> np.ndarray:
    """skip bytes (or a skip array) -> (n_blocks, 4) int64 array
    (last_doc, offset, max_tf, min_dl)."""
    arr = np.frombuffer(skip_bytes, dtype=np.int64)
    return arr.reshape(-1, SKIP_WIDTH)


def decode_blocks(postings: bytes | memoryview, skips: np.ndarray, blocks,
                  n_total: int, block_size: int = 128
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Decode the ascending posting ``blocks`` of one term -> (doc_ids
    uint64, tfs uint64), in one ``varbyte_decode`` call however many
    blocks: the stream is the byte range of blocks ``blocks[0]`` to
    ``blocks[-1]`` (the skip table's offsets), less the bytes of the
    blocks between them that are not asked for.  Each block's first
    delta is relative to the last doc of the block before it (the skip
    table's last_doc); re-based onto the last doc of the block decoded
    before it, one cumsum over the deltas rebuilds every id."""
    blocks = np.asarray(blocks, dtype=np.int64)
    nb = blocks.size
    if nb == 0:
        return np.empty(0, np.uint64), np.empty(0, np.uint64)
    buf = np.frombuffer(postings, dtype=np.uint8)
    first, last = int(blocks[0]), int(blocks[-1])
    lo = skips[first, 1]
    hi = skips[last + 1, 1] if last + 1 < skips.shape[0] else buf.size
    stream = buf[lo:hi]
    window = last - first + 1 == nb
    if not window:
        # a byte mask, not a per-byte index (gather_slices): 5-10x
        # faster once the blocks hold a few 10 kB
        asked = np.zeros(last - first + 1, dtype=bool)
        asked[blocks - first] = True
        stream = stream[np.repeat(asked, np.diff(skips[first:last + 1, 1],
                                                 append=hi))]
    # every block but the term's last is full; each block's values
    # are [deltas, tfs]
    c = min(block_size, n_total - last * block_size)
    vals = varbyte_decode(stream, count=2 * (block_size * (nb - 1) + c))
    if nb == 1:
        deltas, tfs = vals[:c], vals[c:]
    else:
        head = vals[:vals.size - 2 * c].reshape(-1, 2, block_size)
        deltas = np.concatenate((head[:, 0].ravel(), vals[head.size:][:c]))
        tfs = np.concatenate((head[:, 1].ravel(), vals[head.size + c:]))
    if first > 0 or not window:
        base = np.where(blocks > 0, skips[blocks - 1, 0], 0)
        base[1:] -= skips[blocks[:-1], 0]          # >= 0: blocks ascend
        deltas[::block_size] += base.astype(np.uint64)
    return np.cumsum(deltas, out=deltas), tfs


def decode_postings(postings: bytes | memoryview,
                    skips: np.ndarray | bytes | memoryview, n_total: int,
                    block_size: int = 128) -> tuple[np.ndarray, np.ndarray]:
    """Full decode of one term -> (doc_ids uint64, tfs uint64).
    ``skips``: its skip array, or the skip bytes."""
    skips = decode_skips(skips)
    return decode_blocks(postings, skips, np.arange(skips.shape[0]),
                         n_total, block_size)


# --------------------------------------------------------------------------
# positional postings (EngineConfig.store_positions; phrase queries)
# --------------------------------------------------------------------------
# Per posting (term, doc) the token positions of every occurrence —
# ascending, ``tf`` of them — are delta-encoded (first absolute) and
# varbyte-packed into a third segment blob.  Per-entry counts come from
# the already-decoded tfs, so the positions stream needs NO offsets of
# its own: cumsum(tfs) recovers the entry boundaries.  (Lucene .prx
# shape; none in the reference — its index is an external vector DB,
# /root/reference/python/python/embed_anything/vectordb.py:9-28.)

def _pos_deltas(pos_flat: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Absolute per-entry-ascending positions -> delta stream (first of
    each entry absolute).  Fails loudly on a non-ascending entry."""
    p = np.asarray(pos_flat, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if p.size == 0:
        return p.astype(np.uint64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    starts = starts[counts > 0]
    d = p.copy()
    d[1:] -= p[:-1]
    d[starts] = p[starts]
    if (d < 0).any():
        raise ValueError("positions not ascending within a posting")
    return d.astype(np.uint64)


def encode_positions_sized(pos_flat: np.ndarray,
                           counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bulk encode -> (uint8 byte array, bytes-per-value array).

    One vectorized varbyte pass over a whole part; callers split the
    byte stream per term with ``np.add.reduceat`` over the size array."""
    return _varbyte_encode_with_sizes(_pos_deltas(pos_flat, counts))


def encode_positions(pos_flat: np.ndarray, counts: np.ndarray) -> bytes:
    out, _ = encode_positions_sized(pos_flat, counts)
    return out.tobytes()


def decode_positions(buf: bytes | memoryview,
                     tfs: np.ndarray) -> np.ndarray:
    """One term's positions blob slice -> flat ABSOLUTE positions
    (int64), entry boundaries given by ``tfs`` (the posting decode)."""
    tfs = np.asarray(tfs, dtype=np.int64)
    cs = np.cumsum(varbyte_decode(buf, count=int(tfs.sum())).astype(np.int64))
    # within-entry cumsum: subtract the running total just before each
    # entry's first value (broadcast per entry, no Python loop)
    before = np.concatenate(([0], cs))[np.cumsum(tfs) - tfs]
    return cs - np.repeat(before, tfs)


def gather_slices(flat: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                  order: np.ndarray) -> np.ndarray:
    """Reorder variable-length slices of ``flat`` (slice i = ``flat[
    starts[i]:starts[i]+lens[i]]``) into ``order`` — one vectorized
    gather, no per-slice Python loop.  Used to carry per-posting
    position runs through the build's (term, doc) lexsort and the
    merge's docID argsort."""
    lo, ln = starts[order], lens[order]
    total = int(ln.sum())
    if total == 0:
        return flat[:0]
    idx = (np.repeat(lo, ln) + np.arange(total, dtype=np.int64)
           - np.repeat(np.concatenate(([0], np.cumsum(ln)[:-1])), ln))
    return flat[idx]

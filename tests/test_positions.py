"""Positional postings (EngineConfig.store_positions) + exact-phrase
search: codec round-trip, build-decode parity vs the tokenizer,
additivity (postings bytes unchanged vs a plain build), phrase search
vs a brute-force oracle, deletes, merge/compact carry."""

import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from engine.build import build_index
from engine.config import EngineConfig
from engine import index_io
from engine.merge import merge_indexes, compact_index
from engine.postings import (encode_positions, decode_positions,
                             decode_postings)
from engine.query import InvertedIndex
from engine.tokenize import count_terms, tokenize

CFG = EngineConfig(num_parts=4, docmeta_parts=2, store_positions=True)
CFG_PLAIN = EngineConfig(num_parts=4, docmeta_parts=2)

DOCS = [
    "the cat sat on the mat",
    "cat cat dog mat",
    "a b a b a",
    "mat the cat",
    "hash join table scan hash join",
    "join hash table",
    "the the the",
    "日本語 の cat 日本 語",            # CJK unigram positions
    "x",                                  # single-token doc
    "one two three four five six seven eight nine ten one two",
]
IDS = list(range(101, 101 + len(DOCS)))


def _write_docs(tmp_path_factory):
    d = tmp_path_factory.mktemp("posdocs")
    pq.write_table(
        pa.table({"doc_id": pa.array(IDS, pa.int64()), "text": DOCS}),
        str(d / "docs.parquet"))
    return str(d / "docs.parquet")


@pytest.fixture(scope="module")
def pos_index(ray_session, tmp_path_factory):
    src = _write_docs(tmp_path_factory)
    out = tmp_path_factory.mktemp("posidx")
    build_index(src, str(out / "pos"), CFG, mode="docs")
    build_index(src, str(out / "plain"), CFG_PLAIN, mode="docs")
    return str(out / "pos"), str(out / "plain"), src


def _brute_phrase(phrase, k=10, alive=None):
    toks = tokenize(phrase)
    if not toks:
        return []
    docs = [(i, t) for i, t in zip(IDS, DOCS)
            if alive is None or i in alive]
    hits = []
    for did, text in docs:
        dt = tokenize(text)
        if any(dt[s:s + len(toks)] == toks
               for s in range(len(dt) - len(toks) + 1)):
            hits.append(did)
    if not hits:
        return []
    # BM25 with the STORED stats (all docs, stale under deletion)
    n = len(DOCS)
    dls = {i: len(tokenize(t)) for i, t in zip(IDS, DOCS)}
    avgdl = sum(dls.values()) / n
    out = []
    for did in hits:
        dt = tokenize(DOCS[IDS.index(did)])
        sc = 0.0
        for t in dict.fromkeys(toks):
            tf = dt.count(t)
            df = sum(1 for x in DOCS if t in tokenize(x))
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            sc += (idf * tf * 2.2
                   / (tf + 1.2 * (1 - 0.75 + 0.75 * dls[did] / avgdl)))
        out.append((did, sc))
    out.sort(key=lambda x: (-x[1], x[0]))
    return out[:k]


def test_position_codec_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n_entries = int(rng.integers(0, 20))
        counts = rng.integers(1, 9, size=n_entries)
        pos = (np.concatenate([np.sort(rng.choice(5000, size=c,
                                                  replace=False))
                               for c in counts])
               if n_entries else np.array([], np.int64))
        assert np.array_equal(
            decode_positions(encode_positions(pos, counts), counts), pos)


def test_codec_rejects_nonascending():
    with pytest.raises(ValueError):
        encode_positions(np.array([5, 3]), np.array([2]))


def test_count_terms_positions_parity():
    df0 = count_terms(DOCS, np.array(IDS))
    df1, pos = count_terms(DOCS, np.array(IDS), positions=True)
    assert df0.equals(df1)          # enabling positions never reorders
    off = 0
    for _, row in df1.iterrows():
        tf = int(row["tf"])
        toks = tokenize(DOCS[IDS.index(row["doc_id"])])
        assert list(pos[off:off + tf]) == [
            i for i, t in enumerate(toks) if t == row["term"]]
        off += tf
    assert off == pos.size


def test_build_positions_match_tokenizer(pos_index):
    pos_dir, plain_dir, _ = pos_index
    cfg = CFG
    checked = 0
    for part in range(cfg.num_parts):
        d = index_io.part_dir(pos_dir, "postings", part)
        if not os.path.isdir(d):
            continue
        terms, postings, skips = index_io.read_postings_part(pos_dir, part)
        posblob = index_io.read_positions_blob(pos_dir, part)
        # additivity: postings/skips bytes identical to the plain build
        for name in ("postings.bin", "skips.bin"):
            with open(os.path.join(d, name), "rb") as f, \
                 open(os.path.join(index_io.part_dir(
                     plain_dir, "postings", part), name), "rb") as g:
                assert f.read() == g.read()
        for i in range(terms.num_rows):
            row = {c: terms.column(c)[i].as_py()
                   for c in terms.column_names}
            ids, tfs = decode_postings(
                postings[row["post_off"]:row["post_off"] + row["post_len"]],
                skips[row["skip_off"]:row["skip_off"] + row["skip_len"]],
                row["df"], cfg.block_size)
            occ = decode_positions(
                posblob[row["pos_off"]:row["pos_off"] + row["pos_len"]],
                tfs)
            off = 0
            for did, tf in zip(ids.astype(np.int64), tfs.astype(int)):
                toks = tokenize(DOCS[IDS.index(did)])
                assert list(occ[off:off + tf]) == [
                    j for j, tk in enumerate(toks) if tk == row["term"]]
                off += tf
                checked += 1
    assert checked > 10


PHRASES = ["the cat", "cat sat", "cat cat", "a b a", "b a b",
           "mat the cat", "hash join", "hash join table", "join table",
           "the the", "the the the", "one two", "two one",
           "日本 語", "語 の", "dog cat", "cat", "zzz", "zzz cat", ""]


def test_phrase_search_vs_brute(pos_index):
    idx = InvertedIndex(pos_index[0])
    for q in PHRASES:
        got = [(d, round(s, 9)) for d, s in idx.search_phrase(q)]
        exp = [(d, round(s, 9)) for d, s in _brute_phrase(q)]
        assert got == exp, q
    assert idx.search_phrase("the cat", k=0) == []
    assert idx.search_phrase("the cat", k=1) == \
        [(d, s) for d, s in idx.search_phrase("the cat")][:1]


def test_single_term_phrase_equals_and_search(pos_index):
    idx = InvertedIndex(pos_index[0])
    assert idx.search_phrase("cat") == idx.search("cat", require_all=True)


def test_phrase_with_deletes(pos_index):
    deleted = [IDS[0], IDS[4]]
    idx = InvertedIndex(pos_index[0], deleted=np.array(deleted))
    alive = set(IDS) - set(deleted)
    for q in ("the cat", "hash join", "hash join table", "cat"):
        got = [(d, round(s, 9)) for d, s in idx.search_phrase(q)]
        exp = [(d, round(s, 9)) for d, s in _brute_phrase(q, alive=alive)]
        assert got == exp, q


def test_cold_phrase_decodes_each_term_once(pos_index, monkeypatch):
    """With both decoded-term caches empty, a phrase query probes and
    decodes each distinct term's postings once (the positions decode
    also scores the term's run), and a repeat of it probes and decodes
    nothing; the answers are a warm loader's."""
    from engine import query
    warm = InvertedIndex(pos_index[0])
    want = {q: warm.search_phrase(q) for q in PHRASES}
    present = {q: all(warm.df_of(t) for t in tokenize(q)) for q in PHRASES}
    calls = []

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*a, **kw):
            calls.append(name)
            return real(*a, **kw)
        monkeypatch.setattr(owner, name, counted)
    count(query, "decode_postings")
    count(query, "decode_blocks")
    count(InvertedIndex, "_lookup")
    for q in PHRASES:
        cold = InvertedIndex(pos_index[0])
        calls.clear()
        assert cold.search_phrase(q) == want[q], q
        if present[q]:
            n = len(set(tokenize(q)))
            assert sorted(calls) == ["_lookup"] * n + ["decode_postings"] * n
            calls.clear()
            assert cold.search_phrase(q) == want[q], q
            assert calls == [], q


def test_phrase_requires_positional_index(pos_index):
    idx = InvertedIndex(pos_index[1])
    with pytest.raises(ValueError, match="store_positions"):
        idx.search_phrase("the cat")


def test_positional_merge_and_compact(pos_index, ray_session,
                                      tmp_path_factory):
    pos_dir, _, src = pos_index
    out = tmp_path_factory.mktemp("posmerge")
    # split the corpus in two, build positional halves, merge
    tab = pq.read_table(src)
    half = tab.column("doc_id").to_numpy() % 2 == 0
    pq.write_table(tab.filter(pa.array(half)), str(out / "a.parquet"))
    pq.write_table(tab.filter(pa.array(~half)), str(out / "b.parquet"))
    build_index(str(out / "a.parquet"), str(out / "ia"), CFG, mode="docs")
    build_index(str(out / "b.parquet"), str(out / "ib"), CFG, mode="docs")
    m_merged = merge_indexes([str(out / "ia"), str(out / "ib")],
                             str(out / "merged"))
    m_full = index_io.load_manifest(pos_dir)
    assert {k: v["checksum"] for k, v in m_merged["parts"].items()} == \
           {k: v["checksum"] for k, v in m_full["parts"].items()}
    qm = InvertedIndex(str(out / "merged"))
    qf = InvertedIndex(pos_dir)
    for q in PHRASES:
        assert qm.search_phrase(q) == qf.search_phrase(q)

    # compact under deletes == fresh positional build over survivors
    drop = [i for i in IDS if i % 3 == 0]
    index_io.delete_docs(str(out / "merged"), drop)
    compact_index(str(out / "merged"), str(out / "compacted"))
    keep = ~np.isin(tab.column("doc_id").to_numpy(), drop)
    pq.write_table(tab.filter(pa.array(keep)), str(out / "s.parquet"))
    m_surv = build_index(str(out / "s.parquet"), str(out / "isurv"),
                         CFG, mode="docs")
    m_comp = index_io.load_manifest(str(out / "compacted"))
    assert {k: v["checksum"] for k, v in m_comp["parts"].items()} == \
           {k: v["checksum"] for k, v in m_surv["parts"].items()}
    qc = InvertedIndex(str(out / "compacted"))
    qs = InvertedIndex(str(out / "isurv"))
    for q in PHRASES:
        assert qc.search_phrase(q) == qs.search_phrase(q)


def test_positional_webtext_build(ray_session, e2e_webtext,
                                  tmp_path_factory):
    """Full webtext mode (dedup + extract + join-produced empty blocks)
    with positions on: postings/skips bytes must still equal the plain
    build's, and a phrase present in an extracted page must be found."""
    out = tmp_path_factory.mktemp("poswt")
    cfg_pos = EngineConfig(num_parts=8, docmeta_parts=3,
                           store_positions=True, dedup_strategy="join")
    cfg_plain = EngineConfig(num_parts=8, docmeta_parts=3,
                             dedup_strategy="join")
    m_pos = build_index(e2e_webtext, str(out / "pos"), cfg_pos)
    m_plain = build_index(e2e_webtext, str(out / "plain"), cfg_plain)
    assert m_pos["stats"] == m_plain["stats"]
    for part in range(cfg_pos.num_parts):
        d = index_io.part_dir(str(out / "pos"), "postings", part)
        if not os.path.isdir(d):
            continue
        for name in ("postings.bin", "skips.bin"):
            with open(os.path.join(d, name), "rb") as f, \
                 open(os.path.join(index_io.part_dir(
                     str(out / "plain"), "postings", part),
                     name), "rb") as g:
                assert f.read() == g.read()
    idx = InvertedIndex(str(out / "pos"))
    # take a real extracted document and phrase-query its first bigram
    import pyarrow.parquet as _pq
    from engine.extract import extract_batch
    tab = pa.concat_tables(
        [_pq.read_table(os.path.join(e2e_webtext, f))
         for f in sorted(os.listdir(e2e_webtext)) if f.endswith(".parquet")])
    ext = extract_batch({c: tab.column(c).to_numpy(zero_copy_only=False)
                         for c in ("url", "warc_ts", "html")})
    texts = ext["text"].to_pylist() if hasattr(ext["text"], "to_pylist") \
        else list(ext["text"])
    toks = next(t for t in (tokenize(x) for x in texts) if len(t) >= 2)
    hits = idx.search_phrase(" ".join(toks[:2]), k=10)
    assert hits, "phrase from a real page must match at least its own doc"


def _brute_slop(phrase, slop, k=10):
    """Independent proximity oracle: enumerate ALL monotone position
    assignments (tiny docs) — exists one with total gap <= slop."""
    from itertools import product
    toks = tokenize(phrase)
    if not toks:
        return []
    hits = []
    for did, text in zip(IDS, DOCS):
        dt = tokenize(text)
        plists = [[i for i, t in enumerate(dt) if t == q] for q in toks]
        if any(not p for p in plists):
            continue
        found = any(
            all(b > a for a, b in zip(combo, combo[1:]))
            and combo[-1] - combo[0] - (len(toks) - 1) <= slop
            for combo in product(*plists))
        if found:
            hits.append(did)
    if not hits:
        return []
    out = [(d, s) for d, s in _brute_phrase(" ".join(toks), k=len(DOCS))
           if d in hits]
    # _brute_phrase filters on exact adjacency; rescore from hits instead
    import math
    n = len(DOCS)
    dls = {i: len(tokenize(t)) for i, t in zip(IDS, DOCS)}
    avgdl = sum(dls.values()) / n
    out = []
    for did in hits:
        dt = tokenize(DOCS[IDS.index(did)])
        sc = 0.0
        for t in dict.fromkeys(toks):
            tf = dt.count(t)
            df = sum(1 for x in DOCS if t in tokenize(x))
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            sc += (idf * tf * 2.2
                   / (tf + 1.2 * (1 - 0.75 + 0.75 * dls[did] / avgdl)))
        out.append((did, sc))
    out.sort(key=lambda x: (-x[1], x[0]))
    return out[:k]


def test_proximity_vs_brute(pos_index):
    idx = InvertedIndex(pos_index[0])
    cases = [(q, s) for q in PHRASES if q for s in (0, 1, 2, 5)]
    cases += [("hash table", 1), ("hash scan", 1), ("hash scan", 2),
              ("the mat", 1), ("the mat", 3), ("join scan join", 2),
              ("one three", 1), ("one ten", 7), ("one ten", 8),
              ("cat mat", 0), ("cat mat", 9)]
    for q, s in cases:
        got = [(d, round(sc, 9)) for d, sc in idx.search_phrase(q, slop=s)]
        exp = [(d, round(sc, 9)) for d, sc in _brute_slop(q, s)]
        assert got == exp, (q, s, got, exp)


def test_slop_zero_equals_exact(pos_index):
    idx = InvertedIndex(pos_index[0])
    for q in PHRASES:
        assert idx.search_phrase(q, slop=0) == idx.search_phrase(q)


def test_negative_slop_rejected(pos_index):
    """No occurrence has a negative total gap: slop < 0 is a caller
    error, not an empty answer."""
    idx = InvertedIndex(pos_index[0])
    for k in (10, 0):
        with pytest.raises(ValueError, match="slop"):
            idx.search_phrase("of the", k=k, slop=-1)


def test_doc_sharded_phrase_bit_identical(pos_index, ray_session,
                                          tmp_path_factory):
    """Doc-sharded phrase serving == single positional index, bitwise
    (per-doc predicate + global-stats exchange)."""
    from engine.serve import DocShardedQueryService
    pos_dir, _, src = pos_index
    out = tmp_path_factory.mktemp("posshards")
    tab = pq.read_table(src)
    half = tab.column("doc_id").to_numpy() % 2 == 0
    pq.write_table(tab.filter(pa.array(half)), str(out / "a.parquet"))
    pq.write_table(tab.filter(pa.array(~half)), str(out / "b.parquet"))
    build_index(str(out / "a.parquet"), str(out / "sa"), CFG, mode="docs")
    build_index(str(out / "b.parquet"), str(out / "sb"), CFG, mode="docs")
    svc = DocShardedQueryService([str(out / "sa"), str(out / "sb")])
    try:
        local = InvertedIndex(pos_dir)
        for q in PHRASES:
            for slop in (0, 2):
                assert svc.search_phrase(q, slop=slop) == \
                    local.search_phrase(q, slop=slop), (q, slop)
        assert svc.search_phrase("the cat", k=0) == []
    finally:
        svc.shutdown()

"""Dedup family: exact, MinHash-LSH, SimHash, n-gram Jaccard — verified
against brute-force set math on corpora with planted duplicates."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from engine.dedup import (exact_dedup, minhash_candidates, verify_jaccard,
                          simhash_batch, ngram_jaccard_adjacent,
                          shingle_hashes)
from engine.tokenize import tokenize


def _corpus():
    """20 docs: 0/1 identical; 2/3 near-dup (one word changed);
    4/5 near-dup; rest random-ish distinct."""
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(200)]
    base = " ".join(rng.choice(vocab, 60))
    near = base.rsplit(" ", 2)[0] + " zz1 zz2"
    base2 = " ".join(rng.choice(vocab, 80))
    near2 = "zz3 " + base2.split(" ", 1)[1]
    docs = [base, base, base + " tail", near, base2, near2]
    docs += [" ".join(rng.choice(vocab, 50)) for _ in range(14)]
    return pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64),
                         "text": docs})


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def _ds(df):
    return ray.data.from_pandas(df)


def test_exact_dedup(corpus):
    out = exact_dedup(_ds(corpus)).to_pandas().sort_values("doc_id")
    # docs 0 and 1 are byte-identical -> one survivor (id 0) with n_dups 2
    assert len(out) == len(corpus) - 1
    row = out[out["doc_id"] == 0]
    assert row["n_dups"].iloc[0] == 2
    assert 1 not in set(out["doc_id"])


def test_minhash_finds_planted_pairs(corpus):
    cand = minhash_candidates(_ds(corpus))
    pairs = set(map(tuple, cand[["id_a", "id_b"]].to_numpy()))
    assert (0, 1) in pairs          # identical
    assert (2, 3) in pairs or (0, 3) in pairs or (1, 3) in pairs  # near
    assert (4, 5) in pairs


def test_verify_jaccard(corpus):
    cand = minhash_candidates(_ds(corpus))
    ver = verify_jaccard(_ds(corpus), cand, threshold=0.5)
    got = set(map(tuple, ver[["id_a", "id_b"]].to_numpy()))
    assert (0, 1) in got
    j = ver[(ver["id_a"] == 0) & (ver["id_b"] == 1)]["jaccard"].iloc[0]
    assert j == 1.0
    # brute-force check of every reported value
    sets = {r.doc_id: set(shingle_hashes(tokenize(r.text)).tolist())
            for r in corpus.itertuples()}
    for r in ver.itertuples():
        sa, sb = sets[r.id_a], sets[r.id_b]
        assert r.jaccard == pytest.approx(len(sa & sb) / len(sa | sb), abs=1e-6)


def test_simhash_identical_and_near(corpus):
    import pyarrow as pa
    out = simhash_batch(pa.Table.from_pandas(corpus)).to_pandas()
    sh = dict(zip(out["doc_id"], out["simhash"]))
    assert sh[0] == sh[1]  # identical docs -> identical simhash
    ham = bin(sh[2] ^ sh[0]).count("1")
    assert ham <= 12       # near-dup -> hamming-close
    far = bin(sh[0] ^ sh[10]).count("1")
    assert far > ham


def test_ngram_jaccard_adjacent(corpus):
    out = (ngram_jaccard_adjacent(_ds(corpus)).to_pandas()
           .sort_values("id_a").reset_index(drop=True))
    assert len(out) == len(corpus) - 1
    j01 = out[(out["id_a"] == 0)]["jaccard_ppm"].iloc[0]
    assert j01 == 1_000_000      # identical adjacent docs
    # spot-check one value against brute force
    t4 = set(shingle_hashes(tokenize(corpus["text"][4])).tolist())
    t5 = set(shingle_hashes(tokenize(corpus["text"][5])).tolist())
    want = int(round(len(t4 & t5) / len(t4 | t5) * 1e6))
    got = out[(out["id_a"] == 4)]["jaccard_ppm"].iloc[0]
    assert abs(got - want) <= 1


def test_ngram_jaccard_bucket_boundary(corpus):
    """Pairs that straddle a bucket boundary survive via the overlap copy."""
    a = (ngram_jaccard_adjacent(_ds(corpus)).to_pandas()
         .sort_values("id_a").reset_index(drop=True))
    b = (ngram_jaccard_adjacent(_ds(corpus), bucket_width=4).to_pandas()
         .sort_values("id_a").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_determinism_across_parallelism(corpus):
    a = minhash_candidates(_ds(corpus))
    b = minhash_candidates(ray.data.from_pandas(corpus).repartition(7))
    pd.testing.assert_frame_equal(a, b)


def test_neardup_dedup_end_to_end(corpus):
    from engine.dedup import neardup_dedup
    out = neardup_dedup(_ds(corpus), threshold=0.5)
    m = dict(zip(out["doc_id"], out["canonical_id"]))
    # identical docs 0/1 cluster to canonical 0; near-dup 2 likely joins
    assert m.get(0) == 0 and m.get(1) == 0
    # brute-force invariant: every mapped doc's canonical is the min of
    # its connected component under verified-jaccard edges
    assert all(c <= d for d, c in m.items())
    assert set(m.values()) <= set(m.keys())


def test_neardup_dedup_parallelism_invariant(corpus):
    from engine.dedup import neardup_dedup
    a = neardup_dedup(_ds(corpus), threshold=0.5)
    b = neardup_dedup(ray.data.from_pandas(corpus).repartition(7),
                      threshold=0.5)
    pd.testing.assert_frame_equal(a, b)
    c = neardup_dedup(_ds(corpus), threshold=0.5, hash_fn="md5",
                      band_mode="md5str")
    # md5 oracle mode finds the same identical-doc cluster
    mc = dict(zip(c["doc_id"], c["canonical_id"]))
    assert mc.get(0) == 0 and mc.get(1) == 0


def test_simhash_candidates(corpus):
    from engine.dedup import simhash_candidates, hamming64

    out = simhash_candidates(_ds(corpus), max_hamming=3)
    pairs = set(map(tuple, out[["id_a", "id_b"]].to_numpy()))
    # identical docs 0/1 have hamming 0 -> always found
    assert (0, 1) in pairs
    assert (out["hamming"] <= 3).all()
    assert (out["id_a"] < out["id_b"]).all()
    # brute-force recall check: banding with 4 bands is pigeonhole-
    # complete for hamming <= 3, so EVERY such pair must be present
    import pyarrow as pa
    sh = simhash_batch(pa.table(
        {"doc_id": corpus["doc_id"], "text": corpus["text"]})).to_pandas()
    codes = sh["simhash"].to_numpy().astype(np.uint64)
    ids = sh["doc_id"].to_numpy()
    iu = np.triu_indices(len(ids), 1)
    hm = hamming64(codes[iu[0]] ^ codes[iu[1]])
    want = {(int(ids[a]), int(ids[b]))
            for a, b, h in zip(iu[0], iu[1], hm) if h <= 3}
    assert pairs == want


def test_simhash_candidates_parallelism_and_hot_band_cap(corpus):
    from engine.dedup import simhash_candidates
    a = simhash_candidates(_ds(corpus))
    b = simhash_candidates(ray.data.from_pandas(corpus).repartition(7))
    pd.testing.assert_frame_equal(a, b)
    # a tiny max_group drops degenerate hot bands (never errors)
    capped = simhash_candidates(_ds(corpus), max_group=2)
    assert len(capped) <= len(a)


# ---------------------------------------------------------------------------
# distributed connected components (alternating-star)
# ---------------------------------------------------------------------------

def _uf_reference(pairs: pd.DataFrame) -> pd.DataFrame:
    """Independent union-find oracle (min-id canonical)."""
    parent: dict[int, int] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["id_a"].astype(int), pairs["id_b"].astype(int)):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    rows = sorted((x, find(x)) for x in parent)
    return pd.DataFrame({"doc_id": pd.Series([r[0] for r in rows],
                                             dtype=np.int64),
                         "canonical_id": pd.Series([r[1] for r in rows],
                                                   dtype=np.int64)})


def _pairs(edges) -> pd.DataFrame:
    a = np.minimum.reduce([np.asarray([e[0] for e in edges]),
                           np.asarray([e[1] for e in edges])])
    b = np.maximum.reduce([np.asarray([e[0] for e in edges]),
                           np.asarray([e[1] for e in edges])])
    return pd.DataFrame({"id_a": a.astype(np.int64),
                         "id_b": b.astype(np.int64)})


@pytest.mark.parametrize("name,edges", [
    ("single", [(7, 3)]),
    # a 200-node path: diameter 199, the worst case for plain min-label
    # propagation; alternating-star must still converge in O(log n)
    ("chain", [(i, i + 1) for i in range(200)]),
    ("star", [(0, i) for i in range(1, 40)]),
    ("two_cliques", [(i, j) for i in range(10) for j in range(i + 1, 10)]
     + [(i, j) for i in range(100, 112) for j in range(i + 1, 112)]),
])
def test_connected_components_known_graphs(name, edges):
    from engine.dedup import connected_components
    got = connected_components(_pairs(edges)).reset_index(drop=True)
    want = _uf_reference(_pairs(edges))
    pd.testing.assert_frame_equal(got, want)


def test_connected_components_random_graph():
    from engine.dedup import connected_components
    rng = np.random.default_rng(123)
    # sparse random graph over ids drawn from a large sparse space
    ids = rng.choice(10 ** 12, size=300, replace=False).astype(np.int64)
    e = []
    for _ in range(400):
        a, b = rng.choice(ids, 2, replace=False)
        e.append((int(a), int(b)))
    got = connected_components(_pairs(e)).reset_index(drop=True)
    want = _uf_reference(_pairs(e))
    pd.testing.assert_frame_equal(got, want)


def test_connected_components_empty():
    from engine.dedup import connected_components
    out = connected_components(pd.DataFrame({
        "id_a": pd.Series(dtype=np.int64),
        "id_b": pd.Series(dtype=np.int64)}))
    assert len(out) == 0
    assert list(out.columns) == ["doc_id", "canonical_id"]


def test_neardup_dedup_distributed_equals_driver(corpus):
    from engine.dedup import neardup_dedup
    a = neardup_dedup(_ds(corpus), cc="driver")
    b = neardup_dedup(_ds(corpus), cc="distributed").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


# ---------------------------------------------------------------------------
# round-5 scale paths: grouped verify, star edges, minhash hot-band cap
# ---------------------------------------------------------------------------

def _driver_jaccard(corpus, pairs, threshold, shingle_k=3, hash_fn="sip"):
    """Oracle: every candidate doc's unique shingle set in one driver
    dict, |A∩B| / |A∪B| per pair (a doc absent from the corpus has the
    empty set), round(j, 6), sorted by (id_a, id_b)."""
    pa_ids = pairs["id_a"].to_numpy().astype(np.int64)
    pb_ids = pairs["id_b"].to_numpy().astype(np.int64)
    wanted = set(pa_ids.tolist()) | set(pb_ids.tolist())
    sets = {int(d): set(shingle_hashes(tokenize(t), shingle_k, hash_fn)
                        .astype(np.int64).tolist())
            for d, t in zip(corpus["doc_id"], corpus["text"])
            if int(d) in wanted}
    out = []
    for a, b in zip(pa_ids, pb_ids):
        sa, sb = sets.get(int(a), set()), sets.get(int(b), set())
        union = len(sa | sb)
        j = (len(sa & sb) / union) if union else 0.0
        if j >= threshold:
            out.append((int(a), int(b), round(j, 6)))
    res = pd.DataFrame(out, columns=["id_a", "id_b", "jaccard"])
    return (res.sort_values(["id_a", "id_b"]).reset_index(drop=True)
            if len(res) else res)


def test_verify_jaccard_grouped_equals_broadcast(corpus):
    """Distributed (co-partitioned) verify is bit-identical to the
    driver-dict oracle, with candidates actually routed through >1
    bucket."""
    from engine.dedup import _splitmix64
    cand = minhash_candidates(_ds(corpus))
    assert len(cand) >= 3
    bkt = (_splitmix64(cand["id_a"].to_numpy().astype(np.uint64))
           % np.uint64(64))
    assert np.unique(bkt).size > 1      # multi-bucket routing exercised
    a = verify_jaccard(_ds(corpus), cand, threshold=0.3)
    b = _driver_jaccard(corpus, cand, threshold=0.3)
    pd.testing.assert_frame_equal(a, b)
    # multi-block corpus scan: per-doc bucket fan-out is batch-independent
    c = verify_jaccard(ray.data.from_pandas(corpus).repartition(7), cand,
                       threshold=0.3)
    pd.testing.assert_frame_equal(a, c)


def test_minhash_star_hot_band_linear():
    """A 10k-identical-doc hot band emits O(g) star edges (all-pairs
    would be ~5e7) and still collapses to one component rooted at the
    min id."""
    from engine.dedup import neardup_dedup
    g = 10_000
    df = pd.DataFrame({
        "doc_id": np.arange(g, dtype=np.int64),
        "text": ["alpha beta gamma delta epsilon zeta"] * g})
    cand = minhash_candidates(ray.data.from_pandas(df), edge_mode="star")
    assert len(cand) == g - 1
    assert (cand["id_a"] == 0).all()
    out = neardup_dedup(ray.data.from_pandas(df), threshold=0.8,
                        edge_mode="star")
    assert len(out) == g
    assert (out["canonical_id"] == 0).all()


def test_neardup_star_equals_pairs_on_dup_clusters():
    """On exact-duplicate clusters (the degenerate case star mode is
    for), star components are bit-identical to all-pairs components."""
    from engine.dedup import neardup_dedup
    rng = np.random.default_rng(9)
    vocab = [f"w{i}" for i in range(300)]
    texts = []
    for size in (4, 3, 2):                       # planted dup clusters
        t = " ".join(rng.choice(vocab, 40))
        texts += [t] * size
    texts += [" ".join(rng.choice(vocab, 35)) for _ in range(10)]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    a = neardup_dedup(_ds(df), threshold=0.8, edge_mode="pairs")
    b = neardup_dedup(_ds(df), threshold=0.8, edge_mode="star")
    pd.testing.assert_frame_equal(a, b)


def test_minhash_max_group_cap(corpus):
    """max_group=1 drops every multi-doc run; a huge cap changes nothing."""
    full = minhash_candidates(_ds(corpus))
    capped = minhash_candidates(_ds(corpus), max_group=1)
    assert len(capped) == 0
    same = minhash_candidates(_ds(corpus), max_group=10_000)
    pd.testing.assert_frame_equal(full, same)

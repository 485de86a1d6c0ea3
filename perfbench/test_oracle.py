"""Tests of the benchmark's oracle and checker.

    python3 -m pytest perfbench/test_oracle.py -q
"""

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, HERE)

from oracle import Corpus, Ranking, check_ranking  # noqa: E402

# N = 3, avgdl = 10/3, k1 = 1.2, b = 0.75; "a" and "d" both have df 2,
# so both have idf ln(1 + 1.5/2.5) = ln(1.6).  Length norms:
# dl 3 -> 1.2 * (0.25 + 0.75 * 0.9) = 1.11; dl 4 -> 1.2 * 1.15 = 1.38.
URLS = ["https://x/0", "https://x/1", "https://x/2"]
TEXTS = ["a b c", "a a d", "b d d d"]
IDF = math.log(1.6)


def corpus():
    return Corpus(URLS, TEXTS, ["en", "de", "en"])


def by_url(c: Corpus, ranking: Ranking) -> list[tuple[str, float]]:
    return [(c.url_of(d), s) for d, s in ranking.top]


def test_bm25_matches_hand_computation():
    c = corpus()
    got = by_url(c, c.bm25("a", 10))
    assert [u for u, _ in got] == [URLS[1], URLS[0]]
    assert math.isclose(got[0][1], IDF * 2 * 2.2 / (2 + 1.11), rel_tol=1e-12)
    assert math.isclose(got[1][1], IDF * 2.2 / (1 + 1.11), rel_tol=1e-12)

    got = dict(by_url(c, c.bm25("a d", 10)))
    assert math.isclose(got[URLS[1]], IDF * 4.4 / 3.11 + IDF * 2.2 / 2.11,
                        rel_tol=1e-12)
    assert math.isclose(got[URLS[2]], IDF * 3 * 2.2 / (3 + 1.38),
                        rel_tol=1e-12)
    assert math.isclose(got[URLS[0]], IDF * 2.2 / 2.11, rel_tol=1e-12)


def test_filters_phrases_weights_and_counts():
    c = corpus()
    assert [u for u, _ in by_url(c, c.bm25("a d", 10, lang="en"))] == \
        [URLS[2], URLS[0]]
    assert [u for u, _ in by_url(c, c.phrase("a b", 10))] == [URLS[0]]
    assert c.phrase("b a", 10).top == []
    w = dict(by_url(c, c.weighted({"a": 2.0, "d": 0.5}, 10)))
    assert math.isclose(w[URLS[0]], 2.0 * IDF * 2.2 / 2.11, rel_tol=1e-12)
    assert c.match_count("a d") == 3
    assert c.facet("c d") == {"en": 2, "de": 1}
    assert (c.total_tokens, c.n_postings, c.n_terms) == (10, 7, 4)


WANT = Ranking({1: 3.0, 2: 2.0, 3: 1.0, 4: 0.5}, k=3)


def test_checker_accepts_the_oracle_answer():
    assert check_ranking([(1, 3.0), (2, 2.0), (3, 1.0)], WANT) is None


def test_checker_rejects_a_dropped_hit():
    assert check_ranking([(1, 3.0), (3, 1.0)], WANT)
    assert check_ranking([(1, 3.0), (3, 1.0), (4, 0.5)], WANT)


def test_checker_rejects_a_swapped_pair():
    assert check_ranking([(2, 2.0), (1, 3.0), (3, 1.0)], WANT)


def test_checker_rejects_a_scaled_score():
    assert check_ranking([(1, 3.0 * (1 + 1e-6)), (2, 2.0), (3, 1.0)], WANT)


def test_checker_accepts_near_tie_reorders():
    tie = Ranking({1: 1.0, 2: 1.0 * (1 + 1e-12), 3: 0.5}, k=2)
    assert check_ranking([(1, 1.0), (2, 1.0 * (1 + 1e-12))], tie) is None
    # a near tie at the cut may put either doc in the last slot
    cut = Ranking({1: 2.0, 2: 1.0, 3: 1.0 * (1 - 1e-13)}, k=2)
    assert check_ranking([(1, 2.0), (3, 1.0 * (1 - 1e-13))], cut) is None

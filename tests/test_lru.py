"""engine.lru.LRUCache — the eviction rules every engine cache relies on
(decoded terms, positions, doc-values masks, gate sets, global dfs,
sidecar handles): least recently used goes first, a get hit refreshes,
eviction runs before the insert, an oversize entry is returned but not
cached, a put on a held key replaces it, nbytes never exceeds budget."""

import sys
import threading

from engine.lru import LRUCache


def _put_all(c: LRUCache, items):
    for key, nbytes in items:
        assert c.put(key, key.upper(), nbytes) == key.upper()
        assert c.nbytes <= c.budget


def test_least_recently_used_goes_first():
    c = LRUCache(3)
    _put_all(c, [("a", 1), ("b", 1), ("c", 1), ("d", 1)])
    assert list(c) == ["b", "c", "d"]
    assert "a" not in c and c.get("a", "miss") == "miss"
    assert len(c) == 3 and c.nbytes == 3


def test_get_hit_refreshes_contains_does_not():
    c = LRUCache(3)
    _put_all(c, [("a", 1), ("b", 1), ("c", 1)])
    assert c.get("a") == "A"            # a is now the newest
    assert "b" in c                     # membership is not a use
    _put_all(c, [("d", 1)])
    assert list(c) == ["c", "a", "d"]


def test_eviction_before_insert_frees_just_enough_bytes():
    c = LRUCache(10)
    _put_all(c, [("a", 4), ("b", 4), ("c", 2)])
    _put_all(c, [("d", 5)])             # 10 + 5 > 10: a, then b go
    assert list(c) == ["c", "d"] and c.nbytes == 7


def test_oversize_entry_returned_not_cached():
    c = LRUCache(10)
    _put_all(c, [("a", 4), ("b", 4)])
    assert c.put("big", "BIG", 11) == "BIG"
    assert "big" not in c
    assert list(c) == ["a", "b"] and c.nbytes == 8   # nothing evicted
    assert c.put("a", "A2", 11) == "A2"              # held key stays
    assert c.get("a") == "A"


def test_put_on_held_key_replaces():
    c = LRUCache(10)
    _put_all(c, [("a", 4), ("b", 4)])
    c.put("a", "A2", 6)                 # replace: 4 + 6 fits, no eviction
    assert list(c) == ["b", "a"] and c.nbytes == 10
    assert c.get("a") == "A2"


def test_none_value_pop_clear():
    c = LRUCache(5)
    c.put("absent", None, 1)            # None is a cacheable value
    assert "absent" in c and c.get("absent", "miss") is None
    c.put("x", "X", 2)
    assert c.pop("x") == "X" and c.nbytes == 1
    assert c.pop("x", "gone") == "gone"
    c.clear()
    assert len(c) == 0 and c.nbytes == 0


def test_budget_shrink_applies_on_next_put():
    c = LRUCache(100)
    _put_all(c, [(k, 10) for k in "abcde"])
    c.budget = 20
    _put_all(c, [("f", 10)])
    assert list(c) == ["e", "f"] and c.nbytes == 20


def test_concurrent_puts_keep_the_byte_account():
    """Threaded HTTP serving shares one cache: a lost update would leave
    ``nbytes`` out of step with the entries held."""
    c = LRUCache(64)

    def work(tid):
        for i in range(2000):
            c.put((tid, i % 50), i, 1 + i % 7)
            c.get((tid, (i * 7) % 50))
            c.pop((tid, (i * 3) % 50))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert c.nbytes <= c.budget
    assert c.nbytes == sum(1 + c.get(k) % 7 for k in list(c))

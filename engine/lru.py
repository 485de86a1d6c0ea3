"""The engine's one cache: a thread-safe LRU under a byte budget (a
count-bounded cache puts every entry with ``nbytes=1``)."""

from __future__ import annotations

import threading
from collections import OrderedDict


class LRUCache:
    """Least-recently-used map whose entries' summed ``nbytes`` stays at
    or under ``budget``.  A ``get`` hit counts as a use; ``in`` does
    not.  ``put`` evicts oldest-first BEFORE inserting, replaces an
    existing key, and returns an entry larger than the whole budget
    without caching it; it returns ``value`` either way."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()  # key -> (value, nbytes)
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                return default
            self._entries.move_to_end(key)
            return hit[0]

    def put(self, key, value, nbytes: int):
        with self._lock:
            if nbytes <= self.budget:
                self._pop(key)
                while self._entries and self.nbytes + nbytes > self.budget:
                    self.nbytes -= self._entries.popitem(last=False)[1][1]
                self._entries[key] = (value, nbytes)
                self.nbytes += nbytes
            return value

    def pop(self, key, default=None):
        with self._lock:
            hit = self._pop(key)
            return default if hit is None else hit[0]

    def _pop(self, key):
        hit = self._entries.pop(key, None)
        if hit is not None:
            self.nbytes -= hit[1]
        return hit

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        """Keys, least recently used first (a snapshot)."""
        with self._lock:
            return iter(list(self._entries))

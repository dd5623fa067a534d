"""Concrete LRU set-associative cache.

This is the ground-truth hardware model used by the simulator.  The
abstract must/may caches of :mod:`repro.cache.abstract` over-approximate
exactly this behaviour (checked by property tests).
"""

from __future__ import annotations

from typing import List, Optional

from .config import CacheConfig


class LRUCache:
    """A set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig):
        self.config = config
        # Per set: list of memory-line numbers, most recent first.
        self._sets: List[List[int]] = [[] for _ in range(config.num_sets)]
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        self._sets = [[] for _ in range(self.config.num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Access the byte at ``address``; returns True on a hit."""
        line = self.config.line_of(address)
        cache_set = self._sets[self.config.set_of(address)]
        if line in cache_set:
            cache_set.remove(line)
            cache_set.insert(0, line)
            self.hits += 1
            return True
        cache_set.insert(0, line)
        if len(cache_set) > self.config.associativity:
            cache_set.pop()
        self.misses += 1
        return False

    def contains(self, address: int) -> bool:
        """Non-destructive lookup."""
        line = self.config.line_of(address)
        return line in self._sets[self.config.set_of(address)]

    def age_of(self, address: int) -> Optional[int]:
        """LRU age of the line holding ``address`` (0 = most recent), or
        ``None`` if not cached."""
        line = self.config.line_of(address)
        cache_set = self._sets[self.config.set_of(address)]
        try:
            return cache_set.index(line)
        except ValueError:
            return None

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def __repr__(self) -> str:
        return (f"LRUCache({self.config.num_sets}x"
                f"{self.config.associativity}x{self.config.line_size}, "
                f"{self.hits} hits, {self.misses} misses)")

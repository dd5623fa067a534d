"""Abstract LRU cache states: must, may, and persistence analyses.

These are the abstract interpretations of the concrete LRU cache
(:mod:`repro.cache.lru`) following Ferdinand's cache analysis, which
the paper applies as phase 4 of the aiT pipeline: "cache analysis
classifies memory references as cache misses or hits".

* **Must** cache: per line an *upper* bound on its LRU age; presence
  proves the line is in the cache → *always hit*.
* **May** cache: per line a *lower* bound on its age; absence proves
  the line is not in the cache → *always miss*.
* **Persistence** cache: like must, but ages saturate at the
  associativity instead of evicting; an access whose line never
  saturates can miss at most once per task run → *persistent*.

All three are finite lattices, so the cache fixpoint needs no widening.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional

from .config import CacheConfig


class Classification(enum.Enum):
    """Outcome of abstract hit/miss classification for one access."""

    ALWAYS_HIT = "AH"
    ALWAYS_MISS = "AM"
    PERSISTENT = "PS"    # at most one miss per task run
    NOT_CLASSIFIED = "NC"

    @property
    def worst_is_miss(self) -> bool:
        """Must the WCET account a full miss on every execution?"""
        return self in (Classification.ALWAYS_MISS,
                        Classification.NOT_CLASSIFIED)


class MustCache:
    """Upper bounds on LRU ages; lines present are definitely cached."""

    __slots__ = ("config", "ages")

    def __init__(self, config: CacheConfig,
                 ages: Optional[Dict[int, int]] = None):
        self.config = config
        self.ages = ages if ages is not None else {}

    def copy(self) -> "MustCache":
        return MustCache(self.config, dict(self.ages))

    def contains(self, line: int) -> bool:
        return line in self.ages

    def access(self, line: int) -> None:
        """Abstract update for a definite access to ``line``."""
        assoc = self.config.associativity
        set_index = line % self.config.num_sets
        old_age = self.ages.get(line, assoc)
        for other, age in list(self.ages.items()):
            if other % self.config.num_sets != set_index or other == line:
                continue
            if age < old_age:
                if age + 1 >= assoc:
                    del self.ages[other]
                else:
                    self.ages[other] = age + 1
        self.ages[line] = 0

    def access_any_of(self, lines: Iterable[int]) -> None:
        """Update for an access known only to touch one of ``lines``.

        Sound join of all single-line updates: no line's age can be
        asserted 0; every line in an affected set may age.
        """
        lines = set(lines)
        assoc = self.config.associativity
        affected_sets = {line % self.config.num_sets for line in lines}
        for other, age in list(self.ages.items()):
            if other % self.config.num_sets not in affected_sets:
                continue
            if other in lines and len(lines) == 1:
                continue  # handled by access()
            if age + 1 >= assoc:
                del self.ages[other]
            else:
                self.ages[other] = age + 1

    def age_all_sets(self) -> None:
        """Update for an access with unknown address: any set may be
        touched, any line may age."""
        assoc = self.config.associativity
        for line, age in list(self.ages.items()):
            if age + 1 >= assoc:
                del self.ages[line]
            else:
                self.ages[line] = age + 1

    def join(self, other: "MustCache") -> "MustCache":
        merged = {}
        for line, age in self.ages.items():
            other_age = other.ages.get(line)
            if other_age is not None:
                merged[line] = max(age, other_age)
        return MustCache(self.config, merged)

    def leq(self, other: "MustCache") -> bool:
        """Order: self is more precise (knows more lines, younger)."""
        for line, other_age in other.ages.items():
            age = self.ages.get(line)
            if age is None or age > other_age:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MustCache) and self.ages == other.ages

    def __repr__(self) -> str:
        return f"MustCache({len(self.ages)} lines)"


class MayCache:
    """Lower bounds on LRU ages; lines absent are definitely not cached.

    A ``universal`` may-cache (after an unknown-address access) admits
    any line and defeats always-miss classification.
    """

    __slots__ = ("config", "ages", "universal")

    def __init__(self, config: CacheConfig,
                 ages: Optional[Dict[int, int]] = None,
                 universal: bool = False):
        self.config = config
        self.ages = ages if ages is not None else {}
        self.universal = universal

    def copy(self) -> "MayCache":
        return MayCache(self.config, dict(self.ages), self.universal)

    def may_contain(self, line: int) -> bool:
        return self.universal or line in self.ages

    def access(self, line: int) -> None:
        # A line's minimal age grows only when it must age in every
        # concretisation, i.e. when its minimal age is at most the
        # accessed line's minimal age (Ferdinand's may update: lines
        # with age <= age(l) are shifted).
        assoc = self.config.associativity
        set_index = line % self.config.num_sets
        old_age = self.ages.get(line, assoc) \
            if not self.universal else 0
        for other, age in list(self.ages.items()):
            if other % self.config.num_sets != set_index or other == line:
                continue
            if age <= old_age:
                if age + 1 >= assoc:
                    del self.ages[other]
                else:
                    self.ages[other] = age + 1
        self.ages[line] = 0

    def access_any_of(self, lines: Iterable[int]) -> None:
        """One of ``lines`` is accessed: all become possibly present."""
        for line in set(lines):
            self.ages[line] = 0

    def make_universal(self) -> None:
        self.universal = True
        self.ages = {}

    def join(self, other: "MayCache") -> "MayCache":
        if self.universal or other.universal:
            return MayCache(self.config, universal=True)
        merged = dict(self.ages)
        for line, age in other.ages.items():
            mine = merged.get(line)
            merged[line] = age if mine is None else min(mine, age)
        return MayCache(self.config, merged)

    def leq(self, other: "MayCache") -> bool:
        if other.universal:
            return True
        if self.universal:
            return False
        for line, age in self.ages.items():
            other_age = other.ages.get(line)
            if other_age is None or age < other_age:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MayCache) and self.ages == other.ages
                and self.universal == other.universal)

    def __repr__(self) -> str:
        if self.universal:
            return "MayCache(⊤)"
        return f"MayCache({len(self.ages)} lines)"


class PersistenceCache:
    """Must-style ages that saturate at the associativity.

    A line whose age bound stays below the associativity throughout the
    fixpoint was never possibly evicted after its first load: accesses
    to it miss at most once per task run.
    """

    __slots__ = ("config", "ages")

    def __init__(self, config: CacheConfig,
                 ages: Optional[Dict[int, int]] = None):
        self.config = config
        self.ages = ages if ages is not None else {}

    def copy(self) -> "PersistenceCache":
        return PersistenceCache(self.config, dict(self.ages))

    def saturated(self, line: int) -> bool:
        """Possibly evicted since first load?"""
        age = self.ages.get(line)
        return age is not None and age >= self.config.associativity

    def access(self, line: int) -> None:
        assoc = self.config.associativity
        set_index = line % self.config.num_sets
        old_age = self.ages.get(line, assoc)
        for other, age in self.ages.items():
            if other % self.config.num_sets != set_index or other == line:
                continue
            if age < old_age:
                self.ages[other] = min(age + 1, assoc)
        self.ages[line] = 0

    def access_any_of(self, lines: Iterable[int]) -> None:
        lines = set(lines)
        assoc = self.config.associativity
        affected_sets = {line % self.config.num_sets for line in lines}
        for other, age in self.ages.items():
            if other % self.config.num_sets in affected_sets:
                self.ages[other] = min(age + 1, assoc)
        for line in lines:
            self.ages[line] = min(self.ages.get(line, 0), assoc)

    def age_all_sets(self) -> None:
        assoc = self.config.associativity
        for line in self.ages:
            self.ages[line] = min(self.ages[line] + 1, assoc)

    def join(self, other: "PersistenceCache") -> "PersistenceCache":
        # Absence means "never loaded yet", which imposes no constraint:
        # union with max age.
        merged = dict(self.ages)
        for line, age in other.ages.items():
            mine = merged.get(line)
            merged[line] = age if mine is None else max(mine, age)
        return PersistenceCache(self.config, merged)

    def leq(self, other: "PersistenceCache") -> bool:
        for line, age in self.ages.items():
            other_age = other.ages.get(line)
            if other_age is None or age > other_age:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PersistenceCache) \
            and self.ages == other.ages

    def __repr__(self) -> str:
        return f"PersistenceCache({len(self.ages)} lines)"


class TripleCacheState:
    """Product of must, may, and persistence states (one per cache)."""

    __slots__ = ("must", "may", "pers")

    def __init__(self, config: CacheConfig,
                 must: Optional[MustCache] = None,
                 may: Optional[MayCache] = None,
                 pers: Optional[PersistenceCache] = None):
        self.must = must if must is not None else MustCache(config)
        self.may = may if may is not None else MayCache(config)
        self.pers = pers if pers is not None else PersistenceCache(config)

    @property
    def config(self) -> CacheConfig:
        return self.must.config

    def copy(self) -> "TripleCacheState":
        return TripleCacheState(self.config, self.must.copy(),
                                self.may.copy(), self.pers.copy())

    def classify(self, line: int) -> Classification:
        """Classify an access to exactly ``line`` in the current state."""
        if self.must.contains(line):
            return Classification.ALWAYS_HIT
        if not self.may.may_contain(line):
            return Classification.ALWAYS_MISS
        if not self.pers.saturated(line):
            return Classification.PERSISTENT
        return Classification.NOT_CLASSIFIED

    def classify_range(self, lines: List[int]) -> Classification:
        """Classify an access touching exactly one of ``lines``."""
        if len(lines) == 1:
            return self.classify(lines[0])
        if all(self.must.contains(line) for line in lines):
            return Classification.ALWAYS_HIT
        if all(not self.may.may_contain(line) for line in lines):
            return Classification.ALWAYS_MISS
        if all(not self.pers.saturated(line) for line in lines):
            return Classification.PERSISTENT
        return Classification.NOT_CLASSIFIED

    def access(self, line: int) -> None:
        self.must.access(line)
        self.may.access(line)
        self.pers.access(line)

    def access_range(self, lines: List[int]) -> None:
        if len(lines) == 1:
            self.access(lines[0])
            return
        self.must.access_any_of(lines)
        self.may.access_any_of(lines)
        self.pers.access_any_of(lines)

    def access_unknown(self) -> None:
        """An access whose address is completely unknown."""
        self.must.age_all_sets()
        self.may.make_universal()
        self.pers.age_all_sets()

    def join(self, other: "TripleCacheState") -> "TripleCacheState":
        return TripleCacheState(self.config,
                                self.must.join(other.must),
                                self.may.join(other.may),
                                self.pers.join(other.pers))

    def leq(self, other: "TripleCacheState") -> bool:
        return (self.must.leq(other.must) and self.may.leq(other.may)
                and self.pers.leq(other.pers))

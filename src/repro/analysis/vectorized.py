"""Packed-array abstract memory for the interval domain.

:class:`~repro.analysis.state.AbstractMemory` is a dict of per-word
:class:`~repro.analysis.interval.Interval` objects; on realistic tasks
the value fixpoint spends most of its time joining/comparing those
dicts entry by entry.  :class:`VectorMemory` stores the same partial
map as two dense ``int64`` arrays of lower/upper bounds indexed by a
shared :class:`AddressSpace` (word address → slot), with *absent means
top* encoded literally as ``[INT_MIN, INT_MAX]`` — so ``join`` is an
elementwise min/max, ``leq`` one vectorized comparison, and threshold
widening two ``np.searchsorted`` calls.

The equivalence argument, pinned by the lockstep suite in
``tests/test_vectorized_domains.py``:

* absent-as-top is already how the dict implementation *reads* its map
  (``load`` of an untracked word is top, ``leq`` treats absence as top
  on both sides, ``join``/``widen`` drop one-sided words — i.e. join
  them with top), so materialising the top explicitly changes no
  observable result;
* all elementwise kernels special-case empty (bottom) intervals with
  masks, exactly mirroring ``Interval.join``/``widen``/``narrow``/
  ``leq``'s bottom branches;
* bounds are converted back to Python ints at the Interval boundary
  (:meth:`Interval.from_bounds`), so no fixed-width numpy scalar ever
  leaks into the arbitrary-precision transfer arithmetic.

Copy-on-write mirrors ``AbstractMemory``: ``copy`` shares the bound
arrays in O(1), the first mutation materialises private copies, and
``same_entries`` uses array identity as the structural fingerprint.

The packing is interval-specific (two bounds per word), which is why
:func:`~repro.analysis.valueanalysis.analyze_values` only selects this
memory for the :class:`Interval` domain and falls back to the dict
implementation for the strided-interval and const domains.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from .domain import INT_MAX, INT_MIN
from .interval import Interval
from .state import WEAK_UPDATE_LIMIT, _align

#: Cached numpy threshold arrays, keyed by the (hashable) threshold
#: tuple the solver passes to every widening call.
_THRESH_CACHE: Dict[Tuple[int, ...], np.ndarray] = {}


def _threshold_array(thresholds: Sequence[int]) -> np.ndarray:
    key = tuple(thresholds)
    cached = _THRESH_CACHE.get(key)
    if cached is None:
        cached = np.array(sorted(key), dtype=np.int64)
        _THRESH_CACHE[key] = cached
    return cached


class AddressSpace:
    """Shared word-address → slot mapping for one analysis run.

    Every :class:`VectorMemory` of the run indexes its bound arrays
    through the same space, so slots line up across states and binary
    operations are pure array ops.  The space only grows (stores to
    previously unseen constant addresses append slots); memories
    created before a growth simply treat the missing tail as top.
    """

    __slots__ = ("slot_of", "addrs", "_addr_cache")

    def __init__(self):
        self.slot_of: Dict[int, int] = {}
        self.addrs: List[int] = []
        self._addr_cache: Optional[np.ndarray] = None

    def slot(self, word: int) -> int:
        """Slot for ``word``, appending a new one if untracked."""
        index = self.slot_of.get(word)
        if index is None:
            index = len(self.addrs)
            self.slot_of[word] = index
            self.addrs.append(word)
            self._addr_cache = None
        return index

    def get(self, word: int) -> Optional[int]:
        return self.slot_of.get(word)

    def addr_array(self) -> np.ndarray:
        if self._addr_cache is None or \
                len(self._addr_cache) != len(self.addrs):
            self._addr_cache = np.array(self.addrs, dtype=np.int64)
        return self._addr_cache

    def __len__(self) -> int:
        return len(self.addrs)


def _padded(arr: np.ndarray, n: int, fill: int) -> np.ndarray:
    """``arr`` extended to ``n`` slots with ``fill`` (top bounds)."""
    if len(arr) == n:
        return arr
    out = np.empty(n, dtype=np.int64)
    out[:len(arr)] = arr
    out[len(arr):] = fill
    return out


class VectorMemory:
    """Drop-in :class:`AbstractMemory` replacement over bound arrays."""

    __slots__ = ("domain", "space", "_lo", "_hi", "_shared")

    #: Class-wide instrumentation, mirroring ``AbstractMemory``.
    copies = 0
    materializations = 0

    def __init__(self, domain: Type[Interval], space: AddressSpace,
                 lo: Optional[np.ndarray] = None,
                 hi: Optional[np.ndarray] = None):
        self.domain = domain
        self.space = space
        if lo is None:
            lo = np.full(len(space), INT_MIN, dtype=np.int64)
            hi = np.full(len(space), INT_MAX, dtype=np.int64)
        self._lo = lo
        self._hi = hi
        self._shared = False

    def copy(self) -> "VectorMemory":
        VectorMemory.copies += 1
        self._shared = True
        clone = VectorMemory(self.domain, self.space, self._lo, self._hi)
        clone._shared = True
        return clone

    def _materialize(self) -> None:
        if self._shared:
            self._lo = self._lo.copy()
            self._hi = self._hi.copy()
            self._shared = False
            VectorMemory.materializations += 1

    def _grow_to(self, n: int) -> None:
        """Ensure at least ``n`` writable slots (geometric growth, so
        seeding thousands of image words stays linear)."""
        cur = len(self._lo)
        if n <= cur:
            self._materialize()
            return
        new_n = max(n, 2 * cur, 16)
        lo = np.full(new_n, INT_MIN, dtype=np.int64)
        hi = np.full(new_n, INT_MAX, dtype=np.int64)
        lo[:cur] = self._lo
        hi[:cur] = self._hi
        if self._shared:
            self._shared = False
            VectorMemory.materializations += 1
        self._lo = lo
        self._hi = hi

    # -- Accesses -------------------------------------------------------------

    def load(self, address: Interval) -> Interval:
        if address.is_bottom():
            return self.domain.bottom()
        constant = address.as_constant()
        if constant is not None:
            slot = self.space.get(_align(constant))
            if slot is None or slot >= len(self._lo):
                return self.domain.top()
            return self.domain.from_bounds(self._lo[slot], self._hi[slot])
        lo, hi = address.signed_bounds()
        if hi - lo > WEAK_UPDATE_LIMIT:
            return self.domain.top()
        get, limit = self.space.get, len(self._lo)
        slots = []
        for word in range(_align(lo), hi + 1, 4):
            slot = get(word)
            if slot is None or slot >= limit:
                return self.domain.top()    # an untracked word is top
            slots.append(slot)
        if not slots:
            return self.domain.bottom()
        idx = np.array(slots, dtype=np.intp)
        los, his = self._lo[idx], self._hi[idx]
        present = los <= his    # bottom entries contribute nothing
        if not present.any():
            return self.domain.bottom()
        return self.domain.from_bounds(los[present].min(),
                                       his[present].max())

    def store(self, address: Interval, value: Interval) -> None:
        if address.is_bottom():
            return
        constant = address.as_constant()
        if constant is not None:
            slot = self.space.slot(_align(constant))
            self._grow_to(slot + 1)
            self._lo[slot] = value.lo
            self._hi[slot] = value.hi
            return
        lo, hi = address.signed_bounds()
        if hi - lo > WEAK_UPDATE_LIMIT:
            self._havoc(lo, hi)
            return
        if value.is_bottom():
            return      # join with bottom leaves every entry unchanged
        get, limit = self.space.get, len(self._lo)
        slots = [slot for word in range(_align(lo), hi + 1, 4)
                 if (slot := get(word)) is not None and slot < limit]
        if not slots:
            return      # nothing tracked in range: keep sharing
        self._materialize()
        idx = np.array(slots, dtype=np.intp)
        los, his = self._lo[idx], self._hi[idx]
        empty = los > his   # join(bottom, v) = v
        self._lo[idx] = np.where(empty, value.lo,
                                 np.minimum(los, value.lo))
        self._hi[idx] = np.where(empty, value.hi,
                                 np.maximum(his, value.hi))

    def seed(self, address: int, value: Interval) -> None:
        """Strong update at a concrete address (entry-state seeding)."""
        slot = self.space.slot(_align(address))
        self._grow_to(slot + 1)
        self._lo[slot] = value.lo
        self._hi[slot] = value.hi

    def _havoc(self, lo: int, hi: int) -> None:
        # The space and the bound arrays grow independently (arrays
        # geometrically, with slack): only the overlap holds entries.
        n = min(len(self._lo), len(self.space))
        addrs = self.space.addr_array()[:n]
        doomed = (addrs >= lo - 3) & (addrs <= hi)
        doomed &= (self._lo[:n] != INT_MIN) | (self._hi[:n] != INT_MAX)
        if not doomed.any():
            return
        self._materialize()
        self._lo[:n][doomed] = INT_MIN
        self._hi[:n][doomed] = INT_MAX

    # -- Lattice ----------------------------------------------------------------

    def same_entries(self, other) -> bool:
        """Structural fingerprint: COW copies share the bound arrays
        until one side mutates, so array identity proves equality."""
        return isinstance(other, VectorMemory) and self._lo is other._lo

    def _aligned(self, other: "VectorMemory"):
        n = max(len(self._lo), len(other._lo))
        return (_padded(self._lo, n, INT_MIN), _padded(self._hi, n, INT_MAX),
                _padded(other._lo, n, INT_MIN), _padded(other._hi, n, INT_MAX))

    def join(self, other: "VectorMemory") -> "VectorMemory":
        if self.same_entries(other):
            return self.copy()
        alo, ahi, blo, bhi = self._aligned(other)
        lo = np.minimum(alo, blo)
        hi = np.maximum(ahi, bhi)
        abot, bbot = alo > ahi, blo > bhi
        if abot.any():
            lo[abot], hi[abot] = blo[abot], bhi[abot]
        if bbot.any():
            lo[bbot], hi[bbot] = alo[bbot], ahi[bbot]
        return VectorMemory(self.domain, self.space, lo, hi)

    def widen(self, other: "VectorMemory",
              thresholds: Sequence[int] = ()) -> "VectorMemory":
        if self.same_entries(other):
            return self.copy()
        alo, ahi, blo, bhi = self._aligned(other)
        ts = _threshold_array(thresholds)
        if len(ts):
            # Largest threshold <= other's bound (else INT_MIN) ...
            idx = np.searchsorted(ts, blo, side="right") - 1
            lo_cand = np.where(idx >= 0, ts[np.maximum(idx, 0)], INT_MIN)
            # ... smallest threshold >= other's bound (else INT_MAX).
            idx = np.searchsorted(ts, bhi, side="left")
            hi_cand = np.where(idx < len(ts),
                               ts[np.minimum(idx, len(ts) - 1)], INT_MAX)
        else:
            lo_cand = np.full_like(alo, INT_MIN)
            hi_cand = np.full_like(ahi, INT_MAX)
        lo = np.where(blo < alo, lo_cand, alo)
        hi = np.where(bhi > ahi, hi_cand, ahi)
        abot, bbot = alo > ahi, blo > bhi
        if abot.any():
            lo[abot], hi[abot] = blo[abot], bhi[abot]
        if bbot.any():
            lo[bbot], hi[bbot] = alo[bbot], ahi[bbot]
        return VectorMemory(self.domain, self.space, lo, hi)

    def narrow(self, other: "VectorMemory") -> "VectorMemory":
        if self.same_entries(other):
            return self.copy()
        alo, ahi, blo, bhi = self._aligned(other)
        lo = np.where(alo == INT_MIN, blo, alo)
        hi = np.where(ahi == INT_MAX, bhi, ahi)
        bot = (alo > ahi) | (blo > bhi) | (lo > hi)
        if bot.any():
            lo[bot], hi[bot] = 1, 0     # canonical bottom
        return VectorMemory(self.domain, self.space, lo, hi)

    def leq(self, other: "VectorMemory") -> bool:
        if self.same_entries(other):
            return True
        alo, ahi, blo, bhi = self._aligned(other)
        ok = (alo > ahi) | ((blo <= bhi) & (blo <= alo) & (ahi <= bhi))
        return bool(ok.all())

    def __len__(self) -> int:
        return int(((self._lo != INT_MIN) | (self._hi != INT_MAX)).sum())

    @property
    def entries(self) -> Dict[int, Interval]:
        """Read-only dict view of the tracked (non-top) words, for
        consumers of the ``AbstractMemory.entries`` API.  Top words are
        omitted — exactly the absent-means-top convention."""
        result: Dict[int, Interval] = {}
        lo, hi = self._lo, self._hi
        tracked = np.nonzero((lo != INT_MIN) | (hi != INT_MAX))[0]
        addrs = self.space.addrs
        for slot in tracked:
            result[addrs[slot]] = self.domain.from_bounds(lo[slot],
                                                          hi[slot])
        return result

    def __repr__(self) -> str:
        return f"VectorMemory({len(self)} tracked words)"

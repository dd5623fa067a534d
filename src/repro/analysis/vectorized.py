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

The code image stays out of those per-state arrays.  The
:class:`AddressSpace` of a run holds the ``.text`` words once, as one
read-only lo/hi pair built from the section bytes, and never gives a
code word a slot.  Each memory references that pair copy-on-write next
to its own arrays, which hold only the words it seeds or stores (data
and stack): a load of a code word reads the reference, and a strong
store, weak range store, havoc or ``seed`` that may touch one first
makes the memory's image copy private.  No store in the benchmark
programs writes code, so every state of a run shares the one image,
and a state's arrays grow with the data and stack words it tracks,
not with the size of the program.

The equivalence argument, pinned by the lockstep suite in
``tests/test_vectorized_domains.py``:

* absent-as-top is already how the dict implementation *reads* its map
  (``load`` of an untracked word is top, ``leq`` treats absence as top
  on both sides, ``join``/``widen`` drop one-sided words — i.e. join
  them with top), so materialising the top explicitly changes no
  observable result;
* an image word absent from a memory's own arrays reads the image
  value, not top: the dict implementation seeds the whole image into
  the entry state, so the image layer *is* that seeded part of the map,
  held once.  Every update that may reach a code word goes through the
  same elementwise kernel on the private image copy as on the own
  words, and the lattice operations run that kernel on the image part
  unless both sides hold the same image arrays — in which case the
  kernel would return its input, since every operation is idempotent;
* all elementwise kernels special-case empty (bottom) intervals with
  masks, exactly mirroring ``Interval.join``/``widen``/``narrow``/
  ``leq``'s bottom branches;
* bounds are converted back to Python ints at the Interval boundary
  (:meth:`Interval.from_bounds`), so no fixed-width numpy scalar ever
  leaks into the arbitrary-precision transfer arithmetic.

Copy-on-write mirrors ``AbstractMemory``: ``copy`` shares both pairs of
bound arrays in O(1), the first mutation of a part materialises a
private copy of that part, and ``same_entries`` uses array identity of
both parts as the structural fingerprint.

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
    """Shared word-address → slot mapping for one analysis run, plus
    the read-only code image.

    Every :class:`VectorMemory` of the run indexes its own bound arrays
    through the same space, so slots line up across states and binary
    operations are pure array ops.  The space only grows (stores to
    previously unseen constant addresses append slots); memories
    created before a growth simply treat the missing tail as top.

    The image layer covers the words ``image_base + 4 * i`` below
    ``image_end``; their initial bounds are ``image_lo``/``image_hi``
    (one read-only array: the words are constants), and they never get
    a slot.
    """

    __slots__ = ("slot_of", "addrs", "_addr_cache", "image_base",
                 "image_end", "image_lo", "image_hi")

    def __init__(self, image_base: int = 0, image: bytes = b""):
        self.slot_of: Dict[int, int] = {}
        self.addrs: List[int] = []
        self._addr_cache: Optional[np.ndarray] = None
        # Little-endian signed words, as Interval.const reads them; a
        # trailing partial word is not a word of the image.
        words = np.frombuffer(image, dtype="<i4",
                              count=len(image) // 4).astype(np.int64)
        words.flags.writeable = False
        self.image_base = _align(image_base)
        self.image_end = self.image_base + 4 * len(words)
        self.image_lo = self.image_hi = words

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

    def image_span(self, lo: int, hi: int) -> Tuple[int, int]:
        """Index range ``[i0, i1)`` of the image words ``w`` with
        ``lo <= w <= hi`` (empty when ``i0 >= i1``)."""
        base = self.image_base
        i0 = max(0, -((base - lo) // 4))        # ceil((lo - base) / 4)
        i1 = min(len(self.image_lo), (hi - base) // 4 + 1)
        return i0, i1

    def split(self, start: int, hi: int):
        """The aligned words ``start, start + 4, ... <= hi`` as an image
        index range ``(i0, i1)`` plus the word ranges around it."""
        i0, i1 = self.image_span(start, hi)
        if i0 >= i1:
            return i0, i1, (range(start, hi + 1, 4),)
        base = self.image_base
        return i0, i1, (range(start, base + 4 * i0, 4),
                        range(base + 4 * i1, hi + 1, 4))

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


def _tracked(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of the entries that are not top."""
    return (lo != INT_MIN) | (hi != INT_MAX)


# -- Elementwise kernels ------------------------------------------------------
#
# Each takes the bounds of both operands, slot-aligned, and returns the
# result's bounds in fresh arrays; VectorMemory runs them on its own
# words and, unless both sides share it, on its image copy.


def _join_value(los: np.ndarray, his: np.ndarray, value: Interval):
    """Join every entry with one interval (join(bottom, v) = v)."""
    empty = los > his
    return (np.where(empty, value.lo, np.minimum(los, value.lo)),
            np.where(empty, value.hi, np.maximum(his, value.hi)))


def _join_bounds(alo, ahi, blo, bhi):
    lo = np.minimum(alo, blo)
    hi = np.maximum(ahi, bhi)
    abot, bbot = alo > ahi, blo > bhi
    if abot.any():
        lo[abot], hi[abot] = blo[abot], bhi[abot]
    if bbot.any():
        lo[bbot], hi[bbot] = alo[bbot], ahi[bbot]
    return lo, hi


def _widen_bounds(alo, ahi, blo, bhi, ts: np.ndarray):
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
    return lo, hi


def _narrow_bounds(alo, ahi, blo, bhi):
    lo = np.where(alo == INT_MIN, blo, alo)
    hi = np.where(ahi == INT_MAX, bhi, ahi)
    bot = (alo > ahi) | (blo > bhi) | (lo > hi)
    if bot.any():
        lo[bot], hi[bot] = 1, 0     # canonical bottom
    return lo, hi


def _leq_bounds(alo, ahi, blo, bhi) -> bool:
    ok = (alo > ahi) | ((blo <= bhi) & (blo <= alo) & (ahi <= bhi))
    return bool(ok.all())


class VectorMemory:
    """Drop-in :class:`AbstractMemory` replacement over bound arrays."""

    __slots__ = ("domain", "space", "_lo", "_hi", "_shared",
                 "_ilo", "_ihi", "_ishared")

    #: Class-wide instrumentation, mirroring ``AbstractMemory``; image
    #: materializations count the private image copies a write that
    #: may touch a code word forced.
    copies = 0
    materializations = 0
    image_materializations = 0

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
        self._ilo = space.image_lo
        self._ihi = space.image_hi
        self._ishared = True

    def copy(self) -> "VectorMemory":
        VectorMemory.copies += 1
        self._shared = self._ishared = True
        clone = VectorMemory(self.domain, self.space, self._lo, self._hi)
        clone._shared = True
        clone._ilo, clone._ihi = self._ilo, self._ihi
        return clone

    def _materialize(self) -> None:
        if self._shared:
            self._lo = self._lo.copy()
            self._hi = self._hi.copy()
            self._shared = False
            VectorMemory.materializations += 1

    def _materialize_image(self) -> None:
        if self._ishared:
            self._ilo = self._ilo.copy()
            self._ihi = self._ihi.copy()
            self._ishared = False
            VectorMemory.image_materializations += 1

    def _grow_to(self, n: int) -> None:
        """Ensure at least ``n`` writable slots (geometric growth, so
        seeding many words stays linear)."""
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
        space = self.space
        constant = address.as_constant()
        if constant is not None:
            word = _align(constant)
            if space.image_base <= word < space.image_end:
                index = (word - space.image_base) >> 2
                return self.domain.from_bounds(self._ilo[index],
                                               self._ihi[index])
            slot = space.get(word)
            if slot is None or slot >= len(self._lo):
                return self.domain.top()
            return self.domain.from_bounds(self._lo[slot], self._hi[slot])
        lo, hi = address.signed_bounds()
        if hi - lo > WEAK_UPDATE_LIMIT:
            return self.domain.top()
        i0, i1, own = space.split(_align(lo), hi)
        get, limit = space.get, len(self._lo)
        slots = []
        for words in own:
            for word in words:
                slot = get(word)
                if slot is None or slot >= limit:
                    return self.domain.top()    # an untracked word is top
                slots.append(slot)
        idx = np.array(slots, dtype=np.intp)
        los, his = self._lo[idx], self._hi[idx]
        if i0 < i1:
            los = np.concatenate((los, self._ilo[i0:i1]))
            his = np.concatenate((his, self._ihi[i0:i1]))
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
            self.seed(constant, value)
            return
        lo, hi = address.signed_bounds()
        if hi - lo > WEAK_UPDATE_LIMIT:
            self._havoc(lo, hi)
            return
        if value.is_bottom():
            return      # join with bottom leaves every entry unchanged
        space = self.space
        i0, i1, own = space.split(_align(lo), hi)
        get, limit = space.get, len(self._lo)
        slots = [slot for words in own for word in words
                 if (slot := get(word)) is not None and slot < limit]
        if slots:       # else nothing tracked in range: keep sharing
            self._materialize()
            idx = np.array(slots, dtype=np.intp)
            self._lo[idx], self._hi[idx] = _join_value(
                self._lo[idx], self._hi[idx], value)
        if i0 < i1:
            self._materialize_image()
            self._ilo[i0:i1], self._ihi[i0:i1] = _join_value(
                self._ilo[i0:i1], self._ihi[i0:i1], value)

    def seed(self, address: int, value: Interval) -> None:
        """Strong update at a concrete address (entry-state seeding and
        exactly-addressed stores)."""
        word = _align(address)
        space = self.space
        if space.image_base <= word < space.image_end:
            self._materialize_image()
            index = (word - space.image_base) >> 2
            self._ilo[index] = value.lo
            self._ihi[index] = value.hi
            return
        slot = space.slot(word)
        self._grow_to(slot + 1)
        self._lo[slot] = value.lo
        self._hi[slot] = value.hi

    def _havoc(self, lo: int, hi: int) -> None:
        # The space and the bound arrays grow independently (arrays
        # geometrically, with slack): only the overlap holds entries.
        n = min(len(self._lo), len(self.space))
        addrs = self.space.addr_array()[:n]
        doomed = (addrs >= lo - 3) & (addrs <= hi)
        doomed &= _tracked(self._lo[:n], self._hi[:n])
        if doomed.any():
            self._materialize()
            self._lo[:n][doomed] = INT_MIN
            self._hi[:n][doomed] = INT_MAX
        i0, i1 = self.space.image_span(lo - 3, hi)
        if i0 < i1 and _tracked(self._ilo[i0:i1], self._ihi[i0:i1]).any():
            self._materialize_image()
            self._ilo[i0:i1] = INT_MIN
            self._ihi[i0:i1] = INT_MAX

    # -- Lattice ----------------------------------------------------------------

    def same_entries(self, other) -> bool:
        """Structural fingerprint: COW copies share the bound arrays
        until one side mutates, so array identity proves equality."""
        return (isinstance(other, VectorMemory) and self._lo is other._lo
                and self._ilo is other._ilo)

    def _aligned(self, other: "VectorMemory"):
        n = max(len(self._lo), len(other._lo))
        return (_padded(self._lo, n, INT_MIN), _padded(self._hi, n, INT_MAX),
                _padded(other._lo, n, INT_MIN), _padded(other._hi, n, INT_MAX))

    def _combine(self, other: "VectorMemory", kernel,
                 *args) -> "VectorMemory":
        """``kernel`` applied to the own words and the image part; the
        image part is shared instead when both sides hold the same
        image arrays."""
        result = VectorMemory(self.domain, self.space,
                              *kernel(*self._aligned(other), *args))
        if self._ilo is other._ilo:
            self._ishared = other._ishared = True
            result._ilo, result._ihi = self._ilo, self._ihi
        else:
            result._ilo, result._ihi = kernel(self._ilo, self._ihi,
                                              other._ilo, other._ihi, *args)
            result._ishared = False
        return result

    def join(self, other: "VectorMemory") -> "VectorMemory":
        if self.same_entries(other):
            return self.copy()
        return self._combine(other, _join_bounds)

    def widen(self, other: "VectorMemory",
              thresholds: Sequence[int] = ()) -> "VectorMemory":
        if self.same_entries(other):
            return self.copy()
        return self._combine(other, _widen_bounds,
                             _threshold_array(thresholds))

    def narrow(self, other: "VectorMemory") -> "VectorMemory":
        if self.same_entries(other):
            return self.copy()
        return self._combine(other, _narrow_bounds)

    def leq(self, other: "VectorMemory") -> bool:
        if self.same_entries(other):
            return True
        if not _leq_bounds(*self._aligned(other)):
            return False
        return self._ilo is other._ilo or _leq_bounds(
            self._ilo, self._ihi, other._ilo, other._ihi)

    def __len__(self) -> int:
        return int(_tracked(self._lo, self._hi).sum()
                   + _tracked(self._ilo, self._ihi).sum())

    @property
    def entries(self) -> Dict[int, Interval]:
        """Read-only dict view of the tracked (non-top) words, image
        words included, for consumers of the ``AbstractMemory.entries``
        API.  Top words are omitted — exactly the absent-means-top
        convention."""
        result: Dict[int, Interval] = {}
        from_bounds = self.domain.from_bounds
        lo, hi = self._lo, self._hi
        addrs = self.space.addrs
        for slot in np.nonzero(_tracked(lo, hi))[0]:
            result[addrs[slot]] = from_bounds(lo[slot], hi[slot])
        lo, hi = self._ilo, self._ihi
        base = self.space.image_base
        for index in np.nonzero(_tracked(lo, hi))[0]:
            result[base + 4 * int(index)] = from_bounds(lo[index],
                                                        hi[index])
        return result

    def __repr__(self) -> str:
        return f"VectorMemory({len(self)} tracked words)"

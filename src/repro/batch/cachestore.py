"""Content-addressed artifact cache for analysis phases.

The sweep engine never recomputes an artifact whose inputs haven't
changed: every phase of :func:`repro.wcet.ait.analyze_wcet` stores its
result under a key that digests

* a *code version salt* — by default a hash of every ``.py`` file in
  the ``repro`` package, so any code change invalidates all cached
  artifacts at once (stale objects are simply never addressed again),
* the phase's own key material — the program's
  :meth:`~repro.isa.program.Program.content_digest` plus the exact
  phase parameters, and the keys of all upstream phases (transitive
  invalidation; see :class:`repro.batch.scheduler._TaskContext`).

On-disk layout under the cache root::

    objects/<key[:2]>/<key>.pkl     pickled artifact (atomic writes)

Writes go through a temporary file followed by :func:`os.replace`, so
concurrent worker processes can share one cache directory: the worst
race is two processes computing the same artifact and one overwriting
the other with identical bytes (last-writer-wins).  A vanished object
is a plain miss; an object that *exists but does not unpickle*
(truncated write, bit rot, injected corruption) is a **quarantine
event**: the file moves to ``quarantine/`` under the cache root, the
``quarantined`` counter ticks, and the phase recomputes — corruption
is observable, never a silent miss or a wrong artifact.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from .. import faults

_SALT_CACHE: Optional[str] = None


def code_version_salt() -> str:
    """Digest of the ``repro`` package's source files (memoised).

    Keying every artifact on this salt means a cache directory never
    serves results computed by a different version of the analyses.
    """
    global _SALT_CACHE
    if _SALT_CACHE is None:
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for dirpath, _, filenames in sorted(os.walk(package_root)):
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(
                    os.path.relpath(path, package_root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _SALT_CACHE = digest.hexdigest()
    return _SALT_CACHE


class ArtifactCache:
    """Content-addressed store of pickled analysis artifacts.

    ``root=None`` keeps artifacts purely in memory (useful to share
    work inside one process without touching disk); with a directory,
    artifacts persist across runs and processes.  Loaded objects are
    additionally memoised in memory, so repeated lookups within one
    process deserialise once.

    The in-memory memo is an LRU bounded by entry count and by
    (estimated pickled) bytes — a long-running process such as the
    ``repro serve`` daemon would otherwise retain every artifact it
    ever touched.  Eviction only forgets the deserialised copy; the
    on-disk object (when ``root`` is set) still serves later lookups.

    This class implements the phase-cache protocol the DAG executor
    (:class:`repro.batch.scheduler._TaskContext`) drives: :meth:`key`,
    :meth:`fetch_or_compute`, :meth:`lookup`, :meth:`store`.  It is
    thread-safe: the serve layer shares one instance across its worker
    pool.
    """

    #: Default LRU bounds of the in-memory memo.  ``None`` disables the
    #: corresponding bound (pass explicitly to restore the old
    #: unbounded behaviour).
    MEMO_ENTRY_LIMIT = 4096
    MEMO_BYTE_LIMIT = 512 * 1024 * 1024

    def __init__(self, root: Optional[str] = None,
                 salt: Optional[str] = None,
                 limit_bytes: Optional[int] = None,
                 memo_entries: Optional[int] = MEMO_ENTRY_LIMIT,
                 memo_bytes: Optional[int] = MEMO_BYTE_LIMIT):
        self.root = root
        self.salt = salt if salt is not None else code_version_salt()
        self.limit_bytes = limit_bytes
        self.memo_entries = memo_entries
        self.memo_bytes = memo_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.memo_evictions = 0
        self.quarantined = 0
        self._memory: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._memory_bytes = 0
        self._lock = threading.RLock()
        #: In-flight single-flight latches, one per key being computed
        #: (see :meth:`fetch_or_compute`).
        self._inflight: Dict[str, threading.Event] = {}
        #: Running byte tally of the ``objects/`` tree; ``None`` until
        #: the first full scan (or after suspected drift) forces a
        #: rescan in :meth:`_evict_if_needed`.
        self._disk_bytes: Optional[int] = None

    # -- Protocol -----------------------------------------------------------

    def key(self, material: str) -> str:
        """Content address for one artifact: H(salt | material)."""
        return hashlib.sha256(
            f"{self.salt}|{material}".encode()).hexdigest()

    def lookup(self, key: str) -> Tuple[bool, Any]:
        """``(True, artifact)`` when present, else ``(False, None)``."""
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                return True, entry[0]
        if self.root is not None:
            path = self._object_path(key)
            try:
                with open(path, "rb") as handle:
                    value = pickle.load(handle)
            except FileNotFoundError:
                # Never written, or evicted by a concurrent worker:
                # a plain miss, the phase is simply recomputed.
                pass
            except Exception:
                # The object exists but does not deserialise —
                # truncated write, bit rot, or an incompatible pickle.
                # Quarantine it so corruption stays observable (and
                # the broken bytes stop shadowing recomputed ones).
                self._quarantine(path)
            else:
                try:
                    # Freshen the mtime so a bounded store evicts
                    # least-recently-*used* objects, not merely the
                    # least recently written.
                    stat = os.stat(path)
                    os.utime(path)
                    size = stat.st_size
                except OSError:
                    size = _estimate_size(value)
                with self._lock:
                    self.hits += 1
                    self._memo_put(key, value, size)
                return True, value
        with self._lock:
            self.misses += 1
        return False, None

    def fetch_or_compute(self, key, compute) -> Tuple[Any, bool]:
        """Cached value for ``key``, computing it at most once per
        process even under concurrency (*single-flight*).

        Returns ``(value, computed)`` where ``computed`` says whether
        *this* call ran ``compute``.  The first caller for a key (the
        *leader*) computes and stores; concurrent callers for the same
        key (*followers*) block on the leader's latch and then serve
        the leader's result from the memo instead of recomputing — so
        N simultaneous identical requests cost exactly one miss and
        one computation per key, not N.

        A leader whose ``compute`` raises releases its followers; the
        first of them takes over leadership (its ``lookup`` still
        misses), so failures retry rather than deadlock.  Nested calls
        (``compute`` fetching its own dependencies) are safe because
        leadership only ever chains *downward* through the phase DAG —
        dependency keys differ from the keys waited on above them.
        """
        while True:
            with self._lock:
                entry = self._memory.get(key)
                if entry is not None:
                    self._memory.move_to_end(key)
                    self.hits += 1
                    return entry[0], False
                latch = self._inflight.get(key)
                if latch is None:
                    # Leadership claimed under the lock: every other
                    # thread arriving for this key becomes a follower.
                    latch = threading.Event()
                    self._inflight[key] = latch
                    leader = True
                else:
                    leader = False
            if not leader:
                latch.wait()
                # Re-enter: the common case hits the leader's memo
                # entry; if the leader failed (no entry, latch gone),
                # this thread claims leadership itself.
                continue
            try:
                hit, value = self.lookup(key)
                if hit:
                    return value, False
                value = compute()
                self.store(key, value)
                return value, True
            finally:
                with self._lock:
                    self._inflight.pop(key, None)
                latch.set()

    def store(self, key: str, value: Any) -> None:
        payload: Optional[bytes] = None
        try:
            payload = pickle.dumps(value,
                                   protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # Unpicklable artifact: memo-only, size estimated.
            payload = None
        size = len(payload) if payload is not None \
            else _estimate_size(value)
        with self._lock:
            self._memo_put(key, value, size)
        if self.root is None or payload is None:
            return
        try:
            faults.check_disk_full()
            payload = faults.corrupt_payload(payload)
            path = self._object_path(key)
            directory = os.path.dirname(path)
            os.makedirs(directory, exist_ok=True)
            handle, temp_path = tempfile.mkstemp(dir=directory,
                                                 suffix=".tmp")
            try:
                old_size = 0
                try:
                    old_size = os.stat(path).st_size
                except OSError:
                    pass
                with os.fdopen(handle, "wb") as stream:
                    stream.write(payload)
                os.replace(temp_path, path)
                self._disk_bytes_add(len(payload) - old_size)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except Exception:
            # An artifact that cannot be persisted (full disk, dead
            # mount) degrades to uncached-on-disk: the computed result
            # is still returned and memoised in memory, and the next
            # process simply recomputes, mirroring how lookup() treats
            # unreadable objects as misses.
            pass
        else:
            if self.limit_bytes is not None:
                self._evict_if_needed(protect=self._object_path(key))

    def _memo_put(self, key: str, value: Any, size: int) -> None:
        """Insert into the LRU memo and shed oldest entries past the
        bounds.  The entry just inserted is never evicted (a memo too
        small for one artifact still has to serve it).  Caller holds
        the lock."""
        old = self._memory.pop(key, None)
        if old is not None:
            self._memory_bytes -= old[1]
        self._memory[key] = (value, size)
        self._memory_bytes += size
        while len(self._memory) > 1 and (
                (self.memo_entries is not None
                 and len(self._memory) > self.memo_entries)
                or (self.memo_bytes is not None
                    and self._memory_bytes > self.memo_bytes)):
            _, (_, dropped) = self._memory.popitem(last=False)
            self._memory_bytes -= dropped
            self.memo_evictions += 1

    def memo_stats(self) -> Dict[str, Optional[int]]:
        """Occupancy and eviction counters of the in-memory memo."""
        with self._lock:
            return {
                "entries": len(self._memory),
                "bytes": self._memory_bytes,
                "limit_entries": self.memo_entries,
                "limit_bytes": self.memo_bytes,
                "evictions": self.memo_evictions,
            }

    def _quarantine(self, path: str) -> None:
        """Move one undeserialisable object into ``quarantine/`` under
        the cache root and count the event.  Racing a concurrent
        worker (the file vanishing mid-move) degrades to a no-op —
        either way the broken bytes no longer answer lookups."""
        quarantine_dir = os.path.join(self.root, "quarantine")
        try:
            size = os.stat(path).st_size
        except OSError:
            size = 0
        try:
            os.makedirs(quarantine_dir, exist_ok=True)
            os.replace(path, os.path.join(quarantine_dir,
                                          os.path.basename(path)))
        except OSError:
            return
        self._disk_bytes_add(-size)
        with self._lock:
            self.quarantined += 1

    def _disk_bytes_add(self, delta: int) -> None:
        """Shift the running ``objects/`` byte tally; a tally driven
        negative signals drift (a concurrent worker changed the tree
        under us) and resets to unknown, forcing a rescan."""
        with self._lock:
            if self._disk_bytes is None:
                return
            self._disk_bytes += delta
            if self._disk_bytes < 0:
                self._disk_bytes = None

    def _scan_objects(self) -> Tuple[int, list]:
        """Walk ``objects/`` once: ``(total_bytes, [(mtime, path,
        size), ...])`` of every stored artifact."""
        objects_root = os.path.join(self.root, "objects")
        entries = []
        total = 0
        for dirpath, _, filenames in os.walk(objects_root):
            for filename in filenames:
                if not filename.endswith(".pkl"):
                    continue
                path = os.path.join(dirpath, filename)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                entries.append((stat.st_mtime, path, stat.st_size))
                total += stat.st_size
        return total, entries

    def _evict_if_needed(self, protect: Optional[str] = None) -> None:
        """Drop oldest on-disk objects (by mtime, ties broken by path)
        until the store fits ``limit_bytes`` again.

        A running byte tally (updated on every store/quarantine) makes
        the common under-limit store O(1): the full ``objects/`` walk
        happens only on first use or when the tally crosses the limit,
        and each walk resynchronises the tally — absorbing any drift
        from concurrent workers sharing the directory.  Ties on mtime
        (1-second-granularity filesystems) break by *path*, never by
        file size, so eviction order is deterministic and independent
        of artifact content.

        Eviction only unlinks files — in-memory memoisation keeps this
        process's working set, and an evicted artifact is simply
        recomputed on its next cold lookup (readers treat a vanished
        object as a miss, so racing a concurrent worker's read is
        safe).  ``protect`` exempts the object this store() call just
        wrote: evicting it would invalidate the scheduler's knowledge
        that the artifact is addressable before anyone could read it.
        Races with concurrent workers (a file disappearing mid-scan)
        degrade to no-ops.
        """
        with self._lock:
            tally = self._disk_bytes
        if tally is not None and tally <= self.limit_bytes:
            return
        total, entries = self._scan_objects()
        if total > self.limit_bytes:
            entries.sort(key=lambda entry: (entry[0], entry[1]))
            for _, path, size in entries:
                if protect is not None and path == protect:
                    continue
                try:
                    os.unlink(path)
                except OSError:
                    continue
                self.evictions += 1
                total -= size
                if total <= self.limit_bytes:
                    break
        with self._lock:
            self._disk_bytes = total

    # -- Introspection ------------------------------------------------------

    def _object_path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], f"{key}.pkl")

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


def _estimate_size(value: Any) -> int:
    """Rough byte size of an artifact that couldn't be pickled or
    stat'ed — the memo accounting only needs the right magnitude."""
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return sys.getsizeof(value)

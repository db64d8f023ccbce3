"""Content-addressed result caching: on-disk store plus memory tier.

Three layers share one ``get(task)`` / ``put(task, record)`` interface:

:class:`ResultCache`
    The durable tier.  Layout: ``<root>/<key[:2]>/<key>.json`` where
    ``key`` is the SHA-256 of the task's canonical input payload (see
    :meth:`repro.runtime.tasks.EvaluationTask.cache_key`).  Each file is
    an envelope ``{"schema": ..., "key": ..., "record": {...}}`` so a
    read can verify it is looking at the entry it asked for.
:class:`MemoryLRUCache`
    A bounded in-process tier keyed by the same content addresses —
    microsecond lookups with least-recently-used eviction.
:class:`TieredResultCache`
    Memory in front of disk: lookups probe memory first, disk hits are
    promoted into memory, writes go to both tiers.  The serving layer
    and the CLI runtime paths share this composition.

Disk reads are corruption tolerant by design: a truncated, unparseable,
or mismatched file logs a warning, counts as a ``corrupt`` (and a
miss), and the caller recomputes — a damaged cache can cost time, never
correctness.  Writes are atomic (temp file + ``os.replace``) so a
crashed run cannot leave a half-written entry behind.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.runtime.records import validate_record
from repro.runtime.tasks import CACHE_KEY_SCHEMA_VERSION, EvaluationTask

logger = logging.getLogger(__name__)


@dataclass
class CacheStats:
    """Hit/miss/corruption/eviction counters for one cache tier."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    writes: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from this tier (0.0 with no lookups)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        """Plain-data form for manifests and reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "writes": self.writes,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def delta(self, before: "CacheStats") -> "CacheStats":
        """Counters accumulated since the ``before`` snapshot."""
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            corrupt=self.corrupt - before.corrupt,
            writes=self.writes - before.writes,
            evictions=self.evictions - before.evictions,
        )


@dataclass
class ResultCache:
    """Content-addressed store of evaluation records.

    Attributes
    ----------
    root:
        Cache directory (created lazily on first write).
    schema_version:
        Key-schema version this cache reads and writes.  Entries written
        under a different version hash to different keys, so bumping the
        version invalidates the cache without deleting anything.
    stats:
        Counters accumulated over this instance's lifetime.
    """

    root: Path
    schema_version: int = CACHE_KEY_SCHEMA_VERSION
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        self.root = Path(self.root)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def key_for(self, task: EvaluationTask) -> str:
        """The content address of a task under this cache's schema."""
        return task.cache_key(self.schema_version)

    def path_for(self, key: str) -> Path:
        """On-disk location of an entry (two-level fan-out by prefix)."""
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, task: EvaluationTask) -> dict | None:
        """The cached record for ``task``, or ``None`` on miss/corruption."""
        key = self.key_for(task)
        path = self.path_for(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError as exc:
            self._corrupt(path, f"unreadable ({exc})")
            return None
        try:
            envelope = json.loads(text)
            if not isinstance(envelope, dict):
                raise ValueError("envelope is not an object")
            if envelope.get("schema") != self.schema_version:
                raise ValueError(
                    f"schema {envelope.get('schema')!r} != {self.schema_version}"
                )
            if envelope.get("key") != key:
                raise ValueError("stored key does not match content address")
            record = envelope["record"]
            validate_record(record)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            self._corrupt(path, str(exc))
            return None
        self.stats.hits += 1
        return record

    def put(self, task: EvaluationTask, record: dict) -> Path:
        """Store a record atomically; returns the entry path."""
        validate_record(record)
        key = self.key_for(task)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {"schema": self.schema_version, "key": key, "record": record}
        # One ``dumps`` call runs the C encoder; ``json.dump`` streams
        # through the pure-Python one.  The bytes are the same.
        text = json.dumps(envelope, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        return path

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _corrupt(self, path: Path, reason: str) -> None:
        logger.warning(
            "result cache entry %s is unusable (%s); recomputing", path, reason
        )
        self.stats.corrupt += 1
        self.stats.misses += 1

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))


#: Default capacity of the in-memory tier (records are small dicts, so
#: this is a few MB of resident memory at most).
DEFAULT_MEMORY_ENTRIES = 4096


class MemoryLRUCache:
    """Bounded in-process record cache with least-recently-used eviction.

    Keys are the same content addresses the on-disk tier uses, so the
    two tiers are interchangeable views of the same keyspace.  Both
    ``get`` and ``put`` refresh recency; inserting beyond ``max_entries``
    evicts the least recently used entry and counts it in
    ``stats.evictions``.  Thread-safe — the serving layer touches it
    from the event loop while campaign code may share it across runs.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MEMORY_ENTRIES,
        schema_version: int = CACHE_KEY_SCHEMA_VERSION,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self.schema_version = schema_version
        self.stats = CacheStats()
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self._lock = threading.Lock()

    def key_for(self, task: EvaluationTask) -> str:
        """The content address of a task under this cache's schema."""
        return task.cache_key(self.schema_version)

    def get(self, task: EvaluationTask) -> dict | None:
        """The cached record for ``task``, or ``None`` on miss."""
        return self.get_key(self.key_for(task))

    def get_key(self, key: str) -> dict | None:
        """Lookup by precomputed content address (hot-path variant)."""
        with self._lock:
            record = self._entries.get(key)
            if record is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return record

    def put(self, task: EvaluationTask, record: dict) -> None:
        """Store a record, evicting the LRU entry when full."""
        self.put_key(self.key_for(task), record)

    def put_key(self, key: str, record: dict) -> None:
        """Store by precomputed content address (hot-path variant)."""
        with self._lock:
            self._entries[key] = record
            self._entries.move_to_end(key)
            self.stats.writes += 1
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def evict(self, key: str) -> bool:
        """Drop one entry by content address; ``True`` if it existed."""
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self.stats.evictions += 1
            return True

    def clear(self) -> None:
        """Drop every entry (counters are retained)."""
        with self._lock:
            self.stats.evictions += len(self._entries)
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class TieredResultCache:
    """Memory LRU tier in front of the content-addressed disk store.

    Lookups probe memory first; a disk hit is promoted into memory so
    repeated queries stay resident.  Writes land in both tiers.  Either
    tier may be absent-equivalent: ``disk=None`` gives a purely
    in-process cache (the serving layer's default when no cache
    directory is configured).

    ``stats`` is the *combined* per-lookup view — one ``get`` counts one
    lookup, a hit in either tier counts as a hit.  ``tier_stats``
    exposes the per-tier counters for the serving layer's ``/metrics``.
    """

    def __init__(self, memory: MemoryLRUCache, disk: ResultCache | None = None):
        if disk is not None and memory.schema_version != disk.schema_version:
            raise ValueError(
                "memory and disk tiers must share a key schema "
                f"({memory.schema_version} != {disk.schema_version})"
            )
        self.memory = memory
        self.disk = disk

    @property
    def schema_version(self) -> int:
        return self.memory.schema_version

    @property
    def root(self) -> Path | None:
        """The durable tier's directory (``None`` when memory-only)."""
        return self.disk.root if self.disk is not None else None

    @property
    def stats(self) -> CacheStats:
        """Combined per-lookup counters across both tiers."""
        memory, disk = self.memory.stats, None
        if self.disk is None:
            return CacheStats(
                hits=memory.hits,
                misses=memory.misses,
                corrupt=memory.corrupt,
                writes=memory.writes,
                evictions=memory.evictions,
            )
        disk = self.disk.stats
        # Every combined miss fell through memory to disk, so disk
        # misses are the overall misses; hits add across tiers.
        return CacheStats(
            hits=memory.hits + disk.hits,
            misses=disk.misses,
            corrupt=disk.corrupt,
            writes=disk.writes,
            evictions=memory.evictions,
        )

    def tier_stats(self) -> dict[str, CacheStats]:
        """Per-tier counters, keyed ``memory`` / ``disk``."""
        tiers = {"memory": self.memory.stats}
        if self.disk is not None:
            tiers["disk"] = self.disk.stats
        return tiers

    def key_for(self, task: EvaluationTask) -> str:
        """The content address of a task under this cache's schema."""
        return task.cache_key(self.schema_version)

    def get(self, task: EvaluationTask) -> dict | None:
        """Memory first, then disk (promoting the hit); ``None`` on miss."""
        key = self.key_for(task)
        record = self.memory.get_key(key)
        if record is not None:
            return record
        if self.disk is None:
            return None
        record = self.disk.get(task)
        if record is not None:
            self.memory.put_key(key, record)
        return record

    def put(self, task: EvaluationTask, record: dict) -> None:
        """Store a record in both tiers."""
        self.memory.put_key(self.key_for(task), record)
        if self.disk is not None:
            self.disk.put(task, record)

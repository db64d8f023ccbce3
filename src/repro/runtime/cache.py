"""Content-addressed result caching: on-disk store plus memory tier.

Three layers share one interface: a batched ``get_many(keys)`` /
``put_many(entries)`` keyed by content address, which the executor uses,
and single-entry ``get(task)`` / ``put(task, record)`` built on it:

:class:`ResultCache`
    The durable tier: one SQLite database per cache directory,
    ``<root>/results.sqlite3``, in WAL mode, holding one table
    ``entries(key TEXT PRIMARY KEY, body TEXT)``.  ``key`` is the
    SHA-256 of the task's canonical input payload (see
    :meth:`repro.runtime.tasks.EvaluationTask.cache_key`); ``body`` is
    the envelope ``{"schema": ..., "key": ..., "record": {...}}`` as
    ``json.dumps(envelope, sort_keys=True)`` writes it, so a read can
    verify it is looking at the entry it asked for.
:class:`MemoryLRUCache`
    A bounded in-process tier keyed by the same content addresses —
    microsecond lookups with least-recently-used eviction.
:class:`TieredResultCache`
    Memory in front of disk: lookups probe memory first, disk hits are
    promoted into memory, writes go to both tiers.  The serving layer
    shares this composition.

Disk reads are corruption tolerant by design: an unparseable or
mismatched row logs a warning naming its key, counts as a ``corrupt``
(and a miss), and the caller recomputes and overwrites it; a store file
that is not a database at all is moved aside with a warning and a new
one is started — a damaged cache can cost time, never correctness.  A
batch of writes is one transaction, so a crashed run or a failed write
leaves no half-written entry behind.  Every (process, thread) opens its
own connection; a forked worker never touches its parent's.  A store
that cannot be opened at all (a directory that cannot be written, a path
that is a file) raises :class:`CacheOpenError`.
"""

from __future__ import annotations

import json
import logging
import os
import sqlite3
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.runtime.records import validate_record
from repro.runtime.tasks import CACHE_KEY_SCHEMA_VERSION, EvaluationTask

logger = logging.getLogger(__name__)

#: File name of the one store inside a cache directory.
STORE_NAME = "results.sqlite3"

#: Seconds a connection waits for another writer's lock before failing,
#: so processes sharing a cache directory queue instead of erroring.
BUSY_TIMEOUT_S = 60.0

#: Keys per ``IN (...)`` probe query, well under SQLite's limit on bound
#: parameters.
PROBE_BATCH = 500

#: ``json.dumps(envelope, sort_keys=True)`` as one shared encoder: the C
#: encoder with the same bytes, without building an encoder per entry
#: (``json.dump`` would stream through the slower pure-Python one).
_ENVELOPE_ENCODER = json.JSONEncoder(sort_keys=True)

#: SQLite primary result codes.  ``sqlite3`` names them, and sets
#: ``sqlite_errorcode`` on its exceptions, only from Python 3.11; on 3.10
#: the code is read from the message.
_SQLITE_BUSY, _SQLITE_CORRUPT, _SQLITE_NOTADB = 5, 11, 26
_CODES_BY_MESSAGE = {
    "database is locked": _SQLITE_BUSY,
    "database disk image is malformed": _SQLITE_CORRUPT,
    "file is not a database": _SQLITE_NOTADB,
}

#: Result codes meaning the store file itself is damaged.
_DAMAGED_CODES = frozenset({_SQLITE_CORRUPT, _SQLITE_NOTADB})


class CacheOpenError(OSError):
    """The store of a cache directory cannot be opened or created."""


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

    Connections are opened lazily, one per (process id, thread), and
    closed by :meth:`close` or when the cache is garbage collected.
    """

    root: Path
    schema_version: int = CACHE_KEY_SCHEMA_VERSION
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        self.root = Path(self.root)
        # (pid, thread id) -> (connection, inode of the file it opened)
        self._connections: dict[tuple[int, int], tuple[sqlite3.Connection, int]]
        self._connections = {}
        self._lock = threading.Lock()
        weakref.finalize(self, _close_connections, self._connections, self._lock)

    @property
    def path(self) -> Path:
        """The store file."""
        return self.root / STORE_NAME

    def key_for(self, task: EvaluationTask) -> str:
        """The content address of a task under this cache's schema."""
        return task.cache_key(self.schema_version)

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, task: EvaluationTask) -> dict | None:
        """The cached record for ``task``, or ``None`` on miss/corruption."""
        return self.get_many([self.key_for(task)])[0]

    def put(self, task: EvaluationTask, record: dict) -> None:
        """Store one record."""
        self.put_many([(self.key_for(task), record)])

    def get_many(self, keys: Sequence[str]) -> list[dict | None]:
        """Records for ``keys`` in order (``None`` on miss/corruption),
        read in one batched probe."""
        keys = list(keys)
        bodies = self._recovering(self._select, keys) if keys else {}
        records = []
        for key in keys:
            body = bodies.get(key)
            if body is None:
                self.stats.misses += 1
                records.append(None)
            else:
                records.append(self._decode(key, body))
        return records

    def put_many(self, entries: Iterable[tuple[str, dict]]) -> None:
        """Store ``(key, record)`` pairs in one transaction: all or none."""
        rows = [(key, self._encode(key, record)) for key, record in entries]
        if rows:
            self._recovering(self._insert, rows)
            self.stats.writes += len(rows)

    def open(self) -> None:
        """Open this thread's connection now, creating the store if it
        does not exist; raises :class:`CacheOpenError` when ``root``
        cannot hold one (a file, a read-only directory)."""
        self._recovering(self._connection, True)

    def close(self) -> None:
        """Close this process's connections (reopened on next use); call
        it only while no other thread is using the cache."""
        _close_connections(self._connections, self._lock)

    def __len__(self) -> int:
        """Number of entries in the store."""
        return self._recovering(self._count)

    # ------------------------------------------------------------------
    # Envelopes
    # ------------------------------------------------------------------
    def _encode(self, key: str, record: dict) -> str:
        validate_record(record)
        envelope = {"schema": self.schema_version, "key": key, "record": record}
        return _ENVELOPE_ENCODER.encode(envelope)

    def _decode(self, key: str, body) -> dict | None:
        try:
            envelope = json.loads(body)
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
        except (ValueError, KeyError, TypeError) as exc:
            logger.warning(
                "result cache entry %s in %s is unusable (%s); recomputing",
                key, self.path, exc,
            )
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return record

    # ------------------------------------------------------------------
    # Store access
    # ------------------------------------------------------------------
    def _select(self, keys: list[str]) -> dict:
        connection = self._connection(create=False)
        if connection is None:
            return {}
        found = {}
        for start in range(0, len(keys), PROBE_BATCH):
            batch = keys[start : start + PROBE_BATCH]
            marks = ",".join("?" * len(batch))
            found.update(
                connection.execute(
                    f"SELECT key, body FROM entries WHERE key IN ({marks})", batch
                )
            )
        return found

    def _insert(self, rows: list[tuple[str, str]]) -> None:
        connection = self._connection(create=True)
        with connection:
            connection.execute("BEGIN IMMEDIATE")
            connection.executemany(
                "INSERT OR REPLACE INTO entries (key, body) VALUES (?, ?)", rows
            )

    def _count(self) -> int:
        connection = self._connection(create=False)
        if connection is None:
            return 0
        return connection.execute("SELECT COUNT(*) FROM entries").fetchone()[0]

    def _connection(self, create: bool) -> sqlite3.Connection | None:
        """This thread's connection; ``None`` when the store does not
        exist and ``create`` is false (a read never creates it)."""
        ident = (os.getpid(), threading.get_ident())
        entry = self._connections.get(ident)
        if entry is not None:
            return entry[0]
        if not create and not self.path.exists():
            return None
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            # check_same_thread is off so the finalizer may close it from
            # another thread; each connection is used only by its own
            # thread.
            connection = sqlite3.connect(
                self.path,
                timeout=BUSY_TIMEOUT_S,
                isolation_level=None,
                check_same_thread=False,
            )
        except (OSError, sqlite3.OperationalError) as exc:
            raise self._open_error(exc) from exc
        try:
            _enable_wal(connection)
            # WAL + NORMAL: a commit survives a crash of the program (not
            # necessarily a power loss) and never leaves the store torn.
            connection.execute("PRAGMA synchronous=NORMAL")
            with connection:
                # IMMEDIATE takes the write lock up front, through the
                # busy timeout, so racing first opens queue.
                connection.execute("BEGIN IMMEDIATE")
                connection.execute(
                    "CREATE TABLE IF NOT EXISTS entries "
                    "(key TEXT PRIMARY KEY, body TEXT NOT NULL)"
                )
            inode = os.stat(self.path).st_ino
        except sqlite3.OperationalError as exc:
            # Damage raises plain DatabaseError and is recovered by the
            # caller; an operational failure here (read-only, locked past
            # the timeout) leaves no usable store.
            connection.close()
            raise self._open_error(exc) from exc
        except BaseException:
            connection.close()
            raise
        with self._lock:
            self._connections[ident] = (connection, inode)
        return connection

    def _open_error(self, exc: Exception) -> CacheOpenError:
        return CacheOpenError(f"cannot open result cache {self.root}: {exc}")

    def _recovering(self, operation, *args):
        """``operation(*args)``, retried once on a fresh store when the
        store file turns out not to be a usable database."""
        try:
            return operation(*args)
        except sqlite3.DatabaseError as exc:
            if _error_code(exc) not in _DAMAGED_CODES:
                raise
            self._set_aside(exc)
        return operation(*args)

    def _set_aside(self, exc: sqlite3.DatabaseError) -> None:
        """Rename a damaged store aside (dropping its WAL and shared
        memory files) so the next connection starts a new one.  A store
        another thread or process already replaced is left alone."""
        with self._lock:
            entry = self._connections.pop((os.getpid(), threading.get_ident()), None)
        inode = None
        if entry is not None:
            entry[0].close()
            inode = entry[1]
        aside = self.path.with_name(f"{STORE_NAME}.damaged-{time.time_ns()}")
        try:
            if inode is not None and os.stat(self.path).st_ino != inode:
                return
            os.replace(self.path, aside)
        except FileNotFoundError:
            return
        logger.warning(
            "result cache store %s is damaged (%s); moved it to %s and "
            "started a new one", self.path, exc, aside,
        )
        for suffix in ("-wal", "-shm"):
            try:
                os.unlink(f"{self.path}{suffix}")
            except FileNotFoundError:
                pass


def _error_code(exc: sqlite3.Error) -> int:
    """The primary SQLite result code of ``exc`` (0 when unknown)."""
    code = getattr(exc, "sqlite_errorcode", None)
    if code is None:
        return _CODES_BY_MESSAGE.get(str(exc), 0)
    return code & 0xFF


def _enable_wal(connection: sqlite3.Connection) -> None:
    """Put the store in WAL mode (a persistent, one-time switch).

    Switching fails at once with ``SQLITE_BUSY`` while another
    connection holds a lock — the busy timeout does not apply — so the
    first opens of a new store by several threads or processes retry
    until :data:`BUSY_TIMEOUT_S`.  Where WAL is unavailable SQLite keeps
    its rollback journal, which is slower but as safe.
    """
    deadline = time.monotonic() + BUSY_TIMEOUT_S
    while True:
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if _error_code(exc) != _SQLITE_BUSY or time.monotonic() > deadline:
                raise
            time.sleep(0.005)


def _close_connections(connections: dict, lock: threading.Lock) -> None:
    """Close the calling process's connections in ``connections``; a
    forked child leaves its parent's alone."""
    pid = os.getpid()
    with lock:
        mine = [ident for ident in connections if ident[0] == pid]
        closing = [connections.pop(ident)[0] for ident in mine]
    for connection in closing:
        connection.close()


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
        return self.get_many([self.key_for(task)])[0]

    def put(self, task: EvaluationTask, record: dict) -> None:
        """Store a record in both tiers."""
        self.put_many([(self.key_for(task), record)])

    def get_many(self, keys: Sequence[str]) -> list[dict | None]:
        """Memory first, then one disk probe for the rest (promoting
        its hits); ``None`` per miss."""
        records = [self.memory.get_key(key) for key in keys]
        missing = [i for i, record in enumerate(records) if record is None]
        if self.disk is not None and missing:
            found = self.disk.get_many([keys[i] for i in missing])
            for i, record in zip(missing, found):
                if record is not None:
                    self.memory.put_key(keys[i], record)
                    records[i] = record
        return records

    def put_many(self, entries: Iterable[tuple[str, dict]]) -> None:
        """Store ``(key, record)`` pairs in both tiers."""
        entries = list(entries)
        for key, record in entries:
            self.memory.put_key(key, record)
        if self.disk is not None:
            self.disk.put_many(entries)

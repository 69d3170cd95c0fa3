"""Versioned on-disk persistence for the pipeline's amortisation caches.

The batched annotation engine earns most of its speed from caches that are
pure functions of immutable inputs: the search engine's token-signature ->
ranked-results cache (valid for one exact corpus and one BM25
parametrisation) and the annotator's snippet -> label memo (valid for one
fitted classifier).  Both are one class, :class:`PersistedDict`: a plain
``dict`` in memory that loads from and merge-saves to one pickled file,
so a second process -- or a second CLI invocation -- starts warm instead
of recomputing them.  The file holds the dict itself, nothing derived
from it.

Every file carries three guards checked on load:

``format_version``
    bumped whenever the payload layout changes; old files are ignored;
``kind``
    what the dict is (``"search-results"``, ``"label-memo"``), so a
    file can never be loaded into the wrong cache;
``fingerprint``
    the producer's identity token (corpus content digest + BM25 parameters
    for the engine, a classifier weight digest for the memo).  A mismatch
    means the world changed -- corpus grew, classifier retrained -- and
    the cache is silently treated as cold, mirroring the in-memory
    invalidation hooks (``SearchEngine._validate_caches`` drops ranking
    caches whenever the BM25 parameters change).

Concurrency
-----------
A cache directory may be shared by several worker processes (the
``annotate_tables(workers=N)`` execution layer).  Three mechanisms make
that safe and cheap:

* **advisory file locking** -- every save takes an exclusive ``flock`` on
  a ``<name>.lock`` sidecar, every load a shared one, so a read never
  observes a half-finished merge and two writers serialise.  Lock waits
  are bounded (:data:`DEFAULT_LOCK_TIMEOUT`); on timeout a load reports a
  cold start and a save is skipped (both ``False``) rather than
  deadlocking -- persistence is an optimisation, never a correctness
  dependency.  On platforms without ``fcntl`` locking degrades to
  best-effort unlocked operation (writes stay atomic either way).
* **merge-on-save** -- under the exclusive lock the existing file's dict
  (same version, kind and fingerprint) is unioned with memory, fresh
  entries winning, before the replace, so a worker's save never discards
  entries another worker persisted in the meantime.
* **skipping IO that changes nothing** -- a :class:`PersistedDict`
  remembers the file's stat stamp from its last load or save, so a warm
  process does not re-read a file it already holds, nor rewrite one that
  already holds everything it has.

Writes go through a temporary file and ``os.replace`` so a crashed writer
never leaves a truncated cache behind; the temporary file is unlinked even
when serialisation fails (disk full, unpicklable value).  Loads treat
*any* unreadable file as a cold start rather than an error.

A file's bytes are a function of its entries alone: they are saved in
sorted key order, and pickled in fast mode, with pickle's object memo
off, so no bytes depend on which equal strings happen to be one object,
on insertion order, on ``PYTHONHASHSEED`` or on which of several
processes sharing a directory saved first.  The entries and guards are
plain dicts, tuples, strings and numbers, so a valid file names no
global: the loader refuses any that does, and a file dropped into a
shared directory cannot make a load call code.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import struct
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.observability import metrics as obs_metrics
from repro.observability import tracing
from repro.observability.log import get_logger

logger = get_logger(__name__)

try:  # POSIX advisory locking; degrade gracefully elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

CACHE_FORMAT_VERSION = 4
"""Bump when the persisted payload layout changes; old files are ignored.
Version 4 holds plain values only (version 3 pickled ``SearchResult``
objects; version 2 was ``{results, norms}``)."""

DEFAULT_LOCK_TIMEOUT = 10.0
"""Seconds a save/load waits for the advisory lock before giving up.

Read at *call* time (by every cache save and load, and by artifact calls
left at ``lock_timeout=None``), so a long-lived process (the resident
annotation service) -- or a test -- can tighten every subsequent wait by
rebinding this module attribute."""

_LOCK_POLL_SECONDS = 0.02
"""Base interval between non-blocking lock attempts while waiting."""

_LOCK_POLL_MAX_SECONDS = 0.25
"""Cap on the exponential backoff between lock attempts."""

_lock_wait_guard = threading.Lock()
_lock_wait_total = 0.0


def _record_lock_wait(seconds: float) -> None:
    global _lock_wait_total
    with _lock_wait_guard:
        _lock_wait_total += seconds
    # Contended locks are a throughput signal: surface them on the
    # metrics registry and (when tracing) as a span.  Only ever called
    # on the contended path, so the fast path stays untouched.
    obs_metrics.get_registry().observe("cache.lock_wait_seconds", seconds)
    tracing.record_span("cache.lock_wait", seconds)


def lock_wait_seconds() -> float:
    """Cumulative seconds this process has spent waiting on advisory locks.

    Monotonically increasing and thread-safe; diagnostics snapshot it
    before and after a run and report the delta (contended locks are a
    throughput signal, so they belong in the run record next to cache
    load/save accounting).
    """
    with _lock_wait_guard:
        return _lock_wait_total


class CacheLockTimeout(Exception):
    """Internal: the advisory lock could not be acquired in time."""


def lock_path_for(path) -> Path:
    """The sidecar lock file guarding *path* (kept separate from the
    payload so ``os.replace`` never swaps the inode a lock lives on)."""
    path = Path(path)
    return path.with_name(path.name + ".lock")


@contextmanager
def _locked(path: Path, exclusive: bool, timeout: float):
    """Advisory lock on *path*'s sidecar; raises :class:`CacheLockTimeout`.

    No-op (still yields) when ``fcntl`` is unavailable.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    lock_file = lock_path_for(path)
    lock_file.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(lock_file, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        operation = (fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH) | fcntl.LOCK_NB
        started = time.monotonic()
        deadline = started + max(timeout, 0.0)
        # Jittered exponential backoff between attempts: a fixed poll
        # interval makes N waiters retry in lockstep (thundering herd on
        # the same flock the instant it frees); doubling with a random
        # 0.5x-1.5x factor spreads the retries out.
        delay = _LOCK_POLL_SECONDS
        waited = False
        while True:
            try:
                fcntl.flock(fd, operation)
                break
            except OSError:
                now = time.monotonic()
                if now >= deadline:
                    _record_lock_wait(now - started)
                    raise CacheLockTimeout(
                        f"could not lock {lock_file} within {timeout:.1f}s"
                    ) from None
                waited = True
                time.sleep(
                    min(delay * (0.5 + random.random()), deadline - now)
                )
                delay = min(delay * 2.0, _LOCK_POLL_MAX_SECONDS)
        if waited:
            _record_lock_wait(time.monotonic() - started)
        try:
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


class _PlainUnpickler(pickle.Unpickler):
    """Unpickles plain values only: a pickle naming any global (a class
    to build, a function to call) raises instead of importing it."""

    def find_class(self, module: str, name: str):
        raise pickle.UnpicklingError(f"refusing global {module}.{name}")


def _read_blob(path) -> dict | None:
    """The raw guarded blob at *path*, or ``None`` for anything unreadable.

    A missing file is the normal cold start and stays silent; a file that
    *exists* but cannot be unpickled (truncated by a crashed writer on a
    pre-atomic layout, bit rot, a foreign file dropped into the cache
    dir, a pickle naming a global) is worth a warning -- the operator
    should know warmth was lost and why -- but still only means "start
    cold", never an exception.
    """
    try:
        with open(path, "rb") as handle:
            blob = _PlainUnpickler(handle).load()
    except FileNotFoundError:
        return None
    except Exception as error:
        # Unpickling a foreign file can raise nearly anything -- missing
        # modules or attributes from an old layout, truncation, corruption.
        # Every failure mode means the same thing here: start cold.
        logger.warning(
            "cache.file_unreadable",
            path=str(path),
            error=f"{type(error).__name__}: {error}",
            outcome="starting cold",
        )
        return None
    if not isinstance(blob, dict):
        logger.warning(
            "cache.file_foreign",
            path=str(path),
            found=type(blob).__name__,
            outcome="starting cold",
        )
        return None
    return blob


@contextmanager
def _atomic_replace(path: Path):
    """A binary handle on a temp file beside *path* that replaces *path*
    when the block exits cleanly.  The temp file never outlives the block,
    even when writing raised (disk full, unpicklable value), so a failed
    write leaves the old file, and nothing else, behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp_path, "wb") as handle:
            yield handle
        os.replace(tmp_path, path)
    finally:
        if tmp_path.exists():
            try:
                tmp_path.unlink()
            except OSError:  # pragma: no cover - racing unlink
                pass


def _file_stamp(path) -> tuple | None:
    """``(device, inode, size, mtime_ns, ctime_ns)`` of *path* (a path or
    an open descriptor), or ``None`` when it is missing.  Every write
    replaces the file (a new inode, new times), so while the stamped
    inode is held open (:func:`_pin`), and so cannot be freed and its
    number handed to a new file, an equal stamp means the file was not
    rewritten."""
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (
        stat.st_dev,
        stat.st_ino,
        stat.st_size,
        stat.st_mtime_ns,
        stat.st_ctime_ns,
    )


def _pin(path):
    """An open handle on the file at *path*, or ``None`` when it vanished.

    Filesystems hand a freed inode number to the next file they create
    (ext4 does so at once), and timestamps may be as coarse as a clock
    tick, so a file written to replace another of the same size within
    one tick can carry its exact stamp.  Holding the stamped file open
    keeps its inode allocated, so no other file can.  Without POSIX
    locking (and its replace-while-open semantics) nothing is pinned and
    every load and save does its IO.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        return None
    try:
        return open(path, "rb", buffering=0)
    except OSError:
        return None


class PersistedDict(dict):
    """A dict that loads from, and merge-saves to, one guarded cache file.

    Lookups and inserts are the plain dict operations; the class adds
    :meth:`load` and :meth:`save`, the IO counters :attr:`loads`,
    :attr:`saves`, :attr:`load_bytes` and :attr:`save_bytes`
    (observability only, never semantics), and what its last load or
    save of the file left in sync.

    That sync state is the file's stamp (:func:`_file_stamp`; the file
    is held open, see :func:`_pin`), path and fingerprint, memory's entry
    count, whether memory then held everything in the file and whether
    the file held everything in memory.  A load is skipped while the file is unchanged and memory
    holds all of it; a save is skipped while the file is unchanged, holds
    all of memory, and nothing was inserted since.  Entries are only
    inserted between clears, so an equal count means no inserts;
    :meth:`clear` forgets the file, and any change to the file changes
    its stamp.  A load folds the file into memory and a save merges
    memory into the file, so one side always holds the other, and equal
    counts then mean equal key sets.

    A pickled copy (a spawned worker) keeps its entries and counters and
    reads the file for itself.

    >>> import os, tempfile
    >>> tmp = tempfile.TemporaryDirectory()
    >>> path = os.path.join(tmp.name, "label_memo.cache")
    >>> memo = PersistedDict("label-memo")
    >>> memo["hotel melisse rooms"] = "hotel"
    >>> memo.save(path, "classifier-1")
    True
    >>> warm = PersistedDict("label-memo")
    >>> warm.load(path, "classifier-1"), dict(warm), warm.loads
    (True, {'hotel melisse rooms': 'hotel'}, 1)
    >>> warm.load(path, "classifier-1"), warm.loads  # unchanged: not read
    (True, 1)
    >>> PersistedDict("label-memo").load(path, "classifier-2")
    False
    >>> tmp.cleanup()
    """

    def __init__(self, kind: str) -> None:
        super().__init__()
        self.kind = kind
        self.loads = 0
        self.saves = 0
        self.load_bytes = 0
        self.save_bytes = 0
        self._pinned = None
        self._forget()

    def __reduce__(self):
        counters = {
            name: getattr(self, name)
            for name in ("loads", "saves", "load_bytes", "save_bytes")
        }
        return (type(self), (self.kind,), counters, None, iter(self.items()))

    def __del__(self) -> None:
        self._forget()  # closes the pinned file

    def clear(self) -> None:
        """Drop every entry, and what the last load or save left in sync."""
        super().clear()
        self._forget()

    def _forget(self) -> None:
        if self._pinned is not None:
            self._pinned.close()
        self._pinned = None
        self._synced: tuple | None = None
        self._count = 0
        self._memory_has_file = False
        self._file_has_memory = False

    def _unchanged(self, path, fingerprint) -> bool:
        # Every guard a load checks, and the stamp: a file of another
        # format version or fingerprint, or one rewritten since, is never
        # the one remembered.
        return self._synced == (
            os.fspath(path),
            fingerprint,
            CACHE_FORMAT_VERSION,
            _file_stamp(path),
        )

    def _remember(self, path, fingerprint, pinned, count, file_count, loaded):
        """Remember the *pinned* file in sync; returns its size (0 when it
        vanished under us and nothing is remembered)."""
        self._forget()
        if pinned is None:
            return 0
        stamp = _file_stamp(pinned.fileno())
        self._pinned = pinned
        self._synced = (os.fspath(path), fingerprint, CACHE_FORMAT_VERSION, stamp)
        self._count = count
        self._memory_has_file = loaded or count == file_count
        self._file_has_memory = not loaded or count == file_count
        return stamp[2]

    def _entries_in(self, path, fingerprint) -> dict | None:
        """The entries of the file at *path* iff every guard matches."""
        blob = _read_blob(path)
        if (
            blob is None
            or blob.get("format_version") != CACHE_FORMAT_VERSION
            or blob.get("kind") != self.kind
            or blob.get("fingerprint") != fingerprint
        ):
            return None
        entries = blob.get("payload")
        return entries if isinstance(entries, dict) else None

    def load(self, path, fingerprint: Any) -> bool:
        """Fold the file at *path*, written under *fingerprint*, into memory.

        ``False`` means "start cold": the file is missing, unreadable,
        from another format version, of another kind, was written
        against another *fingerprint* (the corpus changed, the classifier
        was retrained, the parameters changed) -- or the shared lock
        could not be taken within :data:`DEFAULT_LOCK_TIMEOUT` (another
        process is mid-merge and stuck; cold-starting beats crashing or
        hanging).  ``True`` also when the read was skipped because memory
        already holds the unchanged file.
        """
        if self._memory_has_file and self._unchanged(path, fingerprint):
            return True
        try:
            with _locked(Path(path), exclusive=False, timeout=DEFAULT_LOCK_TIMEOUT):
                entries = self._entries_in(path, fingerprint)
                # Writers need the exclusive lock, so this is the file
                # just read.
                pinned = _pin(path) if entries is not None else None
        except CacheLockTimeout:
            entries = None
        if entries is None:
            self._forget()
            return False
        self.update(entries)
        read = self._remember(
            path, fingerprint, pinned, len(self), len(entries), True
        )
        if read:
            self.loads += 1
            self.load_bytes += read
        return True

    def save(self, path, fingerprint: Any) -> bool:
        """Merge memory into the file at *path* under *fingerprint*.

        Under an exclusive lock, the entries of an existing compatible
        file (same format version, kind and fingerprint) are kept and
        memory's added over them, so concurrent savers sharing one cache
        directory union their entries instead of clobbering each other;
        an incompatible file is replaced.  The write is atomic, in
        sorted key order.  A file unchanged since memory last held all
        of it is not read: memory is written as it is.

        Returns ``True`` when the file holds memory -- also when the
        write was skipped because the file is unchanged and already held
        it -- and ``False`` when the lock could not be taken within
        :data:`DEFAULT_LOCK_TIMEOUT` and the save was skipped (the file
        then lacks this process's entries: an optimisation lost, never a
        correctness problem).  Serialisation errors propagate but leave
        the old file and no temp file behind.
        """
        if (
            self._file_has_memory
            and len(self) == self._count
            and self._unchanged(path, fingerprint)
        ):
            return True
        snapshot = dict(self)
        path = Path(path)
        try:
            with _locked(path, exclusive=True, timeout=DEFAULT_LOCK_TIMEOUT):
                # A file unchanged since memory held all of it has
                # nothing to merge in: memory is written without a read.
                unread = self._memory_has_file and self._unchanged(path, fingerprint)
                entries = None if unread else self._entries_in(path, fingerprint)
                if entries is None:
                    entries = snapshot
                else:
                    entries.update(snapshot)
                blob = {
                    "format_version": CACHE_FORMAT_VERSION,
                    "kind": self.kind,
                    "fingerprint": fingerprint,
                    "payload": dict(sorted(entries.items())),
                }
                with _atomic_replace(path) as handle:
                    pickler = pickle.Pickler(handle, pickle.HIGHEST_PROTOCOL)
                    pickler.fast = True  # no memo: bytes follow values only
                    pickler.dump(blob)
                # Opened before the lock is released: this write's file.
                pinned = _pin(path)
        except CacheLockTimeout:
            self._forget()
            return False
        written = self._remember(
            path, fingerprint, pinned, len(snapshot), len(entries), False
        )
        if written:
            self.saves += 1
            self.save_bytes += written
        return True


# -- flat array artifacts --------------------------------------------------------------
#
# The frozen index (repro.web.index.FrozenIndex.save) persists its numpy
# sections in a single file so N processes can ``np.memmap`` it and the OS
# page cache holds exactly one physical copy.  The container is deliberately
# generic -- named 1-D/2-D sections plus a JSON header -- and reuses the
# cache conventions above: the same advisory sidecar lock, the same
# format_version/kind guards, and the same tmp-file + ``os.replace`` atomic
# write (single file rather than a directory precisely so the replace is
# atomic and a reader never sees half an artifact).

ARTIFACT_MAGIC = b"REPROART"
"""Leading bytes of every array artifact file."""

ARTIFACT_FORMAT_VERSION = 1
"""Bump when the container layout changes; old artifacts are rejected."""

_ARTIFACT_ALIGNMENT = 64
"""Section byte alignment (cache-line sized, safe for any numpy dtype)."""


class ArtifactError(Exception):
    """An array artifact is missing, corrupt, or of the wrong kind/version."""


def _aligned(offset: int) -> int:
    remainder = offset % _ARTIFACT_ALIGNMENT
    return offset if remainder == 0 else offset + _ARTIFACT_ALIGNMENT - remainder


def save_array_artifact(
    path,
    kind: str,
    header: Mapping[str, Any],
    sections: Mapping[str, np.ndarray],
    lock_timeout: float | None = None,
) -> bool:
    """Atomically write named numpy *sections* plus a JSON *header*.

    Layout: ``ARTIFACT_MAGIC``, a little-endian ``uint64`` metadata
    length, the JSON metadata (container version, kind, caller header,
    per-section offset/dtype/shape), then the raw array bytes, each
    section aligned to :data:`_ARTIFACT_ALIGNMENT` relative to the first
    data byte.  *header* must be JSON-serialisable.

    Returns ``True`` when the artifact was written; ``False`` when the
    exclusive advisory lock could not be acquired within *lock_timeout*
    (mirroring :meth:`PersistedDict.save`).
    """
    if lock_timeout is None:
        lock_timeout = DEFAULT_LOCK_TIMEOUT
    path = Path(path)
    arrays: dict[str, np.ndarray] = {}
    section_meta: dict[str, dict[str, Any]] = {}
    offset = 0
    for name, array in sections.items():
        array = np.ascontiguousarray(array)
        offset = _aligned(offset)
        section_meta[name] = {
            "offset": offset,
            "dtype": str(array.dtype),
            "shape": list(array.shape),
        }
        arrays[name] = array
        offset += array.nbytes
    metadata = json.dumps(
        {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "kind": kind,
            "header": dict(header),
            "sections": section_meta,
        },
        sort_keys=True,
    ).encode("utf-8")
    try:
        with _locked(path, exclusive=True, timeout=lock_timeout):
            with _atomic_replace(path) as handle:
                handle.write(ARTIFACT_MAGIC)
                handle.write(struct.pack("<Q", len(metadata)))
                handle.write(metadata)
                data_start = _aligned(handle.tell())
                for name, array in arrays.items():
                    # seek leaves alignment gaps zero-filled.
                    handle.seek(data_start + section_meta[name]["offset"])
                    if array.size:
                        handle.write(memoryview(array))
    except CacheLockTimeout:
        return False
    return True


def open_array_artifact(
    path,
    kind: str,
    lock_timeout: float | None = None,
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Open an artifact written by :func:`save_array_artifact` read-only.

    Returns ``(header, sections)`` where each non-empty section is a
    read-only ``np.memmap`` view into the file -- no bytes are copied,
    and every process opening the same artifact shares one physical copy
    through the OS page cache.  Empty sections come back as ordinary
    empty arrays (``mmap`` cannot map zero bytes).

    Unlike cache loads, a bad artifact raises :class:`ArtifactError`
    (missing file, wrong magic/kind/version, truncation, lock timeout):
    a caller asked for *this* artifact by path, so silently serving
    nothing would be wrong.
    """
    if lock_timeout is None:
        lock_timeout = DEFAULT_LOCK_TIMEOUT
    path = Path(path)
    try:
        with _locked(path, exclusive=False, timeout=lock_timeout):
            try:
                handle = open(path, "rb")
            except FileNotFoundError:
                raise ArtifactError(f"no artifact at {path}") from None
            with handle:
                magic = handle.read(len(ARTIFACT_MAGIC))
                if magic != ARTIFACT_MAGIC:
                    raise ArtifactError(f"{path} is not an array artifact")
                try:
                    (metadata_length,) = struct.unpack("<Q", handle.read(8))
                    metadata = json.loads(
                        handle.read(metadata_length).decode("utf-8")
                    )
                except (struct.error, ValueError, UnicodeDecodeError) as error:
                    raise ArtifactError(
                        f"{path} has a corrupt artifact header: {error}"
                    ) from None
                if metadata.get("format_version") != ARTIFACT_FORMAT_VERSION:
                    raise ArtifactError(
                        f"{path} uses artifact format "
                        f"{metadata.get('format_version')!r}, expected "
                        f"{ARTIFACT_FORMAT_VERSION}"
                    )
                if metadata.get("kind") != kind:
                    raise ArtifactError(
                        f"{path} holds {metadata.get('kind')!r}, "
                        f"expected {kind!r}"
                    )
                data_start = _aligned(
                    len(ARTIFACT_MAGIC) + 8 + metadata_length
                )
                arrays: dict[str, np.ndarray] = {}
                try:
                    for name, spec in metadata["sections"].items():
                        shape = tuple(int(n) for n in spec["shape"])
                        dtype = np.dtype(spec["dtype"])
                        if int(np.prod(shape)) == 0:
                            arrays[name] = np.empty(shape, dtype=dtype)
                        else:
                            arrays[name] = np.memmap(
                                handle,
                                dtype=dtype,
                                mode="r",
                                offset=data_start + int(spec["offset"]),
                                shape=shape,
                            )
                except (KeyError, TypeError, ValueError) as error:
                    raise ArtifactError(
                        f"{path} has corrupt sections: {error}"
                    ) from None
    except CacheLockTimeout as error:
        raise ArtifactError(str(error)) from None
    return dict(metadata["header"]), arrays


class PeriodicFlusher:
    """Run a flush callback every *interval_seconds* from a daemon thread.

    The flush-on-interval hook a long-lived process hangs its cache
    persistence on: the resident annotation service registers
    ``annotator.save_caches`` here so the warmth it accumulates while
    serving survives a crash, instead of existing only in memory until a
    clean shutdown.  The callback must be safe to call from another
    thread (the service wraps it in its annotator lock).

    A failing flush never kills the thread: the exception is logged as a
    ``cache.flush_failed`` warning and kept on :attr:`last_error`, and the
    next interval tries again -- persistence stays an optimisation, not a
    liveness dependency.  :meth:`stop` joins the thread and (by default)
    performs one final flush, which is the same path a graceful shutdown
    takes.
    """

    def __init__(
        self, flush: Callable[[], Any], interval_seconds: float
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(
                f"interval_seconds must be > 0, got {interval_seconds}"
            )
        self._flush = flush
        self.interval_seconds = interval_seconds
        self.flush_count = 0
        self.last_error: BaseException | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "PeriodicFlusher":
        if self._thread is not None:
            raise RuntimeError("flusher already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="cache-flusher", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            self._flush_once()

    def _flush_once(self) -> None:
        try:
            self._flush()
            self.flush_count += 1
            self.last_error = None
        except Exception as error:  # flushing must never kill the loop
            self.last_error = error
            logger.warning(
                "cache.flush_failed",
                error=f"{type(error).__name__}: {error}",
                outcome="not persisted",
            )

    def stop(self, final_flush: bool = True) -> None:
        """Stop the thread; *final_flush* runs the callback one last time."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        if final_flush:
            self._flush_once()

    def __enter__(self) -> "PeriodicFlusher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

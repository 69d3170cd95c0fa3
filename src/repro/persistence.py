"""Versioned on-disk persistence for the pipeline's amortisation caches.

The batched annotation engine earns most of its speed from caches that are
pure functions of immutable inputs: the search engine's token-signature ->
ranked-results cache (valid for one exact corpus and one BM25
parametrisation) and the annotator's snippet -> label memo (valid for one
fitted classifier).  This module gives both a common durable format so a
second process -- or a second CLI invocation -- starts warm instead of
recomputing them.

Every file carries three guards checked on load:

``format_version``
    bumped whenever the payload layout changes; old files are ignored;
``kind``
    what the payload is (``"search-results"``, ``"label-memo"``), so a
    file can never be loaded into the wrong cache;
``fingerprint``
    the producer's identity token (corpus content digest + BM25 parameters
    for the engine, a classifier weight digest for the memo).  A mismatch
    means the world changed -- corpus grew, classifier retrained -- and
    the cache is silently treated as cold, mirroring the in-memory
    invalidation hooks (``SearchEngine._validate_caches`` drops ranking
    caches whenever the corpus grows).

Concurrency
-----------
A cache directory may be shared by several worker processes (the
``annotate_tables(workers=N)`` execution layer).  Two mechanisms make that
safe:

* **advisory file locking** -- every save takes an exclusive ``flock`` on
  a ``<name>.lock`` sidecar, every load a shared one, so a read never
  observes a half-finished merge and two writers serialise.  Lock waits
  are bounded (:data:`DEFAULT_LOCK_TIMEOUT`); on timeout a load reports a
  cold start (``None``) and a save is skipped (``False``) rather than
  deadlocking -- persistence is an optimisation, never a correctness
  dependency.  On platforms without ``fcntl`` locking degrades to
  best-effort unlocked operation (writes stay atomic either way).
* **merge-on-save** -- a saver may pass a ``merge`` hook; under the
  exclusive lock the existing payload (same version, kind and
  fingerprint) is loaded and merged with the fresh one before the
  replace, so a worker's save never discards entries another worker
  persisted in the meantime.  Without a hook the historical
  last-writer-wins replace is kept.
* **skipping IO that changes nothing** -- :class:`CacheFileSync`
  remembers each file's stat stamp from the last load or save, so a
  warm process does not re-read a file it already holds, nor rewrite
  one that already holds everything it has.

Writes go through a temporary file and ``os.replace`` so a crashed writer
never leaves a truncated cache behind; the temporary file is unlinked even
when serialisation fails (disk full, unpicklable payload).  Loads treat
*any* unreadable file as a cold start rather than an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import struct
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.observability import metrics as obs_metrics
from repro.observability import tracing
from repro.observability.log import get_logger

logger = get_logger(__name__)

try:  # POSIX advisory locking; degrade gracefully elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

CACHE_FORMAT_VERSION = 1
"""Bump when the persisted payload layout changes; old files are ignored."""

DEFAULT_LOCK_TIMEOUT = 10.0
"""Seconds a save/load waits for the advisory lock before giving up.

Resolved at *call* time when ``lock_timeout`` is left ``None``, so a
long-lived process (the resident annotation service) -- or a test -- can
tighten every subsequent save/load by rebinding this module attribute."""

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


def _read_blob(path) -> dict | None:
    """The raw guarded blob at *path*, or ``None`` for anything unreadable.

    A missing file is the normal cold start and stays silent; a file that
    *exists* but cannot be unpickled (truncated by a crashed writer on a
    pre-atomic layout, bit rot, a foreign file dropped into the cache
    dir) is worth a warning -- the operator should know warmth was lost
    and why -- but still only means "start cold", never an exception.
    """
    try:
        with open(path, "rb") as handle:
            blob = pickle.load(handle)
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


def _payload_of(blob: dict | None, kind: str, fingerprint: Any) -> Any | None:
    """Extract the payload of a guarded blob iff every guard matches."""
    if blob is None:
        return None
    if blob.get("format_version") != CACHE_FORMAT_VERSION:
        return None
    if blob.get("kind") != kind:
        return None
    if blob.get("fingerprint") != fingerprint:
        return None
    return blob.get("payload")


def save_cache_payload(
    path,
    kind: str,
    fingerprint: Any,
    payload: Any,
    merge: Callable[[Any, Any], Any] | None = None,
    lock_timeout: float | None = None,
) -> bool:
    """Atomically write *payload* with version/kind/fingerprint guards.

    With a *merge* hook, the write is load-merge-replace under an
    exclusive advisory lock: an existing compatible payload (same format
    version, kind and fingerprint) is combined via ``merge(existing,
    payload)`` first, so concurrent savers sharing one cache directory
    union their entries instead of clobbering each other.  An existing
    *incompatible* file (stale fingerprint, other kind) is simply
    replaced.

    Returns ``True`` when the file was written; ``False`` when the lock
    could not be acquired within *lock_timeout* and the save was skipped
    (the cache on disk is then simply missing this process's entries --
    an optimisation lost, never a correctness problem).  Serialisation
    errors (unpicklable payload, disk full) still propagate, but never
    leave a ``*.tmp.<pid>`` file behind.
    """
    return (
        _save_payload(path, kind, fingerprint, payload, merge, lock_timeout)
        is not None
    )


def _save_payload(path, kind, fingerprint, payload, merge, lock_timeout):
    """:func:`save_cache_payload`, returning ``(payload written, stamp of
    the written file)``, or ``None`` on a lock timeout.  The stamp is
    taken before the lock is released, so it names exactly this write."""
    if lock_timeout is None:
        lock_timeout = DEFAULT_LOCK_TIMEOUT
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with _locked(path, exclusive=True, timeout=lock_timeout):
            if merge is not None:
                existing = _payload_of(_read_blob(path), kind, fingerprint)
                if existing is not None:
                    payload = merge(existing, payload)
            blob = {
                "format_version": CACHE_FORMAT_VERSION,
                "kind": kind,
                "fingerprint": fingerprint,
                "payload": payload,
            }
            tmp_path = path.with_name(f"{path.name}.tmp.{os.getpid()}")
            try:
                with open(tmp_path, "wb") as handle:
                    pickle.dump(blob, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp_path, path)
            finally:
                # pickle.dump may have raised (disk full, unpicklable
                # payload) before the replace: never leak the temp file.
                if tmp_path.exists():
                    try:
                        tmp_path.unlink()
                    except OSError:  # pragma: no cover - racing unlink
                        pass
            stamp = _file_stamp(path)
    except CacheLockTimeout:
        return None
    return payload, stamp


def load_cache_payload(
    path,
    kind: str,
    fingerprint: Any,
    lock_timeout: float | None = None,
) -> Any | None:
    """Read a payload saved by :func:`save_cache_payload`, or ``None``.

    ``None`` means "start cold": the file is missing, unreadable, from a
    different format version, of a different kind, was produced against a
    different fingerprint (the corpus grew, the classifier was retrained,
    the parameters changed) -- or the shared advisory lock could not be
    acquired within *lock_timeout* (another process is mid-merge and
    stuck; cold-starting beats crashing or hanging).
    """
    loaded = _load_payload(path, kind, fingerprint, lock_timeout)
    return None if loaded is None else loaded[0]


def _load_payload(path, kind, fingerprint, lock_timeout):
    """:func:`load_cache_payload`, returning ``(payload, stamp of the file
    read)``, or ``None`` for a cold start.  Writers need the exclusive
    lock, so the stamp taken under the shared one names the bytes read."""
    if lock_timeout is None:
        lock_timeout = DEFAULT_LOCK_TIMEOUT
    try:
        with _locked(Path(path), exclusive=False, timeout=lock_timeout):
            payload = _payload_of(_read_blob(path), kind, fingerprint)
            stamp = _file_stamp(path)
    except CacheLockTimeout:
        return None
    if payload is None:
        return None
    return payload, stamp


def _file_stamp(path) -> tuple | None:
    """``(device, inode, size, mtime_ns, ctime_ns)`` of *path*, or ``None``
    when it is missing.  Every write replaces the file (a new inode, new
    times), so an equal stamp means the file was not rewritten."""
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


class CacheFileSync:
    """Skips the loads and saves of one cache file that would change nothing.

    Each in-memory cache persisted as a pickled file (the engine's
    results cache, the annotator's label memo) owns one.  From its last
    load or save of the file it remembers the file's stamp
    (:func:`_file_stamp`), whether memory then held everything in the
    file, whether the file held everything in memory, and memory's
    entry counts.  A load is skipped while the file is unchanged and
    memory holds all of it; a save is skipped while the file is
    unchanged, holds all of memory, and nothing was inserted since.
    Entries are append-only between clears, so equal counts mean no
    inserts; the owner calls :meth:`forget` on every clear, fingerprint
    change and classifier swap, and any change to the file changes its
    stamp.

    *sizes* maps a payload -- a loaded one, or the view of memory the
    owner passes in -- to its entry counts.  A load folds the file into
    memory and a save merges memory into the file, so one side always
    holds the other, and equal counts then mean equal key sets.
    """

    def __init__(self) -> None:
        self.forget()

    def __reduce__(self):
        # The stamps describe what this process read or wrote; a pickled
        # copy (a spawned worker) re-reads for itself.
        return (CacheFileSync, ())

    def forget(self) -> None:
        """Drop everything remembered: the next load and save do IO."""
        self._key: tuple | None = None
        self._stamp: tuple | None = None
        self._counts: tuple | None = None
        self._memory_has_file = False
        self._file_has_memory = False

    def _unchanged(self, path, fingerprint) -> bool:
        return (
            self._stamp is not None
            and self._key == self._key_of(path, fingerprint)
            and _file_stamp(path) == self._stamp
        )

    @staticmethod
    def _key_of(path, fingerprint) -> tuple:
        # Every guard a load checks: a file of another format version or
        # fingerprint is never the one remembered.
        return (os.fspath(path), fingerprint, CACHE_FORMAT_VERSION)

    def _remember(self, path, fingerprint, stamp, counts, file_counts, loaded):
        self._key = self._key_of(path, fingerprint)
        self._stamp = stamp
        self._counts = counts
        self._memory_has_file = loaded or counts == file_counts
        self._file_has_memory = not loaded or counts == file_counts

    def load(
        self,
        path,
        kind: str,
        fingerprint: Any,
        sizes: Callable[[Any], tuple],
        memory: Callable[[], Any],
        absorb: Callable[[Any], None],
    ) -> int | None:
        """Fold the file into memory unless memory already holds it.

        *absorb* merges a loaded payload into memory; *memory* returns
        memory's payload-shaped view.  Returns the bytes read (0 when the
        read was skipped), or ``None`` for a cold start (see
        :func:`load_cache_payload`).
        """
        if self._memory_has_file and self._unchanged(path, fingerprint):
            return 0
        loaded = _load_payload(path, kind, fingerprint, None)
        if loaded is None:
            self.forget()
            return None
        payload, stamp = loaded
        absorb(payload)
        self._remember(
            path, fingerprint, stamp, sizes(memory()), sizes(payload), True
        )
        return stamp[2] if stamp is not None else 0  # the file's size

    def save(
        self,
        path,
        kind: str,
        fingerprint: Any,
        sizes: Callable[[Any], tuple],
        payload: Any,
        merge: Callable[[Any, Any], Any],
    ) -> int | None:
        """Merge-save *payload*, a snapshot of memory, unless the file
        already holds it.  Returns the bytes written (0 when the write
        was skipped), or ``None`` when a lock timeout skipped it (see
        :func:`save_cache_payload`)."""
        counts = sizes(payload)
        if (
            self._file_has_memory
            and counts == self._counts
            and self._unchanged(path, fingerprint)
        ):
            return 0
        saved = _save_payload(path, kind, fingerprint, payload, merge, None)
        if saved is None:
            self.forget()
            return None
        written, stamp = saved
        self._remember(path, fingerprint, stamp, counts, sizes(written), False)
        return stamp[2] if stamp is not None else 0  # the file's size


# -- flat array artifacts --------------------------------------------------------------
#
# The frozen index backend (repro.web.backends) persists compacted numpy
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
    (mirroring :func:`save_cache_payload`).
    """
    if lock_timeout is None:
        lock_timeout = DEFAULT_LOCK_TIMEOUT
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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
            tmp_path = path.with_name(f"{path.name}.tmp.{os.getpid()}")
            try:
                with open(tmp_path, "wb") as handle:
                    handle.write(ARTIFACT_MAGIC)
                    handle.write(struct.pack("<Q", len(metadata)))
                    handle.write(metadata)
                    data_start = _aligned(handle.tell())
                    for name, array in arrays.items():
                        # seek leaves alignment gaps zero-filled.
                        handle.seek(data_start + section_meta[name]["offset"])
                        if array.size:
                            handle.write(memoryview(array))
                os.replace(tmp_path, path)
            finally:
                if tmp_path.exists():
                    try:
                        tmp_path.unlink()
                    except OSError:  # pragma: no cover - racing unlink
                        pass
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

    A failing flush never kills the thread: the exception is kept on
    :attr:`last_error` and the next interval tries again -- persistence
    stays an optimisation, not a liveness dependency.  :meth:`stop` joins
    the thread and (by default) performs one final flush, which is the
    same path a graceful shutdown takes.
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


# -- pluggable cache storage backends --------------------------------------------------
#
# The guarded pickled blobs above load a cache *whole*: every process pays
# the full payload at warm start and holds a private copy.  The store layer
# below puts the same flat ``str key -> picklable value`` mappings behind a
# small protocol with two implementations: the pickled-dict file
# (:class:`MemoryCacheStore`, the historical format) and a sharded on-disk
# layout (:class:`ShardedDiskCacheStore`) that N processes open *shared* --
# buckets load lazily on first touch, new entries append to a framed delta
# log, and an advisory-locked merge-compaction folds the log into the
# bucket files without rewriting untouched buckets.

CACHE_STORE_KIND = "cache-store"
"""Artifact ``kind`` of a sharded store's manifest file."""

CACHE_STORE_BUCKET_KIND = "cache-bucket"
"""Artifact ``kind`` of a sharded store's bucket files."""

CACHE_STORE_LAYOUT_VERSION = 1
"""Bump when the sharded store layout changes; old stores start cold."""

DEFAULT_CACHE_BUCKETS = 64
"""Default bucket count of a sharded store (fixed at store creation)."""

_MANIFEST_FILE = "manifest.reprocache"
_DELTA_FILE = "delta.log"
_BUCKET_GLOB = "bucket-*.reprocache"

_MISSING = object()


def fingerprint_digest_of(fingerprint: Any) -> str:
    """Stable hex digest of a cache fingerprint token.

    Store files carry the digest (JSON headers cannot hold arbitrary
    fingerprint tuples); ``repr`` of the scalar tuples/strings used as
    fingerprints is deterministic across processes.
    """
    return hashlib.sha256(repr(fingerprint).encode("utf-8")).hexdigest()


@runtime_checkable
class CacheStore(Protocol):
    """A flat ``str key -> picklable value`` store bound to one fingerprint.

    What the results cache and the label memo require from their storage
    backend, mirroring :class:`repro.web.backends.IndexBackend` for the
    index layer.  Entries are pure functions of fingerprint-guarded
    inputs, so same-keyed entries are interchangeable and last-writer-wins
    merging is always safe.  ``backend_name`` identifies the
    implementation in stats/CLI surfaces ("memory" / "disk").
    """

    backend_name: str
    kind: str

    @property
    def loaded_bytes(self) -> int: ...

    def get(self, key: str, default: Any = None) -> Any: ...

    def contains(self, key: str) -> bool: ...

    def put(self, key: str, value: Any) -> None: ...

    def has_entries(self) -> bool: ...

    def flush(self) -> int | None: ...

    def merge(self) -> int | None: ...


class MemoryCacheStore:
    """The historical pickled-dict file behind the :class:`CacheStore` API.

    One guarded blob (:func:`save_cache_payload` with a dict-union merge
    hook) holding the whole mapping; opening loads everything eagerly,
    exactly like the legacy ``load_results_cache``/``load_label_memo``
    paths.  Byte-compatible with files those paths wrote.
    """

    backend_name = "memory"

    def __init__(
        self,
        path,
        kind: str,
        fingerprint: Any,
        lock_timeout: float | None = None,
    ) -> None:
        self.path = Path(path)
        self.kind = kind
        self.fingerprint = fingerprint
        self._lock_timeout = lock_timeout
        self._entries: dict[str, Any] = {}
        self._pending: dict[str, Any] = {}
        self._loaded_bytes = 0
        payload = load_cache_payload(
            self.path, kind, fingerprint, lock_timeout=lock_timeout
        )
        if isinstance(payload, dict):
            self._entries.update(payload)
            try:
                self._loaded_bytes = os.stat(self.path).st_size
            except OSError:  # pragma: no cover - racing unlink
                pass

    def __reduce__(self):
        return (MemoryCacheStore, (str(self.path), self.kind, self.fingerprint))

    @property
    def loaded_bytes(self) -> int:
        return self._loaded_bytes

    def get(self, key: str, default: Any = None) -> Any:
        if key in self._pending:
            return self._pending[key]
        return self._entries.get(key, default)

    def contains(self, key: str) -> bool:
        return key in self._pending or key in self._entries

    def put(self, key: str, value: Any) -> None:
        self._pending[key] = value

    def has_entries(self) -> bool:
        return bool(self._entries or self._pending)

    def flush(self) -> int | None:
        """Persist pending puts; returns bytes written, ``None`` on a
        lock timeout (the save was skipped, mirroring
        :func:`save_cache_payload`)."""
        if not self._pending:
            return 0
        merged = {**self._entries, **self._pending}
        saved = save_cache_payload(
            self.path,
            self.kind,
            self.fingerprint,
            merged,
            merge=lambda existing, fresh: {**existing, **fresh},
            lock_timeout=self._lock_timeout,
        )
        if not saved:
            return None
        self._entries = merged
        self._pending = {}
        try:
            return os.stat(self.path).st_size
        except OSError:  # pragma: no cover - racing unlink
            return 0

    def merge(self) -> int | None:
        """A pickled-dict file has no delta log; merge is just a flush."""
        return self.flush()


class _TruncatedLog(Exception):
    """Internal: the delta log ends mid-frame (a writer died mid-append)."""


class ShardedDiskCacheStore:
    """An append-friendly sharded on-disk :class:`CacheStore`.

    Layout (a ``<name>.cachestore/`` directory):

    * ``manifest.reprocache`` -- an array artifact (kind
      :data:`CACHE_STORE_KIND`) whose header pins the layout version, the
      payload kind, the fingerprint digest and the bucket count;
    * ``bucket-NNNN.reprocache`` -- one artifact per occupied hash
      bucket (kind :data:`CACHE_STORE_BUCKET_KIND`) with two pickled
      sections: ``keys`` (the sorted key tuple, readable without touching
      the values) and ``values`` (the parallel value tuple);
    * ``delta.log`` -- a framed append log (``uint64`` length prefix per
      pickled record, first record the guard header) that new entries go
      to under an exclusive store lock.

    Buckets load lazily on first touch, so a warm start reads only the
    manifest and the (small, post-compaction) delta log instead of the
    whole payload -- that is the per-worker sharing win.  :meth:`merge`
    is the delta compaction: it folds the log into the bucket files,
    rewriting *only* the buckets the log touches, so a grown corpus
    appends and compacts instead of rewriting the world.

    Robustness follows the cache conventions, not the artifact ones: the
    underlying container stays loud (:class:`ArtifactError`), but the
    store catches per-file -- a truncated delta tail (writer SIGKILLed
    mid-append) keeps every whole record before it, an unreadable bucket
    or manifest logs a warning and serves cold, and a fingerprint
    mismatch invalidates the store (the next flush resets it).  Pickling
    is by path (:meth:`__reduce__`): a spawn worker receives the path and
    re-opens the store; unflushed puts do not travel.
    """

    backend_name = "disk"

    def __init__(
        self,
        path,
        kind: str,
        fingerprint: Any = None,
        n_buckets: int = DEFAULT_CACHE_BUCKETS,
        lock_timeout: float | None = None,
        _digest: str | None = None,
    ) -> None:
        if n_buckets < 1:
            raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
        self.path = Path(path)
        self.kind = kind
        self.fingerprint = fingerprint
        self.digest = (
            _digest if _digest is not None else fingerprint_digest_of(fingerprint)
        )
        self.n_buckets = int(n_buckets)
        self._lock_timeout = lock_timeout
        self._pending: dict[str, Any] = {}
        self._delta: dict[str, Any] = {}
        self._buckets: dict[int, dict[str, Any]] = {}
        self._loaded_bytes = 0
        self._on_disk_valid = False
        self._open()

    def __reduce__(self):
        return (
            ShardedDiskCacheStore,
            (str(self.path), self.kind, self.fingerprint, self.n_buckets),
        )

    # -- paths -----------------------------------------------------------------------

    @property
    def _manifest_path(self) -> Path:
        return self.path / _MANIFEST_FILE

    @property
    def _delta_path(self) -> Path:
        return self.path / _DELTA_FILE

    def _bucket_path(self, index: int) -> Path:
        return self.path / f"bucket-{index:04d}.reprocache"

    @property
    def _anchor(self) -> Path:
        """Anchor for the store-wide advisory lock (sidecar ``store.lock``)."""
        return self.path / "store"

    def _timeout(self) -> float:
        if self._lock_timeout is None:
            return DEFAULT_LOCK_TIMEOUT
        return self._lock_timeout

    def _bucket_index(self, key: str) -> int:
        # blake2b over the utf-8 key bytes: stable across processes and
        # PYTHONHASHSEED values, unlike hash() or pickled tuples.
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.n_buckets

    # -- open ------------------------------------------------------------------------

    def _open(self) -> None:
        manifest_path = self._manifest_path
        if not manifest_path.exists():
            return  # nothing persisted yet: an empty (but valid-to-write) store
        try:
            header, _ = open_array_artifact(
                manifest_path, CACHE_STORE_KIND, lock_timeout=self._lock_timeout
            )
        except ArtifactError as error:
            logger.warning(
                "store.manifest_unusable",
                path=str(self.path),
                error=str(error),
                outcome="starting cold",
            )
            return
        if (
            header.get("layout_version") != CACHE_STORE_LAYOUT_VERSION
            or header.get("payload_kind") != self.kind
            or header.get("fingerprint_digest") != self.digest
        ):
            logger.info(
                "store.fingerprint_stale",
                path=str(self.path),
                outcome="starting cold",
            )
            return
        self._on_disk_valid = True
        self.n_buckets = int(header.get("n_buckets", self.n_buckets))
        try:
            self._loaded_bytes += manifest_path.stat().st_size
        except OSError:  # pragma: no cover - racing unlink
            pass
        try:
            with _locked(self._anchor, exclusive=False, timeout=self._timeout()):
                entries, nbytes = self._read_delta_records()
        except CacheLockTimeout:
            logger.warning(
                "store.delta_locked",
                path=str(self.path),
                outcome="starting cold",
            )
            return
        self._delta = entries
        self._loaded_bytes += nbytes

    # -- delta log -------------------------------------------------------------------

    def _delta_header(self) -> dict[str, Any]:
        return {
            "format_version": CACHE_FORMAT_VERSION,
            "kind": self.kind,
            "fingerprint_digest": self.digest,
        }

    @staticmethod
    def _read_frame(handle) -> bytes | None:
        prefix = handle.read(8)
        if not prefix:
            return None  # clean end of log
        if len(prefix) < 8:
            raise _TruncatedLog("truncated frame length")
        (length,) = struct.unpack("<Q", prefix)
        blob = handle.read(length)
        if len(blob) < length:
            raise _TruncatedLog("truncated frame body")
        return blob

    def _read_delta_records(self) -> tuple[dict[str, Any], int]:
        """Read ``(entries, bytes_read)`` from the delta log on disk.

        A truncated tail (a writer SIGKILLed mid-append) keeps every
        whole record before it -- cold start for the tail, never a
        crash.  A foreign or stale header means the whole log is ignored.
        """
        path = self._delta_path
        entries: dict[str, Any] = {}
        valid_end = 0
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            return entries, 0
        with handle:
            try:
                header_blob = self._read_frame(handle)
                if header_blob is None:
                    return entries, 0
                header = pickle.loads(header_blob)
                if header != self._delta_header():
                    logger.warning(
                        "store.delta_foreign_header",
                        path=str(self.path),
                        outcome="ignoring log",
                    )
                    return {}, 0
                valid_end = handle.tell()
                while True:
                    blob = self._read_frame(handle)
                    if blob is None:
                        break
                    key, value = pickle.loads(blob)
                    entries[key] = value
                    valid_end = handle.tell()
            except Exception as error:
                # Unpickling a torn record can raise nearly anything;
                # every failure mode means the same thing: the log ends
                # here.  Whole records before the tear are kept.
                logger.warning(
                    "store.delta_torn_tail",
                    path=str(self.path),
                    error=f"{type(error).__name__}: {error}",
                    kept_entries=len(entries),
                )
            return entries, valid_end

    def _append_delta_locked(self, entries: Mapping[str, Any]) -> int:
        """Append *entries* as frames; caller holds the exclusive lock.

        A torn tail (a writer SIGKILLed mid-append) is trimmed first:
        frames appended after the tear would be unreachable, because
        every reader stops at the first undecodable record.
        """
        path = self._delta_path
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            size = 0
        if size:
            _, valid_end = self._read_delta_records()
            if valid_end < size:
                logger.warning(
                    "store.delta_trimmed",
                    path=str(self.path),
                    trimmed_bytes=size - valid_end,
                )
                with open(path, "r+b") as handle:
                    handle.truncate(valid_end)
                size = valid_end
        write_header = size == 0
        written = 0
        with open(path, "ab") as handle:
            if write_header:
                blob = pickle.dumps(
                    self._delta_header(), protocol=pickle.HIGHEST_PROTOCOL
                )
                handle.write(struct.pack("<Q", len(blob)))
                handle.write(blob)
                written += 8 + len(blob)
            for key, value in entries.items():
                blob = pickle.dumps(
                    (key, value), protocol=pickle.HIGHEST_PROTOCOL
                )
                handle.write(struct.pack("<Q", len(blob)))
                handle.write(blob)
                written += 8 + len(blob)
        return written

    def _truncate_delta_locked(self) -> None:
        blob = pickle.dumps(
            self._delta_header(), protocol=pickle.HIGHEST_PROTOCOL
        )
        with open(self._delta_path, "wb") as handle:
            handle.write(struct.pack("<Q", len(blob)))
            handle.write(blob)

    # -- buckets ---------------------------------------------------------------------

    def _load_bucket(self, index: int) -> dict[str, Any]:
        path = self._bucket_path(index)
        if not self._on_disk_valid or not path.exists():
            return {}
        try:
            header, sections = open_array_artifact(
                path, CACHE_STORE_BUCKET_KIND, lock_timeout=self._lock_timeout
            )
            if (
                header.get("layout_version") != CACHE_STORE_LAYOUT_VERSION
                or header.get("fingerprint_digest") != self.digest
            ):
                logger.warning(
                    "store.bucket_stale",
                    path=str(path),
                    outcome="treating it as empty",
                )
                return {}
            keys = pickle.loads(bytes(memoryview(sections["keys"])))
            values = pickle.loads(bytes(memoryview(sections["values"])))
        except Exception as error:
            # A corrupt/foreign/truncated bucket file costs warmth for
            # this bucket only, never the run.
            logger.warning(
                "store.bucket_unreadable",
                path=str(path),
                error=f"{type(error).__name__}: {error}",
                outcome="treating it as empty",
            )
            return {}
        try:
            self._loaded_bytes += path.stat().st_size
        except OSError:  # pragma: no cover - racing unlink
            pass
        return dict(zip(keys, values))

    def _bucket(self, index: int) -> dict[str, Any]:
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._load_bucket(index)
            self._buckets[index] = bucket
        return bucket

    def _write_bucket_locked(self, index: int, bucket: Mapping[str, Any]) -> None:
        keys = tuple(sorted(bucket))
        values = tuple(bucket[key] for key in keys)
        header = {
            "layout_version": CACHE_STORE_LAYOUT_VERSION,
            "payload_kind": self.kind,
            "fingerprint_digest": self.digest,
            "bucket": index,
            "n_entries": len(keys),
        }
        sections = {
            "keys": np.frombuffer(
                pickle.dumps(keys, protocol=pickle.HIGHEST_PROTOCOL),
                dtype=np.uint8,
            ),
            "values": np.frombuffer(
                pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL),
                dtype=np.uint8,
            ),
        }
        if not save_array_artifact(
            self._bucket_path(index),
            CACHE_STORE_BUCKET_KIND,
            header,
            sections,
            lock_timeout=self._lock_timeout,
        ):
            raise CacheLockTimeout(
                f"could not lock bucket {index} of {self.path}"
            )

    # -- store API -------------------------------------------------------------------

    @property
    def loaded_bytes(self) -> int:
        """Cumulative bytes this process read from the store (manifest +
        delta log + lazily touched buckets) -- the warm-start payload."""
        return self._loaded_bytes

    def get(self, key: str, default: Any = None) -> Any:
        if key in self._pending:
            return self._pending[key]
        if key in self._delta:
            return self._delta[key]
        return self._bucket(self._bucket_index(key)).get(key, default)

    def contains(self, key: str) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def put(self, key: str, value: Any) -> None:
        self._pending[key] = value

    def has_entries(self) -> bool:
        if self._pending or self._delta:
            return True
        if not self._on_disk_valid:
            return False
        return any(self.path.glob(_BUCKET_GLOB))

    def _ensure_layout_locked(self) -> None:
        """Make the on-disk layout match this store's guards.

        Called under the exclusive store lock.  Re-checks the manifest
        first: a peer may have created or reset the store since we
        opened, in which case we adopt its layout instead of clobbering
        the entries it already persisted.
        """
        if not self._on_disk_valid and self._manifest_path.exists():
            try:
                header, _ = open_array_artifact(
                    self._manifest_path,
                    CACHE_STORE_KIND,
                    lock_timeout=self._lock_timeout,
                )
            except ArtifactError:
                header = {}
            if (
                header.get("layout_version") == CACHE_STORE_LAYOUT_VERSION
                and header.get("payload_kind") == self.kind
                and header.get("fingerprint_digest") == self.digest
            ):
                self._on_disk_valid = True
                self.n_buckets = int(header.get("n_buckets", self.n_buckets))
        if self._on_disk_valid:
            return
        # Reset: a stale store (foreign fingerprint, old layout) is
        # replaced wholesale -- its entries answer a world that no
        # longer exists.
        for stale in self.path.glob(_BUCKET_GLOB):
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - racing unlink
                pass
        if not save_array_artifact(
            self._manifest_path,
            CACHE_STORE_KIND,
            {
                "layout_version": CACHE_STORE_LAYOUT_VERSION,
                "payload_kind": self.kind,
                "fingerprint_digest": self.digest,
                "n_buckets": self.n_buckets,
            },
            {},
            lock_timeout=self._lock_timeout,
        ):
            raise CacheLockTimeout(
                f"could not lock the manifest of {self.path}"
            )
        self._truncate_delta_locked()
        self._buckets = {}
        self._delta = {}
        self._on_disk_valid = True

    def flush(self) -> int | None:
        """Append pending puts to the delta log.

        Returns the bytes appended, 0 when nothing was pending, or
        ``None`` when the store lock could not be acquired (the flush is
        skipped -- warmth lost, never correctness).
        """
        if not self._pending and self._on_disk_valid:
            return 0
        try:
            with _locked(self._anchor, exclusive=True, timeout=self._timeout()):
                self._ensure_layout_locked()
                written = self._append_delta_locked(self._pending)
        except CacheLockTimeout:
            return None
        self._delta.update(self._pending)
        self._pending = {}
        return written

    def merge(self) -> int | None:
        """Delta compaction: fold the append log into the bucket files.

        Re-reads the log from disk under the exclusive store lock (peers
        may have appended since we opened), rewrites *only* the buckets
        the log touches, then truncates the log.  Returns the number of
        buckets rewritten, or ``None`` on a lock timeout.
        """
        try:
            with _locked(self._anchor, exclusive=True, timeout=self._timeout()):
                self._ensure_layout_locked()
                disk_delta, _ = self._read_delta_records()
                combined = {**disk_delta, **self._pending}
                if not combined:
                    return 0
                by_bucket: dict[int, dict[str, Any]] = {}
                for key, value in combined.items():
                    by_bucket.setdefault(self._bucket_index(key), {})[
                        key
                    ] = value
                rewritten = 0
                for index in sorted(by_bucket):
                    bucket = self._load_bucket(index)
                    bucket.update(by_bucket[index])
                    self._write_bucket_locked(index, bucket)
                    self._buckets[index] = bucket
                    rewritten += 1
                self._truncate_delta_locked()
        except CacheLockTimeout:
            return None
        self._delta = {}
        self._pending = {}
        return rewritten

    def stats(self) -> dict[str, int]:
        """Cheap on-disk shape numbers for CLI/stats surfaces."""
        bucket_files = list(self.path.glob(_BUCKET_GLOB))
        store_bytes = 0
        for file in [self._manifest_path, self._delta_path, *bucket_files]:
            try:
                store_bytes += file.stat().st_size
            except OSError:
                pass
        return {
            "n_buckets": self.n_buckets,
            "bucket_files": len(bucket_files),
            "delta_entries": len(self._delta) + len(self._pending),
            "store_bytes": store_bytes,
        }

    @classmethod
    def compact_path(cls, path, lock_timeout: float | None = None) -> int:
        """Compact the store at *path* without knowing its fingerprint.

        The manifest pins the payload kind and fingerprint digest, which
        is all compaction needs.  Loud (:class:`ArtifactError`) on a
        missing or unusable manifest: the caller named *this* store.
        """
        path = Path(path)
        header, _ = open_array_artifact(
            path / _MANIFEST_FILE, CACHE_STORE_KIND, lock_timeout=lock_timeout
        )
        if header.get("layout_version") != CACHE_STORE_LAYOUT_VERSION:
            raise ArtifactError(
                f"{path} uses cache store layout "
                f"{header.get('layout_version')!r}, expected "
                f"{CACHE_STORE_LAYOUT_VERSION}"
            )
        store = cls(
            path,
            str(header.get("payload_kind")),
            n_buckets=int(header.get("n_buckets", DEFAULT_CACHE_BUCKETS)),
            lock_timeout=lock_timeout,
            _digest=str(header.get("fingerprint_digest")),
        )
        rewritten = store.merge()
        if rewritten is None:
            raise ArtifactError(f"could not lock {path} for compaction")
        return rewritten


def open_cache_store(
    backend: str,
    path,
    kind: str,
    fingerprint: Any,
    n_buckets: int = DEFAULT_CACHE_BUCKETS,
    lock_timeout: float | None = None,
) -> CacheStore:
    """Open (creating lazily) the :class:`CacheStore` for *backend*."""
    if backend == "memory":
        return MemoryCacheStore(path, kind, fingerprint, lock_timeout=lock_timeout)
    if backend == "disk":
        return ShardedDiskCacheStore(
            path,
            kind,
            fingerprint,
            n_buckets=n_buckets,
            lock_timeout=lock_timeout,
        )
    raise ValueError(f"unknown cache backend {backend!r}")

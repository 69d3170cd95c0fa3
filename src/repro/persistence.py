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

CACHE_FORMAT_VERSION = 2
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

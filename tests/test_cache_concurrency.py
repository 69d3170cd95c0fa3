"""Concurrent sharing of one cache directory (the multi-worker contract).

``annotate_tables(workers=N)`` points every worker at one ``cache_dir``;
this suite pins the three guarantees that make that safe
(:mod:`repro.persistence`):

* **no lost entries** -- saves are merge-on-save (load-merge-replace under
  an advisory lock), so a writer that never saw another writer's entries
  still preserves them, in-process and across real processes;
* **no corruption** -- interleaved multi-process savers always leave a
  loadable file containing the union of everybody's entries;
* **bounded waiting** -- a held lock makes loads report a cold start
  and saves report a skip (both ``False``) after the timeout instead of
  deadlocking or crashing.
"""

import multiprocessing
import os
import random
from contextlib import contextmanager

import pytest

from repro import persistence
from repro.clock import VirtualClock
from repro.web.documents import WebPage
from repro.web.search import SearchEngine

fcntl = pytest.importorskip("fcntl")

_WORDS = "exhibit gallery paintings curator collection museum".split()
_NAMES = [f"Venue {i}" for i in range(12)]


def _saved(path, fingerprint, entries) -> persistence.PersistedDict:
    cache = persistence.PersistedDict("k")
    cache.update(entries)
    assert cache.save(path, fingerprint) is True
    return cache


def _loaded(path, fingerprint) -> dict | None:
    cache = persistence.PersistedDict("k")
    return dict(cache) if cache.load(path, fingerprint) else None


def _make_engine() -> SearchEngine:
    engine = SearchEngine(clock=VirtualClock())
    rng = random.Random(0)
    engine.add_pages(
        [
            WebPage(
                url=f"https://x/{name.replace(' ', '-').lower()}-{i}",
                title=name,
                body=f"{name.lower()} " + " ".join(rng.choices(_WORDS, k=30)),
            )
            for name in _NAMES
            for i in range(4)
        ]
    )
    return engine


class TestMergeOnSave:
    def test_second_writer_preserves_first_writers_entries(self, tmp_path):
        # Two engines over the same corpus, warming disjoint query sets.
        # Writer B never loaded writer A's file; a last-writer-wins
        # replace would silently lose A's entries.
        path = tmp_path / "search_results.cache"
        first = _make_engine()
        first.search_many(_NAMES[:6], k=5)
        assert first.save_results_cache(path) is True
        second = _make_engine()
        second.search_many(_NAMES[6:], k=5)
        assert second.save_results_cache(path) is True

        fresh = _make_engine()
        assert fresh.load_results_cache(path) is True
        fresh_signatures = set(fresh._results_cache)
        assert set(first._results_cache) <= fresh_signatures
        assert set(second._results_cache) <= fresh_signatures

    def test_incompatible_existing_file_is_replaced_not_merged(self, tmp_path):
        path = tmp_path / "cache.bin"
        _saved(path, "old-fingerprint", {"a": 1})
        _saved(path, "new-fingerprint", {"b": 2})
        # The stale-fingerprint entries must not leak into the new file.
        assert _loaded(path, "new-fingerprint") == {"b": 2}
        assert _loaded(path, "old-fingerprint") is None

    def test_save_unions_file_and_memory(self, tmp_path):
        path = tmp_path / "cache.bin"
        _saved(path, "f", {"a": 1, "b": 1})
        # A writer that never loaded the file keeps its entries and
        # adds its own, its value winning a shared key.
        writer = _saved(path, "f", {"b": 2, "c": 2})
        assert _loaded(path, "f") == {"a": 1, "b": 2, "c": 2}
        assert writer == {"b": 2, "c": 2}  # memory is not widened


def _worker_save(cache_dir: str, queries: list[str], rounds: int) -> None:
    """Subprocess body: repeatedly warm a private engine and merge-save."""
    engine = _make_engine()
    path = os.path.join(cache_dir, "search_results.cache")
    for round_index in range(rounds):
        engine.search_many(queries, k=5)
        assert engine.save_results_cache(path) is True
        # Interleave with the other workers: also load, as a worker
        # warm-starting mid-run would.
        engine.load_results_cache(path)


class TestMultiProcessSharing:
    def test_interleaved_processes_lose_no_entries(self, tmp_path):
        # Three real processes, disjoint query sets, several save/load
        # rounds each, all against one cache directory.
        shards = [_NAMES[0:4], _NAMES[4:8], _NAMES[8:12]]
        context = multiprocessing.get_context()
        processes = [
            context.Process(target=_worker_save, args=(str(tmp_path), shard, 3))
            for shard in shards
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0

        # The surviving file is uncorrupted and holds the union: every
        # worker's signatures are present (merge-on-save never clobbered).
        fresh = _make_engine()
        assert fresh.load_results_cache(tmp_path / "search_results.cache") is True
        reference = _make_engine()
        reference.search_many(_NAMES, k=5)
        assert set(reference._results_cache) <= set(fresh._results_cache)
        # ... and the merged entries are the same ranked lists a single
        # process would have computed.
        for signature, results in reference._results_cache.items():
            assert fresh._results_cache[signature] == results


@pytest.fixture()
def fast_lock_timeout(monkeypatch):
    # Cache saves and loads read the module constant at call time.
    monkeypatch.setattr(persistence, "DEFAULT_LOCK_TIMEOUT", 0.05)


@contextmanager
def _lock_held(path):
    """An exclusively-held advisory lock on a cache file's sidecar."""
    fd = os.open(persistence.lock_path_for(path), os.O_RDWR | os.O_CREAT)
    fcntl.flock(fd, fcntl.LOCK_EX)
    try:
        yield path
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


class TestLockTimeout:
    @pytest.fixture()
    def held_lock(self, tmp_path, fast_lock_timeout):
        path = tmp_path / "cache.bin"
        _saved(path, "f", {"a": 1})
        with _lock_held(path):
            yield path

    def test_load_cold_starts_on_lock_timeout(self, held_lock):
        cache = persistence.PersistedDict("k")
        assert cache.load(held_lock, "f") is False
        assert cache == {} and cache.loads == 0

    def test_save_skips_on_lock_timeout(self, held_lock):
        before = held_lock.read_bytes()
        cache = persistence.PersistedDict("k")
        cache["b"] = 2
        assert cache.save(held_lock, "f") is False
        assert cache.saves == 0
        # The skipped save wrote nothing: no temp files appeared.
        assert not list(held_lock.parent.glob("*.tmp.*"))
        assert held_lock.read_bytes() == before

    def test_engine_load_survives_held_lock(self, tmp_path, fast_lock_timeout):
        # End-to-end: a stuck lock means the engine cold-starts, never
        # crashes or hangs.
        engine = _make_engine()
        engine.search_many(_NAMES[:2], k=5)
        path = tmp_path / "search_results.cache"
        assert engine.save_results_cache(path) is True
        with _lock_held(path):
            fresh = _make_engine()
            assert fresh.load_results_cache(path) is False
            assert not fresh._results_cache
        assert fresh.load_results_cache(path) is True

    def test_released_lock_restores_service(self, tmp_path):
        path = tmp_path / "cache.bin"
        _saved(path, "f", {"a": 1})
        assert _loaded(path, "f") == {"a": 1}


class TestTempFileHygiene:
    def test_failed_dump_leaks_no_temp_file(self, tmp_path):
        # Unpicklable values (like lambdas) make pickle.dump raise; the
        # temp file must be cleaned up and no partial cache left behind.
        path = tmp_path / "cache.bin"
        cache = persistence.PersistedDict("k")
        cache["a"] = lambda: None
        with pytest.raises(Exception):
            cache.save(path, "f")
        assert not list(tmp_path.glob("*.tmp.*"))
        assert not path.exists()

    def test_failed_dump_preserves_existing_file(self, tmp_path):
        path = tmp_path / "cache.bin"
        _saved(path, "f", {"a": 1})
        cache = persistence.PersistedDict("k")
        cache["b"] = lambda: None
        with pytest.raises(Exception):
            cache.save(path, "f")
        assert not list(tmp_path.glob("*.tmp.*"))
        assert _loaded(path, "f") == {"a": 1}

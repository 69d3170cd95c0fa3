"""``PersistedDict``: what its skip logic may never do, and its file bytes.

Three properties of the one class both amortisation caches persist
through (:mod:`repro.persistence`):

* **no interleaving loses an entry** -- a Hypothesis state machine drives
  two dicts sharing one file through inserts, saves, loads, clears and
  outside writers (a merging saver of the same fingerprint, a replacing
  saver of another, a raw rewrite that drops entries, a deletion), and
  checks every skipped or performed load and save against a model of
  what memory and the file must hold;
* **a save reads only what memory may lack** -- after a load, an insert
  and a save read nothing, while a file rewritten since is still read
  and merged;
* **the bytes are deterministic** -- two processes that differ only in
  ``PYTHONHASHSEED`` write byte-identical results and label-memo files.
"""

import os
import pickle
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro import persistence
from repro.core.annotator import ENGINE_CACHE_FILE, LABEL_MEMO_FILE

pytest.importorskip("fcntl")

FINGERPRINT = ("fp", 1)
OTHER_FINGERPRINT = ("fp", 2)

_keys = st.integers(min_value=0, max_value=7)
_which = st.sampled_from([0, 1])


def _value(key: int) -> str:
    # Entries are pure functions of their key under one fingerprint.
    return f"v{key}"


def _dict_of(keys) -> persistence.PersistedDict:
    cache = persistence.PersistedDict("k")
    cache.update({key: _value(key) for key in keys})
    return cache


class TwoDictsOneFile(RuleBasedStateMachine):
    """Two ``PersistedDict``s on one path, plus writers they never see."""

    def __init__(self) -> None:
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.path = Path(self.tmp.name) / "cache.bin"
        self.caches = [persistence.PersistedDict("k") for _ in range(2)]
        # The model: keys each memory and the file (under FINGERPRINT)
        # must hold whatever the skip logic decides.
        self.memory_must_hold = [set(), set()]
        self.file_must_hold: set[int] = set()
        self.file_fingerprint = None  # None: no file

    def teardown(self) -> None:
        for cache in self.caches:
            cache.clear()  # closes the pinned file
        self.tmp.cleanup()

    def _file_keys(self) -> set[int]:
        """What a fresh, unsynced load under FINGERPRINT reads."""
        fresh = persistence.PersistedDict("k")
        fresh.load(self.path, FINGERPRINT)
        keys = set(fresh)
        assert all(fresh[key] == _value(key) for key in keys)
        fresh.clear()
        return keys

    @rule(which=_which, key=_keys)
    def insert(self, which, key):
        self.caches[which][key] = _value(key)
        self.memory_must_hold[which].add(key)

    @rule(which=_which)
    def save(self, which):
        cache = self.caches[which]
        assert cache.save(self.path, FINGERPRINT) is True
        assert self._file_keys() >= set(cache)
        self.file_must_hold |= set(cache)
        self.file_fingerprint = FINGERPRINT

    @rule(which=_which)
    def load(self, which):
        cache = self.caches[which]
        loaded = cache.load(self.path, FINGERPRINT)
        assert loaded is (self.file_fingerprint == FINGERPRINT)
        if loaded:
            file_keys = self._file_keys()
            assert set(cache) >= file_keys
            self.memory_must_hold[which] |= file_keys

    @rule(which=_which)
    def clear(self, which):
        self.caches[which].clear()
        self.memory_must_hold[which] = set()

    @rule(keys=st.sets(_keys))
    def outside_merging_save(self, keys):
        writer = _dict_of(keys)
        assert writer.save(self.path, FINGERPRINT) is True
        writer.clear()
        self.file_must_hold |= keys
        self.file_fingerprint = FINGERPRINT

    @rule(keys=st.sets(_keys))
    def outside_save_of_another_fingerprint(self, keys):
        writer = _dict_of(keys)
        assert writer.save(self.path, OTHER_FINGERPRINT) is True
        writer.clear()
        self.file_must_hold = set()
        self.file_fingerprint = OTHER_FINGERPRINT

    @rule(keys=st.sets(_keys))
    def outside_raw_rewrite(self, keys):
        # A writer that replaces the file without merging (as a process
        # of an older release would): entries it lacks are gone.
        blob = {
            "format_version": persistence.CACHE_FORMAT_VERSION,
            "kind": "k",
            "fingerprint": FINGERPRINT,
            "payload": {key: _value(key) for key in keys},
        }
        tmp_path = self.path.with_name("rewrite.tmp")
        with open(tmp_path, "wb") as handle:
            pickle.dump(blob, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_path, self.path)
        self.file_must_hold = set(keys)
        self.file_fingerprint = FINGERPRINT

    @precondition(lambda self: self.file_fingerprint is not None)
    @rule()
    def outside_delete(self):
        self.path.unlink()
        self.file_must_hold = set()
        self.file_fingerprint = None

    @invariant()
    def nothing_is_lost(self):
        for cache, must_hold in zip(self.caches, self.memory_must_hold):
            assert set(cache) >= must_hold
        assert self._file_keys() >= self.file_must_hold


TwoDictsOneFile.TestCase.settings = settings(
    max_examples=150,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_no_interleaving_loses_an_entry = TwoDictsOneFile.TestCase


# ------------------------------------------------------------ reads a save skips


@pytest.fixture()
def counted_reads(monkeypatch):
    """Every path ``_read_blob`` opens, in order."""
    reads = []
    read_blob = persistence._read_blob

    def counting(path):
        reads.append(path)
        return read_blob(path)

    monkeypatch.setattr(persistence, "_read_blob", counting)
    return reads


def test_a_save_after_a_load_reads_nothing(tmp_path, counted_reads):
    path = tmp_path / "cache.bin"
    assert _dict_of([1, 2]).save(path, FINGERPRINT)
    cache = persistence.PersistedDict("k")
    assert cache.load(path, FINGERPRINT)
    cache[3] = _value(3)
    counted_reads.clear()
    assert cache.save(path, FINGERPRINT)
    assert counted_reads == []
    fresh = persistence.PersistedDict("k")
    assert fresh.load(path, FINGERPRINT)
    assert dict(fresh) == {key: _value(key) for key in (1, 2, 3)}
    for held in (cache, fresh):
        held.clear()


def test_a_save_still_merges_a_file_rewritten_since(tmp_path, counted_reads):
    path = tmp_path / "cache.bin"
    assert _dict_of([1]).save(path, FINGERPRINT)
    cache = persistence.PersistedDict("k")
    assert cache.load(path, FINGERPRINT)
    other = _dict_of([2])
    assert other.save(path, FINGERPRINT)  # merges: the file holds 1 and 2
    cache[3] = _value(3)
    counted_reads.clear()
    assert cache.save(path, FINGERPRINT)
    assert counted_reads == [path]
    fresh = persistence.PersistedDict("k")
    assert fresh.load(path, FINGERPRINT)
    assert dict(fresh) == {key: _value(key) for key in (1, 2, 3)}
    for held in (cache, other, fresh):
        held.clear()


# ------------------------------------------------------------ deterministic bytes

_REPO_ROOT = Path(__file__).resolve().parent.parent

_SAVE_CACHES = textwrap.dedent(
    """
    import random
    import sys

    from repro.classify.dataset import TextDataset
    from repro.classify.snippet import SnippetTypeClassifier
    from repro.clock import VirtualClock
    from repro.core.annotator import EntityAnnotator
    from repro.tables.model import Column, ColumnType, Table
    from repro.web.documents import WebPage
    from repro.web.search import SearchEngine

    words = "exhibit gallery paintings curator collection museum".split()
    names = ["Grand Gallery", "Stone Hall", "Blue Door Museum", "Old Mill Cafe"]
    rng = random.Random(0)
    engine = SearchEngine(clock=VirtualClock())
    engine.add_pages(
        [
            WebPage(
                url=f"https://x/{index}-{i}",
                title=name,
                body=f"{name.lower()} " + " ".join(rng.choices(words, k=30)),
            )
            for index, name in enumerate(names)
            for i in range(6)
        ]
    )
    dataset = TextDataset()
    for _ in range(40):
        dataset.add(" ".join(rng.choices(words, k=12)), "museum")
        dataset.add("menu chef cuisine dining wine", "restaurant")
    classifier = SnippetTypeClassifier(backend="svm", min_count=1).fit(dataset)
    table = Table(name="t", columns=[Column("Name", ColumnType.TEXT)])
    for name in names + [f"{name} #2 of the city" for name in names]:
        table.append_row([name])
    annotator = EntityAnnotator(classifier, engine)
    annotator.annotate_tables([table], ["museum", "restaurant"])
    assert all(annotator.save_caches(sys.argv[1]).values())
    """
)


def _save_caches_under(hash_seed: str, cache_dir: Path) -> None:
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    env["PYTHONHASHSEED"] = hash_seed
    completed = subprocess.run(
        [sys.executable, "-c", _SAVE_CACHES, str(cache_dir)],
        cwd=_REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


def test_cache_files_are_identical_across_hash_seeds(tmp_path):
    # A results-cache key once held a frozenset of query tokens, which
    # pickles in string-hash order: equal contents, different bytes.
    for hash_seed in ("0", "1"):
        _save_caches_under(hash_seed, tmp_path / hash_seed)
    for name in (ENGINE_CACHE_FILE, LABEL_MEMO_FILE):
        first = (tmp_path / "0" / name).read_bytes()
        assert first == (tmp_path / "1" / name).read_bytes(), name

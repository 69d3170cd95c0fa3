"""Pluggable index storage backends.

The retrieval layer (BM25 in :mod:`repro.web.ranking`, the engine in
:mod:`repro.web.search`) needs a small surface from its index: postings
arrays per token, per-posting body word positions, document lengths,
word counts and an English mask, the page store, corpus statistics and
a content digest.
:class:`IndexBackend` names that surface, and two implementations
provide it:

* :class:`repro.web.index.InvertedIndex` -- the mutable in-memory
  backend.  Pages can be added at any time; postings live in Python
  lists with lazily-frozen per-token numpy views.  This is the right
  backend while a corpus is being built or for single-process runs.

* :class:`FrozenMmapIndex` -- a read-only backend over a compacted
  on-disk artifact.  :func:`build_index_artifact` flattens the postings
  into CSR-style arrays (sorted token table, concatenated doc-id/tf
  arrays with per-token offsets, concatenated word positions with
  per-posting offsets, document lengths and word counts, a page blob
  with per-field offsets) and writes them through
  :func:`repro.persistence.save_array_artifact`.  N processes on one
  host then open the artifact via ``np.memmap`` and the OS page cache
  holds exactly one physical copy of the postings: ``posting_arrays``
  returns zero-copy views, nothing is pickled per worker, and attach is
  near-instant (the token lookup table is built lazily on first query).

Sharing semantics
-----------------
``FrozenMmapIndex`` pickles as its artifact *path* (``__reduce__``), so
``spawn``-mode pool workers receive a few hundred bytes and re-open the
mapping instead of deserialising the whole postings store, while
``fork``-mode workers inherit the mapping directly.  Either way every
process reads the same physical pages.

Parity contract
---------------
The artifact preserves posting order (append order per token, i.e.
ascending doc id) and dtypes (``int64`` ids, ``float64`` tfs/lengths)
exactly as the in-memory backend materialises them, and stores the mean
document length as computed by the source index, so BM25 scores -- and
therefore rankings, annotations and diagnostics -- are byte-identical
across backends.  ``tests/test_index_backends.py`` and
``tests/test_positional_postings.py`` pin this.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.observability.log import get_logger
from repro.observability.tracing import span
from repro.persistence import (
    ArtifactError,
    open_array_artifact,
    save_array_artifact,
)
from repro.web.documents import WebPage
from repro.web.index import InvertedIndex, Posting

logger = get_logger(__name__)

INDEX_ARTIFACT_KIND = "inverted-index"
"""``kind`` guard of index artifacts in the persistence container."""

INDEX_LAYOUT_VERSION = 2
"""Bump when the index section layout changes; old artifacts are rejected.

Version 2 added the positional sections (``positions``,
``position_offsets``, ``n_words``)."""


class FrozenIndexError(RuntimeError):
    """A mutation was attempted on a frozen (read-only) index backend."""


@runtime_checkable
class IndexBackend(Protocol):
    """What the retrieval layer requires from an index implementation.

    Satisfied structurally by :class:`repro.web.index.InvertedIndex`
    (mutable, in-memory) and :class:`FrozenMmapIndex` (read-only,
    mmap-backed).  ``backend_name`` identifies the implementation in
    stats/CLI surfaces ("memory" / "mmap").
    """

    backend_name: str
    title_boost: float

    @property
    def n_documents(self) -> int: ...

    @property
    def average_length(self) -> float: ...

    @property
    def lengths(self) -> np.ndarray: ...

    @property
    def english_mask(self) -> np.ndarray: ...

    def document_length(self, doc_id: int) -> float: ...

    def document_frequency(self, token: str) -> int: ...

    def posting_arrays(
        self, token: str
    ) -> tuple[np.ndarray, np.ndarray] | None: ...

    def postings(self, token: str) -> list[Posting]: ...

    def word_positions(self, token: str, doc_id: int) -> Sequence[int]: ...

    def n_words(self, doc_id: int) -> int: ...

    def page(self, doc_id: int) -> WebPage: ...

    def vocabulary_size(self) -> int: ...

    def tokens(self) -> Iterator[str]: ...

    def raw_postings(self, token: str) -> Sequence[tuple[int, float]]: ...

    def raw_positions(
        self, token: str
    ) -> tuple[Sequence[int], Sequence[int]]: ...

    def content_digest(self) -> str: ...

    def fingerprint_digest(self) -> str: ...


def build_index_artifact(
    index: IndexBackend,
    path,
    lock_timeout: float | None = None,
) -> Path:
    """Compact *index* into a frozen artifact at *path*.

    Postings are flattened CSR-style: tokens sorted lexicographically
    into one utf-8 blob with offsets, each token's ``(doc_id, tf)``
    entries concatenated in their original append order into two flat
    arrays with a shared per-token offset table, and each posting's word
    positions concatenated in the same order into one int32 array with a
    per-posting offset table.  Pages go into a second
    blob with four offsets per page (url, title, body, language).  The
    write is atomic and advisory-locked (see
    :func:`repro.persistence.save_array_artifact`).
    """
    tokens = list(index.tokens())
    token_blob = bytearray()
    token_offsets = np.zeros(len(tokens) + 1, dtype=np.int64)
    posting_offsets = np.zeros(len(tokens) + 1, dtype=np.int64)
    flat_ids: list[int] = []
    flat_tfs: list[float] = []
    position_chunks: list[np.ndarray] = []
    offset_chunks = [np.zeros(1, dtype=np.int64)]
    n_positions = 0
    for row, token in enumerate(tokens):
        encoded = token.encode("utf-8")
        token_blob += encoded
        token_offsets[row + 1] = token_offsets[row] + len(encoded)
        entries = index.raw_postings(token)
        posting_offsets[row + 1] = posting_offsets[row] + len(entries)
        for doc_id, tf in entries:
            flat_ids.append(doc_id)
            flat_tfs.append(tf)
        positions, offsets = index.raw_positions(token)
        offsets = np.asarray(offsets, dtype=np.int64)
        position_chunks.append(np.asarray(positions, dtype=np.int32))
        offset_chunks.append(offsets[1:] - offsets[0] + n_positions)
        n_positions += int(offsets[-1] - offsets[0])

    page_blob = bytearray()
    page_offsets = np.zeros(4 * index.n_documents + 1, dtype=np.int64)
    cursor = 0
    for doc_id in range(index.n_documents):
        page = index.page(doc_id)
        for field_index, field in enumerate(
            (page.url, page.title, page.body, page.language)
        ):
            encoded = field.encode("utf-8")
            page_blob += encoded
            cursor += len(encoded)
            page_offsets[4 * doc_id + field_index + 1] = cursor

    header = {
        "layout_version": INDEX_LAYOUT_VERSION,
        "title_boost": index.title_boost,
        "n_documents": index.n_documents,
        "average_length": index.average_length,
        "content_digest": index.content_digest(),
        "fingerprint_digest": index.fingerprint_digest(),
        "n_tokens": len(tokens),
        "n_postings": len(flat_ids),
        "n_positions": n_positions,
    }
    sections = {
        "token_blob": np.frombuffer(bytes(token_blob), dtype=np.uint8),
        "token_offsets": token_offsets,
        "posting_offsets": posting_offsets,
        "doc_ids": np.asarray(flat_ids, dtype=np.int64),
        "tfs": np.asarray(flat_tfs, dtype=np.float64),
        "positions": np.concatenate(
            [np.zeros(0, dtype=np.int32), *position_chunks]
        ),
        "position_offsets": np.concatenate(offset_chunks),
        "lengths": np.asarray(index.lengths, dtype=np.float64),
        "n_words": np.asarray(
            [index.n_words(doc_id) for doc_id in range(index.n_documents)],
            dtype=np.int64,
        ),
        "page_blob": np.frombuffer(bytes(page_blob), dtype=np.uint8),
        "page_offsets": page_offsets,
    }
    if not save_array_artifact(
        path, INDEX_ARTIFACT_KIND, header, sections, lock_timeout=lock_timeout
    ):
        raise ArtifactError(
            f"could not acquire the artifact lock to build {path}"
        )
    return Path(path)


class FrozenMmapIndex:
    """Read-only :class:`IndexBackend` over a compacted mmap'd artifact.

    Every array-valued accessor returns a zero-copy view into the
    memory-mapped file; the only per-process heap state is the lazily
    built token -> row dictionary (first query) and a small decoded-page
    memo.  Mutations (:meth:`add`, :meth:`add_many`) raise
    :class:`FrozenIndexError` -- grow the corpus with the in-memory
    backend and rebuild the artifact.

    Pickling is by path (:meth:`__reduce__`): a ``spawn`` worker receives
    the path string and re-opens the mapping, a ``fork`` worker inherits
    it -- in neither case is the postings store serialised.
    """

    backend_name = "mmap"

    def __init__(self, path, header: dict, sections: dict) -> None:
        self.path = Path(path)
        self.title_boost = float(header["title_boost"])
        self._n_documents = int(header["n_documents"])
        self._average_length = float(header["average_length"])
        self._content_digest = str(header["content_digest"])
        self._fingerprint_digest = str(header["fingerprint_digest"])
        self._sections = sections
        self._token_rows: dict[str, int] | None = None
        self._english: np.ndarray | None = None
        self._page_cache: dict[int, WebPage] = {}

    @classmethod
    def open(cls, path, lock_timeout: float | None = None) -> "FrozenMmapIndex":
        """Open the artifact at *path*; raises :class:`ArtifactError`."""
        with span("index.attach", path=str(path)):
            header, sections = open_array_artifact(
                path, INDEX_ARTIFACT_KIND, lock_timeout=lock_timeout
            )
            if header.get("layout_version") != INDEX_LAYOUT_VERSION:
                raise ArtifactError(
                    f"{path} uses index layout "
                    f"{header.get('layout_version')!r}, "
                    f"expected {INDEX_LAYOUT_VERSION}"
                )
            return cls(path, header, sections)

    def __reduce__(self):
        return (FrozenMmapIndex.open, (str(self.path),))

    # -- construction (refused) ------------------------------------------------------

    def add(self, page: WebPage) -> int:
        raise FrozenIndexError(
            "FrozenMmapIndex is read-only; grow the corpus with the "
            "in-memory backend and rebuild the artifact (index build)"
        )

    def add_many(self, pages) -> list[int]:
        raise FrozenIndexError(
            "FrozenMmapIndex is read-only; grow the corpus with the "
            "in-memory backend and rebuild the artifact (index build)"
        )

    # -- token lookup ----------------------------------------------------------------

    def _rows(self) -> dict[str, int]:
        if self._token_rows is None:
            blob = bytes(memoryview(self._sections["token_blob"]))
            offsets = self._sections["token_offsets"]
            self._token_rows = {
                blob[offsets[row] : offsets[row + 1]].decode("utf-8"): row
                for row in range(len(offsets) - 1)
            }
        return self._token_rows

    # -- statistics ------------------------------------------------------------------

    @property
    def n_documents(self) -> int:
        return self._n_documents

    @property
    def average_length(self) -> float:
        return self._average_length

    @property
    def lengths(self) -> np.ndarray:
        return self._sections["lengths"]

    @property
    def english_mask(self) -> np.ndarray:
        """Derived once from the language spans of the page blob, without
        decoding a page: a span is English iff its bytes are ``b"en"``."""
        if self._english is None:
            blob = self._sections["page_blob"]
            offsets = self._sections["page_offsets"]
            starts = offsets[3::4]
            english = (offsets[4::4] - starts) == 2
            first = starts[english]
            english[english] = (blob[first] == ord("e")) & (
                blob[first + 1] == ord("n")
            )
            self._english = english
        return self._english

    def document_length(self, doc_id: int) -> float:
        return float(self._sections["lengths"][doc_id])

    def document_frequency(self, token: str) -> int:
        row = self._rows().get(token)
        if row is None:
            return 0
        offsets = self._sections["posting_offsets"]
        return int(offsets[row + 1] - offsets[row])

    def posting_arrays(
        self, token: str
    ) -> tuple[np.ndarray, np.ndarray] | None:
        row = self._rows().get(token)
        if row is None:
            return None
        offsets = self._sections["posting_offsets"]
        start, stop = int(offsets[row]), int(offsets[row + 1])
        return (
            self._sections["doc_ids"][start:stop],
            self._sections["tfs"][start:stop],
        )

    def postings(self, token: str) -> list[Posting]:
        arrays = self.posting_arrays(token)
        if arrays is None:
            return []
        ids, tfs = arrays
        return [
            Posting(doc_id=int(doc_id), term_frequency=float(tf))
            for doc_id, tf in zip(ids, tfs)
        ]

    def raw_postings(self, token: str) -> Sequence[tuple[int, float]]:
        arrays = self.posting_arrays(token)
        if arrays is None:
            return ()
        ids, tfs = arrays
        return [(int(doc_id), float(tf)) for doc_id, tf in zip(ids, tfs)]

    def raw_positions(self, token: str) -> tuple[Sequence[int], Sequence[int]]:
        row = self._rows().get(token)
        if row is None:
            return (), (0,)
        posting_offsets = self._sections["posting_offsets"]
        offsets = self._sections["position_offsets"][
            int(posting_offsets[row]) : int(posting_offsets[row + 1]) + 1
        ]
        return self._sections["positions"][offsets[0] : offsets[-1]], offsets

    def word_positions(self, token: str, doc_id: int) -> Sequence[int]:
        row = self._rows().get(token)
        if row is None:
            return ()
        posting_offsets = self._sections["posting_offsets"]
        start = int(posting_offsets[row])
        ids = self._sections["doc_ids"][start : int(posting_offsets[row + 1])]
        found = int(ids.searchsorted(doc_id))
        if found == ids.shape[0] or ids[found] != doc_id:
            return ()
        offsets = self._sections["position_offsets"]
        posting = start + found
        return self._sections["positions"][
            offsets[posting] : offsets[posting + 1]
        ].tolist()

    def n_words(self, doc_id: int) -> int:
        return int(self._sections["n_words"][doc_id])

    def page(self, doc_id: int) -> WebPage:
        page = self._page_cache.get(doc_id)
        if page is None:
            if not 0 <= doc_id < self._n_documents:
                raise IndexError(f"no document {doc_id}")
            blob = self._sections["page_blob"]
            offsets = self._sections["page_offsets"]
            base = 4 * doc_id
            url, title, body, language = (
                bytes(
                    memoryview(blob[offsets[base + i] : offsets[base + i + 1]])
                ).decode("utf-8")
                for i in range(4)
            )
            page = WebPage(url=url, title=title, body=body, language=language)
            self._page_cache[doc_id] = page
        return page

    def vocabulary_size(self) -> int:
        return len(self._sections["token_offsets"]) - 1

    def tokens(self) -> Iterator[str]:
        blob = bytes(memoryview(self._sections["token_blob"]))
        offsets = self._sections["token_offsets"]
        for row in range(len(offsets) - 1):
            yield blob[offsets[row] : offsets[row + 1]].decode("utf-8")

    def content_digest(self) -> str:
        return self._content_digest

    def fingerprint_digest(self) -> str:
        return self._fingerprint_digest


def ensure_index_artifact(
    index: IndexBackend,
    path,
    lock_timeout: float | None = None,
) -> FrozenMmapIndex:
    """Open a fresh artifact for *index* at *path*, building if needed.

    An existing artifact is reused iff its fingerprint digest and title
    boost match *index* exactly (same pages, same content, same boost);
    anything else -- missing, corrupt, stale, other corpus -- triggers a
    rebuild through the atomic, advisory-locked write path.
    """
    path = Path(path)
    if path.exists():
        try:
            frozen = FrozenMmapIndex.open(path, lock_timeout=lock_timeout)
        except ArtifactError as error:
            logger.warning(
                "index.artifact_unusable",
                path=str(path),
                error=str(error),
                outcome="rebuilding",
            )
        else:
            if (
                frozen.fingerprint_digest() == index.fingerprint_digest()
                and frozen.title_boost == index.title_boost
            ):
                return frozen
            logger.info(
                "index.artifact_stale",
                path=str(path),
                outcome="rebuilding",
            )
    with span("index.build", path=str(path), n_documents=index.n_documents):
        build_index_artifact(index, path, lock_timeout=lock_timeout)
    return FrozenMmapIndex.open(path, lock_timeout=lock_timeout)

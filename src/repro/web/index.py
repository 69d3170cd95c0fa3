"""The inverted index over web pages: build once, freeze, then query.

Tokenisation matches :func:`repro.text.tokenization.tokenize` (lower-case
word tokens).  Title tokens are counted with a configurable boost, because
entity homepages carry the entity name in the title and should outrank
pages that merely mention it.

Lifecycle
---------
An :class:`IndexBuilder` takes pages (:meth:`~IndexBuilder.add`,
:meth:`~IndexBuilder.add_many`) into flat append-only arrays and folds
each into two incremental corpus digests.  :meth:`IndexBuilder.freeze`
turns it, once, into an immutable :class:`FrozenIndex` and releases the
build arrays; the builder takes no page after that.  There is one frozen
layout (CSR, :data:`SECTIONS`):

* ``token_blob``/``token_offsets`` -- the vocabulary, sorted, utf-8;
* ``posting_offsets`` -- each token's slice of ``doc_ids``/``tfs`` (its
  postings in ascending doc id order, ``int64``/``float64``);
* ``positions``/``position_offsets`` -- each posting's ascending ``int32``
  positions, in ``body.split()``, of the words that yield the token;
* ``lengths``/``n_words`` -- per-document BM25 length and body word count;
* ``page_blob``/``page_offsets`` -- every page's url, title, body and
  language, utf-8, four offsets per page.

The digests, ``title_boost`` and ``average_length`` live in the header.
The sections are numpy arrays in RAM (straight from :meth:`freeze`) or
plain ``np.ndarray`` views over a read-only mapping of an artifact
(:meth:`FrozenIndex.open`); the query code is the same either way, and
:meth:`FrozenIndex.save` writes the sections verbatim.

Body tokens are counted word by word, so every word's position is known;
no token spans whitespace, so that is the same token sequence as
``tokenize(body)``.
"""

from __future__ import annotations

import hashlib
from array import array
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.observability.tracing import span
from repro.persistence import (
    ArtifactError,
    open_array_artifact,
    save_array_artifact,
)
from repro.text.tokenization import tokenize
from repro.web.documents import WebPage

INDEX_ARTIFACT_KIND = "inverted-index"
"""``kind`` guard of index artifacts in the persistence container."""

INDEX_LAYOUT_VERSION = 2
"""Bump when the index section layout changes; old artifacts are rejected.

Version 2 added the positional sections (``positions``,
``position_offsets``, ``n_words``)."""

SECTIONS = (
    "token_blob",
    "token_offsets",
    "posting_offsets",
    "doc_ids",
    "tfs",
    "positions",
    "position_offsets",
    "lengths",
    "n_words",
    "page_blob",
    "page_offsets",
)
"""The frozen index's arrays, in the order an artifact stores them."""


class FrozenIndexError(RuntimeError):
    """A page was added to an index that is already frozen."""


def _cumulative(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]`` as ``int64``: CSR offsets from counts."""
    offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


class IndexBuilder:
    """Takes pages into flat append-only arrays until :meth:`freeze`.

    Postings are appended in add order, one ``(token id, doc id, tf,
    number of positions)`` row each, with their positions concatenated;
    :meth:`freeze` sorts them by token once.  A few large arrays rather
    than four per token: freed, they go back to the operating system.
    """

    def __init__(self, title_boost: float = 3.0) -> None:
        if title_boost < 1.0:
            raise ValueError(f"title_boost must be >= 1.0, got {title_boost}")
        self.title_boost = title_boost
        self._token_ids: dict[str, int] | None = {}
        self._token_of = array("i")
        self._doc_of = array("q")
        self._tfs = array("d")
        self._n_positions = array("q")
        self._positions = array("i")
        self._lengths = array("d")
        self._n_words = array("q")
        self._total_length = 0.0
        self._page_blob = bytearray()
        self._page_offsets = array("q", [0])
        self._word_tokens: dict[str, list[str]] = {}
        self._content_hasher = hashlib.sha256()
        self._content_hasher.update(repr(title_boost).encode())
        self._pages_hasher = hashlib.sha256()

    def add(self, page: WebPage) -> int:
        """Index *page* and return its document id."""
        if self._token_ids is None:
            raise FrozenIndexError("this builder was frozen; build a new one")
        doc_id = len(self._lengths)
        for field in (page.url, page.title, page.body, page.language):
            self._page_blob += field.encode("utf-8")
            self._page_offsets.append(len(self._page_blob))
        self._content_hasher.update(b"\x00t\x00")
        self._content_hasher.update(page.title.encode())
        self._content_hasher.update(b"\x00b\x00")
        self._content_hasher.update(page.body.encode())
        self._pages_hasher.update(page.url.encode())
        self._pages_hasher.update(b"\x00")
        self._pages_hasher.update(page.language.encode())
        self._pages_hasher.update(b"\x00")
        counts: dict[str, float] = {}
        count = counts.get
        for token in tokenize(page.title):
            counts[token] = count(token, 0.0) + self.title_boost
        positions: dict[str, list[int]] = {}
        words = page.body.split()
        word_tokens = self._word_tokens
        for position, word in enumerate(words):
            tokens = word_tokens.get(word)
            if tokens is None:
                tokens = word_tokens[word] = tokenize(word)
            for token in tokens:
                counts[token] = count(token, 0.0) + 1.0
                seen = positions.get(token)
                if seen is None:
                    positions[token] = [position]
                elif seen[-1] != position:
                    seen.append(position)
        self._n_words.append(len(words))
        length = float(sum(counts.values()))
        self._lengths.append(length)
        self._total_length += length
        token_ids = self._token_ids
        for token, frequency in counts.items():
            seen = positions.get(token, ())
            self._token_of.append(token_ids.setdefault(token, len(token_ids)))
            self._doc_of.append(doc_id)
            self._tfs.append(frequency)
            self._n_positions.append(len(seen))
            self._positions.extend(seen)
        return doc_id

    def add_many(self, pages: Iterable[WebPage]) -> list[int]:
        """Index *pages* in order, returning their document ids."""
        return [self.add(page) for page in pages]

    def freeze(self) -> FrozenIndex:
        """The CSR layout of every page added, as an in-RAM
        :class:`FrozenIndex`.  Each build array is released as soon as
        its sorted copy exists; the builder takes no page afterwards."""
        token_ids, self._token_ids = self._token_ids, None
        tokens = sorted(token_ids)
        rank = np.empty(len(tokens), dtype=np.int32)
        rank[[token_ids[token] for token in tokens]] = np.arange(
            len(tokens), dtype=np.int32
        )
        keys = rank[np.frombuffer(self._token_of, dtype=np.int32)]
        self._token_of = None
        # Stable: each token's postings stay in doc id order.
        order = np.argsort(keys, kind="stable")
        posting_offsets = _cumulative(np.bincount(keys, minlength=len(tokens)))
        del keys
        doc_ids = np.frombuffer(self._doc_of, dtype=np.int64)[order]
        self._doc_of = None
        tfs = np.frombuffer(self._tfs, dtype=np.float64)[order]
        self._tfs = None
        # Each posting's run of positions moves from its add-order start
        # to its place in token order.
        counts = np.frombuffer(self._n_positions, dtype=np.int64)
        starts = np.cumsum(counts)
        starts -= counts
        starts = starts[order]
        counts = counts[order]
        self._n_positions = None
        del order
        position_offsets = _cumulative(counts)
        starts -= position_offsets[:-1]
        gather = np.repeat(starts, counts)
        del starts, counts
        gather += np.arange(gather.shape[0], dtype=np.int64)
        positions = np.frombuffer(self._positions, dtype=np.int32)[gather]
        self._positions = None
        del gather
        encoded = [token.encode("utf-8") for token in tokens]
        n_documents = len(self._lengths)
        content_digest = self._content_hasher.hexdigest()
        fingerprint = self._pages_hasher.copy()
        fingerprint.update(content_digest.encode())
        header = {
            "layout_version": INDEX_LAYOUT_VERSION,
            "title_boost": self.title_boost,
            "n_documents": n_documents,
            "average_length": (
                self._total_length / n_documents if n_documents else 0.0
            ),
            "content_digest": content_digest,
            "fingerprint_digest": fingerprint.hexdigest(),
            "n_tokens": len(tokens),
            "n_postings": int(doc_ids.shape[0]),
            "n_positions": int(positions.shape[0]),
        }
        sections = {
            "token_blob": np.frombuffer(b"".join(encoded), dtype=np.uint8),
            "token_offsets": _cumulative(
                np.fromiter(map(len, encoded), np.int64, len(encoded))
            ),
            "posting_offsets": posting_offsets,
            "doc_ids": doc_ids,
            "tfs": tfs,
            "positions": positions,
            "position_offsets": position_offsets,
            "lengths": np.frombuffer(self._lengths, dtype=np.float64),
            "n_words": np.frombuffer(self._n_words, dtype=np.int64),
            "page_blob": np.frombuffer(self._page_blob, dtype=np.uint8),
            "page_offsets": np.frombuffer(self._page_offsets, dtype=np.int64),
        }
        self._lengths = self._n_words = self._page_blob = None
        self._page_offsets = self._word_tokens = None
        return FrozenIndex(header, sections)


class FrozenIndex:
    """The immutable CSR index every query reads (see the module docs).

    Everything the ranking layer reads per query is precomputed at
    construction: the token -> ``(start, stop)`` posting span map with
    Python int bounds, and ``memoryview``\\ s over the sections that are
    probed one element at a time (:meth:`n_words`, :meth:`field`), which
    answer Python ints and strings without a numpy scalar.  Word
    positions are read for a whole batch of documents at once
    (:meth:`postings_of`, :meth:`posting_positions`).  :attr:`path` is
    the artifact the sections are mapped from, or ``None`` when they
    live in RAM; a mapped index pickles as that path, so a ``spawn``
    worker re-opens the shared mapping instead of receiving the arrays.
    """

    def __init__(
        self, header: dict, sections: dict[str, np.ndarray], path=None
    ) -> None:
        self.path = None if path is None else Path(path)
        self._header = header
        self._sections = sections
        self.title_boost = float(header["title_boost"])
        self.n_documents = int(header["n_documents"])
        self.average_length = float(header["average_length"])
        self.lengths = sections["lengths"]
        blob = bytes(sections["token_blob"])
        bounds = sections["token_offsets"].tolist()
        postings = sections["posting_offsets"].tolist()
        self._spans = {
            blob[bounds[row] : bounds[row + 1]].decode("utf-8"): (
                postings[row],
                postings[row + 1],
            )
            for row in range(len(bounds) - 1)
        }
        self._n_words_view = memoryview(sections["n_words"])
        self._page_blob_view = memoryview(sections["page_blob"])
        self._page_offsets_view = memoryview(sections["page_offsets"])

    @property
    def backend_name(self) -> str:
        """Where the sections live: ``"mmap"`` or ``"memory"``."""
        return "memory" if self.path is None else "mmap"

    # -- storage ---------------------------------------------------------------------

    @classmethod
    def open(cls, path, lock_timeout: float | None = None) -> FrozenIndex:
        """Map the artifact at *path* read-only; raises :class:`ArtifactError`."""
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
            try:
                # Plain views: every np.memmap slice pays a subclass round trip.
                arrays = {name: sections[name].view(np.ndarray) for name in SECTIONS}
                return cls(header, arrays, path)
            except (KeyError, ValueError) as error:
                raise ArtifactError(f"{path} has corrupt sections: {error}") from None

    def save(self, path, lock_timeout: float | None = None) -> Path:
        """Write the header and sections verbatim to an artifact at *path*
        (atomic and advisory-locked, see
        :func:`repro.persistence.save_array_artifact`)."""
        if not save_array_artifact(
            path, INDEX_ARTIFACT_KIND, self._header, self._sections, lock_timeout
        ):
            raise ArtifactError(f"could not acquire the artifact lock to write {path}")
        return Path(path)

    def __reduce__(self):
        if self.path is not None:
            return (FrozenIndex.open, (str(self.path),))
        return (FrozenIndex, (self._header, self._sections))

    # -- queries ---------------------------------------------------------------------

    @cached_property
    def english_mask(self) -> np.ndarray:
        """Per-document booleans, true where ``page.language == "en"``,
        read from the language spans of the page blob without decoding
        a page."""
        blob = self._sections["page_blob"]
        offsets = self._sections["page_offsets"]
        starts = offsets[3::4]
        english = (offsets[4::4] - starts) == 2
        first = starts[english]
        english[english] = (blob[first] == ord("e")) & (blob[first + 1] == ord("n"))
        return english

    def document_frequency(self, token: str) -> int:
        """Number of documents containing *token*."""
        start, stop = self._spans.get(token, (0, 0))
        return stop - start

    def posting_arrays(self, token: str) -> tuple[np.ndarray, np.ndarray] | None:
        """(doc_ids, term_frequencies) views for *token*, or ``None``."""
        bounds = self._spans.get(token)
        if bounds is None:
            return None
        start, stop = bounds
        return (
            self._sections["doc_ids"][start:stop],
            self._sections["tfs"][start:stop],
        )

    def postings_of(
        self, token: str, docs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(found, postings)``: the indexes into the int64 array *docs*
        of the documents holding *token*, ascending, and each one's
        posting (its row in the ``doc_ids``/``positions`` CSR), found
        with one ``searchsorted`` over the token's postings."""
        bounds = self._spans.get(token)
        if bounds is None or docs.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        start, stop = bounds
        ids = self._sections["doc_ids"][start:stop]
        rows = np.searchsorted(ids, docs)
        found = np.flatnonzero(ids[np.minimum(rows, stop - start - 1)] == docs)
        return found, rows[found] + start

    def posting_positions(
        self, postings: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(owners, positions)``: every word position of the *postings*
        (see :meth:`postings_of`), in order, each with the index into
        *postings* of the posting it belongs to."""
        offsets = self._sections["position_offsets"]
        firsts = offsets[postings]
        counts = offsets[postings + 1] - firsts
        owners = np.repeat(np.arange(postings.shape[0]), counts)
        # Each posting's run of positions, shifted from where it lands in
        # the output to where it starts in `positions`.
        gather = np.arange(owners.shape[0]) + np.repeat(
            firsts - (np.cumsum(counts) - counts), counts
        )
        return owners, self._sections["positions"][gather]

    def n_words(self, doc_id: int) -> int:
        """Number of words in ``page(doc_id).body.split()``."""
        return self._n_words_view[doc_id]

    def page(self, doc_id: int) -> WebPage:
        """The indexed page with this id, decoded from the page blob."""
        url, title, body, language = (self.field(doc_id, i) for i in range(4))
        return WebPage(url=url, title=title, body=body, language=language)

    def field(self, doc_id: int, part: int) -> str:
        """One field of page *doc_id* decoded from the page blob: *part*
        0 is its url, 1 its title, 2 its body and 3 its language."""
        if not 0 <= doc_id < self.n_documents:
            raise IndexError(f"no document {doc_id}")
        offsets = self._page_offsets_view
        at = 4 * doc_id + part
        return str(self._page_blob_view[offsets[at] : offsets[at + 1]], "utf-8")

    def vocabulary_size(self) -> int:
        return len(self._spans)

    def tokens(self) -> Iterator[str]:
        """Iterate the vocabulary in sorted order (deterministic)."""
        return iter(self._spans)

    def content_digest(self) -> str:
        """Hex digest of the indexed content: the title boost and every
        page's title and body, in add order.

        With the tokenizer (fixed) these fully determine every postings
        list, so two indexes agree on this digest iff they rank
        identically -- which is what persisted ranking caches need to
        check.  Hashing only shapes (url, title, length) is not enough:
        two corpora whose bodies differ can collide on all three.
        """
        return self._header["content_digest"]

    def fingerprint_digest(self) -> str:
        """Hex digest identifying the corpus for cache validation: every
        page's (url, language) pair, in add order, then
        :meth:`content_digest`.  This is the digest
        :meth:`repro.web.search.SearchEngine.cache_fingerprint` embeds."""
        return self._header["fingerprint_digest"]

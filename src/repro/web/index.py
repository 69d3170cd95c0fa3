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
  postings in ascending doc id order, ``int32``/``float64``);
* ``token_word_offsets`` -- each token's slice of ``token_words``: the
  ascending ids of the distinct body words that yield it;
* ``word_blob``/``word_offsets`` -- the distinct body words, utf-8, in
  the order the builder first met them;
* ``word_id_offsets`` -- each document's slice of ``word_ids``: its
  ``body.split()`` as ``int32`` word ids, in order;
* ``lengths`` -- per-document BM25 length;
* ``page_blob``/``page_offsets`` -- every page's url, title, body and
  language, utf-8, four offsets per page.

The digests, ``title_boost`` and ``average_length`` live in the header.
The sections are numpy arrays in RAM (straight from :meth:`freeze`) or
plain ``np.ndarray`` views over a read-only mapping of an artifact
(:meth:`FrozenIndex.open`, which checks the word sections' bounds);
the query code is the same either way, and :meth:`FrozenIndex.save`
writes the sections verbatim.

Body tokens are counted word by word; no token spans whitespace, so that
is the same token sequence as ``tokenize(body)``, and a body word yields
a query token exactly when its id is in that token's ``token_words``.
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

INDEX_LAYOUT_VERSION = 3
"""Bump when the index section layout changes; old artifacts are rejected.

Version 2 added word positions per posting; version 3 replaced them with
each body's word-id stream and stores ``doc_ids`` as ``int32``."""

MAX_DOCUMENTS = int(np.iinfo(np.int32).max)
"""The most documents an index holds: doc ids are ``int32``."""

SECTIONS = (
    "token_blob",
    "token_offsets",
    "posting_offsets",
    "doc_ids",
    "tfs",
    "token_word_offsets",
    "token_words",
    "word_blob",
    "word_offsets",
    "word_id_offsets",
    "word_ids",
    "lengths",
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


def _blob(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """*strings* as one utf-8 ``uint8`` blob and its CSR offsets."""
    encoded = [string.encode("utf-8") for string in strings]
    return (
        np.frombuffer(b"".join(encoded), dtype=np.uint8),
        _cumulative(np.fromiter(map(len, encoded), np.int64, len(encoded))),
    )


def _strings(blob: np.ndarray, offsets: np.ndarray) -> list[str]:
    """The strings :func:`_blob` packed."""
    data = bytes(blob)
    bounds = offsets.tolist()
    return [
        data[bounds[row] : bounds[row + 1]].decode("utf-8")
        for row in range(len(bounds) - 1)
    ]


class IndexBuilder:
    """Takes pages into flat append-only arrays until :meth:`freeze`.

    Postings are appended in add order, one ``(token id, tf)`` row each,
    with one posting count per page; each body goes into one stream of
    word ids over the distinct words met so far.  :meth:`freeze` sorts
    the postings by token once.  A few large arrays rather than four per
    token: freed, they go back to the operating system.
    """

    def __init__(self, title_boost: float = 3.0) -> None:
        if title_boost < 1.0:
            raise ValueError(f"title_boost must be >= 1.0, got {title_boost}")
        self.title_boost = title_boost
        self._token_ids: dict[str, int] | None = {}
        self._token_of = array("i")
        self._tfs = array("d")
        self._n_postings = array("q")
        self._word_ids: dict[str, int] = {}
        self._word_tokens: list[list[str]] = []
        self._word_stream = array("i")
        self._n_words = array("q")
        self._lengths = array("d")
        self._total_length = 0.0
        self._page_blob = bytearray()
        self._page_offsets = array("q", [0])
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
        word_ids = self._word_ids
        word_tokens = self._word_tokens
        stream = []
        for word in page.body.split():
            word_id = word_ids.get(word)
            if word_id is None:
                word_id = word_ids[word] = len(word_tokens)
                word_tokens.append(tokenize(word))
            stream.append(word_id)
            for token in word_tokens[word_id]:
                counts[token] = count(token, 0.0) + 1.0
        self._word_stream.extend(stream)
        self._n_words.append(len(stream))
        length = float(sum(counts.values()))
        self._lengths.append(length)
        self._total_length += length
        token_ids = self._token_ids
        for token, frequency in counts.items():
            self._token_of.append(token_ids.setdefault(token, len(token_ids)))
            self._tfs.append(frequency)
        self._n_postings.append(len(counts))
        return doc_id

    def add_many(self, pages: Iterable[WebPage]) -> list[int]:
        """Index *pages* in order, returning their document ids."""
        return [self.add(page) for page in pages]

    def freeze(self) -> FrozenIndex:
        """The CSR layout of every page added, as an in-RAM
        :class:`FrozenIndex`.  Each build array is released as soon as
        its sorted copy exists; the builder takes no page afterwards.
        Raises ``ValueError`` past :data:`MAX_DOCUMENTS` pages."""
        n_documents = len(self._lengths)
        if n_documents > MAX_DOCUMENTS:
            raise ValueError(
                f"{n_documents} documents do not fit int32 doc ids "
                f"(at most {MAX_DOCUMENTS})"
            )
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
        doc_ids = np.repeat(
            np.arange(n_documents, dtype=np.int32),
            np.frombuffer(self._n_postings, dtype=np.int64),
        )[order]
        self._n_postings = None
        tfs = np.frombuffer(self._tfs, dtype=np.float64)[order]
        self._tfs = None
        del order
        # Each body token's (token row, word id) pairs, sorted and distinct.
        words = list(self._word_ids)
        n_words = len(words)
        yields = [token_ids[token] for tokens in self._word_tokens for token in tokens]
        token_rows, token_words = np.divmod(
            np.unique(
                rank[np.array(yields, dtype=np.int64)].astype(np.int64) * n_words
                + np.repeat(
                    np.arange(n_words, dtype=np.int64),
                    [len(tokens) for tokens in self._word_tokens],
                )
            ),
            n_words,
        )
        self._word_ids = self._word_tokens = None
        word_blob, word_offsets = _blob(words)
        token_blob, token_offsets = _blob(tokens)
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
            "n_distinct_words": n_words,
        }
        sections = {
            "token_blob": token_blob,
            "token_offsets": token_offsets,
            "posting_offsets": posting_offsets,
            "doc_ids": doc_ids,
            "tfs": tfs,
            "token_word_offsets": _cumulative(
                np.bincount(token_rows, minlength=len(tokens))
            ),
            "token_words": token_words.astype(np.int32),
            "word_blob": word_blob,
            "word_offsets": word_offsets,
            "word_id_offsets": _cumulative(
                np.frombuffer(self._n_words, dtype=np.int64)
            ),
            "word_ids": np.frombuffer(self._word_stream, dtype=np.int32),
            "lengths": np.frombuffer(self._lengths, dtype=np.float64),
            "page_blob": np.frombuffer(self._page_blob, dtype=np.uint8),
            "page_offsets": np.frombuffer(self._page_offsets, dtype=np.int64),
        }
        self._n_words = self._word_stream = self._lengths = None
        self._page_blob = self._page_offsets = None
        return FrozenIndex(header, sections)


def _check_csr(
    sections: dict[str, np.ndarray], name: str, rows: int, target: str, bound=None
) -> None:
    """Raise ``ValueError`` unless ``sections[name]`` is *rows* + 1
    monotone ``int64`` offsets from 0 to the length of
    ``sections[target]`` and, given a *bound*, that section holds
    ``int32`` ids in ``[0, bound)``."""
    offsets, ids = sections[name], sections[target]
    if (
        rows < 0
        or offsets.dtype != np.int64
        or offsets.shape != (rows + 1,)
        or offsets[0] != 0
        or offsets[-1] != ids.shape[0]
        or np.any(offsets[1:] < offsets[:-1])
    ):
        raise ValueError(f"{name} are not monotone offsets over {target}")
    if bound is not None and (
        ids.dtype != np.int32 or (ids.size and (ids.min() < 0 or ids.max() >= bound))
    ):
        raise ValueError(f"{target} holds ids outside [0, {bound})")


class FrozenIndex:
    """The immutable CSR index every query reads (see the module docs).

    Everything the ranking layer reads per query is precomputed at
    construction: the token -> ``(start, stop)`` posting span map with
    Python int bounds, the token -> body-word span map, the decoded
    body words (:attr:`words`), and ``memoryview``\\ s over the page
    sections, which :meth:`field` probes one element at a time without a
    numpy scalar.  :attr:`word_ids` and :attr:`word_id_offsets` are the
    bodies as word-id streams, read for a whole batch of documents at
    once.  :attr:`path` is the artifact the sections are mapped from, or
    ``None`` when they live in RAM; a mapped index pickles as that path,
    so a ``spawn`` worker re-opens the shared mapping instead of
    receiving the arrays.
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
        self.word_ids = sections["word_ids"]
        self.word_id_offsets = sections["word_id_offsets"]
        words = _strings(sections["word_blob"], sections["word_offsets"])
        self.words = np.empty(len(words), dtype=object)
        self.words[:] = words
        postings = sections["posting_offsets"].tolist()
        yields = sections["token_word_offsets"].tolist()
        self._spans = {}
        self._word_spans = {}
        for row, token in enumerate(
            _strings(sections["token_blob"], sections["token_offsets"])
        ):
            self._spans[token] = (postings[row], postings[row + 1])
            self._word_spans[token] = (yields[row], yields[row + 1])
        self._page_blob_view = memoryview(sections["page_blob"])
        self._page_offsets_view = memoryview(sections["page_offsets"])

    @property
    def backend_name(self) -> str:
        """Where the sections live: ``"mmap"`` or ``"memory"``."""
        return "memory" if self.path is None else "mmap"

    # -- storage ---------------------------------------------------------------------

    @classmethod
    def open(cls, path, lock_timeout: float | None = None) -> FrozenIndex:
        """Map the artifact at *path* read-only; raises :class:`ArtifactError`,
        also when a word section is out of bounds, so a corrupt artifact
        fails here rather than rendering wrong words mid-pass."""
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
                n_words = int(header["n_distinct_words"])
                _check_csr(arrays, "word_offsets", n_words, "word_blob")
                _check_csr(
                    arrays, "word_id_offsets", int(header["n_documents"]),
                    "word_ids", n_words,
                )
                _check_csr(
                    arrays, "token_word_offsets", int(header["n_tokens"]),
                    "token_words", n_words,
                )
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

    def token_words(self, token: str) -> np.ndarray:
        """The ascending ids (into :attr:`words`) of the distinct body
        words that yield *token*; empty when no body word does."""
        start, stop = self._word_spans.get(token, (0, 0))
        return self._sections["token_words"][start:stop]

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

"""Inverted index over web pages.

Tokenisation matches :func:`repro.text.tokenization.tokenize` (lower-case
word tokens).  Title tokens are counted with a configurable boost, because
entity homepages carry the entity name in the title and should outrank
pages that merely mention it.

Positional postings
-------------------
Every (token, doc) posting also records the positions, in the body's
whitespace split (``body.split()``), of the words that yield the token,
and every document records its body word count.  The search engine marks
a query's hits from these to pick its query-biased snippet window without
re-tokenising the body.  Body tokens are therefore counted word by word;
no token spans whitespace, so that is the same token sequence as
``tokenize(body)``.  Postings and positions live in flat typed arrays per
token (doc ids, term frequencies, int32 positions and per-posting offsets
into them), never in per-posting Python objects.

Freeze lifecycle
----------------
The index has two representations per token: append-only build arrays
and a frozen query view (numpy copies, so BM25 scoring is vectorised per
token).  Freezing is *lazy and per token*: the first query touching a
token materialises its arrays, and :meth:`add` merely drops the touched
tokens' views so only *their* arrays are rebuilt on next access.  Interleaving ``add`` and ``search``
therefore never rebuilds the whole postings store -- the cost of an add is
proportional to the page being added, and the cost of a query to the
tokens it actually uses.  The per-document arrays follow the same rule:
``lengths`` and ``english_mask`` are re-materialised only after a page
was added.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.text.tokenization import tokenize
from repro.web.documents import WebPage


@dataclass(frozen=True, slots=True)
class Posting:
    """One (document, term-frequency) entry of a postings list."""

    doc_id: int
    term_frequency: float


class _TokenPostings:
    """One token's postings as flat typed arrays, in append (doc id) order.

    The positions of posting ``i`` are
    ``positions[position_offsets[i] : position_offsets[i + 1]]``.
    """

    __slots__ = ("doc_ids", "tfs", "positions", "position_offsets")

    def __init__(self) -> None:
        self.doc_ids = array("q")
        self.tfs = array("d")
        self.positions = array("i")
        self.position_offsets = array("q", [0])

    def append(self, doc_id: int, tf: float, positions: Sequence[int]) -> None:
        self.doc_ids.append(doc_id)
        self.tfs.append(tf)
        self.positions.extend(positions)
        self.position_offsets.append(len(self.positions))


class InvertedIndex:
    """Token -> postings map with the corpus statistics BM25 needs."""

    backend_name = "memory"

    def __init__(self, title_boost: float = 3.0) -> None:
        if title_boost < 1.0:
            raise ValueError(f"title_boost must be >= 1.0, got {title_boost}")
        self.title_boost = title_boost
        self._pages: list[WebPage] = []
        self._building: dict[str, _TokenPostings] = {}
        self._n_words = array("q")
        # Frozen per-token views; add() drops the views it makes stale.
        self._frozen: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._doc_lengths: list[float] = []
        self._lengths_array: np.ndarray | None = None
        self._english = bytearray()
        self._english_array: np.ndarray | None = None
        self._total_length = 0.0
        self._init_hashers()

    def _init_hashers(self) -> None:
        """(Re)build the incremental corpus hashers from the current pages.

        Two live hashers fold every page in at :meth:`add` time, so
        :meth:`content_digest` and :meth:`fingerprint_digest` are O(1)
        regardless of corpus size instead of O(corpus) per call after each
        growth.  Called from ``__init__`` (empty corpus, cheap) and from
        ``__setstate__`` (hash objects cannot be pickled, so an unpickled
        index replays its pages once -- the same cost the old lazy
        recompute paid on first use).
        """
        self._content_hasher = hashlib.sha256()
        self._content_hasher.update(repr(self.title_boost).encode())
        self._pages_hasher = hashlib.sha256()
        for page in self._pages:
            self._fold_page(page)

    def _fold_page(self, page: WebPage) -> None:
        self._content_hasher.update(b"\x00t\x00")
        self._content_hasher.update(page.title.encode())
        self._content_hasher.update(b"\x00b\x00")
        self._content_hasher.update(page.body.encode())
        self._pages_hasher.update(page.url.encode())
        self._pages_hasher.update(b"\x00")
        self._pages_hasher.update(page.language.encode())
        self._pages_hasher.update(b"\x00")

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # sha256 objects do not pickle; __setstate__ rebuilds them.
        del state["_content_hasher"]
        del state["_pages_hasher"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_hashers()

    # -- construction ---------------------------------------------------------------

    def add(self, page: WebPage) -> int:
        """Index *page* and return its document id."""
        return self._add(page, {})

    def add_many(self, pages: Iterable[WebPage]) -> list[int]:
        """Bulk-index *pages*, returning their document ids.

        Equivalent to calling :meth:`add` per page, but the word ->
        tokens memo is shared across the batch, so each distinct body
        word is tokenised once per call rather than once per page.
        Under the lazy per-token freeze there is no global rebuild either
        way: each touched token's frozen view is invalidated once and
        rebuilt on next query.
        """
        word_tokens: dict[str, list[str]] = {}
        return [self._add(page, word_tokens) for page in pages]

    def _add(self, page: WebPage, word_tokens: dict[str, list[str]]) -> int:
        doc_id = len(self._pages)
        self._pages.append(page)
        self._fold_page(page)
        counts: dict[str, float] = {}
        count = counts.get
        for token in tokenize(page.title):
            counts[token] = count(token, 0.0) + self.title_boost
        positions: dict[str, list[int]] = {}
        words = page.body.split()
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
        self._english.append(page.language == "en")
        self._english_array = None
        length = float(sum(counts.values()))
        self._doc_lengths.append(length)
        self._total_length += length
        self._lengths_array = None
        for token, frequency in counts.items():
            postings = self._building.get(token)
            if postings is None:
                postings = self._building[token] = _TokenPostings()
            postings.append(doc_id, frequency, positions.get(token, ()))
            self._frozen.pop(token, None)
        return doc_id

    # -- statistics --------------------------------------------------------------------

    @property
    def n_documents(self) -> int:
        return len(self._pages)

    @property
    def average_length(self) -> float:
        """Mean indexed document length (0.0 for an empty index)."""
        if not self._pages:
            return 0.0
        return self._total_length / len(self._pages)

    @property
    def lengths(self) -> np.ndarray:
        """Document lengths as an array (frozen view)."""
        if self._lengths_array is None:
            self._lengths_array = np.asarray(self._doc_lengths, dtype=np.float64)
        return self._lengths_array

    @property
    def english_mask(self) -> np.ndarray:
        """Per-document booleans, true where ``page.language == "en"``
        (frozen view)."""
        if self._english_array is None:
            self._english_array = np.frombuffer(
                bytes(self._english), dtype=np.bool_
            )
        return self._english_array

    def document_length(self, doc_id: int) -> float:
        return self._doc_lengths[doc_id]

    def document_frequency(self, token: str) -> int:
        """Number of documents containing *token*."""
        postings = self._building.get(token)
        return 0 if postings is None else len(postings.doc_ids)

    def posting_arrays(self, token: str) -> tuple[np.ndarray, np.ndarray] | None:
        """(doc_ids, term_frequencies) arrays for *token*, or ``None``."""
        frozen = self._frozen.get(token)
        if frozen is None:
            postings = self._building.get(token)
            if postings is None:
                return None
            # Copies: the build arrays keep growing, and a live buffer
            # export would make them refuse to resize.
            frozen = self._frozen[token] = (
                np.array(postings.doc_ids, dtype=np.int64),
                np.array(postings.tfs, dtype=np.float64),
            )
        return frozen

    def postings(self, token: str) -> list[Posting]:
        """The postings list of *token* (empty when unindexed)."""
        arrays = self.posting_arrays(token)
        if arrays is None:
            return []
        ids, tfs = arrays
        return [
            Posting(doc_id=int(doc_id), term_frequency=float(tf))
            for doc_id, tf in zip(ids, tfs)
        ]

    def word_positions(self, token: str, doc_id: int) -> Sequence[int]:
        """Ascending positions in ``page(doc_id).body.split()`` of the
        words that yield *token* (empty when the body has none)."""
        postings = self._building.get(token)
        if postings is None:
            return ()
        doc_ids = postings.doc_ids
        row = bisect_left(doc_ids, doc_id)
        if row == len(doc_ids) or doc_ids[row] != doc_id:
            return ()
        offsets = postings.position_offsets
        return postings.positions[offsets[row] : offsets[row + 1]]

    def n_words(self, doc_id: int) -> int:
        """Number of words in ``page(doc_id).body.split()``."""
        return self._n_words[doc_id]

    def page(self, doc_id: int) -> WebPage:
        """The indexed page with this id."""
        return self._pages[doc_id]

    def vocabulary_size(self) -> int:
        return len(self._building)

    def tokens(self) -> Iterator[str]:
        """Iterate the vocabulary in sorted order (deterministic)."""
        return iter(sorted(self._building))

    def raw_postings(self, token: str) -> Sequence[tuple[int, float]]:
        """The append-order ``(doc_id, tf)`` pairs of *token*.

        Exposed for artifact builders that compact the whole vocabulary
        at once: unlike :meth:`posting_arrays` this does not materialise
        (and cache) a frozen numpy view per token, so a full-index sweep
        does not double the resident postings store.
        """
        postings = self._building.get(token)
        if postings is None:
            return ()
        return list(zip(postings.doc_ids, postings.tfs))

    def raw_positions(self, token: str) -> tuple[Sequence[int], Sequence[int]]:
        """*token*'s flat word positions and per-posting offsets into them
        (``len(raw_postings(token)) + 1`` offsets, starting at 0)."""
        postings = self._building.get(token)
        if postings is None:
            return (), (0,)
        return postings.positions, postings.position_offsets

    def content_digest(self) -> str:
        """Hex digest of the indexed *content* (titles, bodies, boost).

        The hasher is incremental -- each :meth:`add` folds the page in
        -- so this is O(1) however large the corpus.  Together with the
        tokenizer (fixed) and :attr:`title_boost` the hashed text fully
        determines every postings list, so two indexes agree on this
        digest iff they rank identically -- which is what persisted
        ranking caches need to check.  Hashing only shapes (url, title,
        length) is not enough: two corpora whose bodies differ can
        collide on all three and would then validate each other's caches.
        """
        return self._content_hasher.hexdigest()

    def fingerprint_digest(self) -> str:
        """Hex digest identifying the corpus for cache validation.

        Folds every page's (url, language) pair plus the full
        :meth:`content_digest`, in add order.  This is the digest
        :meth:`repro.web.search.SearchEngine.cache_fingerprint` embeds,
        kept here so every backend (in-memory or frozen artifact) can
        answer it without re-walking the page store.  O(1): both
        underlying hashers are maintained incrementally and copied.
        """
        hasher = self._pages_hasher.copy()
        hasher.update(self.content_digest().encode())
        return hasher.hexdigest()

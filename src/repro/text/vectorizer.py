"""Snippet vectorizer: texts -> scipy CSR feature matrices.

Combines :class:`~repro.text.pipeline.TextPipeline` (normalised-frequency
features) with a :class:`~repro.text.vocabulary.Vocabulary` to produce the
sparse matrices consumed by the classifiers in :mod:`repro.classify`.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

from repro.text.pipeline import TextPipeline
from repro.text.vocabulary import Vocabulary

_CHUNK_TEXTS = 1024  # texts per numpy pass: bounds a training set's temporaries


class SnippetVectorizer:
    """Fit a vocabulary over snippets, then transform snippets to CSR rows.

    >>> vec = SnippetVectorizer()
    >>> X = vec.fit_transform(["the louvre museum", "a fine museum"])
    >>> X.shape[0]
    2
    """

    def __init__(self, pipeline: TextPipeline | None = None, min_count: int = 1) -> None:
        self.pipeline = pipeline or TextPipeline()
        self.vocabulary = Vocabulary(min_count=min_count)
        self._word_ids: dict[str, list[int]] = {}
        self._word_ids_config: tuple[bool, bool] | None = None

    # -- fitting ---------------------------------------------------------------

    def fit(self, texts: Iterable[str]) -> "SnippetVectorizer":
        """Build the vocabulary from *texts*."""
        self.vocabulary.fit(self.pipeline.tokens(text) for text in texts)
        return self

    def fit_transform(self, texts: Sequence[str]) -> sparse.csr_matrix:
        """Fit on *texts* and return their feature matrix (only :meth:`fit`
        tokenises whole texts; :meth:`transform` tokenises each new word)."""
        self.fit(texts)
        return self.transform(texts)

    # -- transformation ----------------------------------------------------------

    def transform(self, texts: Sequence[str]) -> sparse.csr_matrix:
        """Vectorize *texts* into an ``(len(texts), len(vocabulary))`` CSR matrix.

        Out-of-vocabulary tokens are dropped, mirroring a classifier that has
        never seen a feature, but still count in the snippet length.  Rows
        of snippets with no in-vocabulary token are all-zero.

        A memo maps each whitespace word to its tokens' feature ids (-1
        out of vocabulary).  That is exact because no token spans
        whitespace (:mod:`repro.web.index` relies on it too), so a
        snippet's tokens are its words' tokens in order.
        """
        if not self.vocabulary.fitted:
            raise RuntimeError("SnippetVectorizer must be fitted before transform")
        config = (self.pipeline.remove_stopwords, self.pipeline.apply_stemming)
        if self._word_ids_config != config:
            self._word_ids, self._word_ids_config = {}, config
        return self._matrix(map(self._text_ids, texts), len(texts))

    def transform_one(self, text: str) -> sparse.csr_matrix:
        """Vectorize a single snippet into a ``(1, |V|)`` CSR matrix."""
        return self.transform([text])

    def _text_ids(self, text: str) -> list[int]:
        memo = self._word_ids
        row: list[int] = []
        for word in text.split():
            ids = memo.get(word)
            if ids is None:
                ids = memo[word] = self.vocabulary.ids(self.pipeline.tokens(word))
            row += ids
        return row

    def _matrix(self, rows: Iterator[list[int]], n_texts: int) -> sparse.csr_matrix:
        """CSR rows of per-text feature ids (-1 out of vocabulary): per
        chunk, ``np.unique`` counts the in-vocabulary ``(row, id)`` keys in
        row-major order, and ``count / length`` is Python's ``count / total``."""
        n_features = len(self.vocabulary)
        indptr = np.zeros(n_texts + 1, dtype=np.int64)
        index_chunks, data_chunks = [np.empty(0, dtype=np.int64)], [np.empty(0)]
        for start in range(0, n_texts, _CHUNK_TEXTS):
            chunk = list(islice(rows, _CHUNK_TEXTS))
            lengths = np.fromiter(map(len, chunk), np.int64, len(chunk))
            ids = np.fromiter(chain.from_iterable(chunk), np.int64)
            keys = np.repeat(np.arange(len(chunk)), lengths) * n_features + ids
            keys, counts = np.unique(keys[ids >= 0], return_counts=True)
            key_rows, indices = np.divmod(keys, max(n_features, 1))
            index_chunks.append(indices)
            data_chunks.append(counts / lengths[key_rows])
            ends = np.arange(1, len(chunk) + 1) * n_features
            stop = start + len(chunk)
            indptr[start + 1 : stop + 1] = indptr[start] + keys.searchsorted(ends)
        # int32 whenever it fits, as scipy would narrow to (after a scan).
        wide = max(n_texts, n_features, indptr[-1]) >= 2**31
        dtype = np.int64 if wide else np.int32
        indices = np.concatenate(index_chunks).astype(dtype)
        arrays = (np.concatenate(data_chunks), indices, indptr.astype(dtype))
        return sparse.csr_matrix(arrays, shape=(n_texts, n_features))

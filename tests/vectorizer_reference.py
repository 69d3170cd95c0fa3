"""Reference oracle for :meth:`repro.text.vectorizer.SnippetVectorizer.transform`.

The vectorizer maps each whitespace word to its vocabulary ids through a
memo and counts a batch's ``(row, id)`` pairs with numpy.  This is the
straightforward version it replaced -- one
:meth:`~repro.text.pipeline.TextPipeline.features` dict per text, its
in-vocabulary entries appended one by one -- kept only so the tests can
check the vectorizer against it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from repro.text.vectorizer import SnippetVectorizer


def reference_transform(
    vectorizer: SnippetVectorizer, texts: Sequence[str]
) -> sparse.csr_matrix:
    """*texts* as an ``(len(texts), len(vocabulary))`` CSR matrix of
    normalised frequencies, out-of-vocabulary tokens dropped from the
    row (they still count in its length)."""
    if not vectorizer.vocabulary.fitted:
        raise RuntimeError("SnippetVectorizer must be fitted before transform")
    features_of = vectorizer.pipeline.features
    index_of = vectorizer.vocabulary.index_of
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    indices: list[int] = []
    data: list[float] = []
    for position, text in enumerate(texts):
        for token, value in features_of(text).items():
            index = index_of(token)
            if index is not None:
                indices.append(index)
                data.append(value)
        indptr[position + 1] = len(indices)
    matrix = sparse.csr_matrix(
        (
            np.asarray(data, dtype=np.float64),
            np.asarray(indices, dtype=np.int64),
            indptr,
        ),
        shape=(len(texts), len(vectorizer.vocabulary)),
    )
    matrix.sort_indices()
    return matrix

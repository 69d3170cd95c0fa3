"""Every :class:`~repro.web.index.FrozenIndex` accessor against a dict oracle.

In RAM (straight from :meth:`~repro.web.index.IndexBuilder.freeze`) and
mapped (saved, then :meth:`~repro.web.index.FrozenIndex.open`\\ ed), the
frozen index must answer exactly what
:class:`search_reference.ReferenceIndex` computes page by page with
dicts: the sorted vocabulary, every posting's doc ids and tf values with
their dtypes, each body's word-id stream (which must decode to
``body.split()``) and the token positions it gives, document lengths,
the English mask, pages, the mean length and both digests.  Comparing the two storage
backends with each other would only test the shared code; the oracle
shares nothing with the index but the tokenizer.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from search_reference import ReferenceIndex, batch_word_positions, body_word_ids

from repro.web.documents import WebPage
from repro.web.index import FrozenIndex, IndexBuilder

_word = st.one_of(
    st.sampled_from(
        ["hotel", "Hotel,", "simpson's", "rock'n'roll", "42", "--", "café",
         "İstanbul", "the", "museum"]
    ),
    st.text(alphabet="abcAB'0.-é", min_size=1, max_size=6),
)
_text = st.lists(
    st.tuples(st.sampled_from([" ", "\t", "\n", "\u3000"]), _word), max_size=25
).map(lambda pairs: "".join(sep + word for sep, word in pairs))
_page = st.tuples(_text, _text, st.sampled_from(["en", "en", "fr", "e", "ne", ""]))


def _check(index: FrozenIndex, reference: ReferenceIndex) -> None:
    pages = reference.pages
    assert index.n_documents == len(pages)
    assert index.title_boost == reference.title_boost
    assert index.average_length == reference.average_length
    assert index.content_digest() == reference.content_digest
    assert index.fingerprint_digest() == reference.fingerprint_digest
    # Every document, last first and twice: the batch accessors take
    # documents in any order.
    docs = list(reversed(range(len(pages)))) * 2
    assert list(index.tokens()) == sorted(reference.postings)
    assert index.vocabulary_size() == len(reference.postings)
    for token, postings in reference.postings.items():
        ids, tfs = index.posting_arrays(token)
        assert type(ids) is np.ndarray and type(tfs) is np.ndarray
        assert ids.dtype == np.int32 and tfs.dtype == np.float64
        assert ids.tolist() == sorted(postings)
        assert tfs.tolist() == [postings[doc][0] for doc in sorted(postings)]
        assert index.document_frequency(token) == len(postings)
        assert batch_word_positions(index, token, docs) == [
            reference.word_positions(token, doc_id) for doc_id in docs
        ]
    assert index.posting_arrays("zzz-unindexed") is None
    assert index.document_frequency("zzz-unindexed") == 0
    assert batch_word_positions(index, "zzz-unindexed", docs) == [[] for _ in docs]
    assert index.lengths.dtype == np.float64
    assert index.lengths.tolist() == reference.lengths
    assert index.english_mask.dtype == np.bool_
    assert index.english_mask.tolist() == reference.english_mask
    for doc_id, page in enumerate(pages):
        words = [index.words[word_id] for word_id in body_word_ids(index, doc_id)]
        assert words == page.body.split()
        assert len(words) == reference.n_words[doc_id]
        assert index.page(doc_id) == page


@settings(max_examples=60, deadline=None)
@given(
    docs=st.lists(_page, max_size=8),
    title_boost=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
)
def test_every_accessor_equals_the_reference(docs, title_boost):
    pages = [
        WebPage(url=f"https://x/{doc_id}", title=title, body=body,
                language=language)
        for doc_id, (title, body, language) in enumerate(docs)
    ]
    reference = ReferenceIndex(pages, title_boost)
    builder = IndexBuilder(title_boost=title_boost)
    assert builder.add_many(pages) == list(range(len(pages)))
    in_ram = builder.freeze()
    assert in_ram.backend_name == "memory"
    _check(in_ram, reference)
    with tempfile.TemporaryDirectory() as tmp:
        mapped = FrozenIndex.open(in_ram.save(os.path.join(tmp, "index.reproidx")))
        assert mapped.backend_name == "mmap"
        _check(mapped, reference)

"""Cross-cutting property-based tests (Hypothesis).

Invariants that must hold for *any* input, not just the fixtures used
elsewhere: score bounds, partition properties, monotonicity, determinism
and round-trips across module boundaries.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
from search_reference import extract_snippet

from repro.classify.metrics import f_measure
from repro.core.clustering import cluster_snippets, cosine_similarity
from repro.core.parallel import chunk_tables, table_cost
from repro.core.postprocessing import column_scores
from repro.core.results import CellAnnotation, TableAnnotation
from repro.kb.catalogue import normalize_name
from repro.synth.rng import derive
from repro.tables.io import table_from_csv, table_from_json, table_to_csv, table_to_json
from repro.tables.model import Column, Table
from repro.text.pipeline import TextPipeline
from repro.text.tokenization import tokenize

# -- strategies ---------------------------------------------------------------------

_words = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1, max_size=8,
)
_texts = st.lists(_words, min_size=0, max_size=30).map(" ".join)


# -- text ---------------------------------------------------------------------------


@given(_texts, st.integers(min_value=1, max_value=30))
def test_snippet_never_exceeds_max_words(body, max_words):
    snippet = extract_snippet(body, "query", max_words=max_words)
    words = [w for w in snippet.split() if w != "..."]
    assert len(words) <= max_words


@given(_texts)
def test_snippet_words_come_from_body(body):
    snippet = extract_snippet(body, "anything", max_words=10)
    body_words = set(body.split())
    for word in snippet.split():
        if word != "...":
            assert word in body_words


@given(_texts)
def test_pipeline_tokens_subset_of_raw_token_stems(text):
    from repro.text.porter import stem

    raw_stems = {stem(t) for t in tokenize(text)}
    for token in TextPipeline().tokens(text):
        assert token in raw_stems


@given(_words)
def test_normalize_name_idempotent(name):
    once = normalize_name(name)
    assert normalize_name(once) == once


# -- scores -------------------------------------------------------------------------


@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_f_measure_bounded_by_min_and_max(p, r):
    f = f_measure(p, r)
    assert 0.0 <= f <= 1.0
    assert f <= max(p, r) + 1e-12
    if p > 0 and r > 0:
        assert f >= min(p, r) * 2 * max(p, r) / (p + r) - 1e-12


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
    st.integers(min_value=1, max_value=5),
)
def test_eq2_repetition_damping_monotone(scores, repeats):
    """A column of repeated values never outscores the same column with
    distinct values at equal per-cell scores."""
    n = len(scores)
    distinct_table = Table(
        name="d", columns=[Column("A")], rows=[[f"v{i}"] for i in range(n)]
    )
    repeated_table = Table(
        name="r", columns=[Column("A")],
        rows=[[f"v{i % max(1, n // repeats)}"] for i in range(n)],
    )
    def annotations(table):
        return [
            CellAnnotation(table.name, i, 0, "t", score)
            for i, score in enumerate(scores)
        ]
    distinct_score = column_scores(distinct_table, annotations(distinct_table)).get(0, 0.0)
    repeated_score = column_scores(repeated_table, annotations(repeated_table)).get(0, 0.0)
    assert repeated_score <= distinct_score + 1e-9


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10))
def test_eq2_score_non_negative_and_bounded(scores):
    table = Table(
        name="t", columns=[Column("A")],
        rows=[[f"v{i}"] for i in range(len(scores))],
    )
    cells = [
        CellAnnotation("t", i, 0, "x", score) for i, score in enumerate(scores)
    ]
    total = column_scores(table, cells)[0]
    assert 0.0 <= total <= len(scores) * math.log(2.0) + 1e-9


# -- clustering ------------------------------------------------------------------------


@given(st.lists(_texts, min_size=0, max_size=15))
def test_clusters_always_partition(snippets):
    clusters = cluster_snippets(snippets, threshold=0.3)
    flattened = sorted(i for cluster in clusters for i in cluster)
    assert flattened == list(range(len(snippets)))


@given(
    st.dictionaries(_words, st.floats(min_value=0.01, max_value=5.0), max_size=8),
    st.dictionaries(_words, st.floats(min_value=0.01, max_value=5.0), max_size=8),
)
def test_cosine_bounded_and_symmetric(a, b):
    similarity = cosine_similarity(a, b)
    assert -1e-9 <= similarity <= 1.0 + 1e-9
    assert math.isclose(
        similarity, cosine_similarity(b, a), rel_tol=1e-9, abs_tol=1e-9
    )


# -- tables ---------------------------------------------------------------------------


@given(
    st.lists(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=12,
            ),
            min_size=2, max_size=2,
        ),
        max_size=8,
    )
)
def test_table_io_roundtrips(rows):
    table = Table(name="t", columns=[Column("A"), Column("B")], rows=rows)
    assert table_from_csv(table_to_csv(table), name="t").rows == rows
    assert table_from_json(table_to_json(table)).rows == rows


# -- chunking ----------------------------------------------------------------------

_shapes = st.tuples(
    st.integers(min_value=1, max_value=40),  # rows
    st.integers(min_value=1, max_value=6),  # columns
)


def _make_table(name, n_rows, n_columns):
    return Table(
        name=name,
        columns=[Column(f"c{j}") for j in range(n_columns)],
        rows=[[f"{name}-r{i}-c{j}" for j in range(n_columns)] for i in range(n_rows)],
    )


@given(st.lists(_shapes, min_size=0, max_size=8), st.integers(min_value=1, max_value=60))
def test_chunk_tables_partitions_corpus_exactly(shapes, chunk_budget):
    """No table lost, none duplicated, order preserved, whatever the
    budget."""
    tables = [_make_table(f"t{i}", r, c) for i, (r, c) in enumerate(shapes)]
    chunks = chunk_tables(tables, chunk_budget)
    assert [table for chunk in chunks for table in chunk] == tables
    assert all(chunks)
    # Pure function of shapes and budget: same input, same packing.
    assert chunks == chunk_tables(tables, chunk_budget)


@given(st.lists(_shapes, min_size=0, max_size=8), st.integers(min_value=1, max_value=60))
def test_chunk_tables_costs_within_budget(shapes, chunk_budget):
    """Multi-table chunks stay within the budget; only a single table
    that alone exceeds it may overflow (it travels alone)."""
    tables = [_make_table(f"t{i}", r, c) for i, (r, c) in enumerate(shapes)]
    for chunk in chunk_tables(tables, chunk_budget):
        cost = sum(table_cost(t) for t in chunk)
        assert cost <= chunk_budget or len(chunk) == 1


# -- rng -------------------------------------------------------------------------------


@settings(max_examples=30)
@given(st.integers(), st.lists(_words, min_size=1, max_size=4))
def test_derive_is_pure(seed, keys):
    assert derive(seed, *keys) == derive(seed, *keys)


# -- results ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=0, max_value=5),
            st.sampled_from(["museum", "hotel", "singer"]),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        max_size=25,
    )
)
def test_annotated_rows_consistent_with_cells(cells):
    annotation = TableAnnotation(table_name="t")
    for row, column, type_key, score in cells:
        annotation.add(CellAnnotation("t", row, column, type_key, score))
    for type_key in ("museum", "hotel", "singer"):
        rows = annotation.annotated_rows(type_key)
        expected = {r for r, _c, t, _s in cells if t == type_key}
        assert rows == expected

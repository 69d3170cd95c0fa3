"""A Giuliano-style similarity annotator (the approach §5.2.1 critiques).

Giuliano (CoNLL 2009) classifies an entity by comparing the snippets
retrieved for it with the snippets retrieved for entities of known type.
The paper adopts search-and-snippets from this idea but replaces the
similarity comparison with a trained text classifier, arguing that
similarity cannot tell an entity from *text about* the entity: "chances
are that a review of a restaurant is classified as a reference to an
entity of type restaurant".

This baseline implements the similarity variant so the critique is
measurable: per-type centroids are built from the same training snippets
the classifier uses; a cell is annotated with the nearest centroid's type
when the average cosine similarity of its snippets clears a threshold.
The expected failure mode -- precision loss on review-like cells -- is
asserted by its benchmark.
"""

from __future__ import annotations

from typing import Sequence

from repro.classify.dataset import TextDataset
from repro.core.annotation import SnippetCache
from repro.core.clustering import cosine_similarity
from repro.core.config import AnnotatorConfig
from repro.core.preprocessing import Preprocessor
from repro.core.results import CellAnnotation, PerTableAnnotator, TableAnnotation
from repro.tables.model import Table
from repro.text.pipeline import TextPipeline
from repro.web.search import SearchEngine, SearchEngineUnavailable


class GiulianoAnnotator(PerTableAnnotator):
    """Nearest-centroid snippet similarity annotation."""

    def __init__(
        self,
        engine: SearchEngine,
        config: AnnotatorConfig | None = None,
        similarity_threshold: float = 0.12,
        cache: SnippetCache | None = None,
    ) -> None:
        if not 0.0 < similarity_threshold < 1.0:
            raise ValueError(
                f"similarity_threshold must be in (0, 1), got {similarity_threshold}"
            )
        self.engine = engine
        self.config = config or AnnotatorConfig()
        self.similarity_threshold = similarity_threshold
        self.cache = cache
        self.preprocessor = Preprocessor(self.config)
        self.pipeline = TextPipeline()
        self.centroids_: dict[str, dict[str, float]] = {}

    # -- training --------------------------------------------------------------------

    def fit(self, dataset: TextDataset) -> "GiulianoAnnotator":
        """Build one centroid per label from labelled snippets."""
        sums: dict[str, dict[str, float]] = {}
        counts: dict[str, int] = {}
        for text, label in dataset:
            vector = self.pipeline.features(text)
            centroid = sums.setdefault(label, {})
            for token, value in vector.items():
                centroid[token] = centroid.get(token, 0.0) + value
            counts[label] = counts.get(label, 0) + 1
        self.centroids_ = {
            label: {t: v / counts[label] for t, v in centroid.items()}
            for label, centroid in sums.items()
        }
        return self

    # -- inference --------------------------------------------------------------------

    def type_of_snippets(
        self, snippets: Sequence[str], type_keys: Sequence[str]
    ) -> tuple[str | None, float]:
        """(best type, average similarity) over *snippets*."""
        if not self.centroids_:
            raise RuntimeError("GiulianoAnnotator is not fitted")
        if not snippets:
            return None, 0.0
        best_type: str | None = None
        best_similarity = self.similarity_threshold
        for type_key in type_keys:
            centroid = self.centroids_.get(type_key)
            if centroid is None:
                continue
            total = sum(
                cosine_similarity(self.pipeline.features(snippet), centroid)
                for snippet in snippets
            )
            average = total / len(snippets)
            if average > best_similarity:
                best_similarity = average
                best_type = type_key
        if best_type is None:
            return None, 0.0
        return best_type, best_similarity

    def _snippets(self, query: str) -> list[str] | None:
        k = self.config.top_k
        if self.cache is not None:
            cached = self.cache.get(query, k)
            if cached is not None:
                return cached
        try:
            results = self.engine.search(query, k=k)
        except SearchEngineUnavailable:
            return None
        snippets = [result.snippet for result in results]
        if self.cache is not None:
            self.cache.put(query, k, snippets)
        return snippets

    def annotate_table(self, table: Table, type_keys: Sequence[str]) -> TableAnnotation:
        """Annotate one table by snippet-centroid similarity."""
        annotation = TableAnnotation(table_name=table.name)
        for candidate in self.preprocessor.candidate_cells(table):
            snippets = self._snippets(candidate.value)
            if not snippets:
                continue
            type_key, similarity = self.type_of_snippets(snippets, type_keys)
            if type_key is not None:
                annotation.add(
                    CellAnnotation(
                        table_name=table.name,
                        row=candidate.row,
                        column=candidate.column,
                        type_key=type_key,
                        score=min(1.0, similarity),
                        cell_value=candidate.value,
                    )
                )
        return annotation

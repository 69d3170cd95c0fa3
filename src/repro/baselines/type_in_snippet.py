"""The TypeInSnippet (TIS) baseline (Section 6.2).

"TIS annotates a cell T(i, j) with type t if the majority of the snippets
retrieved by querying Bing contains the name of type t.  The score S_ij is
set as in Equation 1."

TIS needs the search engine but no classifier: it simply greps the type
word (stem-tolerant) in each snippet.  It shares the snippet cache with the
main algorithm, since both issue the same per-cell queries.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.annotation import SnippetCache
from repro.core.config import AnnotatorConfig
from repro.core.preprocessing import Preprocessor
from repro.core.results import CellAnnotation, PerTableAnnotator, TableAnnotation
from repro.synth.types import type_spec
from repro.tables.model import Table
from repro.text.porter import stem
from repro.text.tokenization import tokenize
from repro.web.search import SearchEngine, SearchEngineUnavailable


class TypeInSnippetAnnotator(PerTableAnnotator):
    """Annotates cells whose snippets mostly contain the type word."""

    def __init__(
        self,
        engine: SearchEngine,
        config: AnnotatorConfig | None = None,
        cache: SnippetCache | None = None,
    ) -> None:
        self.engine = engine
        self.config = config or AnnotatorConfig()
        self.preprocessor = Preprocessor(self.config)
        self.cache = cache

    @staticmethod
    def snippet_matches(snippet: str, type_word: str) -> bool:
        """True when the snippet contains the type word (stem-tolerant)."""
        needle = stem(type_word.lower())
        return any(stem(token) == needle for token in tokenize(snippet))

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
        """Annotate one table; the best majority type wins per cell."""
        annotation = TableAnnotation(table_name=table.name)
        k = self.config.top_k
        for candidate in self.preprocessor.candidate_cells(table):
            snippets = self._snippets(candidate.value)
            if not snippets:
                continue
            best_type: str | None = None
            best_count = 0
            for type_key in type_keys:
                type_word = type_spec(type_key).type_word
                count = sum(
                    1 for snippet in snippets if self.snippet_matches(snippet, type_word)
                )
                if count > best_count:
                    best_count = count
                    best_type = type_key
            if best_type is not None and best_count > self.config.majority_count:
                annotation.add(
                    CellAnnotation(
                        table_name=table.name,
                        row=candidate.row,
                        column=candidate.column,
                        type_key=best_type,
                        score=best_count / k,
                        cell_value=candidate.value,
                    )
                )
        return annotation

"""Hybrid annotation: catalogue first, web search only for the unknown.

Section 6.4's stated future work: "we may use Limaye to annotate entities
that belong to a pre-compiled catalogue, and resort to the search engine
only to annotate previously unseen entities.  Since in general we expect a
table to have a combination of known and unknown entities, this should
bring down the running time of the annotation."

``HybridAnnotator`` implements exactly that: for every candidate cell it
first consults the catalogue (free); only cells the catalogue does not
know are sent to the search engine.  The result keeps the discovery power
of the web algorithm while cutting the number of paid queries roughly by
the catalogue's coverage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.classify.snippet import SnippetTypeClassifier
from repro.core.annotation import CellAnnotator, SnippetCache
from repro.core.config import AnnotatorConfig
from repro.core.postprocessing import eliminate_spurious
from repro.core.preprocessing import Preprocessor
from repro.core.results import CellAnnotation, PerTableAnnotator, TableAnnotation
from repro.kb.catalogue import Catalogue
from repro.tables.model import Table
from repro.web.search import SearchEngine


@dataclass
class HybridStats:
    """How much work the catalogue saved."""

    catalogue_hits: int = 0
    web_queries: int = 0

    @property
    def total_cells(self) -> int:
        return self.catalogue_hits + self.web_queries

    @property
    def query_savings(self) -> float:
        """Fraction of candidate cells resolved without a search query."""
        if self.total_cells == 0:
            return 0.0
        return self.catalogue_hits / self.total_cells


class HybridAnnotator(PerTableAnnotator):
    """Catalogue lookups for known entities, web search for the rest."""

    def __init__(
        self,
        classifier: SnippetTypeClassifier,
        engine: SearchEngine,
        catalogue: Catalogue,
        config: AnnotatorConfig | None = None,
        cache: SnippetCache | None = None,
    ) -> None:
        self.config = config or AnnotatorConfig()
        self.catalogue = catalogue
        self.preprocessor = Preprocessor(self.config)
        self.cell_annotator = CellAnnotator(
            classifier, engine, self.config, cache=cache
        )
        self.stats = HybridStats()

    def annotate_table(self, table: Table, type_keys) -> TableAnnotation:
        """Annotate one table; catalogue hits never touch the engine.

        A catalogue hit must be unambiguous *within the requested types*
        (exactly one candidate type) to be used directly; ambiguous names
        fall through to the web, whose snippets can tell the senses apart.
        """
        type_keys = list(type_keys)
        if not type_keys:
            raise ValueError("type_keys must be non-empty")
        wanted = set(type_keys)
        annotation = TableAnnotation(table_name=table.name)
        candidates = self.preprocessor.candidate_cells(table)
        known = [self.catalogue.types_of(c.value) & wanted for c in candidates]
        web = [c for c, types in zip(candidates, known) if len(types) != 1]
        self.stats.catalogue_hits += len(candidates) - len(web)
        self.stats.web_queries += len(web)
        decisions = iter(
            self.cell_annotator.annotate_values(
                [(candidate.value, None) for candidate in web], type_keys
            )
        )
        for candidate, known_types in zip(candidates, known):
            if len(known_types) == 1:
                type_key, score = next(iter(known_types)), 1.0
            else:
                decision = next(decisions)
                if not decision.annotated:
                    continue
                type_key, score = decision.type_key, decision.score
            annotation.add(
                CellAnnotation(
                    table_name=table.name,
                    row=candidate.row,
                    column=candidate.column,
                    type_key=type_key,  # type: ignore[arg-type]
                    score=score,
                    cell_value=candidate.value,
                )
            )
        if self.config.use_postprocessing:
            annotation = eliminate_spurious(
                table,
                annotation,
                use_repetition_factor=self.config.use_repetition_factor,
            )
        return annotation

"""A catalogue-based collective annotator standing in for Limaye et al.

Limaye, Sarawagi & Chakrabarti (VLDB 2010) annotate cells, columns and
relations jointly against a catalogue (YAGO in their paper).  For the
Section 6.3 comparison only entity annotation accuracy matters, so this
baseline reproduces the essential mechanism -- catalogue lookup combined
with column-level collective inference:

1. every cell is looked up in the catalogue; a cell contributes one vote to
   each of its candidate types;
2. each column is assigned the type with the most votes (column coherence,
   the joint-inference ingredient);
3. a cell is annotated with its column's type iff the catalogue supports
   that type for the cell's value.

By construction the baseline can only annotate *known* entities -- the
paper's central criticism -- which the coverage experiment (X1) quantifies.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import AnnotatorConfig
from repro.core.preprocessing import Preprocessor
from repro.core.results import CellAnnotation, PerTableAnnotator, TableAnnotation
from repro.kb.catalogue import Catalogue
from repro.tables.model import Table


class LimayeAnnotator(PerTableAnnotator):
    """Catalogue lookup + column-majority collective assignment."""

    def __init__(
        self, catalogue: Catalogue, config: AnnotatorConfig | None = None
    ) -> None:
        self.catalogue = catalogue
        self.config = config or AnnotatorConfig()
        self.preprocessor = Preprocessor(self.config)

    def annotate_table(self, table: Table, type_keys: Sequence[str]) -> TableAnnotation:
        """Annotate one table against the catalogue."""
        wanted = set(type_keys)
        annotation = TableAnnotation(table_name=table.name)
        candidates = self.preprocessor.candidate_cells(table)
        # Step 1: per-column type votes from catalogue lookups.
        votes: dict[int, dict[str, int]] = {}
        cell_types: dict[tuple[int, int], set[str]] = {}
        for candidate in candidates:
            types = self.catalogue.types_of(candidate.value) & wanted
            if not types:
                continue
            cell_types[(candidate.row, candidate.column)] = types
            column_votes = votes.setdefault(candidate.column, {})
            for type_key in types:
                column_votes[type_key] = column_votes.get(type_key, 0) + 1
        # Step 2: column-majority type (ties resolved alphabetically).
        column_type: dict[int, str] = {}
        for column, column_votes in votes.items():
            best = max(column_votes.values())
            column_type[column] = min(
                t for t, count in column_votes.items() if count == best
            )
        # Step 3: annotate supported cells with their column's type.
        for candidate in candidates:
            key = (candidate.row, candidate.column)
            if key not in cell_types:
                continue
            assigned = column_type.get(candidate.column)
            if assigned is not None and assigned in cell_types[key]:
                annotation.add(
                    CellAnnotation(
                        table_name=table.name,
                        row=candidate.row,
                        column=candidate.column,
                        type_key=assigned,
                        score=1.0,
                        cell_value=candidate.value,
                    )
                )
        return annotation

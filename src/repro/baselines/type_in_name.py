"""The TypeInName (TIN) baseline (Section 6.2).

"TIN annotates a cell T(i, j) with type t, and sets the score S_ij to 1.0
only if T(i, j) contains the name of type t (e.g. 'restaurant')."

The containment check is token-level and case-insensitive, with a light
singular/plural stem match so "Restaurants" matches type word "restaurant".
TIN issues no search queries; it is the zero-cost baseline.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import AnnotatorConfig
from repro.core.preprocessing import Preprocessor
from repro.core.results import CellAnnotation, PerTableAnnotator, TableAnnotation
from repro.synth.types import type_spec
from repro.tables.model import Table
from repro.text.porter import stem
from repro.text.tokenization import tokenize


class TypeInNameAnnotator(PerTableAnnotator):
    """Annotates cells whose text contains the type word."""

    def __init__(self, config: AnnotatorConfig | None = None) -> None:
        self.config = config or AnnotatorConfig()
        self.preprocessor = Preprocessor(self.config)

    @staticmethod
    def cell_matches(value: str, type_word: str) -> bool:
        """True when *value* contains *type_word* (stem-tolerant).

        >>> TypeInNameAnnotator.cell_matches("Louvre Museum", "museum")
        True
        >>> TypeInNameAnnotator.cell_matches("Melisse", "restaurant")
        False
        """
        needle = stem(type_word.lower())
        return any(stem(token) == needle for token in tokenize(value))

    def annotate_table(self, table: Table, type_keys: Sequence[str]) -> TableAnnotation:
        """Annotate one table; first matching type wins per cell."""
        annotation = TableAnnotation(table_name=table.name)
        for candidate in self.preprocessor.candidate_cells(table):
            for type_key in type_keys:
                type_word = type_spec(type_key).type_word
                if self.cell_matches(candidate.value, type_word):
                    annotation.add(
                        CellAnnotation(
                            table_name=table.name,
                            row=candidate.row,
                            column=candidate.column,
                            type_key=type_key,
                            score=1.0,
                            cell_value=candidate.value,
                        )
                    )
                    break
        return annotation

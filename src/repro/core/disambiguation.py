"""Toponym disambiguation (Section 5.2.2, Figure 7).

A cell with spatial content may geocode to several interpretations.  The
paper resolves them collectively: build a graph with one node per
(cell, interpretation); add a directed edge between two nodes when their
cells share a row or a column (but are not the same cell) and the two
locations are geographically related (same direct container, or one is the
direct container of the other).  Node scores start at ``1 / |L_ij|`` and are
iterated as ``S(n) = sum of S(v) over in-neighbours v`` until a fixed point;
each cell keeps its highest-scoring interpretation.

Raw summation diverges on cyclic graphs, so -- as in PageRank, which the
paper cites as its inspiration -- we renormalise scores *within each cell's
candidate set* after every sweep; the per-cell distribution then converges
and the argmax is well-defined.  Cells whose candidates receive no votes at
all keep their uniform initial distribution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.config import AnnotatorConfig
from repro.geo.geocoder import Geocoder
from repro.geo.model import GeoLocation, LocationKind, are_related
from repro.tables.model import ColumnType, Table

CellKey = tuple[int, int]

MAX_ITERATIONS = 30
"""Upper bound on score sweeps of the voting graph."""

EPSILON = 1e-9
"""The sweeps stop once no node's score moves by this much."""


@dataclass(frozen=True)
class ToponymNode:
    """One (cell, interpretation) node of the voting graph."""

    row: int
    column: int
    location: GeoLocation


@dataclass
class DisambiguationOutcome:
    """Chosen interpretation and final score per cell."""

    chosen: dict[CellKey, GeoLocation] = field(default_factory=dict)
    scores: dict[CellKey, dict[str, float]] = field(default_factory=dict)
    iterations: int = 0


class ToponymDisambiguator:
    """The Figure 7 voting-graph algorithm over candidate interpretations."""

    def __init__(self, config: AnnotatorConfig | None = None) -> None:
        self.config = config or AnnotatorConfig()

    def resolve(
        self, interpretations: dict[CellKey, list[GeoLocation]]
    ) -> DisambiguationOutcome:
        """Pick one interpretation per cell (ties broken by a seeded RNG)."""
        outcome = DisambiguationOutcome()
        cells = {key: locs for key, locs in interpretations.items() if locs}
        if not cells:
            return outcome
        nodes: list[ToponymNode] = []
        for (row, column), locations in sorted(cells.items()):
            for location in locations:
                nodes.append(ToponymNode(row=row, column=column, location=location))
        in_neighbours = self._build_edges(nodes)
        scores = {
            i: 1.0 / len(cells[(node.row, node.column)])
            for i, node in enumerate(nodes)
        }
        by_cell: dict[CellKey, list[int]] = {}
        for i, node in enumerate(nodes):
            by_cell.setdefault((node.row, node.column), []).append(i)

        iterations = 0
        for iterations in range(1, MAX_ITERATIONS + 1):
            raw = {
                i: sum(scores[v] for v in in_neighbours.get(i, ()))
                for i in range(len(nodes))
            }
            new_scores = dict(scores)
            for cell_key, indices in by_cell.items():
                total = sum(raw[i] for i in indices)
                if total > 0:
                    for i in indices:
                        new_scores[i] = raw[i] / total
            delta = max(abs(new_scores[i] - scores[i]) for i in range(len(nodes)))
            scores = new_scores
            if delta < EPSILON:
                break
        outcome.iterations = iterations

        rng = random.Random(self.config.seed)
        for cell_key, indices in sorted(by_cell.items()):
            best_score = max(scores[i] for i in indices)
            best = [i for i in indices if scores[i] == best_score]
            chosen_index = best[0] if len(best) == 1 else rng.choice(best)
            outcome.chosen[cell_key] = nodes[chosen_index].location
            outcome.scores[cell_key] = {
                nodes[i].location.full_name: scores[i] for i in indices
            }
        return outcome

    @staticmethod
    def _build_edges(nodes: list[ToponymNode]) -> dict[int, list[int]]:
        """In-neighbour lists under the paper's two edge conditions."""
        in_neighbours: dict[int, list[int]] = {}
        for i, first in enumerate(nodes):
            for j, second in enumerate(nodes):
                if i == j:
                    continue
                same_cell = (first.row, first.column) == (second.row, second.column)
                if same_cell:
                    continue
                shares_line = first.row == second.row or first.column == second.column
                if not shares_line:
                    continue
                if are_related(first.location, second.location):
                    # first votes for second: edge first -> second.
                    in_neighbours.setdefault(j, []).append(i)
        return in_neighbours


class SpatialContextExtractor:
    """Extracts a per-row city context from a table's spatial columns.

    Spatial columns are those typed ``Location`` (GFT tables); when column
    types are unavailable (Wiki-style tables) a header heuristic
    (address / city / location / place) stands in for the techniques of
    Borges et al. that the paper defers to.
    """

    _SPATIAL_HEADERS = frozenset(("address", "city", "location", "place", "town"))

    def __init__(
        self, geocoder: Geocoder, config: AnnotatorConfig | None = None
    ) -> None:
        self.geocoder = geocoder
        self.config = config or AnnotatorConfig()
        self._disambiguator = ToponymDisambiguator(self.config)

    # -- column discovery ---------------------------------------------------------

    def spatial_columns(self, table: Table) -> list[int]:
        """Indices of the columns that carry spatial content."""
        columns = []
        for j, column in enumerate(table.columns):
            if self.config.use_gft_column_types:
                if column.column_type is ColumnType.LOCATION:
                    columns.append(j)
            elif column.name.strip().lower() in self._SPATIAL_HEADERS:
                columns.append(j)
        return columns

    # -- context extraction -----------------------------------------------------------

    def row_contexts(self, table: Table) -> dict[int, str]:
        """Map row index -> city name usable as query context.

        Every spatial cell is geocoded once; ambiguous interpretations are
        resolved collectively with the voting graph; the chosen location's
        city name becomes the row's context.  Rows without resolvable
        spatial content are absent from the result.
        """
        columns = self.spatial_columns(table)
        if not columns:
            return {}
        interpretations: dict[CellKey, list[GeoLocation]] = {}
        geocode_cache: dict[str, list[GeoLocation]] = {}
        for i in range(table.n_rows):
            for j in columns:
                value = table.cell(i, j).strip()
                if not value:
                    continue
                if value not in geocode_cache:
                    geocode_cache[value] = self.geocoder.geocode(value)
                locations = geocode_cache[value]
                if locations:
                    interpretations[(i, j)] = locations
        outcome = self._disambiguator.resolve(interpretations)
        contexts: dict[int, str] = {}
        for (row, _column), location in sorted(outcome.chosen.items()):
            if row in contexts:
                continue
            city = self._city_name(location)
            if city is not None:
                contexts[row] = city
        return contexts

    @staticmethod
    def _city_name(location: GeoLocation) -> str | None:
        if location.kind is LocationKind.CITY:
            return location.name
        for container in location.containers:
            if container.kind is LocationKind.CITY:
                return container.name
        return None

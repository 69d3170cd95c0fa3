"""An in-memory Google Fusion Tables service.

Models the three GFT behaviours the paper exploits (Section 3): hosting
typed tables under stable identifiers, a keyword index that "favours the
retrieval of tables that contain information on specific types of POIs", and
the SQL query API.  The keyword index tokenises table names, column headers
and cell values, so a search for ``"restaurant"`` surfaces tables whose
content mentions restaurants even when the table name does not.
"""

from __future__ import annotations

import itertools

from repro.tables.model import Table
from repro.tables.sql import SqlError, execute_sql, parse_select
from repro.text.tokenization import tokenize


class FusionTableService:
    """Hosts tables, indexes their content, answers searches and SQL."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._keyword_index: dict[str, set[str]] = {}
        self._id_counter = itertools.count(1)

    # -- hosting -----------------------------------------------------------------

    def publish(self, table: Table) -> str:
        """Host *table* and return its assigned identifier (``gft-N``)."""
        table_id = f"gft-{next(self._id_counter)}"
        self._tables[table_id] = table
        self._index_table(table_id, table)
        return table_id

    def get(self, table_id: str) -> Table:
        """The table hosted under *table_id*; ``KeyError`` when unknown."""
        if table_id not in self._tables:
            raise KeyError(f"no table hosted under id {table_id!r}")
        return self._tables[table_id]

    def table_ids(self) -> list[str]:
        """All hosted identifiers, in publication order."""
        return sorted(self._tables, key=lambda tid: int(tid.split("-")[1]))

    def __len__(self) -> int:
        return len(self._tables)

    # -- keyword index --------------------------------------------------------------

    def _index_table(self, table_id: str, table: Table) -> None:
        tokens: set[str] = set(tokenize(table.name))
        for column in table.columns:
            tokens.update(tokenize(column.name))
        for row in table.rows:
            for value in row:
                tokens.update(tokenize(value))
        for token in tokens:
            self._keyword_index.setdefault(token, set()).add(table_id)

    def search(self, query: str) -> list[str]:
        """Identifiers of tables matching every keyword of *query*.

        Mirrors the GFT table-search box: conjunctive keyword match over
        table names, headers and cell content.  Results are returned in
        publication order for determinism.
        """
        keywords = tokenize(query)
        if not keywords:
            return []
        candidate_sets = [
            self._keyword_index.get(keyword, set()) for keyword in keywords
        ]
        matches = set.intersection(*candidate_sets) if candidate_sets else set()
        return sorted(matches, key=lambda tid: int(tid.split("-")[1]))

    # -- SQL API -----------------------------------------------------------------------

    def query(self, sql: str) -> list[list[str]]:
        """Execute a SELECT whose FROM clause names a hosted table id."""
        parsed = parse_select(sql)
        if parsed.table_id not in self._tables:
            raise SqlError(f"unknown table id in FROM clause: {parsed.table_id!r}")
        return execute_sql(parsed, self._tables[parsed.table_id])

"""Deep checks of the table-corpus scenarios and engine query filtering."""

import pytest

from repro.core.preprocessing import Preprocessor, looks_like_phone, looks_like_url
from repro.synth.world import SyntheticWorld, WorldConfig
from repro.tables.model import ColumnType
from repro.text.tokenization import token_count


class TestScenarioColumns:
    def test_mines_table_has_ore_labels(self, gft_corpus):
        table = gft_corpus.table("gft-mine-1")
        ores = set(table.column_values(table.column_index("Ore")))
        assert ores <= {"Coal", "Copper", "Ore", "Minerals"}
        assert table.column_type(table.column_index("Output (kt)")) is (
            ColumnType.NUMBER
        )

    def test_films_table_has_director_names(self, gft_corpus):
        table = gft_corpus.table("gft-film-1")
        directors = table.column_values(table.column_index("Director"))
        assert all(len(name.split()) == 2 for name in directors)

    def test_episodes_table_has_date_column(self, gft_corpus):
        table = gft_corpus.table("gft-simpsons_episode-1")
        date_column = table.column_index("Original air date")
        assert table.column_type(date_column) is ColumnType.DATE
        assert all("," in value for value in table.column_values(date_column))

    def test_directory_phone_and_website_filterable(self, gft_corpus):
        table = gft_corpus.table("gft-restaurant-1")
        phones = table.column_values(table.column_index("Phone"))
        websites = table.column_values(table.column_index("Website"))
        assert all(looks_like_phone(value) for value in phones)
        assert all(looks_like_url(value) for value in websites)

    def test_descriptions_exceed_long_value_limit(self, gft_corpus):
        pre = Preprocessor()
        table = next(
            t for t in gft_corpus.tables
            if t.name.startswith("gft-museum") and "Description" in t.header()
        )
        column = table.column_index("Description")
        for value in table.column_values(column):
            assert pre.exclusion_reason(value) == "long-value"
            assert token_count(value) > pre.config.long_value_token_limit

    def test_address_cells_mix_partial_and_full(self, gft_corpus):
        table = gft_corpus.table("gft-restaurant-1")
        addresses = table.column_values(table.column_index("Address"))
        with_city = sum(1 for a in addresses if "," in a)
        without_city = len(addresses) - with_city
        assert with_city > 0
        assert without_city > 0

    def test_name_column_never_filtered(self, gft_corpus):
        pre = Preprocessor()
        for table in gft_corpus.tables:
            candidates = {(c.row, c.column) for c in pre.candidate_cells(table)}
            gold_cells = {
                (ref.row, ref.column)
                for ref in gft_corpus.gold.of_table(table.name)
            }
            assert gold_cells <= candidates, table.name


class TestSeedVariation:
    def test_different_seed_different_world(self):
        base = SyntheticWorld.build(WorldConfig.small(seed=13))
        other = SyntheticWorld.build(WorldConfig.small(seed=99))
        base_names = [e.name for e in base.table_entities("museum")]
        other_names = [e.name for e in other.table_entities("museum")]
        assert base_names != other_names
        # Same structure, though.
        assert len(base_names) == len(other_names)

    def test_same_seed_same_world_object(self):
        first = SyntheticWorld.build(WorldConfig.small(seed=13))
        second = SyntheticWorld.build(WorldConfig.small(seed=13))
        assert first is second


class TestEngineQueryFiltering:
    def test_ubiquitous_tokens_ignored(self, small_world):
        engine = small_world.search_engine
        # 'official' appears in a large share of pages (generic pool) and
        # must not dominate a name query.
        with_generic = engine.search("official Chez", k=5)
        without = engine.search("Chez", k=5)
        assert [r.doc_id for r in with_generic] == [r.doc_id for r in without]

    def test_all_common_query_still_answers(self, small_world):
        results = small_world.search_engine.search("official website", k=5)
        assert isinstance(results, list)  # no crash; may or may not be empty

    def test_k_larger_than_matches_returns_all(self, small_world):
        entity = small_world.table_entities("mine")[0]
        results = small_world.search_engine.search(entity.table_name, k=100)
        assert 0 < len(results) <= 100

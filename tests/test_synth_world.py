"""Tests for entity populations, pages and the assembled world."""

import pytest

from repro.synth.entities import build_population
from repro.synth.geography import build_gazetteer, home_cities
from repro.synth.pages import (
    concept_pages,
    entity_pages,
    guide_pages,
    noise_pages,
    review_word_subset,
    sense_pages,
)
from repro.synth.types import TYPE_SPECS, type_spec
from repro.synth.world import SyntheticWorld, WorldConfig


@pytest.fixture(scope="module")
def cities():
    return home_cities(build_gazetteer())


class TestPopulations:
    def test_pool_sizes_scale(self, cities):
        spec = type_spec("restaurant")
        population = build_population(spec, seed=13, cities=cities, scale=0.1)
        assert len(population.kb_pool) == 24
        assert len(population.table_pool) == 29

    def test_kb_overlap_rate(self, cities):
        spec = type_spec("museum")
        population = build_population(spec, seed=13, cities=cities, scale=1.0,
                                      kb_overlap_rate=0.22)
        known = [e for e in population.table_pool if e.in_kb]
        assert len(known) == round(240 * 0.22)

    def test_all_entities_no_duplicates(self, cities):
        spec = type_spec("hotel")
        population = build_population(spec, seed=13, cities=cities, scale=0.3)
        uids = [e.uid for e in population.all_entities()]
        assert len(uids) == len(set(uids))

    def test_spatial_types_get_cities(self, cities):
        population = build_population(type_spec("school"), seed=13, cities=cities,
                                      scale=0.1)
        assert all(e.city is not None for e in population.kb_pool)

    def test_non_spatial_types_have_no_city(self, cities):
        population = build_population(type_spec("actor"), seed=13, cities=cities,
                                      scale=0.1)
        assert all(e.city is None for e in population.kb_pool)

    def test_ambiguity_rate_applied(self, cities):
        spec = type_spec("singer")
        population = build_population(spec, seed=13, cities=cities, scale=1.0)
        ambiguous = [e for e in population.table_pool if e.alternate_sense]
        rate = len(ambiguous) / len(population.table_pool)
        assert abs(rate - spec.ambiguity_rate) < 0.15

    def test_empty_cities_rejected(self):
        with pytest.raises(ValueError):
            build_population(type_spec("museum"), seed=13, cities=[])


class TestPages:
    @pytest.fixture(scope="class")
    def entity(self, cities):
        population = build_population(type_spec("restaurant"), seed=13,
                                      cities=cities, scale=0.05)
        return population.table_pool[0]

    def test_entity_page_count_matches(self, entity):
        pages = entity_pages(entity, seed=13)
        assert len(pages) == entity.page_count

    def test_homepage_title_carries_name(self, entity):
        pages = entity_pages(entity, seed=13)
        assert entity.name in pages[0].title

    def test_pages_deterministic(self, entity):
        assert entity_pages(entity, seed=13) == entity_pages(entity, seed=13)

    def test_body_contains_full_name(self, entity):
        page = entity_pages(entity, seed=13)[0]
        assert entity.name.split()[0].lower() in page.body.lower()

    def test_sense_pages_empty_without_ambiguity(self, entity):
        if entity.alternate_sense is None:
            assert sense_pages(entity, seed=13) == []

    def test_concept_pages_describe_type_word(self):
        pages = concept_pages(type_spec("museum"), seed=13, count=4)
        assert len(pages) == 4
        assert any("museum" in p.body for p in pages)

    def test_guide_pages_count(self):
        pages = guide_pages(type_spec("hotel"), 13, ["Lyon"])
        assert len(pages) == 25

    def test_noise_pages_have_no_urls_clash(self):
        pages = noise_pages(seed=13, count=30)
        assert len({p.url for p in pages}) == 30

    def test_review_subset_stable_and_type_specific(self):
        museum = review_word_subset(type_spec("museum"), seed=13)
        hotel = review_word_subset(type_spec("hotel"), seed=13)
        assert museum == review_word_subset(type_spec("museum"), seed=13)
        assert museum != hotel


class TestWorld:
    @pytest.fixture(scope="class")
    def world(self):
        return SyntheticWorld.build(WorldConfig.small())

    def test_cached_per_config(self, world):
        assert SyntheticWorld.build(WorldConfig.small()) is world

    def test_twelve_populations(self, world):
        assert set(world.populations) == {spec.key for spec in TYPE_SPECS}

    def test_kb_has_positive_entities_per_type(self, world):
        for spec in TYPE_SPECS:
            entities = world.kb.positive_entities(spec.root_category, spec.type_word)
            assert entities, spec.key

    def test_noise_categories_excluded_from_positives(self, world):
        positives = world.kb.positive_categories("Museums", "museum")
        assert "Curators" not in positives
        assert "Curators" in world.kb.categories.descendants("Museums")

    def test_catalogue_coverage_near_paper_value(self, world):
        coverage = world.catalogue.coverage(world.all_table_entity_names())
        assert 0.1 < coverage < 0.35  # paper: 22 %

    def test_search_finds_entity_pages(self, world):
        entity = world.table_entities("museum")[0]
        engine = world.search_engine
        results = engine.search(entity.table_name, k=5)
        assert results
        titles = [engine.index.page(r.doc_id).title for r in results]
        assert any(entity.name in title for title in titles)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            WorldConfig(entity_scale=0.0)
        with pytest.raises(ValueError):
            WorldConfig(kb_overlap_rate=2.0)

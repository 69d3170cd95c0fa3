"""Statistical tests on the synthetic-world distributions.

The experiment shapes rest on distributional properties of the generated
world (type-word rates, marker prevalence, retrieval quality).  These tests
pin them so a generator change that would silently distort Table 1 fails
loudly here instead.
"""

import pytest

from repro.synth import pages as page_gen
from repro.synth.types import type_spec
from repro.text.tokenization import tokenize


class TestTypeWordRates:
    """type_word_in_page_rate drives the TIS baseline's shape."""

    @pytest.mark.parametrize("type_key", ["museum", "university", "singer"])
    def test_page_rate_matches_spec(self, small_world, type_key):
        # Restrict to entities whose name lacks the type word: their pages
        # carry it only through the injection controlled by the spec (the
        # verbatim name inside the body would otherwise count too).
        spec = type_spec(type_key)
        entities = [
            e for e in small_world.kb_entities(type_key)
            if spec.type_word not in tokenize(e.name)
        ][:25]
        assert entities
        pages = []
        for entity in entities:
            pages.extend(page_gen.entity_pages(entity, small_world.config.seed))
        with_word = sum(
            1 for page in pages if spec.type_word in tokenize(page.body)
        )
        rate = with_word / len(pages)
        assert abs(rate - spec.type_word_in_page_rate) < 0.15, (
            f"{type_key}: measured {rate:.2f}, "
            f"spec {spec.type_word_in_page_rate:.2f}"
        )


class TestMarkerPrevalence:
    def test_entity_pages_dominated_by_own_markers(self, small_world):
        from repro.synth.vocab import TYPE_MARKERS

        markers = set(TYPE_MARKERS["restaurant"])
        other = set(TYPE_MARKERS["museum"])
        entity = small_world.kb_entities("restaurant")[0]
        pages = page_gen.entity_pages(entity, small_world.config.seed)
        own = sum(
            sum(1 for t in tokenize(p.body) if t in markers) for p in pages
        )
        foreign = sum(
            sum(1 for t in tokenize(p.body) if t in other) for p in pages
        )
        assert own > 3 * foreign

    def test_guide_pages_weakly_typed(self, small_world):
        from repro.synth.vocab import TYPE_MARKERS

        spec = type_spec("hotel")
        markers = set(TYPE_MARKERS["hotel"])
        pages = page_gen.guide_pages(
            spec, small_world.config.seed, ["Lyon"], count=10
        )
        for page in pages:
            tokens = tokenize(page.body)
            density = sum(1 for t in tokens if t in markers) / len(tokens)
            # Weak evidence by construction: the margin classifier must be
            # able to abstain on windows drawn from these pages.
            assert density < 0.3


class TestLanguageMix:
    def test_small_french_fraction(self, small_world):
        pages = []
        for entity in small_world.kb_entities("museum")[:30]:
            pages.extend(page_gen.entity_pages(entity, small_world.config.seed))
        french = sum(1 for page in pages if page.language == "fr")
        assert 0 <= french / len(pages) < 0.12


class TestRetrievalQuality:
    def test_unambiguous_entity_owns_its_top_k(self, small_world):
        entity = next(
            e for e in small_world.table_entities("museum")
            if e.alternate_sense is None
        )
        engine = small_world.search_engine
        results = engine.search(entity.table_name, k=10)
        titles = [engine.index.page(r.doc_id).title for r in results]
        own = sum(1 for title in titles if entity.name in title)
        assert own > len(results) / 2

    def test_city_token_boosts_home_pages(self, small_world):
        entity = next(
            e for e in small_world.table_entities("restaurant")
            if e.city is not None and e.alternate_sense is None
        )
        engine = small_world.search_engine
        plain = engine.search(entity.table_name, k=5)
        boosted = engine.search(f"{entity.table_name} {entity.city.name}", k=5)
        assert boosted  # the city never empties the result list

        def own(results):
            titles = [engine.index.page(r.doc_id).title for r in results]
            return sum(1 for title in titles if entity.name in title)

        own_boosted, own_plain = own(boosted), own(plain)
        assert own_boosted >= own_plain - 1

    def test_concept_word_returns_concept_like_pages(self, small_world):
        results = small_world.search_engine.search("museum", k=10)
        assert results
        # Top results for the bare type word are about the concept or
        # museum-heavy content, not arbitrary noise.
        from repro.synth.vocab import TYPE_MARKERS

        markers = set(TYPE_MARKERS["museum"]) | {"museum"}
        hits = sum(
            1 for r in results
            if any(t in markers for t in tokenize(r.snippet))
        )
        assert hits >= len(results) * 0.6


class TestGoldCountsAtFullScaleConfig:
    def test_scaled_counts_are_proportional(self, small_world):
        for type_key in ("restaurant", "singer"):
            spec = type_spec(type_key)
            expected = max(1, round(
                spec.table_references * small_world.config.entity_scale
            ))
            assert len(small_world.table_entities(type_key)) == expected

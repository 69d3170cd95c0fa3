"""The synthetic world: one seeded object tying every substrate together.

``SyntheticWorld.build(config)`` produces, deterministically:

* a gazetteer and geocoder (with the paper's planted toponym ambiguity);
* per-type entity populations (KB pool + table pool, 22 % overlap);
* a DBpedia-style knowledge base whose category networks include noisy
  subcategories ("Curators" under "Museums") to exercise the Section 5.2.1
  pruning heuristic;
* a searchable synthetic web (entity, sense, concept, guide, noise pages);
* the open-data catalogue used by the Limaye baseline and the coverage
  experiment.

Worlds are cached per configuration: experiments and tests share one build.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clock import VirtualClock
from repro.geo.gazetteer import Gazetteer
from repro.geo.geocoder import DEFAULT_GEOCODER_LATENCY, Geocoder
from repro.geo.model import GeoLocation
from repro.kb.catalogue import Catalogue
from repro.kb.knowledge_base import KnowledgeBase
from repro.synth import pages as page_gen
from repro.synth.entities import SyntheticEntity, TypePopulation, build_population
from repro.synth.geography import build_gazetteer, home_cities
from repro.synth.rng import rng_for
from repro.synth.types import TYPE_SPECS, TypeSpec
from repro.web.search import DEFAULT_SEARCH_LATENCY, SearchEngine

_NOISE_CATEGORY_NAMES: dict[str, str] = {
    # The off-type subcategory planted under each root (cf. Figure 6's
    # "Curators" under "Museums"): entities in it must NOT train the type.
    "restaurant": "Celebrity chefs",
    "museum": "Curators",
    "theatre": "Stage directors",
    "hotel": "Hoteliers",
    "school": "Headmasters",
    "university": "Chancellors",
    "mine": "Mining engineers",
    "actor": "Talent agencies",
    "singer": "Record producers",
    "scientist": "Research funding bodies",
    "film": "Casting companies",
    "simpsons_episode": "Voice casting",
}

_REGION_WORDS = ("Europe", "America", "Asia", "France", "Italy", "Germany")


@dataclass(frozen=True)
class WorldConfig:
    """Knobs of the synthetic world; defaults reproduce the paper's scale."""

    seed: int = 13
    entity_scale: float = 1.0
    kb_overlap_rate: float = 0.22
    noise_page_count: int = 1500
    guide_pages_per_type: int = 25
    concept_pages_per_type: int = 8
    search_latency: float = DEFAULT_SEARCH_LATENCY
    geocoder_latency: float = DEFAULT_GEOCODER_LATENCY

    def __post_init__(self) -> None:
        if self.entity_scale <= 0:
            raise ValueError(f"entity_scale must be > 0, got {self.entity_scale}")
        if not 0.0 <= self.kb_overlap_rate <= 1.0:
            raise ValueError(
                f"kb_overlap_rate must be in [0, 1], got {self.kb_overlap_rate}"
            )

    @classmethod
    def small(cls, seed: int = 13) -> "WorldConfig":
        """A fast test-sized world (~10x smaller than the paper's)."""
        return cls(
            seed=seed,
            entity_scale=0.12,
            noise_page_count=250,
            guide_pages_per_type=6,
            concept_pages_per_type=4,
        )


@dataclass
class SyntheticWorld:
    """The assembled ecosystem; build via :meth:`build`."""

    config: WorldConfig
    gazetteer: Gazetteer
    cities: list[GeoLocation]
    populations: dict[str, TypePopulation]
    kb: KnowledgeBase
    catalogue: Catalogue
    search_engine: SearchEngine
    geocoder: Geocoder
    clock: VirtualClock
    page_count: int = 0
    _cache: dict = field(default_factory=dict, repr=False)

    # -- construction -------------------------------------------------------------

    @classmethod
    def build(cls, config: WorldConfig | None = None) -> "SyntheticWorld":
        """Build (or fetch from cache) the world for *config*."""
        config = config or WorldConfig()
        if config in _WORLD_CACHE:
            return _WORLD_CACHE[config]
        world = cls._build_fresh(config)
        _WORLD_CACHE[config] = world
        return world

    @classmethod
    def _build_fresh(cls, config: WorldConfig) -> "SyntheticWorld":
        gazetteer = build_gazetteer()
        cities = home_cities(gazetteer)
        clock = VirtualClock()
        populations = {
            spec.key: build_population(
                spec,
                seed=config.seed,
                cities=cities,
                kb_overlap_rate=config.kb_overlap_rate,
                scale=config.entity_scale,
            )
            for spec in TYPE_SPECS
        }
        kb = _build_knowledge_base(config, populations)
        catalogue = Catalogue.from_knowledge_base(kb, name="open-datasets")
        engine = SearchEngine(clock=clock, latency_seconds=config.search_latency)
        page_count = _populate_web(config, populations, cities, engine)
        geocoder = Geocoder(
            gazetteer, clock=clock, latency_seconds=config.geocoder_latency
        )
        return cls(
            config=config,
            gazetteer=gazetteer,
            cities=cities,
            populations=populations,
            kb=kb,
            catalogue=catalogue,
            search_engine=engine,
            geocoder=geocoder,
            clock=clock,
            page_count=page_count,
        )

    # -- accessors -----------------------------------------------------------------

    @property
    def specs(self) -> tuple[TypeSpec, ...]:
        return TYPE_SPECS

    def population(self, type_key: str) -> TypePopulation:
        """Population of one type; ``KeyError`` for unknown keys."""
        return self.populations[type_key]

    def table_entities(self, type_key: str) -> list[SyntheticEntity]:
        """Entities of *type_key* that the table corpus references."""
        return list(self.populations[type_key].table_pool)

    def kb_entities(self, type_key: str) -> list[SyntheticEntity]:
        """Entities of *type_key* registered in the knowledge base."""
        return list(self.populations[type_key].kb_pool)

    def all_table_entity_names(self) -> list[str]:
        """Every table-pool entity name (for the coverage experiment)."""
        names = []
        for spec in TYPE_SPECS:
            names.extend(e.table_name for e in self.populations[spec.key].table_pool)
        return names


_WORLD_CACHE: dict[WorldConfig, SyntheticWorld] = {}


# -- knowledge base ------------------------------------------------------------------


def _build_knowledge_base(
    config: WorldConfig, populations: dict[str, TypePopulation]
) -> KnowledgeBase:
    kb = KnowledgeBase(name="dbpedia-stand-in")
    rng = rng_for(config.seed, "kb")
    for spec in TYPE_SPECS:
        root = spec.root_category
        kb.add_category(root)
        subcategories = [f"{root} in {region}" for region in _REGION_WORDS]
        subcategories.append(f"Historic {root.lower()}")
        for subcategory in subcategories:
            kb.add_category(subcategory, parent=root)
        # Second-level nesting, as in Figure 6.
        kb.add_category(f"{root} in Europe by country", parent=f"{root} in Europe")
        noise_category = _NOISE_CATEGORY_NAMES[spec.key]
        kb.add_category(noise_category, parent=root)
        _register_noise_entities(kb, spec, noise_category, rng)
        positive_categories = [root, *subcategories]
        for entity in populations[spec.key].kb_pool:
            chosen = rng.sample(positive_categories, k=rng.randint(1, 2))
            entity.categories = tuple(sorted(chosen))
            kb.add_entity(
                uri=f"db:{entity.uid}",
                name=entity.name,
                entity_type=spec.key,
                categories=entity.categories,
            )
    return kb


def _register_noise_entities(kb, spec: TypeSpec, category: str, rng) -> None:
    """Off-type entities in the noisy subcategory (never training data)."""
    from repro.synth.vocab import FIRST_NAMES, LAST_NAMES

    for i in range(5):
        first = FIRST_NAMES[rng.randrange(len(FIRST_NAMES))]
        last = LAST_NAMES[rng.randrange(len(LAST_NAMES))]
        kb.add_entity(
            uri=f"db:noise-{spec.key}-{i}",
            name=f"{first} {last}",
            entity_type="person",
            categories=(category,),
        )


# -- web corpus ----------------------------------------------------------------------


def _populate_web(
    config: WorldConfig,
    populations: dict[str, TypePopulation],
    cities: list[GeoLocation],
    engine: SearchEngine,
) -> int:
    count = 0
    city_names = [city.name for city in cities]
    for spec in TYPE_SPECS:
        population = populations[spec.key]
        for entity in population.all_entities():
            for page in page_gen.entity_pages(entity, config.seed):
                engine.add_page(page)
                count += 1
            for page in page_gen.sense_pages(entity, config.seed):
                engine.add_page(page)
                count += 1
        for page in page_gen.concept_pages(
            spec, config.seed, count=config.concept_pages_per_type
        ):
            engine.add_page(page)
            count += 1
        for page in page_gen.guide_pages(
            spec, config.seed, city_names, count=config.guide_pages_per_type
        ):
            engine.add_page(page)
            count += 1
    for page in page_gen.noise_pages(config.seed, config.noise_page_count):
        engine.add_page(page)
        count += 1
    return count

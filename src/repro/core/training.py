"""Classifier training-set construction (Section 5.2.1).

The paper's procedure, reproduced step by step:

1. for each type ``t`` pick the manually chosen root category ("Museums");
2. walk the category network under the root and keep subcategories whose
   name contains the type name (the pruning heuristic that drops
   "Curators");
3. the positive entity set ``P`` is drawn from the surviving categories;
4. for each entity, query the search engine with *name + type name* (the
   type name disambiguates the query) and keep up to
   ``snippets_per_entity`` snippets as positive examples;
5. split 75 % / 25 % into training and test sets.

Optionally (``include_other=True``) the builder also gathers *background*
snippets (random noise-topic queries) labelled
:data:`~repro.classify.snippet.OTHER_LABEL`, giving the classifier an
explicit none-of-the-above class.  The paper trains on Γ only and relies on
the majority rule plus (for the SVM) margin abstention to absorb noise, so
the reproduction's experiments default to ``include_other=False``; the
option exists for the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.classify.dataset import TextDataset, train_test_split
from repro.classify.snippet import OTHER_LABEL
from repro.kb.knowledge_base import KnowledgeBase
from repro.synth.rng import rng_for
from repro.synth.types import TypeSpec
from repro.synth.vocab import GENERIC_WEB, NOISE_TOPICS
from repro.web.search import SearchEngine


@dataclass
class CorpusStats:
    """Per-type snippet counts, the |TR| / |TE| columns of Table 2."""

    train_counts: dict[str, int] = field(default_factory=dict)
    test_counts: dict[str, int] = field(default_factory=dict)


class TrainingCorpusBuilder:
    """Builds labelled snippet corpora from a knowledge base + search engine."""

    def __init__(
        self,
        kb: KnowledgeBase,
        engine: SearchEngine,
        snippets_per_entity: int = 10,
        max_entities_per_type: int | None = None,
        other_query_count: int = 180,
        seed: int = 13,
    ) -> None:
        if snippets_per_entity < 1:
            raise ValueError(
                f"snippets_per_entity must be >= 1, got {snippets_per_entity}"
            )
        self.kb = kb
        self.engine = engine
        self.snippets_per_entity = snippets_per_entity
        self.max_entities_per_type = max_entities_per_type
        self.other_query_count = other_query_count
        self.seed = seed

    # -- positive examples ------------------------------------------------------------

    def positive_snippets(self, spec: TypeSpec) -> list[str]:
        """Snippets for the positive entities of *spec* (steps 1-4)."""
        entities = self.kb.positive_entities(spec.root_category, spec.type_word)
        rng = rng_for(self.seed, "training", spec.key)
        if (
            self.max_entities_per_type is not None
            and len(entities) > self.max_entities_per_type
        ):
            entities = rng.sample(entities, self.max_entities_per_type)
            entities.sort(key=lambda e: e.uri)
        queries = [f"{entity.name} {spec.type_word}" for entity in entities]
        return self._snippets(queries)

    # -- background examples -----------------------------------------------------------

    def background_snippets(self) -> list[str]:
        """Noise snippets for the OTHER class (random off-topic queries)."""
        rng = rng_for(self.seed, "training", "background")
        topics = sorted(NOISE_TOPICS)
        queries = []
        for _ in range(self.other_query_count):
            topic = topics[rng.randrange(len(topics))]
            pool = NOISE_TOPICS[topic]
            words = [pool[rng.randrange(len(pool))] for _ in range(2)]
            words.append(GENERIC_WEB[rng.randrange(len(GENERIC_WEB))])
            queries.append(" ".join(words))
        return self._snippets(queries)

    def _snippets(self, queries: list[str]) -> list[str]:
        """Every snippet of the top results of *queries*, in query order,
        from one :meth:`~repro.web.search.SearchEngine.search_many` batch.

        A failed request contributes nothing.  A duplicate query is issued
        (and charged) once, but its snippets count once per occurrence.
        """
        return [
            result.snippet
            for results in self.engine.search_many(
                queries, k=self.snippets_per_entity
            )
            if results is not None
            for result in results
        ]

    # -- assembled corpora ----------------------------------------------------------------

    def build_dataset(
        self, specs: list[TypeSpec], include_other: bool = False
    ) -> TextDataset:
        """The full labelled corpus for *specs* (+ OTHER when requested)."""
        dataset = TextDataset()
        for spec in specs:
            for snippet in self.positive_snippets(spec):
                dataset.add(snippet, spec.key)
        if include_other:
            for snippet in self.background_snippets():
                dataset.add(snippet, OTHER_LABEL)
        return dataset

    def build_split(
        self,
        specs: list[TypeSpec],
        include_other: bool = False,
        train_fraction: float = 0.75,
    ) -> tuple[TextDataset, TextDataset, CorpusStats]:
        """Train/test split (75/25, stratified) plus Table 2's size columns."""
        dataset = self.build_dataset(specs, include_other=include_other)
        train, test = train_test_split(
            dataset, train_fraction=train_fraction, seed=self.seed
        )
        stats = CorpusStats(
            train_counts=train.label_counts(), test_counts=test.label_counts()
        )
        return train, test, stats

"""Experiments for the implemented future-work extensions.

* **E-HYB** -- the Section 6.4 hybrid proposal: catalogue for known
  entities, web search only for unknown ones.  Measured: annotation
  quality parity with the pure-web algorithm and the fraction of search
  queries saved (expected ≈ the catalogue's 22 % coverage).
* **E-CLU** -- the Section 5.2 clustering proposal: cluster the top-k
  snippets and classify per cluster, recovering ambiguous names whose
  result lists split between senses and defeat the plain majority rule.
* **E-GIU** -- the Giuliano-style similarity alternative that Section
  5.2.1 argues against: nearest-centroid snippet similarity instead of a
  trained classifier.  The paper's critique -- text *about* entities looks
  similar to the entities themselves, costing precision -- becomes a
  measured comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.giuliano import GiulianoAnnotator
from repro.core.annotation import CellAnnotator
from repro.core.clustering import ClusteredCellAnnotator
from repro.core.config import AnnotatorConfig
from repro.core.hybrid import HybridAnnotator
from repro.eval.evaluator import evaluate_annotations
from repro.eval.experiments import ALL_TYPE_KEYS, ExperimentContext
from repro.eval.reporting import format_table


@dataclass
class HybridResult:
    """Parity and savings of the hybrid annotator (experiment E-HYB)."""

    pure_micro_f: float
    hybrid_micro_f: float
    query_savings: float
    catalogue_hits: int
    web_queries: int

    def render(self) -> str:
        rows = [
            ["pure web algorithm", self.pure_micro_f, None],
            ["hybrid (catalogue + web)", self.hybrid_micro_f,
             f"{self.query_savings:.0%} queries saved"],
        ]
        table = format_table(
            ["Method", "micro F", "cost"],
            rows,
            title="Extension: hybrid catalogue + web annotation (§6.4 future work)",
        )
        return (
            f"{table}\n(catalogue hits: {self.catalogue_hits},"
            f" web queries: {self.web_queries})"
        )


def run_hybrid(context: ExperimentContext) -> HybridResult:
    """Compare the hybrid annotator against the pure-web run on GFT."""
    pure = evaluate_annotations(
        context.annotation_run(backend="svm", postprocess=True),
        context.gft.gold,
        ALL_TYPE_KEYS,
    )
    annotator = HybridAnnotator(
        context.classifiers["svm"],
        context.world.search_engine,
        context.world.catalogue,
        AnnotatorConfig(),
        cache=context.cache,
    )
    run = annotator.annotate_tables(context.gft.tables, ALL_TYPE_KEYS)
    hybrid = evaluate_annotations(run, context.gft.gold, ALL_TYPE_KEYS)
    return HybridResult(
        pure_micro_f=pure.micro_f1(),
        hybrid_micro_f=hybrid.micro_f1(),
        query_savings=annotator.stats.query_savings,
        catalogue_hits=annotator.stats.catalogue_hits,
        web_queries=annotator.stats.web_queries,
    )


@dataclass
class ClusteringResult:
    """Recovery of ambiguous names via snippet clustering (experiment E-CLU)."""

    n_ambiguous: int
    plain_recovered: int
    clustered_recovered: int

    def render(self) -> str:
        rows = [
            ["plain majority (Eq. 1)", self.plain_recovered],
            ["cluster-then-classify", self.clustered_recovered],
        ]
        table = format_table(
            ["Annotator", f"recovered of {self.n_ambiguous} ambiguous names"],
            rows,
            title="Extension: snippet clustering (§5.2 future work)",
        )
        return table

    @property
    def clustered_rate(self) -> float:
        return (
            self.clustered_recovered / self.n_ambiguous if self.n_ambiguous else 0.0
        )


def run_clustering(
    context: ExperimentContext,
    type_keys: tuple[str, ...] = ("singer", "scientist", "actor"),
    max_entities: int = 60,
) -> ClusteringResult:
    """Annotate ambiguous people names with and without clustering.

    Only entities with a planted alternate sense are considered: these are
    exactly the names whose top-k lists mix senses.  "Recovered" means the
    annotator assigned the entity's true type.
    """
    classifier = context.classifiers["svm"]
    engine = context.world.search_engine
    plain = CellAnnotator(classifier, engine, AnnotatorConfig(), cache=context.cache)
    clustered = ClusteredCellAnnotator(classifier, engine, AnnotatorConfig())
    ambiguous = [
        entity
        for type_key in type_keys
        for entity in context.world.table_entities(type_key)
        if entity.alternate_sense is not None
    ][:max_entities]
    plain_decisions = plain.annotate_values(
        [(entity.table_name, None) for entity in ambiguous], list(ALL_TYPE_KEYS)
    )
    plain_recovered = sum(
        decision.type_key == entity.type_key
        for decision, entity in zip(plain_decisions, ambiguous)
    )
    clustered_decisions = clustered.annotate_values(
        [entity.table_name for entity in ambiguous], list(ALL_TYPE_KEYS)
    )
    clustered_recovered = sum(
        decision.type_key == entity.type_key
        for decision, entity in zip(clustered_decisions, ambiguous)
    )
    return ClusteringResult(
        n_ambiguous=len(ambiguous),
        plain_recovered=plain_recovered,
        clustered_recovered=clustered_recovered,
    )


@dataclass
class GiulianoResult:
    """Classifier-based versus similarity-based annotation (experiment E-GIU)."""

    classifier_precision: float
    classifier_recall: float
    classifier_f: float
    similarity_precision: float
    similarity_recall: float
    similarity_f: float

    def render(self) -> str:
        rows = [
            ["text classifier (the paper)", self.classifier_precision,
             self.classifier_recall, self.classifier_f],
            ["snippet similarity (Giuliano-style)", self.similarity_precision,
             self.similarity_recall, self.similarity_f],
        ]
        table = format_table(
            ["Method", "macro P", "macro R", "macro F"],
            rows,
            title="Extension: classifier vs similarity snippets (§5.2.1 critique)",
        )
        return table


def run_giuliano(context: ExperimentContext) -> GiulianoResult:
    """Measure the paper's argument for classifying over similarity."""
    classifier_eval = evaluate_annotations(
        context.annotation_run(backend="svm", postprocess=True),
        context.gft.gold,
        ALL_TYPE_KEYS,
    )
    annotator = GiulianoAnnotator(
        context.world.search_engine, AnnotatorConfig(), cache=context.cache
    )
    annotator.fit(context.train_set)
    raw = annotator.annotate_tables(context.gft.tables, ALL_TYPE_KEYS)
    # Same post-processing as the main pipeline, for a fair comparison.
    from repro.core.postprocessing import eliminate_spurious
    from repro.core.results import AnnotationRun

    processed = AnnotationRun()
    for table in context.gft.tables:
        processed.tables[table.name] = eliminate_spurious(
            table, raw.table(table.name)
        )
    similarity_eval = evaluate_annotations(
        processed, context.gft.gold, ALL_TYPE_KEYS
    )
    cp, cr, cf = classifier_eval.average(ALL_TYPE_KEYS)
    sp, sr, sf = similarity_eval.average(ALL_TYPE_KEYS)
    return GiulianoResult(
        classifier_precision=cp, classifier_recall=cr, classifier_f=cf,
        similarity_precision=sp, similarity_recall=sr, similarity_f=sf,
    )

"""The paper's experiments, one callable per table / figure.

Every ``run_*`` function takes an :class:`ExperimentContext` (built once per
world configuration and cached, since it holds the trained classifiers and
the annotated corpora) and returns a result object with a ``render()``
method producing a paper-style text table.

Experiment index (mirrors DESIGN.md):

========  ================================================================
T1        Table 1  -- P/R/F of SVM / Bayes / TIN / TIS on the 40 tables
T2        Table 2  -- corpus sizes + classifier F per type
T3        Table 3  -- F for SVM / +postproc / +postproc+disambig
C1        §6.3     -- Wiki Manual comparison against the Limaye baseline
E1        §6.4     -- seconds-per-row efficiency and scaling
F6        Fig. 6   -- category network excerpt + pruning heuristic
F7        Fig. 7   -- toponym disambiguation on the paper's own example
X1        §1       -- catalogue coverage of table entities (the 22 % claim)
========  ================================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.limaye import LimayeAnnotator
from repro.baselines.type_in_name import TypeInNameAnnotator
from repro.baselines.type_in_snippet import TypeInSnippetAnnotator
from repro.classify.snippet import SnippetTypeClassifier
from repro.core.annotation import SnippetCache
from repro.core.annotator import EntityAnnotator
from repro.core.config import AnnotatorConfig
from repro.core.postprocessing import eliminate_spurious
from repro.core.results import AnnotationRun
from repro.core.training import CorpusStats, TrainingCorpusBuilder
from repro.eval.evaluator import EvaluationResult, evaluate_annotations
from repro.eval.reporting import format_table
from repro.synth.table_corpus import TableCorpus, build_gft_corpus, build_wiki_manual
from repro.synth.types import CATEGORIES, TYPE_SPECS, TypeSpec, types_in_category
from repro.synth.world import SyntheticWorld, WorldConfig
from repro.tables.model import Column, ColumnType, Table

ALL_TYPE_KEYS = [spec.key for spec in TYPE_SPECS]

_CATEGORY_TITLES = {"poi": "Points of interest", "people": "People", "cinema": "Cinema"}


# ======================================================================== context


@dataclass
class ExperimentContext:
    """Everything the experiments share for one world configuration."""

    world: SyntheticWorld
    gft: TableCorpus
    wiki: TableCorpus
    train_set: object
    test_set: object
    corpus_stats: CorpusStats
    classifiers: dict[str, SnippetTypeClassifier]
    cache: SnippetCache = field(default_factory=SnippetCache)
    _runs: dict[str, AnnotationRun] = field(default_factory=dict, repr=False)

    # -- annotation runs (lazy, memoised) ---------------------------------------------

    def annotation_run(
        self,
        backend: str = "svm",
        postprocess: bool = True,
        disambiguate: bool = False,
        corpus: str = "gft",
    ) -> AnnotationRun:
        """Annotate a corpus under a setting, reusing memoised raw runs.

        Post-processing is a pure function of the raw run, so the raw
        (unpostprocessed) annotation is computed once per (backend,
        disambiguate, corpus) and Equation 2 is applied on demand.
        """
        raw_key = f"{backend}|disambig={disambiguate}|{corpus}"
        if raw_key not in self._runs:
            config = AnnotatorConfig(
                use_postprocessing=False,
                use_spatial_disambiguation=disambiguate,
            )
            annotator = EntityAnnotator(
                self.classifiers[backend],
                self.world.search_engine,
                config,
                geocoder=self.world.geocoder if disambiguate else None,
                cache=self.cache,
            )
            tables = self._corpus(corpus).tables
            self._runs[raw_key] = annotator.annotate_tables(tables, ALL_TYPE_KEYS)
        raw = self._runs[raw_key]
        if not postprocess:
            return raw
        post_key = f"{raw_key}|post"
        if post_key not in self._runs:
            run = AnnotationRun()
            corpus_obj = self._corpus(corpus)
            for table in corpus_obj.tables:
                run.tables[table.name] = eliminate_spurious(
                    table, raw.table(table.name)
                )
            self._runs[post_key] = run
        return self._runs[post_key]

    def _corpus(self, corpus: str) -> TableCorpus:
        if corpus == "gft":
            return self.gft
        if corpus == "wiki":
            return self.wiki
        raise ValueError(f"unknown corpus {corpus!r}")


_CONTEXT_CACHE: dict[WorldConfig, ExperimentContext] = {}


def build_context(config: WorldConfig | None = None) -> ExperimentContext:
    """Build (or fetch) the shared experiment context for *config*."""
    config = config or WorldConfig()
    if config in _CONTEXT_CACHE:
        return _CONTEXT_CACHE[config]
    world = SyntheticWorld.build(config)
    gft = build_gft_corpus(world)
    wiki = build_wiki_manual(world)
    builder = TrainingCorpusBuilder(
        world.kb, world.search_engine, seed=config.seed
    )
    train, test, stats = builder.build_split(list(TYPE_SPECS))
    classifiers = {
        "svm": SnippetTypeClassifier(backend="svm").fit(train),
        "bayes": SnippetTypeClassifier(backend="bayes").fit(train),
    }
    context = ExperimentContext(
        world=world,
        gft=gft,
        wiki=wiki,
        train_set=train,
        test_set=test,
        corpus_stats=stats,
        classifiers=classifiers,
    )
    _CONTEXT_CACHE[config] = context
    return context


# ======================================================================== Table 2


@dataclass
class Table2Result:
    """Corpus sizes and classifier F-measure per type (Table 2)."""

    rows: list[tuple[str, int, int, float, float]]  # display, |TR|, |TE|, bayes, svm

    def render(self) -> str:
        return format_table(
            ["Type", "|TR|", "|TE|", "Bayes", "SVM"],
            self.rows,
            title="Table 2: snippet classifier training/test evaluation",
        )

    def f_of(self, display: str, backend: str) -> float:
        for row in self.rows:
            if row[0] == display:
                return row[3] if backend == "bayes" else row[4]
        raise KeyError(display)


def run_table2(context: ExperimentContext) -> Table2Result:
    """Reproduce Table 2: per-type |TR| / |TE| and classifier F."""
    reports = {
        backend: classifier.evaluate(context.test_set)
        for backend, classifier in context.classifiers.items()
    }
    rows = []
    for spec in TYPE_SPECS:
        rows.append(
            (
                spec.display,
                context.corpus_stats.train_counts.get(spec.key, 0),
                context.corpus_stats.test_counts.get(spec.key, 0),
                reports["bayes"].f1_of(spec.key),
                reports["svm"].f1_of(spec.key),
            )
        )
    return Table2Result(rows=rows)


# ======================================================================== Table 1


@dataclass
class Table1Result:
    """P/R/F of the four methods across the twelve types (Table 1)."""

    methods: list[str]
    evaluations: dict[str, EvaluationResult]

    def render(self) -> str:
        headers = ["Type"]
        for method in self.methods:
            headers.extend([f"{method} P", f"{method} R", f"{method} F"])
        rows: list[list[object]] = []
        for category in CATEGORIES:
            specs = types_in_category(category)
            for spec in specs:
                row: list[object] = [spec.display]
                for method in self.methods:
                    scores = self.evaluations[method].per_type.get(spec.key)
                    if scores is None:
                        row.extend([None, None, None])
                    else:
                        row.extend([scores.precision, scores.recall, scores.f1])
                rows.append(row)
            average_row: list[object] = [f"AVERAGE ({_CATEGORY_TITLES[category]})"]
            keys = [spec.key for spec in specs]
            for method in self.methods:
                p, r, f = self.evaluations[method].average(keys)
                average_row.extend([p, r, f])
            rows.append(average_row)
        return format_table(headers, rows, title="Table 1: evaluation of the algorithm")

    def f_of(self, method: str, type_key: str) -> float:
        return self.evaluations[method].f1_of(type_key)


def run_table1(context: ExperimentContext) -> Table1Result:
    """Reproduce Table 1: SVM, Bayes, TIN and TIS on the 40-table corpus.

    Setting matches the paper: post-processing on, disambiguation off.
    """
    config = AnnotatorConfig()
    evaluations: dict[str, EvaluationResult] = {}
    for backend in ("svm", "bayes"):
        run = context.annotation_run(backend=backend, postprocess=True)
        evaluations[backend.upper()] = evaluate_annotations(
            run, context.gft.gold, ALL_TYPE_KEYS
        )
    tin = TypeInNameAnnotator(config)
    evaluations["TIN"] = evaluate_annotations(
        tin.annotate_tables(context.gft.tables, ALL_TYPE_KEYS),
        context.gft.gold,
        ALL_TYPE_KEYS,
    )
    tis = TypeInSnippetAnnotator(
        context.world.search_engine, config, cache=context.cache
    )
    evaluations["TIS"] = evaluate_annotations(
        tis.annotate_tables(context.gft.tables, ALL_TYPE_KEYS),
        context.gft.gold,
        ALL_TYPE_KEYS,
    )
    return Table1Result(methods=["SVM", "BAYES", "TIN", "TIS"], evaluations=evaluations)


# ======================================================================== Table 3


@dataclass
class Table3Result:
    """F-measure for the three pipeline settings (Table 3)."""

    rows: list[tuple[str, float, float, float | None]]

    def render(self) -> str:
        return format_table(
            ["Type", "SVM", "SVM+postproc", "SVM+postproc+disambig"],
            self.rows,
            title="Table 3: contribution of post-processing and disambiguation",
        )

    def f_of(self, display: str, setting: int) -> float | None:
        for row in self.rows:
            if row[0] == display:
                return row[setting]
        raise KeyError(display)


def run_table3(context: ExperimentContext) -> Table3Result:
    """Reproduce Table 3: SVM alone, +postprocessing, +disambiguation.

    Disambiguation is evaluated only on the spatial POI types (all POIs but
    Mines), exactly as in the paper -- other cells show a dash.
    """
    raw = evaluate_annotations(
        context.annotation_run(backend="svm", postprocess=False),
        context.gft.gold,
        ALL_TYPE_KEYS,
    )
    post = evaluate_annotations(
        context.annotation_run(backend="svm", postprocess=True),
        context.gft.gold,
        ALL_TYPE_KEYS,
    )
    disambig = evaluate_annotations(
        context.annotation_run(backend="svm", postprocess=True, disambiguate=True),
        context.gft.gold,
        ALL_TYPE_KEYS,
    )
    rows: list[tuple[str, float, float, float | None]] = []
    for spec in TYPE_SPECS:
        with_disambig = disambig.f1_of(spec.key) if spec.spatial else None
        rows.append(
            (spec.display, raw.f1_of(spec.key), post.f1_of(spec.key), with_disambig)
        )
    return Table3Result(rows=rows)


# ======================================================================== §6.3


@dataclass
class ComparisonResult:
    """Our algorithm versus the Limaye baseline on Wiki Manual (§6.3)."""

    ours_f: float
    limaye_f: float
    ours_eval: EvaluationResult
    limaye_eval: EvaluationResult
    catalogue_coverage: float

    def render(self) -> str:
        rows = [
            ["Ours (SVM + postproc)", self.ours_f],
            ["Limaye (catalogue-based)", self.limaye_f],
        ]
        table = format_table(
            ["Method", "F-measure"],
            rows,
            title="Section 6.3: comparison on the Wiki Manual corpus",
        )
        return (
            f"{table}\n"
            f"(catalogue covers {self.catalogue_coverage:.0%} of the corpus entities;"
            " the paper reports 0.84 vs 0.8382)"
        )


def run_comparison(context: ExperimentContext) -> ComparisonResult:
    """Reproduce the Section 6.3 comparison on the Wiki-Manual-style corpus."""
    ours_run = context.annotation_run(
        backend="svm", postprocess=True, corpus="wiki"
    )
    ours_eval = evaluate_annotations(ours_run, context.wiki.gold, ALL_TYPE_KEYS)
    limaye = LimayeAnnotator(context.world.catalogue)
    limaye_run = limaye.annotate_tables(context.wiki.tables, ALL_TYPE_KEYS)
    limaye_eval = evaluate_annotations(limaye_run, context.wiki.gold, ALL_TYPE_KEYS)
    names = [ref.cell_value for ref in context.wiki.gold.references]
    coverage = context.world.catalogue.coverage(names)
    return ComparisonResult(
        ours_f=ours_eval.micro_f1(),
        limaye_f=limaye_eval.micro_f1(),
        ours_eval=ours_eval,
        limaye_eval=limaye_eval,
        catalogue_coverage=coverage,
    )


# ======================================================================== §6.4


@dataclass
class EfficiencyResult:
    """Virtual seconds per row across table sizes (§6.4)."""

    rows: list[tuple[int, int, float, float]]  # rows, queries, virtual s, s/row
    with_disambiguation: list[tuple[int, int, float, float]]

    def render(self) -> str:
        base = format_table(
            ["Table rows", "Engine calls", "Virtual seconds", "Seconds/row"],
            self.rows,
            title="Section 6.4: per-row cost (annotation only)",
        )
        extra = format_table(
            ["Table rows", "Remote calls", "Virtual seconds", "Seconds/row"],
            self.with_disambiguation,
            title="Section 6.4: per-row cost (with spatial disambiguation)",
        )
        return f"{base}\n\n{extra}\n(the paper reports ~0.5 s per row)"

    def seconds_per_row(self, n_rows: int) -> float:
        for rows, _queries, _seconds, per_row in self.rows:
            if rows == n_rows:
                return per_row
        raise KeyError(n_rows)


def _efficiency_table(
    context: ExperimentContext, n_rows: int, start: int = 0
) -> Table:
    """A directory table with *n_rows* rows cycling over restaurant entities.

    *start* offsets the row numbering, producing a table with entirely new
    cell strings over the same entity directory -- the shape of "the next
    table arriving" in a stream.
    """
    import random

    rng = random.Random(context.world.config.seed + n_rows + start)
    entities = context.world.table_entities("restaurant")
    table = Table(
        name=f"efficiency-{n_rows}-{start}" if start else f"efficiency-{n_rows}",
        columns=[
            Column("Name", ColumnType.TEXT),
            Column("Address", ColumnType.LOCATION),
            Column("Phone", ColumnType.TEXT),
        ],
    )
    from repro.synth.table_corpus import _address_cell, _phone

    for i in range(start, start + n_rows):
        entity = entities[i % len(entities)]
        table.append_row(
            [
                f"{entity.table_name} #{i}",
                _address_cell(rng, entity.city),
                _phone(rng),
            ]
        )
    return table


def run_efficiency(
    context: ExperimentContext, sizes: tuple[int, ...] = (10, 50, 100, 250, 500)
) -> EfficiencyResult:
    """Reproduce the Section 6.4 efficiency study on growing tables.

    Uses the world's virtual clock: every search / geocoding request
    charges its configured latency, so "seconds" are simulated network
    seconds, the quantity the paper says dominates the running time.
    """
    clock = context.world.clock
    plain: list[tuple[int, int, float, float]] = []
    disambig: list[tuple[int, int, float, float]] = []
    for use_disambiguation, bucket in ((False, plain), (True, disambig)):
        for n_rows in sizes:
            table = _efficiency_table(context, n_rows)
            config = AnnotatorConfig(
                use_spatial_disambiguation=use_disambiguation
            )
            annotator = EntityAnnotator(
                context.classifiers["svm"],
                context.world.search_engine,
                config,
                geocoder=context.world.geocoder,
            )
            start_elapsed = clock.elapsed_seconds
            start_charges = clock.n_charges
            annotator.annotate_table(table, ALL_TYPE_KEYS)
            seconds = clock.elapsed_seconds - start_elapsed
            calls = clock.n_charges - start_charges
            bucket.append((n_rows, calls, seconds, seconds / n_rows))
    return EfficiencyResult(rows=plain, with_disambiguation=disambig)


# ======================================================================== X1


@dataclass
class CoverageResult:
    """Catalogue coverage of the table entities (the 22 % claim, §1)."""

    overall: float
    per_type: dict[str, float]

    def render(self) -> str:
        rows: list[list[object]] = [
            [spec.display, self.per_type.get(spec.key)] for spec in TYPE_SPECS
        ]
        rows.append(["OVERALL", self.overall])
        table = format_table(
            ["Type", "Coverage"],
            rows,
            title="Coverage of table entities in the open-data catalogue",
        )
        return f"{table}\n(the paper reports 22% across Yago/DBpedia/Freebase)"


def run_coverage(context: ExperimentContext) -> CoverageResult:
    """Measure how many table entities a pre-compiled catalogue knows."""
    catalogue = context.world.catalogue
    per_type = {}
    for spec in TYPE_SPECS:
        names = [e.table_name for e in context.world.table_entities(spec.key)]
        per_type[spec.key] = catalogue.coverage(names)
    overall = catalogue.coverage(context.world.all_table_entity_names())
    return CoverageResult(overall=overall, per_type=per_type)


# ======================================================================== Figure 6


@dataclass
class Figure6Result:
    """Category network excerpt and the pruning heuristic's effect."""

    root: str
    descendants: list[str]
    kept: list[str]
    dropped: list[str]
    n_positive_entities: int

    def render(self) -> str:
        lines = [f"Figure 6: category network rooted at {self.root!r}"]
        for name in self.descendants:
            marker = "+" if name in set(self.kept) else "x"
            lines.append(f"  [{marker}] {self.root} contains {name}")
        lines.append(
            f"kept {len(self.kept)}/{len(self.descendants)} subcategories, "
            f"{self.n_positive_entities} positive entities"
        )
        return "\n".join(lines)


def run_figure6(
    context: ExperimentContext, root: str = "Museums", type_word: str = "museum"
) -> Figure6Result:
    """Regenerate the Figure 6 artefact: the walk + heuristic under a root."""
    kb = context.world.kb
    descendants = kb.categories.descendants(root)
    kept = kb.categories.filter_by_type_name(descendants, type_word)
    dropped = [name for name in descendants if name not in set(kept)]
    entities = kb.positive_entities(root, type_word)
    return Figure6Result(
        root=root,
        descendants=descendants,
        kept=kept,
        dropped=dropped,
        n_positive_entities=len(entities),
    )


# ======================================================================== Figure 7


@dataclass
class Figure7Result:
    """Chosen interpretations and scores for the paper's Figure 7 example."""

    chosen: dict[tuple[int, int], str]
    scores: dict[tuple[int, int], dict[str, float]]
    iterations: int

    def render(self) -> str:
        lines = [
            "Figure 7: toponym disambiguation on the paper's example "
            f"(converged in {self.iterations} iterations)"
        ]
        for cell in sorted(self.chosen):
            lines.append(f"  T{cell} -> {self.chosen[cell]}")
            for name, score in sorted(
                self.scores[cell].items(), key=lambda item: -item[1]
            ):
                lines.append(f"      {score:.3f}  {name}")
        return "\n".join(lines)


FIGURE7_CELLS: dict[tuple[int, int], str] = {
    (12, 1): "1600 Pennsylvania Ave",
    (12, 2): "Washington",
    (13, 1): "Wofford Ln",
    (13, 2): "College Park",
    (20, 1): "Clarksville St",
    (20, 2): "Paris",
}


def run_figure7(context: ExperimentContext) -> Figure7Result:
    """Regenerate Figure 7: resolve the paper's six ambiguous cells."""
    from repro.core.disambiguation import ToponymDisambiguator

    geocoder = context.world.geocoder
    interpretations = {
        cell: geocoder.geocode(text) for cell, text in FIGURE7_CELLS.items()
    }
    outcome = ToponymDisambiguator().resolve(interpretations)
    chosen = {
        cell: location.full_name for cell, location in outcome.chosen.items()
    }
    return Figure7Result(
        chosen=chosen, scores=outcome.scores, iterations=outcome.iterations
    )

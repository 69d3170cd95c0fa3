"""Snippet clustering: the paper's proposed general ambiguity solution.

Section 5.2: "A more general solution to the ambiguity problem would be
clustering the results returned by the search engine and classify
separately the snippets that belong to the different clusters.  We do not
explore this point in this paper, which we leave for future work."

This module explores it.  Top-k snippets are clustered by cosine
similarity over the standard feature pipeline (greedy agglomerative
clustering with a similarity threshold -- no cluster count to guess), each
cluster is classified separately, and the cell is annotated from the best
*cluster* instead of the global snippet majority: an ambiguous name whose
results split 5/5 between a restaurant sense and a jazz-label sense still
yields a confident restaurant cluster.

The majority rule becomes: the winning cluster must be internally
unanimous enough (``cluster_majority``) and large enough
(``min_cluster_fraction``) to trust.  Scores remain comparable to Eq. 1:
``S = votes_in_cluster / k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.classify.snippet import SnippetTypeClassifier
from repro.core.config import AnnotatorConfig
from repro.text.pipeline import TextPipeline
from repro.web.search import SearchEngine


def cosine_similarity(a: dict[str, float], b: dict[str, float]) -> float:
    """Cosine similarity of two sparse feature dicts.

    >>> cosine_similarity({"x": 1.0}, {"x": 2.0})
    1.0
    >>> cosine_similarity({"x": 1.0}, {"y": 1.0})
    0.0
    """
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(value * b.get(token, 0.0) for token, value in a.items())
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def cluster_snippets(
    snippets: list[str],
    threshold: float = 0.25,
    pipeline: TextPipeline | None = None,
    exclude_tokens: set[str] | None = None,
) -> list[list[int]]:
    """Greedy agglomerative clustering of snippets by cosine similarity.

    Each snippet joins the existing cluster whose *centroid* is most
    similar, provided the similarity exceeds *threshold*; otherwise it
    founds a new cluster.  Returns clusters as lists of snippet indices,
    ordered by decreasing size (ties: first-founded first).

    *exclude_tokens* (already stemmed) are removed from the feature space
    before comparing.  The caller passes the query's own tokens: every
    snippet for "John Marsh" contains "john marsh", and that shared mass
    would otherwise glue the two senses of the name into one cluster.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    pipeline = pipeline or TextPipeline()
    features = [pipeline.features(snippet) for snippet in snippets]
    if exclude_tokens:
        features = [
            {t: v for t, v in vector.items() if t not in exclude_tokens}
            for vector in features
        ]
    clusters: list[list[int]] = []
    centroids: list[dict[str, float]] = []
    for index, vector in enumerate(features):
        best_cluster = None
        best_similarity = threshold
        for c, centroid in enumerate(centroids):
            similarity = cosine_similarity(vector, centroid)
            if similarity > best_similarity:
                best_similarity = similarity
                best_cluster = c
        if best_cluster is None:
            clusters.append([index])
            centroids.append(dict(vector))
        else:
            members = clusters[best_cluster]
            members.append(index)
            centroid = centroids[best_cluster]
            n = len(members)
            for token in set(centroid) | set(vector):
                centroid[token] = (
                    centroid.get(token, 0.0) * (n - 1) + vector.get(token, 0.0)
                ) / n
    order = sorted(range(len(clusters)), key=lambda c: (-len(clusters[c]), c))
    return [clusters[c] for c in order]


@dataclass(frozen=True)
class ClusteredDecision:
    """Outcome of cluster-aware cell annotation."""

    type_key: str | None
    score: float
    clusters: list[list[int]] = field(default_factory=list)
    cluster_types: list[str | None] = field(default_factory=list)
    query: str = ""
    failed: bool = False

    @property
    def annotated(self) -> bool:
        return self.type_key is not None


class ClusteredCellAnnotator:
    """Cluster-then-classify cell annotation (the future-work variant)."""

    def __init__(
        self,
        classifier: SnippetTypeClassifier,
        engine: SearchEngine,
        config: AnnotatorConfig | None = None,
        similarity_threshold: float = 0.15,
        cluster_majority: float = 0.6,
        min_cluster_fraction: float = 0.2,
    ) -> None:
        if not 0.0 < cluster_majority <= 1.0:
            raise ValueError(
                f"cluster_majority must be in (0, 1], got {cluster_majority}"
            )
        if not 0.0 < min_cluster_fraction <= 1.0:
            raise ValueError(
                "min_cluster_fraction must be in (0, 1], got "
                f"{min_cluster_fraction}"
            )
        self.classifier = classifier
        self.engine = engine
        self.config = config or AnnotatorConfig()
        self.similarity_threshold = similarity_threshold
        self.cluster_majority = cluster_majority
        self.min_cluster_fraction = min_cluster_fraction

    def annotate_value(self, value: str, type_keys: list[str]) -> ClusteredDecision:
        """Annotate *value* from its best snippet cluster."""
        return self.annotate_values([value], type_keys)[0]

    def annotate_values(
        self, values: Sequence[str], type_keys: list[str]
    ) -> list[ClusteredDecision]:
        """Annotate each of *values* from its best snippet cluster, with
        one :meth:`~repro.web.search.SearchEngine.search_many` and one
        ``classify_many`` for the whole batch (a duplicate value is
        searched once, see ``search_many``)."""
        if not type_keys:
            raise ValueError("type_keys must be non-empty")
        batch = self.engine.search_many(values, k=self.config.top_k)
        snippets = [[result.snippet for result in results or ()] for results in batch]
        labels = self.classifier.classify_many(
            [snippet for value_snippets in snippets for snippet in value_snippets]
        )
        decisions = []
        at = 0
        for value, results, value_snippets in zip(values, batch, snippets):
            if results is None:
                decisions.append(
                    ClusteredDecision(
                        type_key=None, score=0.0, query=value, failed=True
                    )
                )
                continue
            value_labels = labels[at : at + len(value_snippets)]
            at += len(value_snippets)
            decisions.append(
                self._decide(value, value_snippets, value_labels, type_keys)
            )
        return decisions

    def _decide(
        self,
        value: str,
        snippets: list[str],
        labels: list[str],
        type_keys: list[str],
    ) -> ClusteredDecision:
        """*value*'s decision from its *snippets* and their *labels*."""
        k = self.config.top_k
        if not snippets:
            return ClusteredDecision(type_key=None, score=0.0, query=value)
        pipeline = TextPipeline()
        query_tokens = set(pipeline.tokens(value))
        clusters = cluster_snippets(
            snippets,
            threshold=self.similarity_threshold,
            pipeline=pipeline,
            exclude_tokens=query_tokens,
        )
        cluster_types: list[str | None] = []
        best: tuple[str, int] | None = None  # (type, votes)
        for members in clusters:
            votes: dict[str, int] = {}
            for index in members:
                votes[labels[index]] = votes.get(labels[index], 0) + 1
            winner, count = max(
                sorted(votes.items()), key=lambda item: item[1]
            )
            is_target = winner in type_keys
            unanimous_enough = count >= self.cluster_majority * len(members)
            big_enough = len(members) >= self.min_cluster_fraction * k
            if is_target and unanimous_enough and big_enough:
                cluster_types.append(winner)
                if best is None or count > best[1]:
                    best = (winner, count)
            else:
                cluster_types.append(None)
        if best is None:
            return ClusteredDecision(
                type_key=None, score=0.0, clusters=clusters,
                cluster_types=cluster_types, query=value,
            )
        return ClusteredDecision(
            type_key=best[0],
            score=best[1] / k,
            clusters=clusters,
            cluster_types=cluster_types,
            query=value,
        )

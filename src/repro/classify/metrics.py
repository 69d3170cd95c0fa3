"""Evaluation metrics: precision, recall, F-measure (Section 6.2).

The paper evaluates every method with::

    P = |C_t| / |A_t|      R = |C_t| / |T_t|      F = 2 P R / (P + R)

where ``C_t`` are correctly annotated entities of type ``t``, ``A_t`` the
entities the method annotated with ``t``, and ``T_t`` all gold entities of
type ``t``.  The same definitions (over snippets instead of cells) score the
classifiers of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


def precision_recall_f1(
    n_correct: int, n_predicted: int, n_gold: int
) -> tuple[float, float, float]:
    """Compute (P, R, F) from raw counts; empty denominators yield 0.0.

    >>> precision_recall_f1(8, 10, 16)
    (0.8, 0.5, 0.6153846153846154)
    """
    precision = n_correct / n_predicted if n_predicted else 0.0
    recall = n_correct / n_gold if n_gold else 0.0
    f = f_measure(precision, recall)
    return precision, recall, f


def f_measure(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0.0 when both are 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def accuracy(y_true: Sequence[str], y_pred: Sequence[str]) -> float:
    """Fraction of exact label matches."""
    if len(y_true) != len(y_pred):
        raise ValueError("y_true and y_pred must have equal length")
    if not y_true:
        return 0.0
    hits = sum(1 for t, p in zip(y_true, y_pred) if t == p)
    return hits / len(y_true)


def confusion_matrix(
    y_true: Sequence[str], y_pred: Sequence[str], labels: Sequence[str]
) -> np.ndarray:
    """``(len(labels), len(labels))`` matrix; rows = gold, cols = predicted."""
    index = {label: i for i, label in enumerate(labels)}
    matrix = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        if t in index and p in index:
            matrix[index[t], index[p]] += 1
    return matrix


@dataclass(frozen=True)
class ClassScores:
    """P/R/F triple for one class."""

    precision: float
    recall: float
    f1: float


@dataclass
class ClassificationReport:
    """Per-class and macro-averaged scores for a multi-class prediction."""

    per_class: dict[str, ClassScores]

    @classmethod
    def from_predictions(
        cls,
        y_true: Sequence[str],
        y_pred: Sequence[str],
        labels: Sequence[str] | None = None,
    ) -> "ClassificationReport":
        """Build a report, one :class:`ClassScores` per label of interest."""
        if labels is None:
            labels = sorted(set(y_true))
        per_class = {}
        for label in labels:
            n_correct = sum(
                1 for t, p in zip(y_true, y_pred) if t == label and p == label
            )
            n_predicted = sum(1 for p in y_pred if p == label)
            n_gold = sum(1 for t in y_true if t == label)
            p, r, f = precision_recall_f1(n_correct, n_predicted, n_gold)
            per_class[label] = ClassScores(p, r, f)
        return cls(per_class=per_class)

    def macro_f1(self) -> float:
        """Unweighted mean of per-class F-measures."""
        if not self.per_class:
            return 0.0
        return sum(s.f1 for s in self.per_class.values()) / len(self.per_class)

    def f1_of(self, label: str) -> float:
        """F-measure of a single class (0.0 for unknown labels)."""
        scores = self.per_class.get(label)
        return scores.f1 if scores else 0.0


def macro_average(reports: Mapping[str, tuple[float, float, float]]) -> tuple[float, float, float]:
    """Average (P, R, F) triples, as the AVERAGE rows of Table 1 do."""
    if not reports:
        return 0.0, 0.0, 0.0
    n = len(reports)
    p = sum(v[0] for v in reports.values()) / n
    r = sum(v[1] for v in reports.values()) / n
    f = sum(v[2] for v in reports.values()) / n
    return p, r, f

"""Configuration of the annotation pipeline."""

from __future__ import annotations

from dataclasses import dataclass

INDEX_BACKENDS = ("memory", "mmap")
"""Where the frozen index's arrays live (see :mod:`repro.web.index`):
``"memory"`` keeps the :class:`~repro.web.index.FrozenIndex` the engine
froze on its own heap, ``"mmap"`` maps the same layout from an artifact
file that all workers and daemons on a host share zero-copy through the
OS page cache.  The query code is the same for both.  Single source of
truth for the CLI (``--index-backend``, ``index build``)."""


@dataclass(frozen=True)
class AnnotatorConfig:
    """All knobs of :class:`~repro.core.annotator.EntityAnnotator`.

    Defaults follow the paper: top-10 snippets, strict-majority rule
    (``s_t > k/2``), post-processing on, spatial disambiguation off (the
    paper enables it only for point-of-interest types with spatial data).
    """

    top_k: int = 10
    majority_fraction: float = 0.5
    long_value_token_limit: int = 10
    use_gft_column_types: bool = True
    use_postprocessing: bool = True
    use_spatial_disambiguation: bool = False
    use_repetition_factor: bool = True
    seed: int = 13

    retries: int = 0
    """Extra search attempts after a dropped request, per query.  0
    (default) keeps the seed behaviour: one attempt, a drop loses the
    cell.  With retries > 0 the annotator re-issues failed queries with
    exponential backoff (charged to the virtual clock, deterministic
    jitter), marks cells that exhaust their attempts *degraded*, and
    ``annotate_tables`` runs one end-of-corpus repair pass over the
    degraded cells (see :mod:`repro.resilience`)."""

    retry_backoff_ms: float = 200.0
    """Base backoff before the first retry, in virtual milliseconds;
    doubles per subsequent retry.  Backoff advances the virtual clock via
    :meth:`~repro.clock.VirtualClock.wait`, so it shows up in virtual
    seconds but not in the remote-call count."""

    breaker_threshold: int = 0
    """Consecutive search failures that open the circuit breaker; 0
    (default) disables the breaker.  While open, requests fail fast
    without charging the clock; after ``breaker_cooldown_seconds`` of
    virtual time a half-open probe is admitted."""

    breaker_cooldown_seconds: float = 30.0
    """Virtual seconds an open breaker waits before probing."""

    task_retries: int = 2
    """How many times a parallel chunk task whose worker *died* is
    requeued onto a fresh worker before the task is quarantined and its
    tables marked degraded (see :mod:`repro.core.parallel`, which sizes
    the tasks from the corpus and the worker count alone)."""

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if not 0.0 <= self.majority_fraction < 1.0:
            raise ValueError(
                f"majority_fraction must be in [0, 1), got {self.majority_fraction}"
            )
        if self.long_value_token_limit < 1:
            raise ValueError(
                "long_value_token_limit must be >= 1, got "
                f"{self.long_value_token_limit}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.retry_backoff_ms < 0:
            raise ValueError(
                f"retry_backoff_ms must be >= 0, got {self.retry_backoff_ms}"
            )
        if self.breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown_seconds < 0:
            raise ValueError(
                "breaker_cooldown_seconds must be >= 0, got "
                f"{self.breaker_cooldown_seconds}"
            )
        if self.task_retries < 0:
            raise ValueError(
                f"task_retries must be >= 0, got {self.task_retries}"
            )

    @property
    def majority_count(self) -> float:
        """The snippet count that must be strictly exceeded (``k/2``)."""
        return self.top_k * self.majority_fraction

"""Where a frozen index's arrays live: RAM or a shared mapping.

There is one index class, :class:`repro.web.index.FrozenIndex`, and one
layout; the two storage backends differ only in where its sections live:

* ``memory`` -- the arrays :meth:`~repro.web.index.IndexBuilder.freeze`
  produced, on this process's heap.  This is what a
  :class:`~repro.web.search.SearchEngine` serves from by default.

* ``mmap`` -- plain ``np.ndarray`` views over a read-only mapping of an
  artifact file (:meth:`~repro.web.index.FrozenIndex.save` writes it,
  :meth:`~repro.web.index.FrozenIndex.open` maps it).  N processes on
  one host then share exactly one physical copy of the postings through
  the OS page cache, nothing is pickled per worker (a mapped index
  pickles as its path, so a ``spawn`` worker re-opens the mapping and a
  ``fork`` worker inherits it), and attach is near-instant.

:func:`ensure_index_artifact` moves an index from the first to the
second, writing the artifact only when no fresh one exists.
"""

from __future__ import annotations

from pathlib import Path

from repro.observability.log import get_logger
from repro.observability.tracing import span
from repro.persistence import ArtifactError
from repro.web.index import FrozenIndex

logger = get_logger(__name__)


def ensure_index_artifact(
    index: FrozenIndex,
    path,
    lock_timeout: float | None = None,
) -> FrozenIndex:
    """*index* mapped from an artifact at *path*, written there if needed.

    An existing artifact is reused untouched iff its fingerprint digest
    and title boost match *index* exactly (same pages, same content,
    same boost); anything else -- missing, corrupt, stale, other corpus
    -- is replaced through the atomic, advisory-locked write path.
    """
    path = Path(path)
    if path.exists():
        try:
            frozen = FrozenIndex.open(path, lock_timeout=lock_timeout)
        except ArtifactError as error:
            logger.warning(
                "index.artifact_unusable",
                path=str(path),
                error=str(error),
                outcome="rebuilding",
            )
        else:
            if (
                frozen.fingerprint_digest() == index.fingerprint_digest()
                and frozen.title_boost == index.title_boost
            ):
                return frozen
            logger.info(
                "index.artifact_stale",
                path=str(path),
                outcome="rebuilding",
            )
    with span("index.build", path=str(path), n_documents=index.n_documents):
        index.save(path, lock_timeout=lock_timeout)
    return FrozenIndex.open(path, lock_timeout=lock_timeout)

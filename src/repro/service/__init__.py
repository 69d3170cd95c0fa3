"""Resident annotation service: a long-lived daemon over the warm engine.

The batch reproduction pays its cold start (world context, classifier,
ranking/snippet caches) once per *process*; this package keeps one warm
:class:`~repro.core.annotator.EntityAnnotator` resident behind a local
socket so it is paid once per *deployment*.  A lone request is answered
at once; requests that queue while a pass runs are pooled into the next
corpus pass (:meth:`~repro.core.annotator.EntityAnnotator.annotate_batch`),
so under load independent clients share the search/classify/vote
economics of corpus-at-a-time annotation.

* :mod:`repro.service.protocol` -- the versioned line-delimited JSON wire
  schema (requests, responses, table and annotation payloads);
* :mod:`repro.service.daemon` -- the server: request queue, batcher,
  per-request demux, periodic + shutdown cache flush;
* :mod:`repro.service.client` -- the blocking client
  (``annotate_table`` / ``annotate_cells`` / ``ping`` / ``stats`` /
  ``shutdown``).

CLI: ``python -m repro.cli serve --socket /tmp/repro.sock --small`` starts
a daemon; ``python -m repro.cli client ping --socket /tmp/repro.sock``
talks to it.  See the "Resident service" section of
``docs/architecture.md`` for the lifecycle.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import (
    AnnotationDaemon,
    AnnotationService,
    ServiceConfig,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    Response,
)

__all__ = [
    "AnnotationDaemon",
    "AnnotationService",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "Response",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
]

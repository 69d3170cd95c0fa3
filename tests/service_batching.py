"""Deterministic batches for the service tests.

The batcher takes whatever is queued the moment it is free, so requests
share a batch only when they queue while it is busy.
:func:`run_as_one_batch` arranges that without sleeps or wall-clock
thresholds: it holds the service's annotator lock while a first request's
pass is blocked on it, queues the others, then releases the lock.
"""

from __future__ import annotations

import queue
import threading

LIVENESS_SECONDS = 120.0
"""How long a step may take before the helper fails instead of hanging
(a backstop against a wedged batcher, not a timing assertion)."""


class WatchedQueue(queue.Queue):
    """A request queue that signals each put and each batch it closes."""

    def __init__(self) -> None:
        super().__init__()
        self.puts = threading.Semaphore(0)
        self.drained = threading.Event()
        """Set when a non-blocking take found the queue empty: the batch
        being assembled is closed."""

    def put(self, item, block=True, timeout=None):
        super().put(item, block, timeout)
        self.puts.release()

    def get(self, block=True, timeout=None):
        try:
            return super().get(block, timeout)
        except queue.Empty:
            if not block:
                self.drained.set()
            raise

    def wait_for_puts(self, count: int) -> None:
        for _ in range(count):
            assert self.puts.acquire(timeout=LIVENESS_SECONDS), "request never queued"


def run_as_one_batch(service, first, rest) -> list:
    """Run the zero-argument callables *first*, then *rest*, each on its
    own thread, each submitting one annotation request to *service*; the
    requests of *rest* form one batch (up to ``max_batch_tables``).

    *first* runs alone: its batch closes while the annotator lock is held
    here, so its pass blocks until every request of *rest* has queued.
    Returns the callables' results, *first*'s first; an exception in any
    of them is re-raised here.
    """
    assert service.config.max_batch_tables >= 2, "the first batch must drain"
    watched = WatchedQueue()
    service._queue = watched
    results: list = [None] * (1 + len(rest))
    errors: list[Exception] = []

    def call(index, function):
        try:
            results[index] = function()
        except Exception as error:  # re-raised on the test thread
            errors.append(error)

    threads = [
        threading.Thread(target=call, args=(index, function))
        for index, function in enumerate([first, *rest])
    ]
    with service._annotator_lock:
        threads[0].start()
        watched.wait_for_puts(1)
        assert watched.drained.wait(LIVENESS_SECONDS), "first batch never closed"
        for thread in threads[1:]:
            thread.start()
        watched.wait_for_puts(len(rest))
    for thread in threads:
        thread.join(LIVENESS_SECONDS)
        assert not thread.is_alive(), "request never answered"
    if errors:
        raise errors[0]
    return results

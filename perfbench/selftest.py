"""Tests of the benchmark's own arithmetic (no world is built).

    python3 -m pytest perfbench/selftest.py -q     # or: python3 perfbench/selftest.py

The file name keeps it out of the repository's default ``pytest`` run.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import (  # noqa: E402
    StepResult,
    percentile,
    poisson_schedule,
    self_time,
)
from spans import SpanRecorder  # noqa: E402


def _raises(call, error=ValueError) -> bool:
    try:
        call()
    except error:
        return True
    return False


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))  # 1..200
    assert percentile(values, 0.50) == 100
    assert percentile(values, 0.95) == 190  # 10 values (191..200) beyond it


def test_percentile_refuses_a_thin_tail():
    assert _raises(lambda: percentile(range(199), 0.95))
    assert _raises(lambda: percentile(range(19), 0.50))
    assert percentile(range(20), 0.50) == 9


def test_failures_sort_past_every_latency():
    values = [0.01] * 190 + [math.inf] * 10
    assert percentile(values, 0.95) == 0.01
    values = [0.01] * 189 + [math.inf] * 11
    assert math.isinf(percentile(values, 0.95))


def test_self_time_subtracts_covered_parts_once():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # Overlapping children are a union, not a sum.
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == 5.0
    # Children sticking out of the parent are clipped to it.
    assert self_time(2.0, 4.0, [(0.0, 3.0), (3.5, 9.0)]) == 0.5


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_recorder_self_times_account_for_the_root():
    clock = _Clock()
    recorder = SpanRecorder(clock=clock)

    class Layer:
        def leaf(self, cost):
            clock.now += cost
            return cost

        def middle(self):
            clock.now += 1.0
            self.leaf(2.0)
            clock.now += 0.5
            return self.leaf(3.0)

        def root(self):
            clock.now += 0.25
            return self.middle()

    layer = Layer()
    recorder.wrap(layer, "root", "root")
    recorder.wrap(layer, "middle", "middle")
    recorder.wrap(layer, "leaf", "leaf", count=lambda cost: cost)
    assert layer.root() == 3.0
    self_s = recorder.self_times()
    assert self_s == {"root": 0.25, "middle": 1.5, "leaf": 5.0}
    assert sum(self_s.values()) == recorder.busy("root") == 6.75
    assert recorder.counts["leaf"] == 5.0
    recorder.unwrap_all()
    layer.root()
    assert len(recorder.spans) == 4  # unwrapped calls record nothing


def test_unwrap_restores_module_functions_and_instance_methods():
    import types

    module = types.ModuleType("layer")
    module.run = lambda: "module"

    class Engine:
        def search(self):
            return "class"

    engine = Engine()
    recorder = SpanRecorder()
    recorder.wrap(module, "run", "run")
    recorder.wrap(engine, "search", "search")
    assert module.run() == "module" and engine.search() == "class"
    recorder.unwrap_all()
    assert module.run() == "module" and engine.search() == "class"
    assert "search" not in vars(engine)
    assert len(recorder.spans) == 2


def test_step_throughput_counts_answered_requests_over_its_span():
    step = StepResult(
        1000.0, (0.02, math.inf, 0.03, 0.04), (0.0, 0.0, 0.01, 0.02), 2.0
    )
    assert step.attempted == 4 and step.failed == 1
    # Cells of the three answered requests (10 + 30 + 40) over 2 s.
    assert step.answered_per_s([10, 20, 30, 40]) == 40.0


def test_poisson_schedule_is_seeded_and_at_rate():
    a = poisson_schedule(40.0, 4000, random.Random(7))
    assert a == poisson_schedule(40.0, 4000, random.Random(7))
    assert a != poisson_schedule(40.0, 4000, random.Random(8))
    assert all(x < y for x, y in zip(a, a[1:]))
    assert abs(len(a) / a[-1] - 40.0) < 0.5


def test_poisson_gaps_cover_every_slice_of_the_exponential():
    offsets = poisson_schedule(10.0, 100, random.Random(3))
    gaps = sorted(b - a for a, b in zip([0.0] + offsets, offsets))
    for slot, gap in enumerate(gaps):
        low = -math.log(1.0 - slot / 100) / 10.0
        high = -math.log(1.0 - (slot + 1) / 100) / 10.0 if slot < 99 else math.inf
        assert low <= gap <= high


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} passed")

"""Seeded request streams and the open-loop sender that offers them.

A request is one fresh ~12-row directory table (Name, Address, Phone)
whose names are table entities of one type from the synthetic world;
each Name cell is a gold reference of that type.  The stream and its
Poisson arrival schedule are pure functions of the seed.
"""

from __future__ import annotations

import math
import random
import sys
import threading
import time

from measure import StepResult, poisson_schedule
from repro.eval.gold import GoldEntityReference, GoldStandard
from repro.tables.model import Column, ColumnType, Table

_STREETS = (
    "Main Street", "Church Street", "Oak Avenue", "Park Avenue",
    "River Road", "Station Road", "Market Square", "Cedar Lane",
)


def _directory(name: str, entities, rng: random.Random, gold=None) -> Table:
    """One Name/Address/Phone table listing *entities*; with *gold*, each
    Name cell is recorded there as a reference of its entity's type."""
    table = Table(
        name=name,
        columns=[
            Column("Name", ColumnType.TEXT),
            Column("Address", ColumnType.LOCATION),
            Column("Phone", ColumnType.TEXT),
        ],
    )
    for entity in entities:
        city = f", {entity.city.name}" if entity.city is not None else ""
        table.append_row(
            [
                entity.table_name,
                f"{rng.randint(1, 980)} {rng.choice(_STREETS)}{city}",
                f"({rng.randint(200, 989)}) {rng.randint(100, 999)}-"
                f"{rng.randint(0, 9999):04d}",
            ]
        )
        if gold is not None:
            gold.add(
                GoldEntityReference(
                    table_name=name,
                    row=table.n_rows - 1,
                    column=0,
                    type_key=entity.type_key,
                    cell_value=entity.table_name,
                )
            )
    return table


def directory_tables(world, type_keys, count: int, seed: int, prefix: str):
    """``(tables, gold)``: *count* fresh directory tables over *world*'s
    table entities, each listing 10-14 distinct entities of one seeded
    type, and the gold standard of their Name cells."""
    rng = random.Random(f"{prefix}:{seed}")
    pools = {
        key: world.table_entities(key)
        for key in type_keys
        if len(world.table_entities(key)) >= 14
    }
    keys = sorted(pools)
    tables, gold = [], GoldStandard()
    for index in range(count):
        type_key = rng.choice(keys)
        entities = rng.sample(pools[type_key], rng.randint(10, 14))
        tables.append(_directory(f"{prefix}-{seed}-{index}", entities, rng, gold))
    return tables, gold


def full_directories(world, type_keys, seed: int) -> list[Table]:
    """One table per type listing every table entity of that type.

    Sent untimed before a request phase, they warm the answering engine
    on every name the stream can draw, so the timed steps measure the
    serving path rather than a cold search whose share would depend on
    the seed.
    """
    rng = random.Random(f"warmup:{seed}")
    return [
        _directory(f"warmup-{key}", world.table_entities(key), rng)
        for key in type_keys
    ]


def run_step(rate, tables, senders, seed: int) -> tuple[StepResult, list]:
    """Offer *tables* at *rate*/s on a seeded Poisson schedule (open loop).

    Each callable in *senders* is one connection (or one in-process
    server) and runs on its own thread; a thread takes the next request,
    sleeps until it is due, sends it and waits for the answer.  Latency
    is timed from the due time, so a request that waited for a free
    connection carries that wait.  Returns the step and, per request, the
    answer (``None`` when the sender raised).  Offered far above what the
    senders can answer, the step runs closed-loop: each connection sends
    its next request as soon as its previous answer arrives.
    """
    offsets = poisson_schedule(rate, len(tables), random.Random(f"{rate}:{seed}"))
    latencies = [math.inf] * len(tables)
    lateness = [0.0] * len(tables)
    answers: list = [None] * len(tables)
    lock = threading.Lock()
    cursor = iter(range(len(tables)))
    start = time.perf_counter() + 0.05

    def connection(send) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + offsets[index]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                answers[index] = send(tables[index])
            except Exception as error:  # counted as failed: latency stays inf
                print(f"request {index} failed: {error!r}", file=sys.stderr)
                continue
            finally:
                lateness[index] = sent - due
            latencies[index] = time.perf_counter() - due

    threads = [
        threading.Thread(target=connection, args=(send,), daemon=True)
        for send in senders
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
        if thread.is_alive():
            raise RuntimeError("open-loop connection thread did not finish")
    span = time.perf_counter() - start
    return StepResult(rate, tuple(latencies), tuple(lateness), span), answers

"""The six workloads: how each input is generated and what the timed call is.

Imported only inside a child process, after ``src/`` is on ``sys.path``.
A workload is prepared (that is ``setup_s``), run once (``run_s``) and
then asked what it produced; the program only ever sees the generated
entities, never the seed.
"""

from __future__ import annotations

import os
import traceback
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import ExperimentRun, ResolverService, RunSpec, books_config, citeseer_config
from repro.core.config import linkage_config, skewed_config
from repro.data import Dataset, Entity, make_books, make_citeseer, make_linkage, make_skewed
from repro.evaluation.metrics import RecallCurve, recall_curve
from repro.mapreduce.types import Event

Pair = Tuple[int, int]


def process_workers() -> int:
    """Workers of ``books_process``: two, or what the host can show."""
    return min(2, len(os.sched_getaffinity(0)))


class OneShot:
    """One ``ExperimentRun(spec).run()`` over the whole dataset."""

    ops_attempted = 1
    #: Per-operation latencies; a one-shot run has only ``run_s``.
    latencies: Optional[List[float]] = None

    def __init__(self, dataset: Dataset, config, **spec_options) -> None:
        self.dataset = dataset
        self.spec = RunSpec(dataset, config, machines=5, **spec_options)
        self.result = None
        self.errors: List[str] = []

    def run(self) -> None:
        try:
            self.result = ExperimentRun(self.spec).run()
        except Exception:  # a failed operation is counted, not dropped
            self.errors.append(traceback.format_exc())

    @property
    def ops_failed(self) -> int:
        return len(self.errors)

    @property
    def produced(self) -> bool:
        """Whether there is an outcome to check (the run did not raise)."""
        return self.result is not None

    def found_pairs(self) -> Sequence[Pair]:
        return sorted(self.result.found_pairs)

    def curve(self) -> RecallCurve:
        return self.result.curve

    def makespan(self) -> float:
        return self.result.total_time


class Stream:
    """One warm ``submit`` then ``batches`` small ones through a
    :class:`ResolverService`; every ``submit`` is one operation."""

    #: A failed submit leaves the service standing, so there is always an
    #: outcome to check.
    produced = True

    def __init__(self, dataset: Dataset, config, *, warm: int, batch: int) -> None:
        self.dataset = dataset
        self.service = ResolverService(config, machines=3)
        entities = dataset.entities
        self.chunks = [entities[:warm]] + [
            entities[start : start + batch]
            for start in range(warm, len(entities), batch)
        ]
        self.latencies: List[float] = []
        self.errors: List[str] = []

    @property
    def ops_attempted(self) -> int:
        return len(self.chunks)

    @property
    def ops_failed(self) -> int:
        return len(self.errors)

    def run(self) -> None:
        submit = self.service.submit
        for chunk in self.chunks:
            start = perf_counter()
            try:
                submit(chunk)
            except Exception:  # a failed operation is counted, not dropped
                self.errors.append(traceback.format_exc())
            self.latencies.append(perf_counter() - start)

    def found_pairs(self) -> Sequence[Pair]:
        return sorted(self.service.found_pairs)

    def curve(self) -> RecallCurve:
        events = [
            Event(time=e.time, kind="duplicate", payload=e.pair)
            for e in self.service.pairs()
        ]
        return recall_curve(events, self.dataset, end_time=self.service.clock)

    def makespan(self) -> float:
        return self.service.clock


#: A re-seeded input replaces one canonical entity in this many.
FRESH_STRIDE = 16


def generate(make: Callable[..., Dataset], n: int, default_seed: int, seed: int,
             **options) -> Dataset:
    """The workload's input for ``--seed seed``.

    Seed 0 is the canonical input, ``make(n, seed=default_seed)``.  Any
    other seed replaces every ``FRESH_STRIDE``-th entity of it, in place,
    with one drawn from generator seed ``default_seed + seed`` (duplicates
    among the fresh ones included), so every seed is a different input of
    the same size and order — but a sixteenth apart from the canonical one,
    not independent of it.  The pipeline reacts to its input chaotically:
    independent inputs of this size differ by 6-19 % in the very metrics
    being bounded, and even this much moves ``virt_t50_vu`` by several
    percent (README, "Bounds"); anything more would drown the changes the
    benchmark is meant to show.
    """
    canonical = make(n, seed=default_seed, **options)
    if seed == 0:
        return canonical
    fresh = make(n // FRESH_STRIDE, seed=default_seed + seed, **options)
    entities = list(canonical.entities)
    clusters = dict(canonical.clusters)
    first_fresh_cluster = max(clusters.values()) + 1
    for newcomer, slot in zip(fresh.entities, range(FRESH_STRIDE - 1, n, FRESH_STRIDE)):
        replaced = entities[slot].id
        entities[slot] = Entity(replaced, newcomer.attrs, newcomer.source)
        clusters[replaced] = first_fresh_cluster + fresh.clusters[newcomer.id]
    return Dataset(entities=entities, clusters=clusters, name=canonical.name)


def _books(n: int, seed: int, **spec_options) -> OneShot:
    return OneShot(
        generate(make_books, n, 11, seed), books_config(), balance="slack", **spec_options
    )


def _stream(n: int, seed: int, *, warm: int, batches: int) -> Stream:
    return Stream(
        generate(make_books, n, 11, seed),
        books_config(),
        warm=warm,
        batch=max(1, (n - warm) // batches),
    )


#: name -> (full size, builder(size, seed)); sizes are divided by ``--scale``.
#: The default generator seeds (books 11, citeseer 7, skewed 5, linkage 13)
#: are the second-to-last argument of each ``generate`` call.
BUILDERS: Dict[str, Tuple[int, Callable[[int, int], object]]] = {
    "books_oneshot": (10000, lambda n, seed: _books(n, seed, backend="serial")),
    "citeseer_oneshot": (1200, lambda n, seed: OneShot(
        generate(make_citeseer, n, 7, seed), citeseer_config(), backend="serial")),
    "skewed_pairrange": (1600, lambda n, seed: OneShot(
        generate(make_skewed, n, 5, seed, hub_fraction=0.6), skewed_config(),
        balance="pairrange", backend="serial")),
    "linkage_wnp": (5000, lambda n, seed: OneShot(
        generate(make_linkage, n, 13, seed), linkage_config(),
        metablock="wnp", backend="serial")),
    "books_process": (10000, lambda n, seed: _books(
        n, seed, backend="process", workers=process_workers())),
    "books_stream": (4000, lambda n, seed: _stream(
        n, seed, warm=n // 2, batches=100)),
    # Verification only: the stream's entities in a single submit.
    "stream_single_submit": (4000, lambda n, seed: _stream(
        n, seed, warm=n, batches=1)),
}


def prepare(name: str, seed: int, scale: int):
    size, build = BUILDERS[name]
    return build(size // scale, seed)

"""Edge-case tests across modules: tiny inputs, degenerate configurations,
boundary conditions the happy-path tests never touch."""

import pytest

from repro.blocking import (
    Block,
    BlockingScheme,
    build_forest,
    citeseer_scheme,
    prefix_function,
)
from repro.core import ProgressiveER, books_config, citeseer_config
from repro.core.statistics import run_statistics_job
from repro.data import Dataset, Entity, make_books, make_citeseer
from repro.evaluation import recall_curve
from repro.mapreduce import (
    Cluster,
    CostModel,
    MapReduceJob,
    Mapper,
    ParallelExecutor,
    Reducer,
    SerialExecutor,
    executors,
)
from repro.mechanisms import PSNM, SortedNeighborHint, resolve_block
from repro.service import ResolverService
from repro.similarity import BatchMatcher, citeseer_matcher


class _Echo(Mapper):
    def map(self, record, context):
        context.emit(record, record)


class _Collect(Reducer):
    def reduce(self, key, values, context):
        context.write((key, len(values)))


class TestEngineEdges:
    def test_empty_input(self):
        result = Cluster(2).run_job(MapReduceJob(_Echo, _Collect), [])
        assert result.output == []
        assert result.end_time >= result.start_time

    def test_single_record(self):
        result = Cluster(3).run_job(MapReduceJob(_Echo, _Collect), ["only"])
        assert result.output == [("only", 1)]

    def test_one_reduce_task(self):
        result = Cluster(2).run_job(
            MapReduceJob(_Echo, _Collect), list("abc"), num_reduce_tasks=1
        )
        assert len(result.reduce_tasks) == 1
        assert len(result.output) == 3

    def test_invalid_cluster(self):
        with pytest.raises(ValueError):
            Cluster(0)


class TestMechanismEdges:
    def test_empty_block(self):
        stats = resolve_block(
            *PSNM().pair_stream(
                [], 5, lambda e: e.get("v"), lambda c: None, CostModel()
            ),
            BatchMatcher(citeseer_matcher()),
            CostModel(),
            lambda c: None,
            lambda a, b: None,
        )
        assert stats.comparisons == 0
        assert stats.exhausted

    def test_window_of_one_compares_nothing(self):
        entities = [Entity(id=i, attrs={"v": str(i)}) for i in range(5)]
        stats = resolve_block(
            *SortedNeighborHint().pair_stream(
                entities, 1, lambda e: e.get("v"), lambda c: None, CostModel()
            ),
            BatchMatcher(citeseer_matcher()),
            CostModel(),
            lambda c: None,
            lambda a, b: None,
        )
        assert stats.comparisons == 0


class TestBlockingEdges:
    def test_empty_dataset_forest(self):
        ds = Dataset(entities=[])
        forest = build_forest(ds, citeseer_scheme(), "X")
        assert forest.roots == []

    def test_all_entities_missing_attribute(self):
        ds = Dataset(entities=[Entity(id=i, attrs={"other": "x"}) for i in range(4)])
        forest = build_forest(ds, citeseer_scheme(), "X")
        assert forest.roots == []

    def test_single_family_scheme(self):
        scheme = BlockingScheme(
            families={"X": [prefix_function("X", 1, "title", 2)]}
        )
        assert scheme.num_families == 1
        assert scheme.depth("X") == 0


class TestPipelineEdges:
    def test_tiny_dataset_runs(self, shared_citeseer_matcher):
        ds = make_citeseer(20, seed=1)
        config = citeseer_config(
            matcher=shared_citeseer_matcher, train_fraction=1.0
        )
        result = ProgressiveER(config, Cluster(1)).run(ds)
        assert result.total_time > 0

    def test_dataset_without_duplicates(self, shared_citeseer_matcher):
        ds = make_citeseer(60, seed=2, duplicate_ratio=0.0)
        config = citeseer_config(
            matcher=shared_citeseer_matcher, train_fraction=1.0
        )
        result = ProgressiveER(config, Cluster(1)).run(ds)
        # No true pairs: everything reported (if anything) is a false
        # positive; the pipeline must still terminate cleanly.
        assert result.total_time > 0

    def test_single_machine(self, citeseer_small, citeseer_cfg):
        result = ProgressiveER(citeseer_cfg, Cluster(1)).run(citeseer_small)
        curve = recall_curve(
            result.duplicate_events, citeseer_small, end_time=result.total_time
        )
        assert curve.final_recall > 0.7

    def test_more_reduce_tasks_than_trees_possible(self, shared_citeseer_matcher):
        ds = make_citeseer(40, seed=4)
        config = citeseer_config(
            matcher=shared_citeseer_matcher, train_fraction=1.0
        )
        # 10 machines = 20 reduce tasks for a ~handful of trees.
        result = ProgressiveER(config, Cluster(10)).run(ds)
        assert result.total_time > 0


class TestCurveEdges:
    def test_empty_event_stream(self):
        ds = make_citeseer(30, seed=1)
        curve = recall_curve([], ds, end_time=10.0)
        assert curve.final_recall == 0.0
        assert curve.recall_at(5.0) == 0.0
        assert curve.time_to(0.5) is None
        assert curve.area_under() == 0.0

    def test_zero_horizon_area(self):
        ds = make_citeseer(30, seed=1)
        curve = recall_curve([], ds, end_time=0.0)
        assert curve.area_under(0.0) == 0.0


class TestBlockEdges:
    def test_size_override_validation(self):
        with pytest.raises(ValueError):
            Block(family="X", level=1, key="a", entity_ids=(), size_override=-1)

    def test_root_of_detached_chain(self):
        a = Block(family="X", level=1, key="a", entity_ids=(), size_override=4)
        b = Block(family="X", level=2, key="ab", entity_ids=(), size_override=2)
        a.add_child(b)
        a.detach_child(b)
        assert b.root is b
        assert list(a.descendants()) == []


def _job_fingerprint(job):
    return (
        job.start_time,
        job.map_phase_end,
        job.end_time,
        tuple(
            (t.cost, t.start_time, t.end_time)
            for t in job.map_tasks + job.reduce_tasks
        ),
        tuple((e.time, e.kind, repr(e.payload)) for e in job.events),
        tuple(sorted(job.counters.as_dict().items())),
    )


class TestKeylessEntities:
    """Entities with only a ``year`` lack every attribute the books scheme
    blocks on (title, authors, publisher): annotated all-``None``, they
    join no block, so nothing routes, compares or pairs them."""

    @pytest.fixture(scope="class")
    def books(self):
        base = make_books(300, seed=4)
        first = max(e.id for e in base) + 1
        keyless = [Entity(first + i, {"year": str(1990 + i)}) for i in range(4)]
        clusters = dict(base.clusters)
        top = max(clusters.values()) + 1
        clusters.update({e.id: top + i for i, e in enumerate(keyless)})
        return base, Dataset(base.entities + keyless, clusters), keyless

    def test_annotated_all_none_and_absent_from_job1(self, books):
        base, dataset, keyless = books
        scheme = books_config().scheme
        ids = {e.id for e in keyless}
        annotated, stats, job1 = run_statistics_job(Cluster(3), dataset, scheme)
        for entity, keys in annotated:
            if entity.id in ids:
                assert keys == dict.fromkeys(scheme.family_order)
        assert not any(
            value[0].id in ids for task in job1.map_tasks for _, value in task.output
        )
        _, without, _ = run_statistics_job(Cluster(3), base, scheme)
        assert {uid: b.size for uid, b in stats.blocks.items()} == {
            uid: b.size for uid, b in without.blocks.items()
        }
        assert stats.overlaps == without.overlaps

    def test_never_routed_or_paired_and_backend_invariant(
        self, books, shared_books_matcher, monkeypatch
    ):
        _, dataset, keyless = books
        ids = {e.id for e in keyless}
        config = books_config(matcher=shared_books_matcher)
        monkeypatch.setattr(executors, "DEFAULT_SERIAL_FLOOR", 0)
        serial, process = (
            ProgressiveER(config, Cluster(3, executor=executor)).run(dataset)
            for executor in (SerialExecutor(), ParallelExecutor(2))
        )
        emitted = [value for task in serial.job2.map_tasks for _, value in task.output]
        assert emitted and not any(entity.id in ids for entity, _ in emitted)
        assert serial.found_pairs
        assert not any(set(pair) & ids for pair in serial.found_pairs)
        for job in ("job1", "job2"):
            assert _job_fingerprint(getattr(serial, job)) == _job_fingerprint(
                getattr(process, job)
            )

    def test_service_batch_of_keyless_entities_is_free(
        self, books, shared_books_matcher
    ):
        base, _, keyless = books
        service = ResolverService(books_config(matcher=shared_books_matcher), machines=2)
        service.submit(base.entities)
        receipt = service.submit(keyless)
        assert (receipt.added, receipt.comparisons, receipt.affected_blocks) == (4, 0, 0)
        for entity in keyless:
            assert service.cluster_of(entity.id) == (entity.id,)

"""Unit tests for the Job-1 statistics (progressive blocking + OLP data)."""

import dataclasses
from collections import Counter

import pytest

from repro.blocking import BlockingScheme, build_forests, citeseer_scheme
from repro.core.statistics import (
    BlockRecord,
    DatasetStatistics,
    run_statistics_job,
)
from repro.mapreduce import Cluster


@pytest.fixture(scope="module")
def stats_bundle(request):
    dataset = request.getfixturevalue("citeseer_small")
    cluster = Cluster(3)
    scheme = citeseer_scheme()
    annotated, stats, job = run_statistics_job(cluster, dataset, scheme)
    return dataset, scheme, annotated, stats, job


class TestAnnotatedDataset:
    def test_one_annotation_per_entity(self, stats_bundle):
        dataset, _, annotated, _, _ = stats_bundle
        assert len(annotated) == len(dataset)
        assert [a[0].id for a in annotated] == sorted(e.id for e in dataset)

    def test_annotations_match_main_keys(self, stats_bundle):
        dataset, scheme, annotated, _, _ = stats_bundle
        for entity, keys in annotated[:100]:
            for family in scheme.family_order:
                assert keys[family] == scheme.main_function(family).key_of(entity)


def counting_scheme(scheme):
    """``scheme`` with every level-1 function wrapped to count its calls
    per ``(family, entity id)``."""
    calls = Counter()

    def counted(function):
        def key_of(entity):
            calls[function.family, entity.id] += 1
            return function.key_of(entity)

        return dataclasses.replace(function, key_of=key_of)

    families = {
        family: [counted(functions[0]), *functions[1:]]
        for family, functions in scheme.families.items()
    }
    return BlockingScheme(families), calls


class TestAnnotatedOnce:
    @pytest.mark.parametrize("prune", [False, True], ids=["plain", "pruned"])
    def test_each_level1_function_runs_once_per_entity(self, citeseer_small, prune):
        scheme, calls = counting_scheme(citeseer_scheme())
        pruned = (
            frozenset((e.id, "X") for e in citeseer_small.entities[::3])
            if prune else None
        )
        annotated, _, _ = run_statistics_job(
            Cluster(3), citeseer_small, scheme, pruned=pruned
        )
        assert calls == Counter(
            {(f, e.id): 1 for f in scheme.family_order for e in citeseer_small}
        )
        for entity, keys in annotated:
            if pruned and (entity.id, "X") in pruned:
                assert keys["X"] is None

    def test_job_routes_the_returned_records(self, stats_bundle):
        _, _, annotated, _, job = stats_bundle
        by_id = {record[0].id: record for record in annotated}
        routed = [value for task in job.map_tasks for _, value in task.output]
        assert routed
        assert all(value is by_id[value[0].id] for value in routed)


class TestStructuralAgreement:
    def test_trees_match_blocker_forests(self, stats_bundle):
        dataset, scheme, _, stats, _ = stats_bundle
        forests = build_forests(dataset, scheme)

        def signature(root):
            return sorted(
                (b.family, b.level, b.key, b.size, b.parent.uid if b.parent else None)
                for b in root.subtree()
            )

        from_blocker = sorted(
            signature(r) for forest in forests.values() for r in forest.roots
        )
        from_stats = sorted(
            signature(r) for roots in stats.roots.values() for r in roots
        )
        assert from_blocker == from_stats

    def test_block_sizes_at_least_two(self, stats_bundle):
        *_, stats, _ = stats_bundle
        assert all(b.size >= 2 for b in stats.blocks.values())

    def test_num_blocks_consistent(self, stats_bundle):
        *_, stats, _ = stats_bundle
        traversed = sum(
            1 for roots in stats.roots.values() for r in roots for _ in r.subtree()
        )
        assert stats.num_blocks == traversed


class TestOverlapHistograms:
    def test_histogram_mass_equals_block_size(self, stats_bundle):
        *_, stats, _ = stats_bundle
        for uid, block in stats.blocks.items():
            histogram = stats.overlaps[uid]
            assert sum(histogram.values()) == block.size

    def test_signature_width_is_number_of_dominating_families(self, stats_bundle):
        dataset, scheme, _, stats, _ = stats_bundle
        for uid, block in stats.blocks.items():
            width = scheme.index_of(block.family) - 1
            for signature in stats.overlaps[uid]:
                assert len(signature) == width

    def test_most_dominating_family_has_empty_signatures(self, stats_bundle):
        *_, stats, _ = stats_bundle
        for uid, block in stats.blocks.items():
            if block.family == "X":
                assert set(stats.overlaps[uid]) <= {()}

    def test_histograms_match_direct_computation(self, stats_bundle):
        dataset, scheme, _, stats, _ = stats_bundle
        forests = build_forests(dataset, scheme)
        mains = {f: scheme.main_function(f) for f in scheme.family_order}
        for forest in forests.values():
            for block in forest.blocks():
                dominating = scheme.family_order[: scheme.index_of(block.family) - 1]
                expected = {}
                for eid in block.entity_ids:
                    entity = dataset.entity(eid)
                    sig = tuple(mains[f].key_of(entity) for f in dominating)
                    expected[sig] = expected.get(sig, 0) + 1
                assert stats.overlaps[block.uid] == expected


class TestFromRecords:
    def test_duplicate_uid_rejected(self):
        scheme = citeseer_scheme()
        record = BlockRecord(
            family="X", level=1, key="ab", size=2, parent_uid=None, overlap={(): 2}
        )
        with pytest.raises(ValueError):
            DatasetStatistics.from_records(scheme, [record, record])

    def test_parent_links_rebuilt(self):
        scheme = citeseer_scheme()
        records = [
            BlockRecord("X", 1, "ab", 4, None, {(): 4}),
            BlockRecord("X", 2, "abcd", 2, "X1:ab", {(): 2}),
        ]
        stats = DatasetStatistics.from_records(scheme, records)
        root = stats.roots["X"][0]
        assert root.uid == "X1:ab"
        assert [c.uid for c in root.children] == ["X2:abcd"]
        assert root.children[0].parent is root


class TestJobAccounting:
    def test_job_has_positive_duration(self, stats_bundle):
        *_, job = stats_bundle
        assert job.end_time > job.start_time
        assert job.map_phase_end > job.start_time

    def test_reduce_phase_after_map_phase(self, stats_bundle):
        *_, job = stats_bundle
        for task in job.reduce_tasks:
            assert task.start_time >= job.map_phase_end

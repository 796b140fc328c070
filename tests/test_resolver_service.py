"""Unit tests for the incremental ResolverService and its delta machinery."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import flatten_runs
from repro.core import books_config, citeseer_config, skewed_config
from repro.data import Entity, make_books, make_citeseer, make_skewed
from repro.service import ResolverService
from repro.service.delta import (
    block_weight,
    candidate_pairs,
    plan_delta,
    responsibility_veto,
    responsible_family,
)
from repro.service.resolver import SNAPSHOT_FORMAT, config_fingerprint
from repro.service.store import EntityStore, route_label


@pytest.fixture(scope="module")
def dataset():
    return make_citeseer(300, seed=3)


@pytest.fixture(scope="module")
def config():
    return citeseer_config()


def make_service(config, **kwargs):
    kwargs.setdefault("machines", 3)
    return ResolverService(config, **kwargs)


class TestEntityStore:
    def test_annotate_covers_every_family(self, dataset, config):
        store = EntityStore(config.scheme)
        keys = store.annotate(dataset.entities[0])
        assert list(keys) == config.scheme.family_order

    def test_admit_files_members_per_route(self, config):
        store = EntityStore(config.scheme)
        entity = Entity(1, {"title": "Query Optimization", "venue": "VLDB"})
        store.admit([(entity, store.annotate(entity))], batch=1)
        assert 1 in store
        assert len(store) == 1
        keys = store.get(1).keys
        for family, key in keys.items():
            if key is not None:
                assert store.members((family, key)) == [1]

    def test_double_admission_rejected(self, config):
        store = EntityStore(config.scheme)
        entity = Entity(7, {"title": "t"})
        annotated = [(entity, store.annotate(entity))]
        store.admit(annotated, batch=1)
        with pytest.raises(ValueError, match="already admitted"):
            store.admit(annotated, batch=2)


def fresh_pairs(members, lo, hi):
    """The oracle stream: the block's pairs with at least one new member,
    anchors ``[lo, hi)``.

    ``members`` is sorted by id.  For anchor ``j``: every ``i < j`` when
    ``j`` is new, else only the new ``i < j`` — anchor-major, ``i``
    ascending, so :func:`block_weight` counts exactly what this yields.
    This was the delta reducer's stream before it looked candidates up.
    """
    seen = []
    seen_new = []
    for j, (entity_j, _, new_j) in enumerate(members[:hi]):
        if j >= lo:
            for entity_i in seen if new_j else seen_new:
                yield entity_i, entity_j
        seen.append(entity_j)
        if new_j:
            seen_new.append(entity_j)


def brute_force_fresh_pairs(members, lo, hi):
    """The oracle: every ``j × i`` pair of the anchor range, old×old
    discarded — the double loop the delta reducer used to run."""
    pairs = []
    for j in range(max(lo, 1), min(hi, len(members))):
        entity_j, _, new_j = members[j]
        for i in range(j):
            entity_i, _, new_i = members[i]
            if not (new_i or new_j):
                continue
            pairs.append((entity_i.id, entity_j.id))
    return pairs


class TestDeltaPlanning:
    def test_block_weight_counts_fresh_pairs(self):
        # ids 1,3 old; 5,9 new: fresh pairs are every pair minus (1,3).
        members = [(1, False), (3, False), (5, True), (9, True)]
        weights = block_weight(members)
        assert sum(weights) == 6 - 1
        assert weights[0] == 0  # first anchor has no partners

    def test_responsible_family_in_dominance_order(self):
        a = {"X": "ab", "Y": None, "Z": "zz"}
        b = {"X": "ab", "Y": "yy", "Z": "zz"}
        # X and Z agree: the first of them in dominance order decides.
        assert responsible_family(a, b, ("X", "Y", "Z"), 2) == "X"
        assert responsible_family(a, b, ("Z", "Y", "X"), 2) == "Z"
        assert responsible_family(a, b, ("X", "Y", "Z"), 1) == "X"
        # The floor: two agreeing families are not three.
        assert responsible_family(a, b, ("X", "Y", "Z"), 3) is None
        # A None key never agrees, not even with another None.
        assert responsible_family(a, b, ("Y", "X"), 2) is None
        assert responsible_family(a, dict(b, Y=None), ("Y", "X", "Z"), 2) == "X"
        assert responsible_family(a, dict(b, Y=None), ("Y",), 1) is None
        # A family missing from one side counts as a None key.
        assert responsible_family({"X": "ab"}, b, ("X", "Z"), 2) is None

    @given(
        roster=st.lists(st.booleans(), max_size=12),
        bounds=st.tuples(st.integers(0, 13), st.integers(0, 13)),
    )
    def test_fresh_pairs_equal_the_double_loop(self, roster, bounds):
        # Ties the reducer's generator to the planner's weights: same
        # pairs as the old j × i scan, same order, block_weight many.
        members = [
            (Entity(3 * index + 1, {}), {}, is_new)
            for index, is_new in enumerate(roster)
        ]
        lo, hi = min(bounds), max(bounds)
        assert [
            (a.id, b.id) for a, b in fresh_pairs(members, lo, hi)
        ] == brute_force_fresh_pairs(members, lo, hi)
        whole = list(fresh_pairs(members, 0, len(members)))
        assert len(whole) == sum(
            block_weight([(entity.id, is_new) for entity, _, is_new in members])
        )

    @given(
        roster=st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.sampled_from(["a", "b", None]), min_size=3, max_size=3),
            ),
            max_size=14,
        ),
        bounds=st.tuples(st.integers(0, 15), st.integers(0, 15)),
    )
    def test_candidate_pairs_are_the_responsible_fresh_pairs(self, roster, bounds):
        # Every family as the block family, every min_matches, a random
        # anchor range and the whole block: what the lookup yields and the
        # reducer's admit keeps is exactly the fresh-pair scan filtered by
        # responsibility, in the same order.
        order = ("X", "Y", "Z")
        for family, min_matches, (lo, hi) in itertools.product(
            order, (1, 2, 3), ((min(bounds), max(bounds)), (0, len(roster)))
        ):
            members = [
                (Entity(2 * index + 1, {}), dict(zip(order, codes), **{family: "k"}), is_new)
                for index, (is_new, codes) in enumerate(roster)
            ]
            keys_of = {entity.id: keys for entity, keys, _ in members}

            def responsible(pair):
                a, b = pair
                return responsible_family(keys_of[a.id], keys_of[b.id], order, min_matches)

            fresh = list(fresh_pairs(members, lo, hi))
            expected = [(a.id, b.id) for a, b in fresh if responsible((a, b)) == family]
            entities = [entity for entity, _, _ in members]
            runs = list(candidate_pairs(members, lo, hi, family, order, min_matches))
            yielded = flatten_runs(entities, runs)
            scan = iter([(a.id, b.id) for a, b in fresh])
            assert all((a.id, b.id) in scan for a, b in yielded)  # a subsequence
            assert all(responsible(pair) is not None for pair in yielded)
            assert [
                (a.id, b.id) for a, b in yielded if responsible((a, b)) == family
            ] == expected
            # The reducer's veto over each run keeps exactly those.
            veto = responsibility_veto(members, family, order, False)
            assert [
                (entities[i].id, entities[j].id)
                for lefts, rights in runs
                for i, j, verdict in zip(lefts, rights, veto(lefts, rights))
                if verdict is None
            ] == expected

    def test_last_family_block_has_no_candidates_at_two_matches(self):
        members = [
            (Entity(i, {}), {"X": "x", "Y": "y", "Z": "z"}, True) for i in range(5)
        ]
        assert list(candidate_pairs(members, 0, 5, "Z", ("X", "Y", "Z"), 2)) == []
        runs = candidate_pairs(members, 0, 5, "Y", ("X", "Y", "Z"), 2)
        assert sum(len(lefts) for lefts, _ in runs) == 10

    def test_slack_keeps_whole_blocks(self):
        affected = {("X", "aa"): [(1, True), (2, False), (3, False)]}
        plan = plan_delta(affected, num_reduce_tasks=4, balance="slack")
        label = route_label(("X", "aa"))
        assert plan.routes[label] == (label,)
        assert not plan.shards
        assert plan.planned[label] == 2

    def test_blocksplit_shards_oversized_blocks(self):
        big = [(i, True) for i in range(40)]
        small = [(100, True), (101, False)]
        affected = {("X", "big"): big, ("X", "sm"): small}
        plan = plan_delta(affected, num_reduce_tasks=4, balance="blocksplit")
        big_label = route_label(("X", "big"))
        assert len(plan.routes[big_label]) > 1
        # Shards tile the anchor range [1, 40) without overlap.
        ranges = sorted(plan.shards[s] for s in plan.routes[big_label])
        assert ranges[0][0] == 1 and ranges[-1][1] == 40
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo
        # Shard loads add up to the whole block's load.
        assert sum(plan.planned[s] for s in plan.routes[big_label]) == sum(
            block_weight(big)
        )


class TestSubmit:
    def test_receipt_accounts_for_the_batch(self, dataset, config):
        service = make_service(config)
        receipt = service.submit(dataset.entities[:100])
        assert receipt.batch == 1
        assert receipt.added == 100
        assert receipt.affected_blocks > 0
        assert receipt.comparisons > 0
        assert receipt.duplicates == len(receipt.pairs)
        assert receipt.end_time > receipt.start_time == 0.0
        assert service.total_entities == 100

    def test_virtual_time_chains_across_batches(self, dataset, config):
        service = make_service(config)
        first = service.submit(dataset.entities[:100])
        second = service.submit(dataset.entities[100:200])
        assert second.start_time == first.end_time
        assert service.clock == second.end_time

    def test_duplicate_id_within_batch_rejected(self, config):
        service = make_service(config)
        with pytest.raises(ValueError, match="twice"):
            service.submit([Entity(1, {"title": "a"}), Entity(1, {"title": "b"})])

    def test_resubmitted_id_rejected(self, config):
        service = make_service(config)
        service.submit([Entity(1, {"title": "some title here"})])
        with pytest.raises(ValueError, match="already submitted"):
            service.submit([Entity(1, {"title": "another"})])

    def test_non_entity_rejected(self, config):
        service = make_service(config)
        with pytest.raises(TypeError, match="Entity"):
            service.submit([{"id": 1, "title": "a dict"}])

    def test_basic_config_rejected(self, dataset, config):
        from repro.baselines import BasicConfig
        from repro.mechanisms import PSNM

        basic = BasicConfig(
            scheme=config.scheme, matcher=config.matcher, mechanism=PSNM()
        )
        with pytest.raises(TypeError, match="ApproachConfig"):
            ResolverService(basic)

    def test_empty_batch_is_a_noop(self, config):
        service = make_service(config)
        receipt = service.submit([])
        assert receipt.added == 0
        assert receipt.comparisons == 0
        assert receipt.end_time == receipt.start_time
        assert service.clock == 0.0

    def test_unblocked_singleton_runs_no_job(self, config):
        service = make_service(config)
        receipt = service.submit([Entity(1, {"title": "unique title xq"})])
        assert receipt.affected_blocks == 0
        assert receipt.comparisons == 0

    def test_failed_submit_leaves_the_service_untouched(
        self, dataset, config, monkeypatch
    ):
        batches = [
            dataset.entities[:200],
            dataset.entities[200:250],
            dataset.entities[250:300],
        ]
        undisturbed = make_service(config)
        for batch in batches:
            undisturbed.submit(batch)

        service = make_service(config)
        service.submit(batches[0])
        run_job = service.session.run_job
        calls = []

        def dies_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("parallel worker failed on task 0")
            return run_job(*args, **kwargs)

        monkeypatch.setattr(service.session, "run_job", dies_once)
        before = (service.snapshot(), service.stats(), service.receipts)
        with pytest.raises(RuntimeError, match="worker failed"):
            service.submit(batches[1])
        assert (service.snapshot(), service.stats(), service.receipts) == before
        assert service.total_entities == 200
        assert batches[1][0].id not in service.store

        retried = service.submit(batches[1])
        assert retried.batch == 2
        service.submit(batches[2])
        assert len(calls) == 3
        assert service.found_pairs == undisturbed.found_pairs
        assert service.total_comparisons == undisturbed.total_comparisons
        assert service.receipts == undisturbed.receipts

    def test_delta_charges_are_tagged_for_calibration(
        self, dataset, config, monkeypatch
    ):
        service = make_service(config)
        run_job = service.session.run_job
        results = []

        def recording(*args, **kwargs):
            results.append(run_job(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(service.session, "run_job", recording)
        service.submit(dataset.entities[:100])
        profiles = [dict(task.charge_profile) for task in results[0].reduce_tasks]
        assert any(
            profile.get("read", 0.0) > 0.0 and profile.get("compare", 0.0) > 0.0
            for profile in profiles
        )


class TestPairStream:
    def test_seqs_are_contiguous_and_monotone(self, dataset, config):
        service = make_service(config)
        for start in range(0, 300, 100):
            service.submit(dataset.entities[start : start + 100])
        events = service.pairs()
        assert [e.seq for e in events] == list(range(1, len(events) + 1))
        times = [e.time for e in events]
        assert times == sorted(times)
        batches = [e.batch for e in events]
        assert batches == sorted(batches)

    def test_since_cursor_streams_only_news(self, dataset, config):
        service = make_service(config)
        first = service.submit(dataset.entities[:150])
        cursor = first.last_seq
        second = service.submit(dataset.entities[150:300])
        fresh = service.pairs(since=cursor)
        assert [e.pair for e in fresh] == list(second.pairs)
        assert service.pairs(since=service.pairs()[-1].seq) == []

    def test_negative_cursor_rejected(self, config):
        with pytest.raises(ValueError, match=">= 0"):
            make_service(config).pairs(since=-1)


class TestClusterOf:
    def test_found_pair_members_share_a_cluster(self, dataset, config):
        service = make_service(config)
        service.submit(dataset.entities)
        a, b = next(iter(service.found_pairs))
        cluster = service.cluster_of(a)
        assert a in cluster and b in cluster
        assert cluster == service.cluster_of(b)
        assert cluster == tuple(sorted(cluster))

    def test_isolated_entity_is_a_singleton(self, config):
        service = make_service(config)
        service.submit([Entity(5, {"title": "completely unique xyzzy"})])
        assert service.cluster_of(5) == (5,)

    def test_unknown_entity_raises(self, config):
        with pytest.raises(KeyError, match="never submitted"):
            make_service(config).cluster_of(123)


class TestSnapshotRestore:
    def test_round_trip_through_json(self, dataset, config):
        service = make_service(config)
        for start in range(0, 300, 150):
            service.submit(dataset.entities[start : start + 150])
        blob = json.dumps(service.snapshot())
        restored = ResolverService.restore(
            json.loads(blob), citeseer_config(), machines=3
        )
        assert restored.found_pairs == service.found_pairs
        assert restored.clock == service.clock
        assert restored.total_entities == service.total_entities
        assert restored.total_comparisons == service.total_comparisons
        assert [e.pair for e in restored.pairs()] == [
            e.pair for e in service.pairs()
        ]

    def test_restored_service_keeps_resolving(self, dataset, config):
        service = make_service(config)
        service.submit(dataset.entities[:200])
        restored = ResolverService.restore(
            service.snapshot(), citeseer_config(), machines=3
        )
        service.submit(dataset.entities[200:300])
        restored.submit(dataset.entities[200:300])
        assert restored.found_pairs == service.found_pairs
        assert restored.clock == service.clock

    def test_snapshot_carries_no_decision_ledger(self):
        entities = make_books(400, seed=11).entities
        service = ResolverService(books_config(), machines=3)
        for start in range(0, 400, 100):
            service.submit(entities[start : start + 100])
        assert service.total_comparisons > 0
        snapshot = service.snapshot()
        assert "decisions" not in snapshot
        # The state is the entities plus a little: no per-comparison part.
        assert len(json.dumps(snapshot)) < 2 * len(json.dumps(snapshot["entities"]))

    def test_old_snapshot_with_a_decision_ledger_still_restores(
        self, dataset, config
    ):
        service = make_service(config)
        service.submit(dataset.entities[:200])
        old = dict(service.snapshot())
        old["decisions"] = [
            [event.pair[0], event.pair[1], True] for event in service.pairs()
        ] + [[dataset.entities[0].id, dataset.entities[199].id, False]]
        restored = ResolverService.restore(
            json.loads(json.dumps(old)), citeseer_config(), machines=3
        )
        service.submit(dataset.entities[200:300])
        restored.submit(dataset.entities[200:300])
        assert restored.pairs() == service.pairs()
        assert restored.total_comparisons == service.total_comparisons

    def test_unknown_format_rejected(self, config):
        with pytest.raises(ValueError, match="snapshot format"):
            ResolverService.restore({"format": SNAPSHOT_FORMAT + 1}, config)

    def test_mismatched_config_rejected(self, dataset, config):
        service = make_service(config)
        service.submit(dataset.entities[:50])
        snapshot = service.snapshot()
        with pytest.raises(ValueError, match="different blocking scheme"):
            ResolverService.restore(snapshot, skewed_config())

    def test_fingerprint_tracks_min_family_matches(self, config):
        assert config_fingerprint(config, 1) != config_fingerprint(config, 2)


class TestSkewedSingleFamily:
    """min_family_matches clamps so one-family schemes still resolve."""

    def test_single_family_scheme_finds_pairs(self):
        dataset = make_skewed(150, seed=3)
        service = ResolverService(skewed_config(), machines=3)
        assert service.min_family_matches == 1
        service.submit(dataset.entities)
        assert len(service.found_pairs) > 0

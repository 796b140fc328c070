"""Unit tests for the incremental ResolverService and its delta machinery."""

from __future__ import annotations

import json
import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import books_config, citeseer_config, linkage_config, skewed_config
from repro.core.schedule import place_units
from repro.data import Entity, make_books, make_citeseer, make_linkage, make_skewed
from repro.mapreduce import FaultPlan, JobAbortedError, RetryPolicy
from repro.service import ResolverService
from repro.service import resolver as resolver_module
from repro.service.delta import DeltaPlan, _slices, plan_delta, unit_size
from repro.service.resolver import SNAPSHOT_FORMAT, config_fingerprint
from repro.service.store import ROUTE_SEP, EntityStore, route_label


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
        keys = config.scheme.main_keys(dataset.entities[0])
        assert list(keys) == config.scheme.family_order

    def test_admit_files_by_agreement_key(self):
        store = EntityStore(ORDER, 2)
        keys = {"X": "x", "Y": None, "Z": "z", "W": "w"}
        store.admit([(Entity(1, {}), keys)], batch=1)
        assert 1 in store
        assert len(store) == 1
        # Its routes in dominance order, two at a time; a None key and a
        # family outside the order file nothing.
        assert store.agreement_keys(keys) == [(("X", "x"), ("Z", "z"))]
        assert store.agreeing((("X", "x"), ("Z", "z"))) == [1]
        assert store.agreeing((("Z", "z"), ("X", "x"))) == ()
        assert store.num_blocks() == 2
        store.admit([(Entity(2, {}), {"X": "x", "Y": "y", "Z": None})], batch=2)
        assert store.agreeing((("X", "x"), ("Y", "y"))) == [2]
        # An entity with fewer agreeing families than the floor is filed
        # under nothing, but its blocks still count.
        store.admit([(Entity(3, {}), {"X": "q", "Y": None, "Z": None})], batch=2)
        assert store.agreement_keys({"X": "q"}) == []
        assert store.num_blocks() == 4

    def test_agreement_keys_at_each_floor(self):
        keys = {"X": "x", "Y": "y", "Z": "z"}
        x, y, z = ("X", "x"), ("Y", "y"), ("Z", "z")
        assert EntityStore(ORDER, 1).agreement_keys(keys) == [(x,), (y,), (z,)]
        assert EntityStore(ORDER, 2).agreement_keys(keys) == [(x, y), (x, z), (y, z)]
        assert EntityStore(ORDER, 3).agreement_keys(keys) == [(x, y, z)]
        assert EntityStore(("Z", "X"), 2).agreement_keys(keys) == [(z, x)]
        with pytest.raises(ValueError, match="min_family_matches"):
            EntityStore(ORDER, 0)

    def test_double_admission_rejected(self, config):
        store = EntityStore(config.scheme.family_order, 2)
        entity = Entity(7, {"title": "t"})
        annotated = [(entity, config.scheme.main_keys(entity))]
        store.admit(annotated, batch=1)
        with pytest.raises(ValueError, match="already admitted"):
            store.admit(annotated, batch=2)

    @pytest.mark.parametrize("ids, error", [
        ((2, 1), "already admitted"),
        ((2, 3, 2), "appears twice"),
    ])
    def test_rejected_admit_files_nothing(self, ids, error):
        store = EntityStore(ORDER, 1)
        store.admit([(Entity(1, {}), {"X": "a"})], batch=1)
        index = {key: list(store.agreeing(key)) for key in [(("X", "a"),), (("X", "b"),)]}
        with pytest.raises(ValueError, match=error):
            store.admit([(Entity(i, {}), {"X": "b"}) for i in ids], batch=2)
        assert len(store) == 1
        assert store.entity_ids() == [1]
        assert {key: list(store.agreeing(key)) for key in index} == index
        assert store.num_blocks() == 1


def responsible_family(keys_a, keys_b, family_order, min_matches):
    """The oracle of responsibility: the family whose block decides the
    pair — the first (dominance order) where both entities share a
    non-None key — or ``None`` when fewer than ``min_matches`` families
    agree (not a candidate at all)."""
    first = None
    matches = 0
    for family in family_order:
        key = keys_a.get(family)
        if key is None or key != keys_b.get(family):
            continue
        if first is None:
            first = family
        matches += 1
        if matches >= min_matches:
            return first
    return None


def brute_force_candidates(stored, batch, family_order, min_matches, cross_source_only):
    """The oracle of a batch's work: every (anchor, partner) pair of a
    batch entity with a stored or earlier batch entity, mapped to the
    route of the block responsible for it — the double loop over the
    whole store, with no key index."""
    pairs = {}
    for j, (entity, keys) in enumerate(batch):
        for other, other_keys in list(stored) + batch[:j]:
            if cross_source_only and entity.source == other.source:
                continue
            family = responsible_family(keys, other_keys, family_order, min_matches)
            if family is not None:
                pairs[(entity.id, other.id)] = (family, keys[family])
    return pairs


def counter_plan(stored, batch, family_order, tasks, min_matches, cross_source_only):
    """The oracle planner: the delta plan counted per route, as the
    service planned before its agreement index.  Every stored and earlier
    batch member of a new entity's level-1 blocks is counted, a partner
    counted ``min_matches`` times is a candidate, and the last route
    written for it, walking latest family first, is its responsible block.
    ``stored`` is ``(entity, keys)`` in admission order.  Slicing and
    placement are the planner's own; :func:`check_plan` checks those."""
    members = {}
    sources = {entity.id: entity.source for entity, _ in list(stored) + list(batch)}
    for entity, keys in stored:
        for family in family_order:
            if keys.get(family) is not None:
                members.setdefault((family, keys[family]), []).append(entity.id)
    arrived = {}
    blocks = {}
    for entity, keys in batch:
        own = [(family, keys[family]) for family in family_order
               if keys.get(family) is not None]
        counts = Counter()
        responsible = {}
        for route in reversed(own):
            for partners in (members.get(route, ()), arrived.get(route, ())):
                counts.update(partners)
                responsible.update(dict.fromkeys(partners, route))
        candidates = [partner for partner, count in counts.items() if count >= min_matches]
        if cross_source_only:
            candidates = [p for p in candidates if entity.source != sources[p]]
        found = {}
        for partner in candidates:
            found.setdefault(responsible[partner], []).append(partner)
        for route, partners in found.items():
            partners.sort()
            blocks.setdefault(route, []).append((entity.id, partners))
        for route in own:
            arrived.setdefault(route, []).append(entity.id)

    plan = DeltaPlan()
    loads = {}
    total = sum(unit_size(pairs) for pairs in blocks.values())
    fair_share = max(1, math.ceil(total / tasks))
    for route, pairs in blocks.items():
        label = route_label(route)
        size = unit_size(pairs)
        parts = math.ceil(size / fair_share)
        if parts == 1:
            pieces = {label: pairs}
        else:
            pieces = {
                f"{label}{ROUTE_SEP}{index}": piece
                for index, piece in enumerate(_slices(pairs, size, parts))
            }
        plan.blocks[label] = tuple(pieces)
        plan.units.update(pieces)
        loads.update((unit, unit_size(piece)) for unit, piece in pieces.items())
    plan.assignment = place_units(loads.items(), tasks)
    for rank, unit in enumerate(plan.assignment):
        plan.ranks[unit] = rank
        named = {anchor for anchor, _ in plan.units[unit]}
        for _, partners in plan.units[unit]:
            named.update(partners)
        for entity_id in named:
            plan.routes.setdefault(entity_id, []).append(unit)
    return plan


def assert_same_plan(plan, expected):
    """Equal plans, as everything downstream reads them: ``blocks`` as a
    mapping, ``assignment`` in its order too (the job's task order)."""
    assert plan.units == expected.units
    assert list(plan.assignment.items()) == list(expected.assignment.items())
    assert plan.ranks == expected.ranks
    assert plan.routes == expected.routes
    assert plan.blocks == expected.blocks


def plan_pairs(plan):
    """``(anchor, partner) -> unit label`` over every unit of the plan;
    a pair listed twice fails."""
    where = {}
    for unit, pairs in plan.units.items():
        for anchor, partners in pairs:
            for partner in partners:
                assert (anchor, partner) not in where, (anchor, partner)
                where[(anchor, partner)] = unit
    return where


def check_plan(plan, stored, batch, order, min_matches, cross_source_only, tasks):
    """Everything the delta job relies on, against the oracles."""
    expected = brute_force_candidates(stored, batch, order, min_matches, cross_source_only)
    where = plan_pairs(plan)
    # Exactly the candidate set, each pair in one unit of its responsible block.
    assert set(where) == set(expected)
    unit_block = {unit: block for block, units in plan.blocks.items() for unit in units}
    assert set(unit_block) == set(plan.units)
    for pair, unit in where.items():
        assert unit_block[unit] == route_label(expected[pair])
    # No routed unit is empty or above the fair share.
    fair_share = -(-len(expected) // tasks)
    sizes = {unit: unit_size(pairs) for unit, pairs in plan.units.items()}
    assert all(1 <= size <= fair_share for size in sizes.values())
    batch_order = {entity.id: index for index, (entity, _) in enumerate(batch)}
    for block, units in plan.blocks.items():
        block_pairs = [pair for pair, unit in where.items() if unit_block[unit] == block]
        # Each unit lists anchors in batch order, partners ascending.
        for unit in units:
            anchors = [anchor for anchor, _ in plan.units[unit]]
            assert anchors == sorted(anchors, key=batch_order.get)
            assert all(partners == sorted(partners) for _, partners in plan.units[unit])
        if len(units) == 1:
            assert sizes[units[0]] == len(block_pairs)
            continue
        # Slices tile the block's pair list, read partner-major, in order,
        # and are as near equal as whole pairs allow.
        def partner_major(pairs):
            return sorted(pairs, key=lambda pair: (pair[1], batch_order[pair[0]]))

        tiled = [
            pair for unit in units
            for pair in partner_major(
                (anchor, partner)
                for anchor, partners in plan.units[unit] for partner in partners
            )
        ]
        assert tiled == partner_major(block_pairs)
        assert len(units) == -(-len(block_pairs) // fair_share)
        assert max(sizes[u] for u in units) - min(sizes[u] for u in units) <= 1
    # Placement: every unit on a task, heaviest first, greedy least-loaded.
    assert sorted(plan.ranks.values()) == list(range(len(plan.units)))
    by_rank = sorted(plan.units, key=plan.ranks.get)
    assert [sizes[u] for u in by_rank] == sorted(sizes.values(), reverse=True)
    loads = [0] * tasks
    for unit, task in plan.assignment.items():
        loads[task] += sizes[unit]
    if plan.units:
        assert max(loads) - min(loads) <= max(sizes.values())
    # The mapper ships an entity exactly where a pair names it.
    named = {}
    for (anchor, partner), unit in where.items():
        named.setdefault(anchor, set()).add(unit)
        named.setdefault(partner, set()).add(unit)
    assert {entity_id: set(units) for entity_id, units in plan.routes.items()} == named
    assert plan.num_pairs == len(expected)


ORDER = ("X", "Y", "Z")

synthetic_entity = st.tuples(
    st.lists(st.sampled_from(["a", "b", None]), min_size=3, max_size=3),
    st.sampled_from(["a", "b"]),
)


class TestDeltaPlanning:
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
        stored=st.lists(synthetic_entity, max_size=14),
        batch=st.lists(synthetic_entity, max_size=10),
        min_matches=st.integers(1, 3),
        cross_source_only=st.booleans(),
        tasks=st.integers(1, 6),
    )
    def test_plan_is_the_brute_force_candidate_set(
        self, stored, batch, min_matches, cross_source_only, tasks
    ):
        # Ids interleave, so a partner may be younger in id than its anchor.
        def entities(rows, first):
            return [
                (Entity(first + 2 * index, {}, source), dict(zip(ORDER, codes)))
                for index, (codes, source) in enumerate(rows)
            ]

        old, new = entities(stored, 1), entities(batch, 2)
        store = EntityStore(ORDER, min_matches)
        store.admit(old, batch=1)
        plan = plan_delta(store, new, tasks, cross_source_only=cross_source_only)
        check_plan(plan, old, new, ORDER, min_matches, cross_source_only, tasks)

    @given(
        data=st.data(),
        batches=st.lists(st.lists(synthetic_entity, max_size=8), min_size=1, max_size=4),
        min_matches=st.integers(1, 3),
        cross_source_only=st.booleans(),
        tasks=st.integers(1, 6),
    )
    def test_plans_match_the_counter_planner_over_batch_sequences(
        self, data, batches, min_matches, cross_source_only, tasks
    ):
        # Ids are shuffled across batches, so a partner may be younger in
        # id than its anchor, or than the stored entities.
        ids = iter(data.draw(st.permutations(range(1, 1 + sum(map(len, batches))))))
        store = EntityStore(ORDER, min_matches)
        stored = []
        for number, rows in enumerate(batches, 1):
            batch = [
                (Entity(next(ids), {}, source), dict(zip(ORDER, codes)))
                for codes, source in rows
            ]
            expected = counter_plan(
                stored, batch, ORDER, tasks, min_matches, cross_source_only
            )
            plan = plan_delta(store, batch, tasks, cross_source_only=cross_source_only)
            assert_same_plan(plan, expected)
            store.admit(batch, number)
            stored.extend(batch)

    @pytest.mark.parametrize("scenario", ["dirty", "linkage"])
    @pytest.mark.parametrize("split", [(240,), (120, 120), (200, 1, 39), (60,) * 4])
    def test_plans_of_real_batches_match_the_oracle(self, scenario, split):
        make, configure = {
            "dirty": (make_citeseer, citeseer_config),
            "linkage": (make_linkage, linkage_config),
        }[scenario]
        config = configure()
        order = config.scheme.family_order
        keys_of = config.scheme.main_keys
        store = EntityStore(order, 2)
        entities = make(sum(split), seed=5).entities
        start = 0
        for number, size in enumerate(split, 1):
            batch = [(e, keys_of(e)) for e in entities[start:start + size]]
            stored = [(s.entity, keys_of(s.entity)) for s in store.stored()]
            plan = plan_delta(store, batch, 6, cross_source_only=scenario == "linkage")
            check_plan(plan, stored, batch, order, 2, scenario == "linkage", 6)
            store.admit(batch, number)
            start += size

    def test_last_family_block_has_no_candidates_at_two_matches(self):
        batch = [
            (Entity(i, {}), {"X": None, "Y": "y", "Z": "z"}) for i in range(5)
        ]
        plan = plan_delta(EntityStore(ORDER, 2), batch, 1)
        # Y and Z agree on every pair: Y, the first of them, decides all 10.
        assert list(plan.blocks) == [route_label(("Y", "y"))]
        assert plan.num_pairs == 10

    def test_blocks_within_the_fair_share_stay_whole(self):
        # Two blocks of two pairs on two tasks: the fair share is two.
        store = EntityStore(("X",), 1)
        store.admit([(Entity(i, {}), {"X": key}) for i, key in
                     ((2, "aa"), (3, "aa"), (5, "bb"), (6, "bb"))], 1)
        batch = [(Entity(1, {}), {"X": "aa"}), (Entity(4, {}), {"X": "bb"})]
        plan = plan_delta(store, batch, 2)
        aa, bb = route_label(("X", "aa")), route_label(("X", "bb"))
        assert plan.blocks == {aa: (aa,), bb: (bb,)}
        assert plan.units == {aa: [(1, [2, 3])], bb: [(4, [5, 6])]}
        assert plan.assignment == {aa: 0, bb: 1}
        assert plan.routes == {1: [aa], 2: [aa], 3: [aa], 4: [bb], 5: [bb], 6: [bb]}

    def test_oversized_blocks_are_sliced_along_partners(self):
        # 4 anchors x 32 stored partners of the other source in one block,
        # 4 tasks: each slice takes 8 of the partners with every anchor, so
        # a stored entity is shipped to one slice only.
        stored = [(Entity(i, {}, "b"), {"X": "k"}) for i in range(100, 132)]
        batch = [(Entity(i, {}, "a"), {"X": "k"}) for i in range(4)]
        store = EntityStore(("X",), 1)
        store.admit(stored, 1)
        plan = plan_delta(store, batch, 4, cross_source_only=True)
        slices = plan.blocks[route_label(("X", "k"))]
        assert [plan.units[s] for s in slices] == [
            [(anchor, list(range(lo, lo + 8))) for anchor in range(4)]
            for lo in range(100, 132, 8)
        ]
        assert sorted(plan.assignment[s] for s in slices) == [0, 1, 2, 3]
        assert all(len(plan.routes[i]) == 1 for i in range(100, 132))
        check_plan(plan, stored, batch, ("X",), 1, True, 4)


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

    def test_receipts_compare_exactly_the_planned_pairs(
        self, dataset, config, monkeypatch
    ):
        plans = []

        def recording(*args, **kwargs):
            plans.append(plan_delta(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(resolver_module, "plan_delta", recording)
        service = make_service(config)
        for start in range(0, 300, 75):
            service.submit(dataset.entities[start : start + 75])
        assert [r.comparisons for r in service.receipts] == [p.num_pairs for p in plans]
        assert [r.affected_blocks for r in service.receipts] == [
            p.num_blocks for p in plans
        ]

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

    def test_sourceless_entity_rejected_in_linkage_mode(self):
        service = make_service(linkage_config())
        batch = make_books(50, seed=1).entities
        with pytest.raises(ValueError, match=f"entity id {batch[0].id} has no source"):
            service.submit(batch)
        assert service.stats()["batches"] == 0 and len(service.store) == 0

    def test_basic_config_rejected(self, dataset, config):
        from repro.baselines import BasicConfig

        basic = BasicConfig(config)
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

    def test_rows_of_an_aborted_batch_do_not_outlive_its_values(self, dataset, config):
        """The service's matcher keeps the rows its delta jobs build, keyed
        by entity id.  A batch whose job aborted after its reduce tasks ran
        may come back under the same ids with other values: it must be
        decided on the new values, exactly as a fresh service would."""
        existing = dataset.entities[:200]
        original = dataset.entities[200:]

        def edited(entity):
            # Level-1 keys (title[:2], abstract[:3], venue[:3]) stay, so the
            # plan and the comparisons stay; the decisions change.
            return Entity(entity.id, {
                name: value[:3] + value[:2:-1] if value else value
                for name, value in entity.attrs.items()
            }, source=entity.source)

        batch = [edited(entity) for entity in original]
        service = make_service(config)
        service.submit(existing)
        # A plan under which every map attempt of batch 2's job succeeds and
        # some reduce attempt crashes with no retry left: the job aborts
        # after its reduce tasks have run (and built their rows).
        cluster = service.session.cluster
        job = "delta-resolution-2"
        service.session.cluster.faults = next(
            plan
            for plan in (
                FaultPlan(seed=seed, fault_rate=0.5, retry=RetryPolicy(max_attempts=1))
                for seed in range(100)
            )
            if not any(
                plan.attempt_fails(job, "map", task, 0)
                for task in range(cluster.num_map_tasks)
            )
            and any(
                plan.attempt_fails(job, "reduce", task, 0)
                for task in range(cluster.num_reduce_tasks)
            )
        )
        with pytest.raises(JobAbortedError):
            service.submit(original)
        # The aborted job's rows stay, one per offered id at most.
        offered = {entity.id for entity in dataset.entities}
        table = service._batcher._table
        assert set(table) <= offered
        aborted = {id(entity) for entity in original}
        assert any(id(row[-1]) in aborted for row in table.values())
        service.session.cluster.faults = None
        retried = service.submit(batch)
        assert set(table) <= offered

        fresh = make_service(config)
        fresh.submit(existing)
        expected = fresh.submit(batch)
        assert retried.comparisons == expected.comparisons > 0
        assert service.found_pairs == fresh.found_pairs
        # Not vacuous: the original values decide some pair differently.
        unedited = make_service(config)
        unedited.submit(existing)
        assert unedited.submit(original).comparisons == expected.comparisons
        assert unedited.found_pairs != fresh.found_pairs


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

    def test_lookup_reads_one_cluster_not_the_store(self, dataset, config, monkeypatch):
        def brute_force(service, entity_id):
            # Every stored id linked to entity_id by found pairs.
            clusters = {i: {i} for i in service.store.entity_ids()}
            for a, b in service.found_pairs:
                merged = clusters[a] | clusters[b]
                for i in merged:
                    clusters[i] = merged
            return tuple(sorted(clusters[entity_id]))

        service = make_service(config)
        for start in range(0, 300, 100):
            service.submit(dataset.entities[start : start + 100])
        restored = ResolverService.restore(
            json.loads(json.dumps(service.snapshot())), config, machines=3
        )
        ids = [entity.id for entity in dataset.entities]
        for svc in (service, restored):
            expected = [brute_force(svc, i) for i in ids]
            assert any(len(cluster) > 2 for cluster in expected)
            with monkeypatch.context() as patch:
                patch.setattr(
                    type(svc.store), "entity_ids",
                    lambda store: pytest.fail("cluster_of scanned the store"),
                )
                assert [svc.cluster_of(i) for i in ids] == expected


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

    @pytest.mark.parametrize("scenario", ["dirty", "linkage"])
    def test_restored_service_plans_the_next_batch_alike(self, scenario, monkeypatch):
        make, configure = {
            "dirty": (make_books, books_config),
            "linkage": (make_linkage, linkage_config),
        }[scenario]
        entities = make(300, seed=2).entities
        plans = []

        def recording(*args, **kwargs):
            plans.append(plan_delta(*args, **kwargs))
            return plans[-1]

        service = ResolverService(configure(), machines=3)
        for start, end in ((0, 120), (120, 200)):
            service.submit(entities[start:end])
        restored = ResolverService.restore(
            json.loads(json.dumps(service.snapshot())), configure(), machines=3
        )
        monkeypatch.setattr(resolver_module, "plan_delta", recording)
        first = service.submit(entities[200:300])
        again = restored.submit(entities[200:300])
        assert plans[0].num_pairs > 0
        assert_same_plan(plans[1], plans[0])
        assert again == first
        assert restored.pairs() == service.pairs()

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

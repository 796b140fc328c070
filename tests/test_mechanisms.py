"""Unit tests for the progressive mechanisms and the resolution driver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flatten_runs
from repro.data import Entity
from repro.mapreduce import CostModel
from repro.mechanisms import (
    PSNM,
    DistinctBudget,
    NeverStop,
    PopcornCondition,
    SortedNeighborHint,
    block_sort_key,
    resolve_block,
    window_pairs_count,
)
from repro.mechanisms.base import ResolveStats
from repro.similarity.batch import BatchMatcher
from repro.similarity.matchers import AttributeRule, WeightedMatcher


def _entities(*values):
    return [Entity(id=i, attrs={"v": v}) for i, v in enumerate(values)]


def _sort_key(e):
    return e.get("v")


def _collect_stream(mechanism, entities, window):
    charged = []
    members, runs = mechanism.pair_stream(
        entities, window, _sort_key, charged.append, CostModel()
    )
    return flatten_runs(members, runs), charged


class TestWindowPairsCount:
    @pytest.mark.parametrize(
        "n,w,expected",
        [
            (0, 5, 0),
            (1, 5, 0),
            (2, 1, 0),
            (4, 2, 3),     # distance-1 pairs only
            (4, 4, 6),     # distances 1..3 = all pairs
            (4, 100, 6),   # window larger than block
            (10, 3, 9 + 8),
        ],
    )
    def test_known_values(self, n, w, expected):
        assert window_pairs_count(n, w) == expected

    @given(st.integers(0, 200), st.integers(2, 50))
    def test_matches_enumeration(self, n, w):
        expected = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if j - i < w
        )
        assert window_pairs_count(n, w) == expected


class TestPairStreams:
    def test_sn_orders_by_distance(self):
        entities = _entities("a", "b", "c", "d")
        pairs, _ = _collect_stream(SortedNeighborHint(), entities, window=3)
        distances = []
        order = {e.id: rank for rank, e in enumerate(sorted(entities, key=_sort_key))}
        for e1, e2 in pairs:
            distances.append(abs(order[e1.id] - order[e2.id]))
        assert distances == sorted(distances)
        assert max(distances) < 3

    def test_sn_and_psnm_produce_identical_order(self):
        entities = _entities("delta", "alpha", "echo", "bravo", "charlie")
        sn_pairs, _ = _collect_stream(SortedNeighborHint(), entities, window=4)
        ps_pairs, _ = _collect_stream(PSNM(), entities, window=4)
        as_ids = lambda pairs: [(a.id, b.id) for a, b in pairs]
        assert as_ids(sn_pairs) == as_ids(ps_pairs)

    def test_sn_hint_costs_more_than_psnm(self):
        entities = _entities(*[f"v{i:03d}" for i in range(50)])
        cm = CostModel()
        sn = SortedNeighborHint().additional_cost(50, 10, cm)
        ps = PSNM().additional_cost(50, 10, cm)
        assert sn > ps  # the materialized hint costs extra

    def test_full_resolution_yields_all_pairs(self):
        """A window of at least the block size streams every pair."""
        entities = _entities("a", "b", "c", "d")
        pairs, _ = _collect_stream(PSNM(), entities, window=4)
        assert len(pairs) == 6

    def test_stream_respects_window(self):
        entities = _entities(*[f"v{i:02d}" for i in range(10)])
        pairs, _ = _collect_stream(PSNM(), entities, window=3)
        assert len(pairs) == window_pairs_count(10, 3)

    def test_cost_charged_before_first_pair(self):
        entities = _entities("a", "b")
        charged = []
        members, runs = PSNM().pair_stream(
            entities, 5, _sort_key, charged.append, CostModel()
        )
        assert charged and charged[0] > 0
        assert next(runs)


class TestStopConditions:
    def test_distinct_budget(self):
        stop = DistinctBudget(2)
        stats = ResolveStats()
        stats.distincts = 1
        assert not stop.should_stop(stats, was_duplicate=False)
        stats.distincts = 2
        assert stop.should_stop(stats, was_duplicate=False)

    def test_distinct_budget_validation(self):
        with pytest.raises(ValueError):
            DistinctBudget(-1)

    def test_never_stop(self):
        assert not NeverStop().should_stop(ResolveStats(), was_duplicate=False)

    def test_popcorn_stops_after_barren_run(self):
        popcorn = PopcornCondition(0.5)  # barren limit = 2
        stats = ResolveStats()
        assert not popcorn.should_stop(stats, was_duplicate=False)
        assert popcorn.should_stop(stats, was_duplicate=False)

    def test_popcorn_resets_on_duplicate(self):
        popcorn = PopcornCondition(0.5)
        stats = ResolveStats()
        assert not popcorn.should_stop(stats, was_duplicate=False)
        assert not popcorn.should_stop(stats, was_duplicate=True)
        assert not popcorn.should_stop(stats, was_duplicate=False)
        assert popcorn.should_stop(stats, was_duplicate=False)

    def test_popcorn_threshold_validation(self):
        with pytest.raises(ValueError):
            PopcornCondition(0.0)
        with pytest.raises(ValueError):
            PopcornCondition(1.0)

    def test_popcorn_barren_limit_scale(self):
        assert PopcornCondition(0.1).barren_limit == 10
        assert PopcornCondition(0.001).barren_limit == 1000


#: A stream position as a stop condition sees it.
OUTCOMES = st.sampled_from(["duplicate", "distinct", "pruned"])


def _per_position_stop(condition, stats, positions):
    """Feed ``positions`` to ``should_stop`` one at a time, updating
    ``stats`` as :func:`resolve_block` does; the index it fired at."""
    for index, kind in enumerate(positions):
        if kind == "pruned":
            stats.pruned += 1
        else:
            stats.comparisons += 1
            if kind == "duplicate":
                stats.duplicates += 1
            else:
                stats.distincts += 1
        if condition.should_stop(stats, kind == "duplicate"):
            return index
    return None


@st.composite
def twin_conditions(draw):
    """Two identical stop conditions of one kind, in the same state: a
    popcorn detector has first seen a drawn history of positions."""
    kind = draw(st.sampled_from(["budget", "popcorn", "never"]))
    if kind == "budget":
        threshold = draw(st.integers(0, 12))
        return DistinctBudget(threshold), DistinctBudget(threshold)
    if kind == "never":
        return NeverStop(), NeverStop()
    threshold = draw(st.sampled_from([0.1, 0.25, 0.5, 0.9]))
    history = draw(st.lists(OUTCOMES, max_size=12))
    twins = PopcornCondition(threshold), PopcornCondition(threshold)
    for condition in twins:
        _per_position_stop(condition, ResolveStats(), history)
    return twins


class TestFirstStop:
    """``first_stop`` is the closed form of the per-position loop: the
    same firing index, the same condition state left behind."""

    @settings(max_examples=400)
    @given(
        twins=twin_conditions(),
        before=st.builds(
            ResolveStats,
            comparisons=st.integers(0, 20),
            distincts=st.integers(0, 10),
            pruned=st.integers(0, 10),
        ),
        positions=st.lists(OUTCOMES, max_size=40),
    )
    def test_fires_where_the_per_position_loop_does(self, twins, before, positions):
        scalar, closed = twins
        expected = _per_position_stop(scalar, ResolveStats(**vars(before)), positions)
        stats = ResolveStats(**vars(before))
        fired = closed.first_stop(stats, [kind == "duplicate" for kind in positions])
        assert fired == expected
        assert vars(closed) == vars(scalar)
        assert stats == before  # read, never written


class TestResolveBlock:
    def _matcher(self):
        return BatchMatcher(WeightedMatcher([AttributeRule("v", 1.0)], threshold=0.8))

    def test_finds_duplicates(self):
        entities = _entities("progressive er", "progressive eq", "zzzz completely")
        found = []
        charged = []
        stats = resolve_block(
            *PSNM().pair_stream(entities, 3, _sort_key, charged.append, CostModel()),
            self._matcher(),
            CostModel(),
            charged.extend,
            lambda a, b: found.append((a.id, b.id)),
        )
        assert [tuple(sorted(p)) for p in found] == [(0, 1)]
        assert stats.duplicates == 1
        assert stats.exhausted
        assert sum(charged) > 0

    def test_should_resolve_veto_skips_and_costs_nothing(self):
        entities = _entities("aa", "ab")
        charged = []
        compared = []
        stats = resolve_block(
            *PSNM().pair_stream(entities, 2, _sort_key, charged.append, CostModel()),
            self._matcher(),
            CostModel(),
            compared.extend,
            lambda a, b: None,
            admit=lambda lefts, rights: ["skipped"] * len(lefts),
        )
        assert stats.skipped == 1
        assert stats.comparisons == 0
        assert compared == []

    def test_stop_condition_halts_early(self):
        entities = _entities(*[f"x{i:02d}" for i in range(20)])
        stats = resolve_block(
            *PSNM().pair_stream(entities, 10, _sort_key, lambda c: None, CostModel()),
            self._matcher(),
            CostModel(),
            lambda c: None,
            lambda a, b: None,
            stop=DistinctBudget(3),
        )
        assert not stats.exhausted
        assert stats.distincts == 3

    def test_on_resolved_observer_sees_every_comparison(self):
        entities = _entities("aa", "ab", "zz")
        seen = []
        members, runs = PSNM().pair_stream(
            entities, 99, _sort_key, lambda c: None, CostModel()
        )
        resolve_block(
            members,
            runs,
            self._matcher(),
            CostModel(),
            lambda c: None,
            lambda a, b: None,
            on_resolved=lambda lefts, rights, decisions: seen.extend(
                ((members[i].id, members[j].id), d)
                for i, j, d in zip(lefts, rights, decisions)
            ),
        )
        assert len(seen) == 3


class TestBlockSortKey:
    def test_primary_attribute_first(self):
        e1 = Entity(id=0, attrs={"title": "zzz", "venue": "aaa"})
        e2 = Entity(id=1, attrs={"title": "aaa", "venue": "zzz"})
        assert block_sort_key(e1, "venue") < block_sort_key(e2, "venue")

    def test_title_breaks_primary_ties(self):
        e1 = Entity(id=0, attrs={"title": "beta", "venue": "same"})
        e2 = Entity(id=1, attrs={"title": "alpha", "venue": "same"})
        assert block_sort_key(e2, "venue") < block_sort_key(e1, "venue")

    def test_primary_title_excludes_duplicate_tiebreak(self):
        e = Entity(id=0, attrs={"title": "t", "venue": "v"})
        primary, rest = block_sort_key(e, "title")
        assert primary == "t"
        assert "t" not in rest.split("\x1f")

"""The bounded match kernel must be invisible except in wall-clock.

``BatchMatcher`` is the only short-circuiting implementation of the match
decision; ``WeightedMatcher.is_match`` — the full weighted sum against the
threshold — is its definition and the oracle here.  Nothing is allowed to
drift: the property suite holds kernel ≡ definition on random matcher
configurations (both comparators, truncation, missing/empty attributes,
cached and uncached) and random entity batches, and checks the soundness
of the per-rule floor with thresholds drawn at the boundary; the
``resolve_block`` differential pins the full driver loop — stats,
duplicate callbacks, charge sequences and stop points — against the
per-pair oracle ``scalar_resolve_block`` below; the guard tests prove that
the hot path never falls back to per-pair ``is_match`` /
``comparison_cost_factor`` calls and that ``src/`` decides through one
kernel; the run-loop property holds the loop to the oracle on every
in-repo run stream, random vetoes, ranges, stops and widths; and the
end-to-end differential pins found-pair sets and progressive curves
across {definition, kernel} × {serial, process} × {slack, pairrange} on
the golden books fixture.
"""

from __future__ import annotations

import ast
import contextlib
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.core.driver as driver
import repro.mechanisms.base as mechanisms_base
import repro.similarity.batch as batch_module
import repro.similarity.matchers as matchers_module
from conftest import decide, flatten_runs, index_pairs
from repro.core import books_config, skewed_config
from repro.data import Entity, make_skewed
from repro.evaluation import ExperimentRun, RunSpec
from repro.mapreduce import CostModel
from repro.baselines.mrsn import window_runs
from repro.mechanisms import (
    PSNM,
    DistinctBudget,
    NeverStop,
    PopcornCondition,
    ResolveStats,
    SortedNeighborHint,
    block_sort_key,
    resolve_block,
)
from repro.service.delta import plan_delta, unit_runs
from repro.service.store import EntityStore
from repro.similarity import (
    AttributeRule,
    BatchMatcher,
    WeightedMatcher,
    books_matcher,
    citeseer_matcher,
)

ALPHABET = "abcdé日本語🙂 "
_ATTRS = ("title", "venue", "year")
_COMPARATORS = ("edit", "exact")

rule_strategy = st.tuples(
    st.sampled_from(_ATTRS),
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    st.sampled_from(_COMPARATORS),
    st.sampled_from([None, 4, 12]),
)


@st.composite
def matcher_configs(draw, cache=False):
    raw = draw(st.lists(rule_strategy, min_size=1, max_size=4))
    rules = []
    seen = set()
    for attribute, weight, comparator, max_chars in raw:
        if attribute in seen:
            continue
        seen.add(attribute)
        rules.append(
            AttributeRule(
                attribute, weight=weight, comparator=comparator, max_chars=max_chars
            )
        )
    threshold = draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    return WeightedMatcher(rules, threshold, cache=cache)


@st.composite
def entity_batches(draw, min_pairs=0, max_pairs=24):
    """A pool of entities (attributes randomly missing/empty) and a pair
    list over them, long enough for value pairs to repeat in a batch."""
    pool_size = draw(st.integers(min_value=2, max_value=8))
    entities = []
    for i in range(pool_size):
        attrs = {}
        for attr in _ATTRS:
            value = draw(
                st.one_of(st.none(), st.text(alphabet=ALPHABET, max_size=16))
            )
            if value is not None:
                attrs[attr] = value
        entities.append(Entity(id=i, attrs=attrs))
    # Near-duplicates stress the threshold boundary where the bounded
    # cutoffs and edit floors sit closest to the actual similarities.
    if draw(st.booleans()) and pool_size >= 2:
        twin_attrs = {
            name: (value[:-1] if value else value)
            for name, value in entities[0].attrs.items()
        }
        entities[1] = Entity(id=1, attrs=twin_attrs)
    indices = st.integers(min_value=0, max_value=pool_size - 1)
    pairs = draw(
        st.lists(
            st.tuples(indices, indices), min_size=min_pairs, max_size=max_pairs
        )
    )
    return [(entities[i], entities[j]) for i, j in pairs]


class TestKernelEqualsDefinition:
    @settings(max_examples=150)
    @given(matcher=matcher_configs(), pairs=entity_batches())
    def test_is_match_equals_scalar(self, matcher, pairs):
        definition = [matcher.is_match(e1, e2) for e1, e2 in pairs]
        assert decide(BatchMatcher(matcher), pairs) == definition

    @settings(max_examples=100)
    @given(matcher=matcher_configs(cache=True), pairs=entity_batches())
    def test_cached_matcher_decisions_equal_scalar(self, matcher, pairs):
        # The kernel answers a pair-cached matcher through the matcher's
        # own cache; interleave to exercise warm-cache hits.
        assert decide(BatchMatcher(matcher), pairs) == [
            matcher.is_match(e1, e2) for e1, e2 in pairs
        ]
        assert set(matcher._cache) == {
            (min(e1.id, e2.id), max(e1.id, e2.id)) for e1, e2 in pairs
        }

    @settings(max_examples=100)
    @given(matcher=matcher_configs(), pairs=entity_batches())
    def test_cost_factors_equal_scalar(self, matcher, pairs):
        definition = [matcher.comparison_cost_factor(e1, e2) for e1, e2 in pairs]
        batcher = BatchMatcher(matcher)
        members, lefts, rights = index_pairs(pairs)
        assert batcher.cost_factors(batcher.rows(members), lefts, rights) == definition

    def test_empty_batch(self):
        batcher = BatchMatcher(books_matcher())
        rows = batcher.rows([])
        before = batch_module.batch_kernel_counters()
        assert batcher.decisions(rows, [], []) == []
        assert batcher.cost_factors(rows, [], []) == []
        assert batch_module.batch_kernel_counters() == before  # not a batch

    def test_removed_surface_is_gone(self):
        for name in ("batch_is_match", "batch_similarity", "batch_cost_factors"):
            with pytest.raises(ImportError):
                exec(f"from repro.similarity import {name}")
        for name in ("similarities", "_row", "_row_columns", "_rows"):
            with pytest.raises(AttributeError):
                getattr(BatchMatcher(books_matcher()), name)
        with pytest.raises(AttributeError):
            books_matcher()._bounded_match


@st.composite
def boundary_cases(draw):
    """A matcher whose threshold sits within 1e-6 of the weighted sum of
    one of the batch's own pairs — where a floor that is too high flips a
    decision and one that is merely conservative does not."""
    pairs = draw(entity_batches(min_pairs=1))
    loose = draw(matcher_configs())
    pivot = pairs[draw(st.integers(min_value=0, max_value=len(pairs) - 1))]
    offset = draw(st.floats(min_value=-1e-6, max_value=1e-6, allow_nan=False))
    threshold = loose.similarity(*pivot) + offset
    assume(0.0 < threshold <= 1.0)
    return WeightedMatcher(loose.rules, threshold), pairs


class _Deaths:
    """Which short-circuit ended the one pair of a one-pair batch.

    Spies on the module-level names the kernel calls.  ``sentinel`` is read
    off the bounded kernel's return value.  ``credit``: the pair died while
    its edit credits were being computed, heaviest first — fewer
    ``_edit_upper_bounds`` results than edit rules.  The cutoff is inline
    code, so it is recognised by what never ran: every edit rule that has
    a value on both sides announces itself through ``_rule_floor``, and a
    pair that met no other short-circuit yet never reached one of them was
    cut by the cutoff before it got there.
    """

    def __init__(self, matcher):
        self.matcher = matcher
        self.real = {
            name: getattr(batch_module, name)
            for name in ("_rule_floor", "_edit_upper_bounds", "edits_at_least")
        }
        self.edit_rules = sum(rule.comparator == "edit" for rule in matcher.rules)
        self.clear()

    def clear(self):
        self.reached = 0
        self.uppers = []
        self.floors = []
        self.kernel_calls = 0
        self.sentinel = False

    def _rule_floor(self, *args):
        floor = self.real["_rule_floor"](*args)
        self.reached += 1
        self.floors.append(floor)
        return floor

    def _edit_upper_bounds(self, *columns):
        uppers = self.real["_edit_upper_bounds"](*columns)
        self.uppers.extend(uppers)
        return uppers

    def edits_at_least(self, values1, values2, floors, patterns=None):
        sims = self.real["edits_at_least"](values1, values2, floors, patterns)
        self.kernel_calls += len(sims)
        self.sentinel = self.sentinel or batch_module._BELOW_FLOOR in sims
        return sims

    @contextlib.contextmanager
    def patched(self):
        with mock.patch.multiple(
            batch_module, **{name: getattr(self, name) for name in self.real}
        ):
            yield

    def decide(self, e1, e2):
        """``(decision, short-circuits that fired)`` for the pair, decided
        in a batch of its own so the spies speak about this pair only."""
        self.clear()
        with self.patched():
            (decision,) = decide(BatchMatcher(self.matcher), [(e1, e2)])
        kinds = set()
        if self.sentinel:
            kinds.add("sentinel")
        # Every floor is answered by a kernel call: the credits already
        # ended every pair whose floor its own bound could not reach.
        assert len(self.floors) == self.kernel_calls
        if len(self.uppers) < self.edit_rules:
            assert not self.floors
            kinds.add("credit")
        announced = sum(
            1
            for rule in self.matcher.rules
            if rule.comparator == "edit" and all(rule.values(e1, e2))
        )
        if not kinds and self.reached < announced:
            kinds.add("cutoff")
        return decision, kinds


class TestFloorSoundness:
    """What a mirror sharing the bounds could not catch: every pair the
    kernel drops before its last rule was ever summed — by a credit
    computed heaviest rule first, by the cutoff, by the bounded kernel's
    below-floor sentinel — is below the threshold by the definition."""

    @settings(max_examples=300)
    @given(case=boundary_cases())
    def test_pairs_dropped_by_the_floor_are_below_threshold(self, case):
        # ``entity_batches`` leaves attributes out on one side and on both;
        # ``boundary_cases`` puts the threshold within 1e-6 of a pair's sum.
        matcher, pairs = case
        deaths = _Deaths(matcher)
        for e1, e2 in pairs:
            decision, kinds = deaths.decide(e1, e2)
            similarity = matcher.similarity(e1, e2)
            if kinds:
                assert not decision
                assert similarity < matcher.threshold
            assert decision == (similarity >= matcher.threshold)

    def test_every_way_to_die_fires_and_is_sound(self, books_small, citeseer_small):
        # Not vacuous: on real pairs each short-circuit ends some pair.
        import random

        rng = random.Random(21)
        seen = {"credit": 0, "cutoff": 0, "sentinel": 0}
        for matcher, entities in (
            (books_matcher(), books_small.entities),
            (citeseer_matcher(), citeseer_small.entities),
        ):
            pairs = [tuple(rng.sample(entities, 2)) for _ in range(150)]
            pairs += list(zip(entities, entities[1:150]))
            deaths = _Deaths(matcher)
            for e1, e2 in pairs:
                decision, kinds = deaths.decide(e1, e2)
                for kind in kinds:
                    seen[kind] += 1
                    assert not decision
                    assert matcher.similarity(e1, e2) < matcher.threshold
                assert decision == matcher.is_match(e1, e2)
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("missing", ["neither", "one side", "both sides"])
    def test_a_tight_bound_keeps_the_pair_at_its_own_threshold(self, missing):
        # Bag distance == Levenshtein on every edit field, so each credit is
        # exactly what the rule will score and the threshold *is* the pair's
        # sum: any margin given away (``upper - 1e-3``, ``cutoff + 1e-3``,
        # a floor without its ``1e-7``) turns this accept into a reject.
        rules = [
            AttributeRule("title", weight=0.5, comparator="edit"),
            AttributeRule("venue", weight=0.3, comparator="edit"),
            AttributeRule("year", weight=0.2, comparator="exact"),
        ]
        left = {"title": "abcdefgh", "venue": "🙂 xyz", "year": "1999"}
        right = {"title": "abcdefgx", "venue": " xyz", "year": "2001"}
        if missing == "one side":
            del right["venue"]
        elif missing == "both sides":
            del left["venue"], right["venue"]
        e1, e2 = Entity(id=1, attrs=left), Entity(id=2, attrs=right)
        own_sum = WeightedMatcher(rules, 0.5).similarity(e1, e2)
        assert 0.0 < own_sum < 1.0
        matcher = WeightedMatcher(rules, own_sum)
        assert matcher.is_match(e1, e2)
        assert decide(BatchMatcher(matcher), [(e1, e2), (e2, e1)]) == [True, True]
        # ... and a hair above it the same pair is out, by both.
        above = WeightedMatcher(rules, own_sum + 1e-12)
        assert not above.is_match(e1, e2)
        assert decide(BatchMatcher(above), [(e1, e2)]) == [False]

    def test_astral_character_counts_once(self):
        # The prototype's first signature counted UTF-16 units: the emoji
        # weighed two, the bound said similarity 0.0, and this pair — 0.5 by
        # the definition, at threshold 0.5 — flipped to a non-match.
        matcher = WeightedMatcher([AttributeRule("title", 1.0, "edit")], 0.5)
        e1 = Entity(id=1, attrs={"title": " 🙂"})
        e2 = Entity(id=2, attrs={"title": " "})
        assert matcher.is_match(e1, e2)
        assert decide(BatchMatcher(matcher), [(e1, e2), (e2, e1)]) == [True, True]

    def test_value_too_long_for_a_counter_uses_the_length_bound(self):
        longest = batch_module._COUNTER_MAX + 1
        matcher = WeightedMatcher([AttributeRule("title", 1.0, "edit")], 0.9)
        base = "a" * longest
        near = Entity(id=1, attrs={"title": base[:-3] + "bcd"})
        far = Entity(id=2, attrs={"title": "a" * (longest // 2)})
        e0 = Entity(id=0, attrs={"title": base})
        assert batch_module._signature(base) is None
        with mock.patch.object(
            batch_module, "edits_at_least",
            side_effect=batch_module.edits_at_least,
        ) as kernel:
            assert decide(BatchMatcher(matcher), [(e0, near), (e0, far)]) == [
                True, False,
            ]
        # The length gap alone ruled the second pair out.
        assert sum(len(call.args[2]) for call in kernel.call_args_list) == 1


class TestOneKernelCallPerValuePair:
    """A batch sends each rule's compared pairs to the bounded kernel in
    one call, whatever their floors, and the kernel decides each distinct
    value pair of that call once, under the loosest bound it was asked
    for, while every pair is answered against its own bound."""

    @staticmethod
    @contextlib.contextmanager
    def _recorded():
        groups = []
        real = matchers_module.levenshtein_many

        def recording(triples, patterns=None):
            triples = list(triples)
            groups.append(triples)
            return real(triples, patterns)

        with mock.patch.object(matchers_module, "levenshtein_many", recording):
            yield groups

    def test_a_repeated_value_pair_reaches_the_kernel_once(self):
        matcher = WeightedMatcher([AttributeRule("title", 1.0, "edit")], 0.8)
        titles = ["abcdefghij", "abcdefghix", "abcdefghij", "abcdefghix"]
        a, b, c, d = (Entity(id=i, attrs={"title": t}) for i, t in enumerate(titles))
        pairs = [(a, b), (c, d), (a, d), (c, b)]
        with self._recorded() as groups:
            decisions = decide(BatchMatcher(matcher), pairs)
        assert decisions == [matcher.is_match(e1, e2) for e1, e2 in pairs] == [True] * 4
        # One floor above 0 for all four pairs: one call, one triple.
        assert [[triple[:2] for triple in group] for group in groups] == [
            [("abcdefghij", "abcdefghix")]
        ]

    def test_mixed_floors_share_the_loosest_budget(self):
        # The exact rules leave the first pair no floor to reach (all three
        # agree) and the second one a floor of 0.5 (one disagrees).
        rules = [
            AttributeRule("title", 0.4, "edit"),
            AttributeRule("year", 0.2, "exact"),
            AttributeRule("pages", 0.2, "exact"),
            AttributeRule("isbn", 0.2, "exact"),
        ]
        matcher = WeightedMatcher(rules, 0.6)
        common = {"year": "1999", "pages": "120", "isbn": "x1"}
        a = Entity(id=1, attrs={"title": "abcdefghij", **common})
        b = Entity(id=2, attrs={"title": "abcdefghix", **common})
        c = Entity(id=3, attrs={"title": "abcdefghij", **common})
        d = Entity(id=4, attrs={"title": "abcdefghix", **common, "isbn": "x2"})
        pairs = [(a, b), (c, d)]
        with self._recorded() as groups:
            decisions = decide(BatchMatcher(matcher), pairs)
        assert decisions == [matcher.is_match(e1, e2) for e1, e2 in pairs] == [True, True]
        # Budgets 10 (the whole length: the exact distance) and 5, merged.
        assert groups == [[("abcdefghij", "abcdefghix", 10)]]

    def test_each_pair_is_answered_against_its_own_floor(self):
        values1 = ["abcdefghij"] * 4 + ["kitten"]
        values2 = ["abcdefghix"] * 4 + ["sitting"]
        floors = [0.95, -0.2, 0.5, 0.85, 0.0]
        with self._recorded() as groups:
            merged = matchers_module.edits_at_least(values1, values2, floors)
        alone = [
            matchers_module.edits_at_least([v1], [v2], [floor])[0]
            for v1, v2, floor in zip(values1, values2, floors)
        ]
        assert merged == alone == [
            batch_module._BELOW_FLOOR, 0.9, 0.9, 0.9, 1.0 - 3 / 7,
        ]
        assert groups[0] == [("abcdefghij", "abcdefghix", 12), ("kitten", "sitting", 7)]


# ---------------------------------------------------------------------------
# resolve_block: the batched driver loop replays the scalar sequence
# ---------------------------------------------------------------------------


def scalar_resolve_block(
    members, runs, matcher, cost_model, charge_compare, on_duplicate, *,
    admit=None, stop=None, on_resolved=None, pair_range=None,
):
    """The per-pair oracle ``resolve_block`` is differenced against: the
    runs flattened to one pair at a time, the veto asked about each pair
    on its own, one ``is_match`` — the definition, no short-circuit — per
    admitted pair, no look-ahead."""
    definition = matcher.matcher
    stats = ResolveStats()
    condition = stop if stop is not None else NeverStop()
    first, last = (0, None) if pair_range is None else pair_range
    positions = ((i, j) for lefts, rights in runs for i, j in zip(lefts, rights))
    for position, (i, j) in enumerate(positions):
        if position < first:
            continue
        if last is not None and position >= last:
            break
        verdict = admit([i], [j])[0] if admit is not None else None
        if verdict is not None:
            setattr(stats, verdict, getattr(stats, verdict) + 1)
            if verdict == "pruned" and condition.should_stop(stats, False):
                return stats
            continue
        e1, e2 = members[i], members[j]
        charge_compare(
            [cost_model.compare * definition.comparison_cost_factor(e1, e2)]
        )
        is_dup = definition.is_match(e1, e2)
        stats.comparisons += 1
        if is_dup:
            stats.duplicates += 1
            on_duplicate(e1, e2)
        else:
            stats.distincts += 1
        if on_resolved is not None:
            on_resolved([i], [j], [is_dup])
        if condition.should_stop(stats, is_dup):
            return stats
    stats.exhausted = True
    return stats


def _pair_veto(members, verdict):
    """A run veto asking ``verdict(e1, e2)`` about each pair."""
    def admit(lefts, rights):
        return [verdict(members[a], members[b]) for a, b in zip(lefts, rights)]

    return admit


def _resolve_runs(
    members, runs, matcher, resolver=resolve_block, *,
    stop=None, verdict=None, pair_range=None,
):
    """Resolve materialized runs; everything the loop makes observable."""
    charged = []
    dups = []
    resolved = []

    def on_resolved(lefts, rights, decisions):
        for i, j, d in zip(lefts, rights, decisions):
            a, b = members[i], members[j]
            resolved.append((min(a.id, b.id), max(a.id, b.id), d))

    stats = resolver(
        members,
        iter(runs),
        BatchMatcher(matcher),
        CostModel(),
        charged.extend,
        lambda a, b: dups.append((min(a.id, b.id), max(a.id, b.id))),
        on_resolved=on_resolved,
        stop=stop,
        admit=None if verdict is None else _pair_veto(members, verdict),
        pair_range=pair_range,
    )
    return stats, dups, resolved, charged


def _resolve(
    entities, matcher, resolver=resolve_block, *, window=8, stop=None, verdict=None
):
    charged = []
    members, runs = SortedNeighborHint().pair_stream(
        entities, window, lambda e: block_sort_key(e, "title"),
        charged.append, CostModel(),
    )
    stats, dups, resolved, compared = _resolve_runs(
        members, list(runs), matcher, resolver, stop=stop, verdict=verdict
    )
    return stats, dups, resolved, charged + compared


class TestResolveBlockBatching:
    def test_batched_resolution_replays_scalar_sequence(
        self, books_small, monkeypatch
    ):
        entities = books_small.entities[:120]
        scalar = _resolve(entities, books_matcher(), scalar_resolve_block)
        for width in (2, 64, 10_000):
            monkeypatch.setattr(mechanisms_base, "BATCH_PAIRS", width)
            batched = _resolve(entities, books_matcher())
            assert batched == scalar
        assert scalar[0].comparisons > 0
        assert scalar[1]  # found some duplicates, or the test is vacuous

    def test_stop_condition_fires_at_the_same_pair(self, books_small):
        entities = books_small.entities[:120]
        scalar = _resolve(
            entities, books_matcher(), scalar_resolve_block, stop=DistinctBudget(25)
        )
        batched = _resolve(entities, books_matcher(), stop=DistinctBudget(25))
        assert batched == scalar
        assert not scalar[0].exhausted

    def test_admit_verdicts_are_counted_and_pruned_burns_the_budget(
        self, books_small, monkeypatch
    ):
        entities = books_small.entities[:120]
        verdicts = (None, "filtered", "pruned", "skipped")

        def verdict(e1, e2):
            return verdicts[(e1.id + e2.id) % 4]

        unstopped = _resolve(entities, books_matcher(), verdict=verdict)[0]
        assert unstopped.exhausted
        assert min(
            unstopped.comparisons, unstopped.filtered,
            unstopped.pruned, unstopped.skipped,
        ) > 0

        scalar = _resolve(
            entities, books_matcher(), scalar_resolve_block,
            verdict=verdict, stop=DistinctBudget(25),
        )
        for width in (2, 64):
            monkeypatch.setattr(mechanisms_base, "BATCH_PAIRS", width)
            batched = _resolve(
                entities, books_matcher(), verdict=verdict, stop=DistinctBudget(25)
            )
            assert batched == scalar
        stats = scalar[0]
        assert not stats.exhausted
        # Pruned positions burned budget: the stop fired on fewer than 25
        # actual distinct verdicts.
        assert stats.distincts + stats.pruned == 25
        assert 0 < stats.pruned and stats.distincts < 25
        assert stats.filtered > 0 and stats.skipped > 0

    def test_removed_options_are_type_errors(self):
        matcher = books_matcher()
        with pytest.raises(TypeError):
            BatchMatcher(matcher, use_numpy=False)
        with pytest.raises(TypeError):
            resolve_block(
                [], [], BatchMatcher(matcher), CostModel(), lambda cost: cost,
                lambda a, b: None, pair_filter=lambda a, b: True,
            )

    def test_src_never_imports_numpy(self):
        # A fresh interpreter where ``import numpy`` fails: the CLI still
        # imports and the batch kernel still decides.
        script = (
            "import sys; sys.modules['numpy'] = None\n"
            "import repro.cli\n"
            "from repro.data import make_books\n"
            "from repro.similarity import BatchMatcher, books_matcher\n"
            "entities = make_books(40, seed=2).entities\n"
            "matcher = books_matcher()\n"
            "batcher = BatchMatcher(matcher)\n"
            "lefts, rights = range(39), range(1, 40)\n"
            "assert batcher.decisions(batcher.rows(entities), lefts, rights) == "
            "[matcher.is_match(entities[i], entities[i + 1]) for i in lefts]\n"
            "assert not any(name.split('.')[0] == 'numpy' and module is not None"
            " for name, module in sys.modules.items())\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", script], check=True, env=env)

    def test_hot_path_never_calls_scalar_matcher(self, books_small, monkeypatch):
        # The CI guard: reintroducing per-pair is_match/comparison_cost_factor
        # calls on the resolve hot path must fail loudly.
        entities = books_small.entities[:120]
        expected = _resolve(entities, books_matcher())

        def _banned(self, *args):
            raise AssertionError(
                "resolve_block called the scalar per-pair matcher API"
            )

        monkeypatch.setattr(WeightedMatcher, "is_match", _banned)
        monkeypatch.setattr(WeightedMatcher, "comparison_cost_factor", _banned)
        guarded = _resolve(entities, books_matcher())
        assert guarded == expected
        assert guarded[0].comparisons > 0

    def test_src_decides_through_one_kernel(self):
        # One decide loop, one kernel: nothing under src/repro calls
        # ``.is_match(`` and only resolve_block calls ``.decisions(``.
        root = pathlib.Path(mechanisms_base.__file__).resolve().parents[1]
        callers = {"is_match": set(), "decisions": set()}
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in callers
                ):
                    callers[node.func.attr].add(path.relative_to(root).as_posix())
        assert callers == {"is_match": set(), "decisions": {"mechanisms/base.py"}}


# ---------------------------------------------------------------------------
# The run loop against the oracle, on every in-repo run stream
# ---------------------------------------------------------------------------

VERDICTS = (None, "filtered", "pruned", "skipped")
FAMILIES = ("X", "Y", "Z")


@st.composite
def run_streams(draw, pool):
    """A block of <= 30 books and one run stream over it: from an in-repo
    mechanism, MR-SN's window, the delta candidates, or random runs."""
    start = draw(st.integers(0, len(pool) - 1))
    chosen = pool[start:start + draw(st.integers(0, 30))]
    window = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(
        ["psnm", "sn-hint", "mrsn", "delta", "random"]
    ))
    mechanisms = {
        "psnm": PSNM(),
        "sn-hint": SortedNeighborHint(),
    }
    if kind in mechanisms:
        members, runs = mechanisms[kind].pair_stream(
            chosen, window, lambda e: block_sort_key(e, "title"),
            lambda cost: cost, CostModel(),
        )
        return kind, members, list(runs)
    if kind == "mrsn":
        flags = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
        ordered = list(zip(chosen, flags))
        return kind, chosen, list(window_runs(ordered, window))
    if kind == "delta":
        rows = [
            (
                entity,
                dict(zip(FAMILIES, draw(st.lists(
                    st.sampled_from(["a", "b", None]), min_size=3, max_size=3
                )))),
                draw(st.booleans()),
            )
            for entity in chosen
        ]
        tasks, min_matches = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        store = EntityStore(FAMILIES, min_matches)
        store.admit([(entity, keys) for entity, keys, new in rows if not new], 1)
        plan = plan_delta(store, [(entity, keys) for entity, keys, new in rows if new], tasks)
        if not plan.units:
            return kind, chosen, []
        unit = draw(st.sampled_from(sorted(plan.units)))
        members = sorted(
            (entity for entity in chosen if unit in plan.routes.get(entity.id, ())),
            key=lambda entity: entity.id,
        )
        return kind, members, list(unit_runs(members, plan.units[unit]))
    pairs = [
        (j, i) if draw(st.booleans()) else (i, j)
        for i in range(len(chosen)) for j in range(i + 1, len(chosen))
    ]
    pairs = draw(st.permutations(pairs))[: draw(st.integers(0, len(pairs)))]
    runs = []
    while pairs:
        size = draw(st.integers(1, len(pairs)))
        runs.append(([i for i, _ in pairs[:size]], [j for _, j in pairs[:size]]))
        pairs = pairs[size:]
    return kind, chosen, runs


def _id_pairs(members, runs):
    return [
        (min(a.id, b.id), max(a.id, b.id)) for a, b in flatten_runs(members, runs)
    ]


class TestRunLoopMatchesOracle:
    @settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_loop_equals_the_oracle_on_the_flattened_pairs(self, books_small, data):
        pool = sorted(books_small.entities, key=lambda e: (e.get("title"), e.id))
        kind, members, runs = data.draw(run_streams(pool))
        ids = _id_pairs(members, runs)
        # The contract a veto over a whole run rests on.
        assert len(set(ids)) == len(ids), kind
        table = data.draw(st.lists(st.sampled_from(VERDICTS), min_size=1, max_size=8))
        verdict = (
            (lambda e1, e2: table[(min(e1.id, e2.id) * 7 + max(e1.id, e2.id)) % len(table)])
            if data.draw(st.booleans()) else None
        )
        pair_range = data.draw(st.one_of(
            st.none(),
            st.lists(st.integers(0, len(ids) + 2), min_size=2, max_size=2).map(
                lambda bounds: tuple(sorted(bounds))
            ),
        ))
        stops = {
            "none": lambda: None,
            "budget": lambda: DistinctBudget(budget),
            "popcorn": lambda: PopcornCondition(popcorn),
        }
        stop = data.draw(st.sampled_from(sorted(stops)))
        budget = data.draw(st.integers(0, 20))
        popcorn = data.draw(st.sampled_from([0.1, 0.3, 0.5]))
        width = data.draw(st.sampled_from([1, 2, 64]))
        matcher = books_matcher()

        scalar = _resolve_runs(
            members, runs, matcher, scalar_resolve_block,
            stop=stops[stop](), verdict=verdict, pair_range=pair_range,
        )
        with mock.patch.object(mechanisms_base, "BATCH_PAIRS", width):
            batched = _resolve_runs(
                members, runs, matcher,
                stop=stops[stop](), verdict=verdict, pair_range=pair_range,
            )
        assert batched == scalar

    @given(n=st.integers(0, 40), window=st.integers(1, 15))
    def test_psnm_runs_flatten_to_the_distance_major_order(self, n, window):
        entities = [Entity(id=i, attrs={"title": f"t{(i * 7) % 41:02d}"}) for i in range(n)]
        members, runs = PSNM().pair_stream(
            entities, window, lambda e: block_sort_key(e, "title"),
            lambda cost: cost, CostModel(),
        )
        ordered = sorted(entities, key=lambda e: (block_sort_key(e, "title"), e.id))
        assert members == ordered
        assert flatten_runs(members, runs) == [
            (ordered[i], ordered[i + distance])
            for distance in range(1, min(window, n))
            for i in range(n - distance)
        ]


# ---------------------------------------------------------------------------
# End-to-end differential: {definition, kernel} × {serial, process} × balance
# ---------------------------------------------------------------------------


def _fingerprint(run):
    result = run.result
    return (
        result.total_time,
        tuple(result.duplicate_events),
        tuple(run.curve.times),
        tuple(run.curve.recalls),
    )


class TestRowsLiveForAJob:
    def test_a_pairrange_run_builds_each_row_at_most_once(self, monkeypatch):
        # Every pairrange shard of the hub block sends the hub's members to
        # another reduce task; one matcher per job builds their rows once.
        dataset = make_skewed(400, hub_fraction=0.6)
        built = []
        build_row = BatchMatcher._build_row

        def counted_build_row(self, entity):
            built.append(entity.id)
            return build_row(self, entity)

        monkeypatch.setattr(BatchMatcher, "_build_row", counted_build_row)
        ExperimentRun(RunSpec(
            dataset, skewed_config(), machines=5, balance="pairrange", backend="serial",
        )).run()
        assert 0 < len(built) <= len(dataset)
        assert len(set(built)) == len(built)


class TestEndToEndDifferential:
    @pytest.mark.parametrize("balance", ["slack", "pairrange"])
    def test_scalar_batch_serial_process_identical(
        self, books_small, balance, monkeypatch
    ):
        config = books_config()

        def run(resolver, backend):
            # Forked workers inherit the patched module: the pool is per job.
            monkeypatch.setattr(driver, "resolve_block", resolver)
            spec = RunSpec(
                books_small, config, machines=4,
                backend=backend, workers=2, balance=balance,
            )
            return _fingerprint(ExperimentRun(spec).run())

        reference = run(scalar_resolve_block, "serial")
        assert run(resolve_block, "serial") == reference
        assert run(resolve_block, "process") == reference
        assert run(scalar_resolve_block, "process") == reference

"""The bounded match kernel must be invisible except in wall-clock.

``BatchMatcher`` is the only short-circuiting implementation of the match
decision; ``WeightedMatcher.is_match`` — the full weighted sum against the
threshold — is its definition and the oracle here.  Nothing is allowed to
drift: the property suite holds kernel ≡ definition on random matcher
configurations (every comparator, truncation, missing/empty attributes,
cached and uncached) and random entity batches, and checks the soundness
of the per-rule floor with thresholds drawn at the boundary; the
``resolve_block`` differential pins the full driver loop — stats,
duplicate callbacks, charge sequences and stop points — against the
per-pair oracle ``scalar_resolve_block`` below; the guard tests prove that
the hot path never falls back to per-pair ``is_match`` /
``comparison_cost_factor`` calls and that ``src/`` decides through one
kernel; and the end-to-end differential pins found-pair sets and
progressive curves across {definition, kernel} × {serial, process} ×
{slack, blocksplit} on the golden books fixture.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.driver as driver
import repro.mechanisms.base as mechanisms_base
import repro.similarity.batch as batch_module
from repro.core import books_config
from repro.data import Entity
from repro.evaluation import ExperimentRun, RunSpec
from repro.mapreduce import CostModel
from repro.mechanisms import (
    NeverStop,
    ResolveStats,
    SortedNeighborHint,
    block_sort_key,
    resolve_block,
)
from repro.similarity import (
    AttributeRule,
    BatchMatcher,
    WeightedMatcher,
    books_matcher,
    citeseer_matcher,
)

ALPHABET = "abcdé日本語🙂 "
_ATTRS = ("title", "venue", "year")
_COMPARATORS = ("edit", "exact", "jaro_winkler", "token_jaccard", "qgram")

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
        assert BatchMatcher(matcher).decisions(pairs) == definition

    @settings(max_examples=100)
    @given(matcher=matcher_configs(cache=True), pairs=entity_batches())
    def test_cached_matcher_decisions_equal_scalar(self, matcher, pairs):
        # The kernel answers a pair-cached matcher through the matcher's
        # own cache; interleave to exercise warm-cache hits.
        assert BatchMatcher(matcher).decisions(pairs) == [
            matcher.is_match(e1, e2) for e1, e2 in pairs
        ]
        assert set(matcher._cache) == {
            (min(e1.id, e2.id), max(e1.id, e2.id)) for e1, e2 in pairs
        }

    @settings(max_examples=100)
    @given(matcher=matcher_configs(), pairs=entity_batches())
    def test_cost_factors_equal_scalar(self, matcher, pairs):
        definition = [matcher.comparison_cost_factor(e1, e2) for e1, e2 in pairs]
        assert BatchMatcher(matcher).cost_factors(pairs) == definition

    def test_empty_batch(self):
        batcher = BatchMatcher(books_matcher())
        assert batcher.decisions([]) == []
        assert batcher.cost_factors([]) == []

    def test_removed_surface_is_gone(self):
        for name in ("batch_is_match", "batch_similarity", "batch_cost_factors"):
            with pytest.raises(ImportError):
                exec(f"from repro.similarity import {name}")
        with pytest.raises(AttributeError):
            BatchMatcher(books_matcher()).similarities
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

    Spies on the module-level names the kernel calls.  ``sentinel`` and
    ``above_upper`` are read off return values; the credit cutoff is inline
    code, so it is recognised by what never ran: every rule that is not
    ``exact`` and has a value on both sides announces itself — an edit rule
    through ``_rule_floor``, the others through ``_memo_compare`` — and a
    pair that neither met the sentinel nor an unreachable floor yet never
    reached one of them was cut by the cutoff before it got there.
    """

    def __init__(self, matcher):
        self.matcher = matcher
        self.real = {
            name: getattr(batch_module, name)
            for name in (
                "_rule_floor", "_edit_upper_bound",
                "_memo_edit_at_least", "_memo_compare",
            )
        }
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

    def _edit_upper_bound(self, *args):
        upper = self.real["_edit_upper_bound"](*args)
        self.uppers.append(upper)
        return upper

    def _memo_edit_at_least(self, v1, v2, floor):
        sim = self.real["_memo_edit_at_least"](v1, v2, floor)
        self.kernel_calls += 1
        self.sentinel = self.sentinel or sim == batch_module._BELOW_FLOOR
        return sim

    def _memo_compare(self, comparator, v1, v2):
        if comparator == "edit":
            self.kernel_calls += 1
        else:
            self.reached += 1
        return self.real["_memo_compare"](comparator, v1, v2)

    def patched(self):
        return mock.patch.multiple(
            batch_module, **{name: getattr(self, name) for name in self.real}
        )

    def decide(self, e1, e2):
        """``(decision, short-circuits that fired)`` for the pair, decided
        in a batch of its own so the spies speak about this pair only."""
        self.clear()
        with self.patched():
            (decision,) = BatchMatcher(self.matcher).decisions([(e1, e2)])
        kinds = set()
        if self.sentinel:
            kinds.add("sentinel")
        # Every floor is answered by a kernel call unless it was unreachable.
        if len(self.floors) > self.kernel_calls:
            assert len(self.floors) == self.kernel_calls + 1
            assert self.floors[-1] > min(self.uppers)
            kinds.add("above_upper")
        announced = sum(
            1
            for rule in self.matcher.rules
            if rule.comparator != "exact" and all(rule.values(e1, e2))
        )
        if not kinds and self.reached < announced:
            kinds.add("cutoff")
        return decision, kinds


class TestFloorSoundness:
    """What a mirror sharing the bounds could not catch: every pair the
    kernel drops before its last rule was ever summed — by the credit
    cutoff, by a floor above the rule's own upper bound, by the bounded
    kernel's below-floor sentinel — is below the threshold by the
    definition."""

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
        # Not vacuous: on real pairs each short-circuit ends some pair.  An
        # unreachable floor needs an edit rule evaluated first (citeseer);
        # behind a cheap rule the cutoff gets there before it (books).
        import random

        rng = random.Random(21)
        seen = {"cutoff": 0, "above_upper": 0, "sentinel": 0}
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
        assert BatchMatcher(matcher).decisions([(e1, e2), (e2, e1)]) == [True, True]
        # ... and a hair above it the same pair is out, by both.
        above = WeightedMatcher(rules, own_sum + 1e-12)
        assert not above.is_match(e1, e2)
        assert BatchMatcher(above).decisions([(e1, e2)]) == [False]

    def test_astral_character_counts_once(self):
        # The prototype's first signature counted UTF-16 units: the emoji
        # weighed two, the bound said similarity 0.0, and this pair — 0.5 by
        # the definition, at threshold 0.5 — flipped to a non-match.
        matcher = WeightedMatcher([AttributeRule("title", 1.0, "edit")], 0.5)
        e1 = Entity(id=1, attrs={"title": " 🙂"})
        e2 = Entity(id=2, attrs={"title": " "})
        assert matcher.is_match(e1, e2)
        assert BatchMatcher(matcher).decisions([(e1, e2), (e2, e1)]) == [True, True]

    def test_value_too_long_for_a_counter_uses_the_length_bound(self):
        longest = batch_module._COUNTER_MAX + 1
        matcher = WeightedMatcher([AttributeRule("title", 1.0, "edit")], 0.9)
        base = "a" * longest
        near = Entity(id=1, attrs={"title": base[:-3] + "bcd"})
        far = Entity(id=2, attrs={"title": "a" * (longest // 2)})
        e0 = Entity(id=0, attrs={"title": base})
        assert batch_module._signature(base) is None
        with mock.patch.object(
            batch_module, "_memo_edit_at_least",
            side_effect=batch_module._memo_edit_at_least,
        ) as kernel:
            assert BatchMatcher(matcher).decisions([(e0, near), (e0, far)]) == [
                True, False,
            ]
        # The length gap alone ruled the second pair out.
        assert kernel.call_count == 1


# ---------------------------------------------------------------------------
# resolve_block: the batched driver loop replays the scalar sequence
# ---------------------------------------------------------------------------


def scalar_resolve_block(
    pairs, matcher, cost_model, charge_compare, on_duplicate, *,
    admit=None, stop=None, on_resolved=None, pair_range=None,
):
    """The per-pair oracle ``resolve_block`` is differenced against: one
    ``is_match`` — the definition, no short-circuit — per admitted pair,
    no look-ahead."""
    stats = ResolveStats()
    condition = stop if stop is not None else NeverStop()
    first, last = (0, None) if pair_range is None else pair_range
    for position, (e1, e2) in enumerate(pairs):
        if position < first:
            continue
        if last is not None and position >= last:
            break
        verdict = admit(e1, e2) if admit is not None else None
        if verdict is not None:
            setattr(stats, verdict, getattr(stats, verdict) + 1)
            if verdict == "pruned" and condition.should_stop(stats, False):
                return stats
            continue
        charge_compare(cost_model.compare * matcher.comparison_cost_factor(e1, e2))
        is_dup = matcher.is_match(e1, e2)
        stats.comparisons += 1
        if is_dup:
            stats.duplicates += 1
            on_duplicate(e1, e2)
        else:
            stats.distincts += 1
        if on_resolved is not None:
            on_resolved(e1, e2, is_dup)
        if condition.should_stop(stats, is_dup):
            return stats
    stats.exhausted = True
    return stats


def _resolve(
    entities, matcher, resolver=resolve_block, *, window=8, stop=None, admit=None
):
    charged = []
    dups = []
    resolved = []

    def charge(cost):
        charged.append(cost)
        return cost

    cost_model = CostModel()
    stats = resolver(
        SortedNeighborHint().pair_stream(
            entities, window, lambda e: block_sort_key(e, "title"), charge, cost_model
        ),
        matcher,
        cost_model,
        charge,
        lambda a, b: dups.append((min(a.id, b.id), max(a.id, b.id))),
        on_resolved=lambda a, b, d: resolved.append(
            (min(a.id, b.id), max(a.id, b.id), d)
        ),
        stop=stop,
        admit=admit,
    )
    return stats, dups, resolved, charged


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
        from repro.mechanisms import DistinctBudget

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
        from repro.mechanisms import DistinctBudget

        entities = books_small.entities[:120]
        verdicts = (None, "filtered", "pruned", "skipped")

        def admit(e1, e2):
            return verdicts[(e1.id + e2.id) % 4]

        unstopped = _resolve(entities, books_matcher(), admit=admit)[0]
        assert unstopped.exhausted
        assert min(
            unstopped.comparisons, unstopped.filtered,
            unstopped.pruned, unstopped.skipped,
        ) > 0

        scalar = _resolve(
            entities, books_matcher(), scalar_resolve_block,
            admit=admit, stop=DistinctBudget(25),
        )
        for width in (2, 64):
            monkeypatch.setattr(mechanisms_base, "BATCH_PAIRS", width)
            batched = _resolve(
                entities, books_matcher(), admit=admit, stop=DistinctBudget(25)
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
                [], matcher, CostModel(), lambda cost: cost, lambda a, b: None,
                pair_filter=lambda a, b: True,
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
            "pairs = list(zip(entities, entities[1:]))\n"
            "matcher = books_matcher()\n"
            "assert BatchMatcher(matcher).decisions(pairs) == "
            "[matcher.is_match(a, b) for a, b in pairs]\n"
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


class TestEndToEndDifferential:
    @pytest.mark.parametrize("balance", ["slack", "blocksplit"])
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

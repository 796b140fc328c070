"""Unit tests for the weighted-sum resolve/match function."""

import pytest

from conftest import decide
from repro.core import citeseer_config
from repro.data import Entity, make_citeseer
from repro.evaluation import ExperimentRun, RunSpec
from repro.similarity.batch import _COMPARATOR_RANK, BatchMatcher
from repro.similarity.matchers import (
    MIN_COST_FACTOR,
    AttributeRule,
    WeightedMatcher,
    books_matcher,
    citeseer_matcher,
)


def _e(eid, **attrs):
    return Entity(id=eid, attrs={k: str(v) for k, v in attrs.items()})


class TestAttributeRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            AttributeRule("a", weight=0.0)
        with pytest.raises(ValueError):
            AttributeRule("a", weight=1.0, comparator="bogus")

    def test_exact_comparator(self):
        rule = AttributeRule("year", weight=1.0, comparator="exact")
        assert rule.similarity(_e(1, year=1999), _e(2, year=1999)) == 1.0
        assert rule.similarity(_e(1, year=1999), _e(2, year=2000)) == 0.0

    def test_max_chars_truncation(self):
        rule = AttributeRule("t", weight=1.0, max_chars=3)
        # Identical in the first 3 chars -> similarity 1 despite long tails.
        assert rule.similarity(_e(1, t="abcXXXX"), _e(2, t="abcYYYY")) == 1.0

    def test_both_missing_returns_none(self):
        rule = AttributeRule("t", weight=1.0)
        assert rule.similarity(_e(1), _e(2)) is None

    def test_one_missing_scores_zero(self):
        rule = AttributeRule("t", weight=1.0)
        assert rule.similarity(_e(1, t="x"), _e(2)) == 0.0

    def test_jaro_winkler_comparator(self):
        rule = AttributeRule("t", weight=1.0, comparator="jaro_winkler")
        assert rule.similarity(_e(1, t="martha"), _e(2, t="marhta")) == pytest.approx(
            0.961111, abs=1e-5
        )


class TestWeightedMatcher:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedMatcher([], threshold=0.5)
        with pytest.raises(ValueError):
            WeightedMatcher([AttributeRule("a", 1.0)], threshold=0.0)

    def test_weighted_sum(self):
        matcher = WeightedMatcher(
            [
                AttributeRule("a", weight=3.0, comparator="exact"),
                AttributeRule("b", weight=1.0, comparator="exact"),
            ],
            threshold=0.5,
        )
        e1 = _e(1, a="x", b="y")
        e2 = _e(2, a="x", b="z")
        assert matcher.similarity(e1, e2) == pytest.approx(0.75)
        assert matcher.is_match(e1, e2)

    def test_missing_attribute_renormalizes(self):
        matcher = WeightedMatcher(
            [
                AttributeRule("a", weight=1.0, comparator="exact"),
                AttributeRule("b", weight=1.0, comparator="exact"),
            ],
            threshold=0.9,
        )
        # "b" missing on both sides: only "a" counts, so a perfect "a" wins.
        assert matcher.similarity(_e(1, a="x"), _e(2, a="x")) == 1.0

    def test_all_missing_scores_zero(self):
        matcher = WeightedMatcher([AttributeRule("a", 1.0)], threshold=0.5)
        assert matcher.similarity(_e(1), _e(2)) == 0.0

    def test_cache_returns_same_values(self):
        cached = WeightedMatcher(
            [AttributeRule("a", 1.0)], threshold=0.5, cache=True
        )
        plain = WeightedMatcher([AttributeRule("a", 1.0)], threshold=0.5)
        e1, e2 = _e(1, a="hello"), _e(2, a="hallo")
        assert cached.similarity(e1, e2) == plain.similarity(e1, e2)
        assert cached.similarity(e2, e1) == plain.similarity(e1, e2)  # hits cache

    def test_cache_answers_only_for_the_entities_it_was_filled_from(self):
        # Every generated dataset numbers its entities from 0, and tier-1
        # shares one caching matcher across several of them: a hit keyed by
        # id alone would score this dataset's pair with the last one's.
        def found(dataset, matcher, machines):
            spec = RunSpec(dataset, citeseer_config(matcher=matcher), machines=machines)
            return ExperimentRun(spec).run().found_pairs

        shared = citeseer_matcher(cache=True)
        found(make_citeseer(200, seed=3), shared, 4)
        second = make_citeseer(250, seed=7)
        assert found(second, shared, 3) == found(second, citeseer_matcher(cache=True), 3)

    def test_clear_cache(self):
        matcher = WeightedMatcher([AttributeRule("a", 1.0)], threshold=0.5, cache=True)
        decide(BatchMatcher(matcher), [(_e(1, a="x"), _e(2, a="y"))])
        assert matcher._cache
        matcher.clear_cache()
        assert not matcher._cache


class TestCostFactor:
    def test_reference_length_costs_one(self):
        matcher = WeightedMatcher([AttributeRule("a", 1.0)], threshold=0.5)
        value = "x" * 40
        assert matcher.comparison_cost_factor(
            _e(1, a=value), _e(2, a=value)
        ) == pytest.approx(1.0)

    def test_longer_strings_cost_more(self):
        matcher = WeightedMatcher([AttributeRule("a", 1.0)], threshold=0.5)
        short = matcher.comparison_cost_factor(_e(1, a="ab"), _e(2, a="cd"))
        long = matcher.comparison_cost_factor(_e(1, a="x" * 200), _e(2, a="y" * 200))
        assert long > short

    def test_exact_only_matcher_costs_minimum(self):
        matcher = WeightedMatcher(
            [AttributeRule("a", 1.0, comparator="exact")], threshold=0.5
        )
        assert matcher.comparison_cost_factor(_e(1, a="x"), _e(2, a="y")) == MIN_COST_FACTOR


class TestPresets:
    def test_citeseer_matcher_attributes(self):
        matcher = citeseer_matcher()
        assert [r.attribute for r in matcher.rules] == ["title", "abstract", "venue"]
        abstract_rule = matcher.rules[1]
        assert abstract_rule.max_chars == 350  # the paper's <=350-char rule

    def test_books_matcher_has_eight_rules(self):
        matcher = books_matcher()
        assert len(matcher.rules) == 8
        comparators = {r.comparator for r in matcher.rules}
        assert comparators == {"edit", "exact"}


class TestBoundedMatch:
    """The bounded kernel's cheap-comparator-first short-circuiting never
    changes the decision ``is_match`` defines."""

    def test_agrees_with_full_similarity_on_random_pairs(self):
        import random

        from repro.data import make_books, make_people
        from repro.similarity.matchers import people_matcher

        for maker, matcher in (
            (make_books, books_matcher()),
            (make_people, people_matcher()),
        ):
            dataset = maker(300, seed=13)
            rng = random.Random(17)
            pairs = [tuple(rng.sample(dataset.entities, 2)) for _ in range(150)]
            # Seed some true duplicate pairs so both outcomes are exercised.
            for eid, cluster in list(dataset.clusters.items())[:50]:
                peers = [
                    e
                    for e in dataset.entities
                    if dataset.clusters[e.id] == cluster and e.id != eid
                ]
                if peers:
                    entity = next(e for e in dataset.entities if e.id == eid)
                    pairs.append((entity, peers[0]))
            decisions = decide(BatchMatcher(matcher), pairs)
            expected = [matcher.similarity(a, b) >= matcher.threshold for a, b in pairs]
            assert decisions == expected
            assert [matcher.is_match(a, b) for a, b in pairs] == expected
            assert any(expected), "want at least one matching pair in the sample"

    def test_evaluation_order_is_cheapest_first(self):
        matcher = books_matcher()
        order = BatchMatcher(matcher)._eval_order
        assert sorted(order) == list(range(len(matcher.rules)))
        ranks = [_COMPARATOR_RANK[matcher.rules[index].comparator] for index in order]
        assert ranks == sorted(ranks)

"""Unit tests for the entity model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.data.entity import Entity, pair_key, pairs_count


class TestEntity:
    def test_get_returns_value(self):
        e = Entity(id=1, attrs={"title": "on graphs"})
        assert e.get("title") == "on graphs"

    def test_get_missing_returns_empty(self):
        e = Entity(id=1, attrs={})
        assert e.get("title") == ""

    def test_get_missing_custom_default(self):
        e = Entity(id=1, attrs={})
        assert e.get("title", "n/a") == "n/a"

    def test_equality_is_by_id(self):
        assert Entity(id=1, attrs={"a": "x"}) == Entity(id=1, attrs={"a": "y"})
        assert Entity(id=1, attrs={}) != Entity(id=2, attrs={})

    def test_hash_is_by_id(self):
        entities = {Entity(id=1, attrs={"a": "x"}), Entity(id=1, attrs={"a": "y"})}
        assert len(entities) == 1

    def test_not_equal_to_other_types(self):
        assert Entity(id=1, attrs={}) != "entity"


class TestPairKey:
    def test_orders_ids(self):
        assert pair_key(7, 3) == (3, 7)
        assert pair_key(3, 7) == (3, 7)

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            pair_key(4, 4)

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_symmetric(self, a, b):
        if a == b:
            return
        assert pair_key(a, b) == pair_key(b, a)


class TestPairsCount:
    @pytest.mark.parametrize(
        "n,expected", [(0, 0), (1, 0), (2, 1), (3, 3), (4, 6), (10, 45), (100, 4950)]
    )
    def test_known_values(self, n, expected):
        assert pairs_count(n) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pairs_count(-1)

    @given(st.integers(0, 2000))
    def test_matches_combinatorial_definition(self, n):
        assert pairs_count(n) == n * (n - 1) // 2

    @given(st.integers(1, 2000))
    def test_recurrence(self, n):
        # Pairs(n) = Pairs(n-1) + (n-1): each new entity pairs with all others.
        assert pairs_count(n) == pairs_count(n - 1) + (n - 1)

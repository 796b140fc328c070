"""Unit tests for dominance lists and SHOULD-RESOLVE (paper Figure 7)."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.redundancy import (
    build_dominance_list,
    dominance_columns,
    missing_sentinel,
    should_resolve,
)


class TestSentinels:
    def test_negative_and_unique(self):
        assert missing_sentinel(0) == -1
        assert missing_sentinel(5) == -6
        assert missing_sentinel(3) != missing_sentinel(4)


class TestBuildDominanceList:
    def test_own_family_entry_is_emitted_tree(self):
        lst = build_dominance_list(
            entity_id=7,
            own_index=2,
            num_families=3,
            family_trees=[10, 20, 30],
            emitted_tree=99,
            split_descendant=None,
        )
        assert lst == [10, 99, 30]

    def test_missing_family_gets_sentinel(self):
        lst = build_dominance_list(
            entity_id=7,
            own_index=1,
            num_families=3,
            family_trees=[5, None, None],
            emitted_tree=5,
            split_descendant=None,
        )
        assert lst == [5, missing_sentinel(7), missing_sentinel(7)]

    def test_split_descendant_appended(self):
        lst = build_dominance_list(
            entity_id=1,
            own_index=1,
            num_families=2,
            family_trees=[4, 8],
            emitted_tree=4,
            split_descendant=42,
        )
        assert lst == [4, 8, 42]
        assert len(lst) == 3  # n + 1

    def test_wrong_family_count_rejected(self):
        with pytest.raises(ValueError):
            build_dominance_list(
                entity_id=1,
                own_index=1,
                num_families=3,
                family_trees=[1, 2],
                emitted_tree=1,
                split_descendant=None,
            )


class TestShouldResolve:
    def test_most_dominating_family_always_resolves(self):
        # index = 1: the loop body never runs; no split entries.
        assert should_resolve([1, 2, 3], [1, 9, 9], index=1, num_families=3)

    def test_defers_to_dominating_family(self):
        # Both entities share the X tree (entry 0) -> a Y block must skip.
        list_k = [7, 2, 3]
        list_l = [7, 5, 6]
        assert not should_resolve(list_k, list_l, index=2, num_families=3)

    def test_resolves_when_no_dominating_overlap(self):
        list_k = [1, 2, 3]
        list_l = [4, 2, 6]
        assert should_resolve(list_k, list_l, index=2, num_families=3)

    def test_sentinels_never_match(self):
        list_k = [missing_sentinel(1), 2]
        list_l = [missing_sentinel(2), 2]
        assert should_resolve(list_k, list_l, index=2, num_families=2)

    def test_defers_to_split_subtree(self):
        # Both entities carry the same (n+1)-st split entry: the pair lives
        # inside a split-off sub-tree and is resolved there.
        list_k = [1, 2, 42]
        list_l = [9, 2, 42]
        assert not should_resolve(list_k, list_l, index=2, num_families=2)

    def test_different_split_subtrees_resolve(self):
        list_k = [1, 2, 42]
        list_l = [9, 2, 43]
        assert should_resolve(list_k, list_l, index=2, num_families=2)

    def test_one_sided_split_entry_resolves(self):
        list_k = [1, 2, 42]
        list_l = [9, 2]
        assert should_resolve(list_k, list_l, index=2, num_families=2)

    def test_paper_example_list(self):
        """Section V's example: T(X2_1) split from T(X1_1), T(X3_1) split
        from T(X2_1).  List(e1, X2_1) = [Dom(T(X2_1)), Dom(T(Y1_1)),
        Dom(T(X3_1))]."""
        dom_x2, dom_y1, dom_x3 = 10, 20, 30
        lst = build_dominance_list(
            entity_id=1,
            own_index=1,
            num_families=2,
            family_trees=[None, dom_y1],  # own entry replaced anyway
            emitted_tree=dom_x2,
            split_descendant=dom_x3,
        )
        assert lst == [dom_x2, dom_y1, dom_x3]
        # Inside T(X2_1): a pair fully inside X3_1 is skipped...
        other = [dom_x2, 99, dom_x3]
        assert not should_resolve(lst, other, index=1, num_families=2)
        # ...but a pair reaching outside X3_1 is resolved here.
        outsider = [dom_x2, 99]
        assert should_resolve(lst, outsider, index=1, num_families=2)


class TestDominanceColumns:
    @given(
        rows=st.lists(
            st.tuples(
                st.lists(st.integers(0, 3), min_size=3, max_size=3),
                st.one_of(st.none(), st.integers(0, 3)),
            ),
            max_size=8,
        ),
        index=st.integers(1, 3),
    )
    def test_columns_veto_exactly_what_should_resolve_vetoes(self, rows, index):
        # Entries drawn from a tiny range so lists collide often; a member
        # is vetoed against another iff SHOULD-RESOLVE says so.
        dom_lists = [
            build_dominance_list(
                entity_id=member,
                own_index=index,
                num_families=3,
                family_trees=[None if tree == 0 else tree for tree in trees],
                emitted_tree=9,
                split_descendant=tail,
            )
            for member, (trees, tail) in enumerate(rows)
        ]
        columns = dominance_columns(dom_lists, index, 3)
        for a, b in itertools.permutations(range(len(dom_lists)), 2):
            vetoed = any(column[a] == column[b] for column in columns)
            assert vetoed == (not should_resolve(dom_lists[a], dom_lists[b], index, 3))

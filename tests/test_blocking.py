"""Unit tests for blocking functions, schemes, blocks and the blocker."""

import pytest

from repro.blocking import (
    Block,
    BlockingScheme,
    books_scheme,
    build_forest,
    build_forests,
    citeseer_scheme,
    group_by_key,
    prefix_function,
)
from repro.data import Dataset, Entity


def _entities(*titles):
    return [Entity(id=i, attrs={"title": t}) for i, t in enumerate(titles)]


class TestPrefixFunction:
    def test_extracts_prefix(self):
        f = prefix_function("X", 1, "title", 2)
        assert f.key_of(Entity(id=0, attrs={"title": "Progressive ER"})) == "pr"

    def test_normalizes_whitespace_and_case(self):
        f = prefix_function("X", 1, "title", 4)
        assert f.key_of(Entity(id=0, attrs={"title": "  The   Book "})) == "the "

    def test_missing_attribute_excluded(self):
        f = prefix_function("X", 1, "title", 2)
        assert f.key_of(Entity(id=0, attrs={})) is None

    def test_short_values_keep_whole_string(self):
        f = prefix_function("X", 1, "title", 10)
        assert f.key_of(Entity(id=0, attrs={"title": "ab"})) == "ab"

    def test_name_and_description(self):
        f = prefix_function("Y", 2, "abstract", 5)
        assert f.name == "Y2"
        assert f.description == "abstract.sub(0, 5)"

    def test_length_validation(self):
        with pytest.raises(ValueError):
            prefix_function("X", 1, "title", 0)


class TestBlockingScheme:
    def test_paper_table2_citeseer(self):
        scheme = citeseer_scheme()
        assert scheme.family_order == ["X", "Y", "Z"]
        assert scheme.depth("X") == 2  # two sub-blocking functions
        assert scheme.depth("Y") == 1
        assert scheme.depth("Z") == 1
        assert scheme.main_function("X").description == "title.sub(0, 2)"

    def test_paper_table2_books(self):
        scheme = books_scheme()
        assert scheme.main_function("X").description == "title.sub(0, 3)"
        assert scheme.num_families == 3

    def test_index_of_follows_dominance_order(self):
        scheme = citeseer_scheme()
        assert scheme.index_of("X") == 1
        assert scheme.index_of("Y") == 2
        assert scheme.index_of("Z") == 3

    def test_level_gap_rejected(self):
        with pytest.raises(ValueError):
            BlockingScheme(
                families={
                    "X": [prefix_function("X", 1, "t", 2), prefix_function("X", 3, "t", 4)]
                }
            )

    def test_wrong_family_rejected(self):
        with pytest.raises(ValueError):
            BlockingScheme(families={"X": [prefix_function("Y", 1, "t", 2)]})

    def test_empty_scheme_rejected(self):
        with pytest.raises(ValueError):
            BlockingScheme(families={})


class TestBlock:
    def _tree(self):
        root = Block(family="X", level=1, key="th", entity_ids=(1, 2, 3, 4))
        left = Block(family="X", level=2, key="the ", entity_ids=(1, 2))
        right = Block(family="X", level=2, key="thre", entity_ids=(3, 4))
        root.add_child(left)
        root.add_child(right)
        return root, left, right

    def test_uid(self):
        root, *_ = self._tree()
        assert root.uid == "X1:th"

    def test_size_and_pairs(self):
        root, left, _ = self._tree()
        assert root.size == 4
        assert root.total_pairs == 6
        assert left.total_pairs == 1

    def test_size_override(self):
        b = Block(family="X", level=1, key="a", entity_ids=(), size_override=10)
        assert b.size == 10
        assert b.total_pairs == 45

    def test_tree_navigation(self):
        root, left, right = self._tree()
        assert root.is_root and not root.is_leaf
        assert left.is_leaf and not left.is_root
        assert left.root is root
        assert right.root is root
        assert list(root.descendants()) == [left, right]

    def test_bottom_up_order(self):
        root, left, right = self._tree()
        order = list(root.subtree_bottom_up())
        assert order.index(left) < order.index(root)
        assert order.index(right) < order.index(root)

    def test_detach_child(self):
        root, left, right = self._tree()
        detached = root.detach_child(left)
        assert detached.is_root
        assert root.children == [right]
        with pytest.raises(ValueError):
            root.detach_child(left)

    def test_add_child_rejects_reparenting(self):
        root, left, _ = self._tree()
        other = Block(family="X", level=1, key="zz", entity_ids=(9, 10))
        with pytest.raises(ValueError):
            other.add_child(left)

    def test_unsorted_ids_rejected(self):
        with pytest.raises(ValueError):
            Block(family="X", level=1, key="a", entity_ids=(3, 1))


class TestBlocker:
    def _dataset(self):
        return Dataset(entities=_entities(
            "the graph", "the grape", "the grain",
            "thin ice", "thin air",
            "a model", "a map",
            "unique title",
        ))

    def test_main_blocks_partition_blocked_entities(self):
        ds = self._dataset()
        scheme = BlockingScheme(families={"X": [prefix_function("X", 1, "title", 2)]})
        forest = build_forest(ds, scheme, "X")
        all_ids = [eid for root in forest.roots for eid in root.entity_ids]
        assert len(all_ids) == len(set(all_ids))  # disjoint blocks

    def test_singleton_blocks_pruned(self):
        ds = self._dataset()
        scheme = BlockingScheme(families={"X": [prefix_function("X", 1, "title", 2)]})
        forest = build_forest(ds, scheme, "X")
        keys = {root.key for root in forest.roots}
        assert "un" not in keys  # "unique title" stands alone
        assert all(root.size >= 2 for root in forest.roots)

    def test_children_are_subsets_of_parents(self, citeseer_small):
        forests = build_forests(citeseer_small, citeseer_scheme())
        for forest in forests.values():
            for block in forest.blocks():
                for child in block.children:
                    assert set(child.entity_ids) <= set(block.entity_ids)
                    assert child.size < block.size

    def test_child_levels_increase(self, citeseer_small):
        forests = build_forests(citeseer_small, citeseer_scheme())
        for forest in forests.values():
            for block in forest.blocks():
                for child in block.children:
                    assert child.level > block.level

    def test_skip_through_when_subkey_does_not_divide(self):
        # All titles share the 4-char prefix, but differ at the 8-char one:
        # level 2 is skipped and level-3 children attach directly to the root.
        ds = Dataset(entities=_entities(
            "prog alpha", "prog alpha x", "prog beta", "prog beta y"
        ))
        scheme = BlockingScheme(
            families={
                "X": [
                    prefix_function("X", 1, "title", 2),
                    prefix_function("X", 2, "title", 4),
                    prefix_function("X", 3, "title", 8),
                ]
            }
        )
        forest = build_forest(ds, scheme, "X")
        assert len(forest.roots) == 1
        root = forest.roots[0]
        assert {c.level for c in root.children} == {3}
        assert {c.key for c in root.children} == {"prog alp", "prog bet"}

    def test_uid_uniqueness(self, citeseer_small):
        forests = build_forests(citeseer_small, citeseer_scheme())
        uids = [b.uid for forest in forests.values() for b in forest.blocks()]
        assert len(uids) == len(set(uids))

    def test_group_by_key_excludes_missing(self):
        entities = [Entity(id=0, attrs={"title": "abc"}), Entity(id=1, attrs={})]
        f = prefix_function("X", 1, "title", 2)
        groups = group_by_key(entities, f)
        assert groups == {"ab": [0]}

    def test_forest_iteration(self, citeseer_small):
        forest = build_forest(citeseer_small, citeseer_scheme(), "X")
        assert len(forest) == len(forest.roots)
        assert forest.num_blocks == sum(1 for _ in forest.blocks())

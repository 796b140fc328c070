"""Unit tests for the Dataset container and its ground truth."""

import itertools

import pytest

from repro.data import Dataset, Entity, pair_key
from repro.data.rows import read_dataset, write_dataset


def _dataset():
    entities = [Entity(id=i, attrs={"name": f"n{i}"}) for i in range(6)]
    clusters = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 2}
    return Dataset(entities=entities, clusters=clusters, name="t")


class TestBasics:
    def test_len_and_iter(self):
        ds = _dataset()
        assert len(ds) == 6
        assert [e.id for e in ds] == list(range(6))

    def test_entity_lookup(self):
        ds = _dataset()
        assert ds.entity(3).get("name") == "n3"

    def test_contains(self):
        ds = _dataset()
        assert 5 in ds
        assert 99 not in ds

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Dataset(entities=[Entity(id=1, attrs={}), Entity(id=1, attrs={})])

    def test_attributes_order(self):
        ds = Dataset(
            entities=[
                Entity(id=0, attrs={"b": "1", "a": "2"}),
                Entity(id=1, attrs={"c": "3"}),
            ]
        )
        assert ds.attributes() == ["b", "a", "c"]


class TestGroundTruth:
    def test_true_pairs_from_clusters(self):
        ds = _dataset()
        # cluster 0 = {0,1,2} -> 3 pairs; cluster 1 = {3,4} -> 1 pair.
        assert ds.true_pairs == frozenset(
            {(0, 1), (0, 2), (1, 2), (3, 4)}
        )
        assert ds.num_true_pairs == 4

    def test_is_true_pair(self):
        ds = _dataset()
        assert ds.is_true_pair(pair_key(2, 0))
        assert not ds.is_true_pair(pair_key(0, 5))

    def test_no_ground_truth(self):
        ds = Dataset(entities=[Entity(id=0, attrs={})])
        assert not ds.has_ground_truth
        assert ds.num_true_pairs == 0

    def test_singleton_clusters_make_no_pairs(self):
        ds = Dataset(
            entities=[Entity(id=0, attrs={}), Entity(id=1, attrs={})],
            clusters={0: 0, 1: 1},
        )
        assert ds.num_true_pairs == 0


class TestRowsRoundTrip:
    def test_round_trip(self, tmp_path):
        ds = _dataset()
        path = str(tmp_path / "ds.jsonl")
        write_dataset(ds, path)
        loaded = read_dataset(path, name="t")
        assert len(loaded) == len(ds)
        assert loaded.clusters == ds.clusters
        assert loaded.true_pairs == ds.true_pairs
        for e in ds:
            assert loaded.entity(e.id).attrs == e.attrs

    def test_missing_attributes_survive(self, tmp_path):
        ds = Dataset(
            entities=[
                Entity(id=0, attrs={"a": "x"}),
                Entity(id=1, attrs={"b": "y"}),
            ],
            clusters={0: 0, 1: 0},
        )
        path = str(tmp_path / "ds.jsonl")
        write_dataset(ds, path)
        loaded = read_dataset(path)
        assert loaded.entity(0).attrs == {"a": "x"}
        assert loaded.entity(1).attrs == {"b": "y"}

    def test_bad_cluster_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 1, "cluster": 0}\n{"id": 2, "cluster": "x"}\n')
        with pytest.raises(ValueError, match=f"{path}:2: 'cluster' must be an integer"):
            read_dataset(str(path))

    def test_rows_without_cluster_have_no_ground_truth(self, tmp_path):
        path = tmp_path / "flat.jsonl"
        path.write_text('{"id": 1, "name": "a"}\n{"id": 2, "name": "b"}\n')
        loaded = read_dataset(str(path))
        assert len(loaded) == 2 and not loaded.has_ground_truth

    def test_sources_survive(self, tmp_path):
        ds = Dataset(
            entities=[Entity(id=0, attrs={"a": "x"}, source="a"), Entity(id=1, attrs={})],
            clusters={0: 0, 1: 0},
        )
        path = str(tmp_path / "ds.jsonl")
        write_dataset(ds, path)
        assert [e.source for e in read_dataset(path)] == ["a", None]


class TestSample:
    def test_sample_size(self):
        ds = _dataset()
        sample = ds.sample(0.5, seed=1)
        assert len(sample) == 3

    def test_sample_reproducible(self):
        ds = _dataset()
        ids1 = [e.id for e in ds.sample(0.5, seed=1)]
        ids2 = [e.id for e in ds.sample(0.5, seed=1)]
        assert ids1 == ids2

    def test_sample_clusters_restricted(self):
        ds = _dataset()
        sample = ds.sample(0.5, seed=2)
        assert set(sample.clusters) == {e.id for e in sample}

    def test_sample_fraction_validation(self):
        ds = _dataset()
        with pytest.raises(ValueError):
            ds.sample(0.0)
        with pytest.raises(ValueError):
            ds.sample(1.5)

    def test_sample_true_pairs_subset(self):
        ds = _dataset()
        sample = ds.sample(0.8, seed=3)
        assert sample.true_pairs <= ds.true_pairs

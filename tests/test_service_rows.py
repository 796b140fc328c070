"""The entity-row parser, writer and JSONL reader, tested without the CLI."""

from __future__ import annotations

import io
import json
import re

import pytest

from repro.core import citeseer_config
from repro.data import Entity
from repro.service import ResolverService
from repro.data.rows import (
    Row,
    batch_rows,
    entity_from_row,
    entity_row,
    json_int,
    read_entity_rows,
)


class TestJsonInt:
    @pytest.mark.parametrize("value, expected", [(7, 7), ("12", 12), (-3, -3), ("-4", -4)])
    def test_ints_and_decimal_strings(self, value, expected):
        assert json_int(value, "'id'") == expected

    @pytest.mark.parametrize("value", [1.5, 1.0, True, False, "x1", "1.5", None, [1], {}])
    def test_everything_else_is_rejected(self, value):
        with pytest.raises(ValueError, match="'id' must be an integer"):
            json_int(value, "'id'")


class TestEntityFromRow:
    def test_flat_attributes(self):
        entity = entity_from_row({"id": 3, "title": "a", "year": 1999, "batch": 2})
        assert entity == Entity(3)
        assert entity.attrs == {"title": "a", "year": "1999"}
        assert entity.source is None

    def test_nested_attributes_and_source(self):
        entity = entity_from_row(
            {"id": "4", "attrs": {"title": "b"}, "source": "a", "ignored": 1}
        )
        assert (entity.id, entity.attrs, entity.source) == (4, {"title": "b"}, "a")

    def test_null_attrs_means_flat(self):
        assert entity_from_row({"id": 1, "attrs": None, "t": "x"}).attrs == {"t": "x"}

    def test_cluster_is_not_an_attribute(self):
        assert entity_from_row({"id": 1, "t": "x", "cluster": 4}).attrs == {"t": "x"}

    @pytest.mark.parametrize(
        "row, named",
        [
            ({"id": 1.5}, "'id'"),
            ({"id": True}, "'id'"),
            ({"id": 1, "attrs": [1, 2]}, "'attrs'"),
            ({"id": 1, "source": 5}, "'source'"),
        ],
    )
    def test_malformed_rows_raise_value_error(self, row, named):
        with pytest.raises(ValueError, match=named):
            entity_from_row(row)


class TestEntityRow:
    def test_round_trips_through_the_parser(self):
        entity = Entity(5, {"title": "t", "year": "1999"}, source="b")
        row = entity_row(entity, batch=2, cluster=9)
        assert list(row) == ["id", "attrs", "source", "batch", "cluster"]
        parsed = entity_from_row(json.loads(json.dumps(row)))
        assert (parsed.id, parsed.attrs, parsed.source) == (5, entity.attrs, "b")

    def test_absent_batch_and_cluster_are_left_out(self):
        assert entity_row(Entity(1, {"t": "x"})) == {
            "id": 1, "attrs": {"t": "x"}, "source": None
        }


class TestAttributeValues:
    """``null`` is an absent attribute; lists and objects are refused."""

    @pytest.mark.parametrize(
        "row, attrs",
        [
            ({"id": 1, "title": None, "year": 1999}, {"year": "1999"}),
            ({"id": 1, "attrs": {"title": None, "t": "x"}}, {"t": "x"}),
            ({"id": 1, "t": "x", "n": 2.5, "b": True}, {"t": "x", "n": "2.5", "b": "True"}),
            ({"id": 1, "t": ""}, {"t": ""}),
        ],
    )
    def test_null_is_absent_and_scalars_convert(self, row, attrs):
        assert entity_from_row(row).attrs == attrs

    @pytest.mark.parametrize(
        "row, key",
        [
            ({"id": 1, "title": ["a", "b"]}, "title"),
            ({"id": 1, "attrs": {"venue": {"name": "x"}}}, "venue"),
            ({"id": 1, "authors": []}, "authors"),
        ],
    )
    def test_lists_and_objects_name_the_attribute(self, row, key):
        with pytest.raises(ValueError, match=f"attribute '{key}' must be a string"):
            entity_from_row(row)

    @pytest.mark.parametrize(
        "text", ['{"id": 1, "title": [1]}\n', '{"id": 2}\n{"id": 1, "attrs": {"title": {}}}\n']
    )
    def test_reader_prefixes_path_and_line(self, tmp_path, text):
        path = _write(tmp_path, text)
        line = text.count("\n")
        with pytest.raises(
            ValueError, match=re.escape(f"{path}:{line}: attribute 'title' must be")
        ):
            read_entity_rows(path)

    @pytest.mark.parametrize("title", [None, "absent"])
    def test_two_null_titled_books_are_not_duplicates(self, title):
        # Read as the string "None", the two titles agree: 0.56 against a
        # threshold of 0.46.  Absent, the books are what they are: 0.33.
        from repro.core import books_config

        shared = {"year": 1999, "language": "eng", "format": "paperback"}
        rows = [
            dict(shared, id=1, authors="Ann Lee", publisher="Penguin",
                 isbn="0140449132", pages=224),
            dict(shared, id=2, authors="Bob Fry", publisher="Harcourt",
                 isbn="0156907399", pages=310),
        ]
        if title is None:
            for row in rows:
                row["title"] = None
        books = [entity_from_row(row) for row in rows]
        config = books_config()
        # One agreeing family suffices here, so a shared title key alone
        # would make the two books a candidate pair.
        service = ResolverService(config, machines=2, min_family_matches=1)
        receipt = service.submit(books)
        assert service.pairs() == []
        assert receipt.comparisons == 0
        assert all("title" not in book.attrs for book in books)
        assert config.matcher.similarity(*books) < config.matcher.threshold


def _write(tmp_path, data, name="in.jsonl"):
    path = tmp_path / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return str(path)


class TestReadEntityRows:
    def test_rows_and_explicit_batches(self, tmp_path):
        path = _write(
            tmp_path,
            '{"id": 1, "title": "a"}\n\n{"id": "2", "attrs": {"title": "b"}, "batch": 5}\n',
        )
        rows = read_entity_rows(path)
        assert [(row.batch, row.entity.id) for row in rows] == [(None, 1), (5, 2)]
        assert rows[1].entity.attrs == {"title": "b"}

    def test_cluster_field(self, tmp_path):
        path = _write(
            tmp_path, '{"id": 1, "cluster": 3}\n{"id": 2, "cluster": "4"}\n{"id": 5}\n'
        )
        assert [row.cluster for row in read_entity_rows(path)] == [3, 4, None]

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"id": 1}\nnot-json\n', ":2: not valid JSON"),
            ('{"title": "x"}\n', ":1: each line must be an object"),
            ('[1]\n', ":1: each line must be an object"),
            ('{"id": 1.5}\n', ":1: 'id' must be an integer"),
            ('{"id": 1, "batch": "soon"}\n', ":1: 'batch' must be an integer"),
            ('{"id": 1, "cluster": 1.5}\n', ":1: 'cluster' must be an integer"),
            ('{"id": 1, "attrs": 5}\n', ":1: 'attrs' must be an object"),
            ('{"id": 1}\n{"id": 1}\n', ":2: entity id 1 already appears on line 1"),
            (b'{"id": 1}\n{"id": 2, "t": "caf\xe9"}\n', ":2: not valid UTF-8"),
        ],
    )
    def test_every_error_names_path_and_line(self, tmp_path, text, named):
        path = _write(tmp_path, text)
        with pytest.raises(ValueError, match=re.escape(path + named)):
            read_entity_rows(path)

    def test_taken_ids_are_rejected(self, tmp_path):
        path = _write(tmp_path, '{"id": 1}\n{"id": 9}\n')
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: entity id 9 was already")):
            read_entity_rows(path, taken={9})

    def test_missing_input_names_the_path(self, tmp_path):
        path = str(tmp_path / "missing.jsonl")
        with pytest.raises(ValueError, match=re.escape(f"{path}: cannot read input")):
            read_entity_rows(path)

    def test_dash_reads_stdin(self, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b'{"id": 4, "t": "x"}\n'))
        monkeypatch.setattr("sys.stdin", stdin)
        assert [row.entity.id for row in read_entity_rows("-")] == [4]


class TestBatchRows:
    def test_chunks_without_batch_fields(self):
        rows = [Row(Entity(i), None, None) for i in range(5)]
        assert [[e.id for e in b] for b in batch_rows(rows, 2)] == [[0, 1], [2, 3], [4]]

    def test_explicit_batches_group_ascending(self):
        rows = [
            Row(Entity(i), batch, None) for i, batch in enumerate([3, None, 1, 3])
        ]
        assert [[e.id for e in b] for b in batch_rows(rows, 100)] == [[1], [2], [0, 3]]


@pytest.fixture(scope="module")
def snapshot():
    from repro.data import make_citeseer

    service = ResolverService(citeseer_config(), machines=2)
    service.submit(make_citeseer(60, seed=3).entities)
    assert service.pairs(), "the fixture needs at least one pair event"
    return json.loads(json.dumps(service.snapshot()))


def _mutated(snapshot, section, index, key, value):
    copy = json.loads(json.dumps(snapshot))
    copy[section][index][key] = value
    return copy


class TestRestoreUsesTheRowParser:
    @pytest.mark.parametrize("value", [1.5, True, "x"])
    def test_entity_id_that_is_not_an_integer(self, snapshot, value):
        bad = _mutated(snapshot, "entities", 0, "id", value)
        with pytest.raises(ValueError, match=re.escape("entities[0]")):
            ResolverService.restore(bad, citeseer_config(), machines=2)

    def test_duplicate_entity_id(self, snapshot):
        bad = _mutated(snapshot, "entities", 2, "id", snapshot["entities"][0]["id"])
        with pytest.raises(ValueError, match=re.escape("entities[2]") + ".*twice"):
            ResolverService.restore(bad, citeseer_config(), machines=2)

    def test_event_pair_that_is_not_integers(self, snapshot):
        bad = _mutated(snapshot, "events", 0, "pair", [1.5, 2])
        with pytest.raises(ValueError, match=re.escape("events[0]")):
            ResolverService.restore(bad, citeseer_config(), machines=2)

    def test_decimal_string_ids_restore(self, snapshot):
        text_ids = json.loads(json.dumps(snapshot))
        for row in text_ids["entities"]:
            row["id"] = str(row["id"])
        restored = ResolverService.restore(text_ids, citeseer_config(), machines=2)
        assert restored.snapshot() == snapshot


def _edited(snapshot, section, index, key, value):
    """A copy with ``section`` (or its row ``index``'s ``key``) set to
    ``value(copy)``."""
    copy = json.loads(json.dumps(snapshot))
    if index is None:
        copy[section] = value(copy)
    else:
        copy[section][index][key] = value(copy)
    return copy


class TestRestoreRejectsContradictions:
    """Rows that parse one by one but contradict the rest of the snapshot."""

    @pytest.mark.parametrize(
        "section, index, key, value, reason",
        [
            pytest.param("events", 3, "pair", lambda s: [s["events"][3]["pair"][0], 10**9],
                         "entity id 1000000000 is not in the entities section",
                         id="a-event-names-unknown-id"),
            pytest.param("events", 4, "pair", lambda s: s["events"][2]["pair"],
                         "appears twice", id="b-pair-in-two-events"),
            pytest.param("events", 1, "seq", lambda s: 3, "seq 3 where 2 was expected",
                         id="c-seq-out-of-order"),
            pytest.param("entities", 5, "batch", lambda s: s["batches"] + 1,
                         "batch 2 is outside 1..1", id="d-entity-batch-after-last"),
            pytest.param("entities", 5, "batch", lambda s: 0, "batch 0 is outside 1..1",
                         id="d-entity-batch-zero"),
            pytest.param("events", 2, "batch", lambda s: 2, "batch 2 is outside 1..1",
                         id="d-event-batch-after-last"),
            pytest.param("clock", None, None, lambda s: float("nan"), "finite number >= 0",
                         id="e-clock-nan"),
            pytest.param("clock", None, None, lambda s: float("inf"), "finite number >= 0",
                         id="e-clock-infinite"),
            pytest.param("clock", None, None, lambda s: -5.0, "finite number >= 0, got -5.0",
                         id="e-clock-negative"),
            pytest.param("comparisons", None, None, lambda s: -1, "must be >= 0, got -1",
                         id="e-comparisons-negative"),
            pytest.param("events", 5, "time", lambda s: s["events"][4]["time"] - 1.0,
                         "is not within", id="f-time-decreases"),
            pytest.param("events", 5, "time", lambda s: s["clock"] + 1.0, "is not within",
                         id="f-time-after-clock"),
        ],
    )
    def test_names_the_section_and_row(self, snapshot, section, index, key, value, reason):
        assert len(snapshot["events"]) > 5 and snapshot["batches"] == 1
        bad = _edited(snapshot, section, index, key, value)
        named = section if index is None else f"{section}[{index}]"
        with pytest.raises(ValueError, match=re.escape(f"snapshot {named} is malformed: ")
                           + ".*" + re.escape(reason)):
            ResolverService.restore(bad, citeseer_config(), machines=2)

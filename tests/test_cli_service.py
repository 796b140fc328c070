"""CLI tests for the incremental service: `serve` and `submit`."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.data import make_citeseer


@pytest.fixture()
def jsonl_file(tmp_path):
    def write(name, entities, batch=None):
        path = tmp_path / name
        with open(path, "w", encoding="utf-8") as handle:
            for entity in entities:
                row = {"id": entity.id, **entity.attrs}
                if batch is not None:
                    row["batch"] = batch(entity)
                handle.write(json.dumps(row) + "\n")
        return path

    return write


@pytest.fixture(scope="module")
def entities():
    return make_citeseer(180, seed=3).entities


class TestGenerateJsonl:
    def test_jsonl_extension_switches_format(self, tmp_path, capsys):
        out = tmp_path / "ds.jsonl"
        assert main(
            ["generate", "--family", "citeseer", "--size", "50", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 50
        # Nested rows whatever the extension: attributes under `attrs`,
        # the ground truth in `cluster`.
        dataset = make_citeseer(50, seed=7)
        rows = [json.loads(line) for line in lines]
        assert [row["attrs"] for row in rows] == [e.attrs for e in dataset]
        assert [row["cluster"] for row in rows] == [dataset.clusters[e.id] for e in dataset]
        assert list(rows[0]) == ["id", "attrs", "source", "cluster"]
        assert "wrote 50" in capsys.readouterr().out


    def test_linkage_round_trip_keeps_sources(self, tmp_path, capsys):
        rows = tmp_path / "two_sources.jsonl"
        state = tmp_path / "linkage_state.json"
        assert main(
            ["generate", "--family", "linkage", "--size", "200", "--out", str(rows)]
        ) == 0
        assert main(
            ["serve", "--input", str(rows), "--batch-size", "50", "--machines", "2",
             "--snapshot-out", str(state), "--family", "linkage"]
        ) == 0
        lines = rows.read_text().splitlines()
        assert {json.loads(line).get("source") for line in lines} == {"a", "b"}
        stored = json.loads(state.read_text())["entities"]
        assert len(stored) == len(lines)
        assert {entity.get("source") for entity in stored} == {"a", "b"}


class TestServe:
    def test_streams_batches_and_snapshots(self, tmp_path, jsonl_file, entities, capsys):
        stream = jsonl_file("in.jsonl", entities)
        snap = tmp_path / "state.json"
        code = main(
            [
                "serve", "--input", str(stream), "--batch-size", "60",
                "--machines", "2", "--snapshot-out", str(snap),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batch 1:" in out and "batch 3:" in out
        assert "service: 180 entities in 3 batches" in out
        snapshot = json.loads(snap.read_text())
        assert snapshot["batches"] == 3
        assert len(snapshot["entities"]) == 180

    def test_explicit_batch_field_overrides_chunking(self, jsonl_file, entities, capsys):
        stream = jsonl_file(
            "in.jsonl", entities[:90], batch=lambda e: e.id % 2
        )
        assert main(["serve", "--input", str(stream), "--machines", "2"]) == 0
        out = capsys.readouterr().out
        assert "batch 2:" in out and "batch 3:" not in out

    def test_print_pairs_lists_discoveries(self, jsonl_file, entities, capsys):
        stream = jsonl_file("in.jsonl", entities)
        assert main(
            ["serve", "--input", str(stream), "--machines", "2", "--print-pairs"]
        ) == 0
        assert "  pair " in capsys.readouterr().out

    def test_trace_and_metrics_passthrough(self, tmp_path, jsonl_file, entities):
        stream = jsonl_file("in.jsonl", entities[:80])
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(
            [
                "serve", "--input", str(stream), "--machines", "2",
                "--trace", str(trace), "--metrics", str(metrics),
            ]
        ) == 0
        events = json.loads(trace.read_text())
        assert any(e.get("name", "").startswith("delta-resolution") for e in events)
        snapshots = json.loads(metrics.read_text())["snapshots"]
        assert any("delta-resolution" in s["scope"] for s in snapshots)

    def test_malformed_line_fails_with_location(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": 1, "title": "x"}\nnot-json\n')
        with pytest.raises(SystemExit, match="bad.jsonl:2"):
            main(["serve", "--input", str(bad), "--machines", "2"])

    def test_missing_id_fails_with_location(self, tmp_path):
        bad = tmp_path / "noid.jsonl"
        bad.write_text('{"title": "x"}\n')
        with pytest.raises(SystemExit, match="noid.jsonl:1"):
            main(["serve", "--input", str(bad), "--machines", "2"])


class TestSubmit:
    def test_continues_from_snapshot_identically(
        self, tmp_path, jsonl_file, entities, capsys
    ):
        first = jsonl_file("first.jsonl", entities[:120])
        second = jsonl_file("second.jsonl", entities[120:])
        snap = tmp_path / "state.json"
        assert main(
            [
                "serve", "--input", str(first), "--batch-size", "120",
                "--machines", "2", "--snapshot-out", str(snap),
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            ["submit", "--snapshot", str(snap), "--input", str(second),
             "--machines", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "batch 2:" in out
        assert "service: 180 entities in 2 batches" in out

        # The incremental CLI path ends at the same pair set as one serve.
        updated = json.loads(snap.read_text())
        whole = jsonl_file("whole.jsonl", entities)
        one_snap = tmp_path / "one.json"
        assert main(
            [
                "serve", "--input", str(whole), "--batch-size", "500",
                "--machines", "2", "--snapshot-out", str(one_snap),
            ]
        ) == 0
        one = json.loads(one_snap.read_text())
        assert sorted(tuple(e["pair"]) for e in updated["events"]) == sorted(
            tuple(e["pair"]) for e in one["events"]
        )

    def test_snapshot_out_leaves_original_untouched(
        self, tmp_path, jsonl_file, entities, capsys
    ):
        first = jsonl_file("first.jsonl", entities[:100])
        second = jsonl_file("second.jsonl", entities[100:140])
        snap = tmp_path / "state.json"
        main(
            ["serve", "--input", str(first), "--machines", "2",
             "--snapshot-out", str(snap)]
        )
        before = snap.read_text()
        out_path = tmp_path / "state2.json"
        assert main(
            ["submit", "--snapshot", str(snap), "--input", str(second),
             "--machines", "2", "--snapshot-out", str(out_path)]
        ) == 0
        assert snap.read_text() == before
        assert json.loads(out_path.read_text())["batches"] == 2


# ---------------------------------------------------------------------------
# Hostile input: one message naming the file, no traceback, nothing written
# ---------------------------------------------------------------------------

_GOOD = '{"id": 9001, "title": "a"}\n{"id": 9002, "title": "b"}\n'


def _drop(section):
    def mutate(text):
        snapshot = json.loads(text)
        del snapshot[section]
        return json.dumps(snapshot)

    return mutate


def _set(key, value):
    def mutate(text):
        return json.dumps({**json.loads(text), key: value})

    return mutate


#: (command, input stream — bytes as they are, ``None`` for no file at all —
#: snapshot mutation, what the message must name)
_HOSTILE = {
    "serve-non-integer-id": ("serve", '{"id": "x1", "title": "a"}\n', None, "in.jsonl:1:"),
    "serve-attrs-not-an-object": ("serve", '{"id": 1, "attrs": [1, 2]}\n', None, "in.jsonl:1:"),
    "serve-non-integer-batch": (
        "serve", '{"id": 1, "title": "a", "batch": "soon"}\n', None, "in.jsonl:1:",
    ),
    # Found before the first batch runs, not by submit() after two did.
    "serve-id-twice": ("serve", _GOOD + '{"id": 9001, "title": "c"}\n', None, "in.jsonl:3:"),
    "submit-id-twice": ("submit", _GOOD + '{"id": 9001, "title": "c"}\n', None, "in.jsonl:3:"),
    "submit-id-already-stored": ("submit", _GOOD + '{"id": 0, "title": "c"}\n', None, "in.jsonl:3:"),
    # A Latin-1 e-acute: read as bytes, so the line that holds it is named.
    "serve-non-utf8-byte": (
        "serve", _GOOD.encode() + b'{"id": 9003, "title": "caf\xe9"}\n', None, "in.jsonl:3:",
    ),
    "submit-non-utf8-byte": (
        "submit", _GOOD.encode() + b'{"id": 9003, "title": "caf\xe9"}\n', None, "in.jsonl:3:",
    ),
    "serve-missing-input": ("serve", None, None, "in.jsonl: cannot read input"),
    "submit-missing-input": ("submit", None, None, "in.jsonl: cannot read input"),
    "submit-truncated-snapshot": ("submit", _GOOD, lambda text: text[: len(text) // 2], "state.json"),
    "submit-missing-entities": ("submit", _GOOD, _drop("entities"), "state.json"),
    "submit-missing-events": ("submit", _GOOD, _drop("events"), "state.json"),
    "submit-missing-clock": ("submit", _GOOD, _drop("clock"), "state.json"),
    "submit-wrong-format": ("submit", _GOOD, _set("format", 99), "state.json"),
    "submit-foreign-fingerprint": ("submit", _GOOD, _set("fingerprint", "0" * 16), "state.json"),
}


@pytest.fixture(scope="module")
def good_snapshot(tmp_path_factory, entities):
    directory = tmp_path_factory.mktemp("snapshot")
    stream = directory / "first.jsonl"
    with open(stream, "w", encoding="utf-8") as handle:
        for entity in entities[:40]:
            handle.write(json.dumps({"id": entity.id, **entity.attrs}) + "\n")
    snap = directory / "state.json"
    main(["serve", "--input", str(stream), "--machines", "2",
          "--snapshot-out", str(snap)])
    assert 0 in {row["id"] for row in json.loads(snap.read_text())["entities"]}
    return snap.read_text()


@pytest.mark.parametrize("case", sorted(_HOSTILE))
def test_hostile_input_exits_with_one_message(case, tmp_path, good_snapshot):
    command, stream, mutate, named = _HOSTILE[case]
    source = tmp_path / "in.jsonl"
    if isinstance(stream, bytes):
        source.write_bytes(stream)
    elif stream is not None:
        source.write_text(stream)
    snap = tmp_path / "state.json"
    if command == "serve":
        argv = ["serve", "--input", str(source), "--batch-size", "1",
                "--machines", "2", "--snapshot-out", str(snap)]
        before = None
    else:
        snap.write_text(good_snapshot if mutate is None else mutate(good_snapshot))
        argv = ["submit", "--snapshot", str(snap), "--input", str(source),
                "--machines", "2"]
        before = snap.read_bytes()
    # SystemExit with a message is exit status 1 and that one line on
    # stderr; any other exception would be a traceback.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert isinstance(exit_info.value.code, str)
    assert named in exit_info.value.code
    assert (snap.read_bytes() if snap.exists() else None) == before


#: Cases only a real ``python -m repro`` process shows — input on stdin,
#: the exit status, stderr: (command, input bytes, what the one stderr
#: line must name).
_HOSTILE_PROCESS = {
    "submit-non-integer-id": ("submit", b'{"id": "x1", "title": "a"}\n', "in.jsonl:1:"),
    "submit-attrs-not-an-object": (
        "submit", b'{"id": 900003, "attrs": [1, 2]}\n', "in.jsonl:1:",
    ),
    # A non-UTF-8 line on stdin is named as line 1 of "-".
    "serve-non-utf8-byte-on-stdin": (
        "serve", b'{"id": 900004, "title": "caf\xe9"}\n', "-:1:",
    ),
}


@pytest.mark.parametrize("case", sorted(_HOSTILE_PROCESS))
def test_hostile_input_fails_the_process_with_one_line(case, tmp_path, good_snapshot):
    command, stream, named = _HOSTILE_PROCESS[case]
    snap = tmp_path / "state.json"
    if command == "serve":
        argv = ["serve", "--input", "-", "--batch-size", "1", "--machines", "2",
                "--snapshot-out", str(snap)]
        stdin = stream
    else:
        source = tmp_path / "in.jsonl"
        source.write_bytes(stream)
        snap.write_text(good_snapshot)
        argv = ["submit", "--snapshot", str(snap), "--input", str(source),
                "--machines", "2"]
        stdin = b""
    before = snap.read_bytes() if snap.exists() else None
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv], input=stdin, capture_output=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    lines = done.stderr.decode("utf-8", "replace").splitlines()
    assert done.returncode == 1, lines
    assert len(lines) == 1 and named in lines[0], lines
    assert (snap.read_bytes() if snap.exists() else None) == before


def test_serve_linkage_over_sourceless_rows_exits_with_one_message(tmp_path):
    source = tmp_path / "in.jsonl"
    source.write_text(_GOOD)
    snap = tmp_path / "state.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--family", "linkage", "--input", str(source),
              "--machines", "2", "--snapshot-out", str(snap)])
    assert "entity id 9001 has no source" in exit_info.value.code
    assert not snap.exists()


def _set_row(section, key, value):
    def mutate(text):
        snapshot = json.loads(text)
        snapshot[section][0][key] = value
        return json.dumps(snapshot)

    return mutate


#: Rows inside a snapshot section that cannot be parsed: (snapshot
#: mutation, what restore's message must name).
_MALFORMED_ROWS = {
    "entity-attrs-not-an-object": (_set_row("entities", "attrs", 5), "entities[0]"),
    "entity-id-a-list": (_set_row("entities", "id", [1]), "entities[0]"),
    "event-pair-of-one": (_set_row("events", "pair", [1]), "events[0]"),
    "entities-not-a-list": (_set("entities", 7), "entities section"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_ROWS))
def test_malformed_snapshot_row_exits_with_one_message(case, tmp_path, good_snapshot):
    from repro.core import citeseer_config
    from repro.service import ResolverService

    mutate, named = _MALFORMED_ROWS[case]
    text = mutate(good_snapshot)
    with pytest.raises(ValueError, match=re.escape(named)):
        ResolverService.restore(json.loads(text), citeseer_config())

    snap = tmp_path / "state.json"
    snap.write_text(text)
    source = tmp_path / "in.jsonl"
    source.write_text(_GOOD)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["submit", "--snapshot", str(snap), "--input", str(source),
              "--machines", "2", "--snapshot-out", str(out)])
    message = exit_info.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(f"{snap}: not a usable snapshot: ")
    assert named in message
    assert not out.exists()
    assert snap.read_text() == text


def test_restore_rejects_an_incomplete_snapshot_with_value_error(good_snapshot):
    from repro.core import citeseer_config
    from repro.service import ResolverService

    for section in ("entities", "events", "clock"):
        with pytest.raises(ValueError, match=section):
            ResolverService.restore(
                json.loads(_drop(section)(good_snapshot)), citeseer_config()
            )

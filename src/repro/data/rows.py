"""Entity rows as JSON: the one file format for entities and datasets.

`repro generate` output, `repro run` / `compare` / `profile --dataset`
input, `repro serve` / `submit` input and the ``entities`` section of a
:meth:`ResolverService.snapshot
<repro.service.resolver.ResolverService.snapshot>` all describe an entity
as one JSON object ``{id, attrs | attribute fields..., source, batch,
cluster}``; ``cluster`` is the entity's ground-truth cluster id.
:func:`entity_row` is the only writer of such an object and
:func:`entity_from_row` the only place that turns one into an
:class:`~repro.data.entity.Entity`; :func:`read_entity_rows` applies it
to a JSONL stream and names the offending ``path:line:`` in every error.

Every error is a ``ValueError``: callers decide whether that is a one-line
exit (the CLI) or an exception (the library).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Container, Dict, List, NamedTuple, Optional, Sequence

from .dataset import Dataset
from .entity import Entity

#: Row fields that are never entity attributes in the flat form.
_RESERVED = ("id", "attrs", "source", "batch", "cluster")


class Row(NamedTuple):
    """One parsed JSONL line: its entity and its explicit ``batch`` and
    ``cluster`` fields (None where the line has none)."""

    entity: Entity
    batch: Optional[int]
    cluster: Optional[int]


def json_int(value: Any, what: str) -> int:
    """``value`` as an integer: an int or a decimal-integer string, never a
    bool or a float (``1.5`` and ``true`` are not entity ``1``)."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def entity_from_row(row: Dict[str, Any]) -> Entity:
    """The entity one JSON object describes.

    ``id`` follows :func:`json_int`.  Attributes are the nested ``attrs``
    object or, without one, every field but the reserved
    ``id``/``source``/``batch``/``cluster``.
    A ``null`` value means the attribute is absent; strings, numbers and
    booleans are converted to strings; a list or object value is an error
    naming the attribute.  ``source`` is a string or absent/null.
    ``batch`` and ``cluster`` are left to the caller.
    """
    attrs = row.get("attrs")
    if attrs is None:
        attrs = {key: value for key, value in row.items() if key not in _RESERVED}
    elif not isinstance(attrs, dict):
        raise ValueError(f"'attrs' must be an object, got {attrs!r}")
    source = row.get("source")
    if source is not None and not isinstance(source, str):
        raise ValueError(f"'source' must be a string or null, got {source!r}")
    values = {}
    for key, value in attrs.items():
        if value is None:
            continue
        if isinstance(value, (list, dict)):
            raise ValueError(
                f"attribute {key!r} must be a string, number or boolean, "
                f"got {value!r}"
            )
        values[key] = str(value)
    return Entity(json_int(row["id"], "'id'"), values, source=source)


def entity_row(
    entity: Entity, *, batch: Optional[int] = None, cluster: Optional[int] = None
) -> Dict[str, Any]:
    """The nested-form row of ``entity``: ``id``, ``attrs``, ``source``,
    then ``batch`` and ``cluster`` where given."""
    row: Dict[str, Any] = {
        "id": entity.id, "attrs": dict(entity.attrs), "source": entity.source
    }
    if batch is not None:
        row["batch"] = batch
    if cluster is not None:
        row["cluster"] = cluster
    return row


def read_entity_rows(path: str, taken: Container[int] = ()) -> List[Row]:
    """The :class:`Row` of every line of a JSONL stream ('-' = stdin).

    Every malformed line raises ``ValueError`` naming ``path:lineno:``; so
    does an id that appears twice in the stream or is already in ``taken``
    (the restored store, for ``submit``), and — as ``path: ...`` — an input
    that cannot be opened.  The stream is read as bytes and decoded line by
    line, so a non-UTF-8 byte is reported on the line that holds it.
    """
    try:
        handle = sys.stdin.buffer if path == "-" else open(path, "rb")
    except OSError as exc:
        raise ValueError(f"{path}: cannot read input: {exc.strerror or exc}") from exc
    rows: List[Row] = []
    first_line: Dict[int, int] = {}
    try:
        for lineno, raw in enumerate(handle, 1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(
                    f"{where}: not valid UTF-8: {exc.reason} at byte {exc.start}"
                ) from exc
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: not valid JSON: {exc}") from exc
            if not isinstance(obj, dict) or "id" not in obj:
                raise ValueError(
                    f"{where}: each line must be an object with an "
                    "'id' field (and attribute fields, or a nested 'attrs')"
                )
            try:
                batch, cluster = (
                    None if obj.get(key) is None else json_int(obj[key], f"'{key}'")
                    for key in ("batch", "cluster")
                )
                entity = entity_from_row(obj)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
            if entity.id in first_line:
                raise ValueError(
                    f"{where}: entity id {entity.id} already appears on "
                    f"line {first_line[entity.id]}"
                )
            if entity.id in taken:
                raise ValueError(
                    f"{where}: entity id {entity.id} was already submitted; "
                    "ids are immutable once admitted"
                )
            first_line[entity.id] = lineno
            rows.append(Row(entity, batch, cluster))
    finally:
        if path != "-":
            handle.close()
    return rows


def batch_rows(rows: Sequence[Row], batch_size: int) -> List[List[Entity]]:
    """Group parsed rows into submit batches.

    Rows carrying an explicit ``batch`` field are grouped by it (ascending,
    rows without one in batch 0); otherwise the stream is chunked every
    ``batch_size`` entities.
    """
    if any(row.batch is not None for row in rows):
        by_batch: Dict[int, List[Entity]] = {}
        for row in rows:
            by_batch.setdefault(row.batch or 0, []).append(row.entity)
        return [by_batch[key] for key in sorted(by_batch)]
    entities = [row.entity for row in rows]
    return [
        entities[start : start + batch_size]
        for start in range(0, len(entities), batch_size)
    ]


def write_dataset(dataset: Dataset, path: str) -> None:
    """Write one row per entity, with its ground-truth ``cluster``."""
    with open(path, "w", encoding="utf-8") as handle:
        for entity in dataset.entities:
            row = entity_row(entity, cluster=dataset.clusters.get(entity.id))
            handle.write(json.dumps(row) + "\n")


def read_dataset(path: str, name: str = "dataset") -> Dataset:
    """The dataset a JSONL stream describes; each row's ``cluster`` is its
    ground truth.  Errors are :func:`read_entity_rows`'s."""
    rows = read_entity_rows(path)
    clusters = {row.entity.id: row.cluster for row in rows if row.cluster is not None}
    return Dataset([row.entity for row in rows], clusters, name=name)


__all__ = [
    "Row", "json_int", "entity_from_row", "entity_row", "read_entity_rows",
    "batch_rows", "write_dataset", "read_dataset",
]

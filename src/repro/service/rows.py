"""Entity rows as JSON: the one parser for service input and snapshots.

`repro generate --out x.jsonl`, `repro serve` / `repro submit` input and
the ``entities`` section of a :meth:`ResolverService.snapshot
<repro.service.resolver.ResolverService.snapshot>` all describe an entity
as one JSON object ``{id, attrs | attribute fields..., source, batch}``.
:func:`entity_from_row` is the only place that turns such an object into
an :class:`~repro.data.entity.Entity`; :func:`read_entity_rows` applies it
to a JSONL stream and names the offending ``path:line:`` in every error.

Every error is a ``ValueError``: callers decide whether that is a one-line
exit (the CLI) or an exception (the library).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Container, Dict, List, Optional, Sequence, Tuple

from ..data.entity import Entity

#: Row fields that are never entity attributes in the flat form.
_RESERVED = ("id", "attrs", "source", "batch")

#: One parsed JSONL line: its explicit ``batch`` (or None) and its entity.
Row = Tuple[Optional[int], Entity]


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
    object or, without one, every field but ``id``/``source``/``batch``.
    A ``null`` value means the attribute is absent; strings, numbers and
    booleans are converted to strings; a list or object value is an error
    naming the attribute.  ``source`` is a string or absent/null.
    ``batch`` is left to the caller.
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


def read_entity_rows(path: str, taken: Container[int] = ()) -> List[Row]:
    """[(explicit_batch_or_None, Entity)] from a JSONL stream ('-' = stdin).

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
                batch = obj.get("batch")
                if batch is not None:
                    batch = json_int(batch, "'batch'")
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
            rows.append((batch, entity))
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
    if any(batch is not None for batch, _ in rows):
        by_batch: Dict[int, List[Entity]] = {}
        for batch, entity in rows:
            by_batch.setdefault(0 if batch is None else batch, []).append(entity)
        return [by_batch[key] for key in sorted(by_batch)]
    entities = [entity for _, entity in rows]
    return [
        entities[start : start + batch_size]
        for start in range(0, len(entities), batch_size)
    ]


__all__ = ["json_int", "entity_from_row", "read_entity_rows", "batch_rows"]

"""Slim wire format for task payloads crossing the worker boundary.

The parallel backend moves one kind of data over process pipes: task
payloads, worker -> driver (task inputs are fork-inherited).  Pickling the
payload dataclasses directly is wasteful — every :class:`Event`,
:class:`SpanFragment` and :class:`OutputFile` instance pays dataclass
``__reduce__`` overhead (per-instance state dicts, attribute-name
back-references), and ER payloads are text-heavy (entity attributes,
blocking keys) with enormous internal redundancy.

This module packs payloads into plain nested tuples before pickling and
applies zlib when the pickle is large enough to benefit:

* **tuple packing** — dataclass instances become positional tuples, so the
  stream carries values only, no per-instance construction scaffolding;
* **compression** — streams above :data:`COMPRESS_MIN_BYTES` are
  zlib-compressed and kept only when compression actually wins (ER text
  routinely shrinks 3-10x); tiny streams skip the attempt entirely.

Every blob starts with a one-byte flag (:data:`_RAW` / :data:`_ZLIB`), so
decoding is self-describing.  Encoding is deterministic and lossless:
``decode(encode(p))`` reconstructs a payload that compares bit-for-bit
equal to ``p`` in every engine-observable field, which is what keeps the
cross-backend determinism contract intact.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any, List, Sequence

from .counters import Counters
from .types import Event, OutputFile, SpanFragment

#: Pickle streams below this size are never worth a compression attempt.
COMPRESS_MIN_BYTES = 128

#: zlib level: text-heavy ER payloads compress well past the default; 9
#: costs little extra at these sizes (payloads are tens of KB, not MB).
COMPRESS_LEVEL = 9

_RAW = b"\x00"
_ZLIB = b"\x01"

_PROTOCOL = pickle.HIGHEST_PROTOCOL


def _encode(obj: Any) -> bytes:
    """Pickle ``obj`` and compress when it pays off."""
    data = pickle.dumps(obj, protocol=_PROTOCOL)
    if len(data) >= COMPRESS_MIN_BYTES:
        packed = zlib.compress(data, COMPRESS_LEVEL)
        if len(packed) + 1 < len(data):
            return _ZLIB + packed
    return _RAW + data


def _decode(blob: bytes) -> Any:
    flag, data = blob[:1], blob[1:]
    if flag == _ZLIB:
        data = zlib.decompress(data)
    elif flag != _RAW:
        raise ValueError(f"unknown wire flag {flag!r}")
    return pickle.loads(data)


# ---------------------------------------------------------------------------
# Structural packing
# ---------------------------------------------------------------------------


def _pack_events(events: Sequence[Event]) -> tuple:
    return tuple((e.time, e.kind, e.payload) for e in events)


def _unpack_events(packed: tuple) -> List[Event]:
    return [Event(time=t, kind=k, payload=p) for t, k, p in packed]


def _pack_spans(spans: Sequence[SpanFragment]) -> tuple:
    return tuple((s.name, s.category, s.start, s.end, s.args) for s in spans)


def _unpack_spans(packed: tuple) -> List[SpanFragment]:
    return [
        SpanFragment(name=n, category=c, start=s, end=e, args=a)
        for n, c, s, e, a in packed
    ]


def _pack_counters(counters: Counters) -> tuple:
    return tuple(counters.items())


def _unpack_counters(packed: tuple) -> Counters:
    counters = Counters()
    for (group, name), value in packed:
        counters.increment(group, name, value)
    return counters


def _pack_files(files: Sequence[OutputFile]) -> tuple:
    return tuple((f.task_id, f.index, f.close_time, f.records) for f in files)


def _unpack_files(packed: tuple) -> List[OutputFile]:
    return [
        OutputFile(task_id=t, index=i, close_time=c, records=r)
        for t, i, c, r in packed
    ]


# ---------------------------------------------------------------------------
# Payload encode/decode (imports deferred: executors imports this module)
# ---------------------------------------------------------------------------


def encode_map_payload(payload) -> bytes:
    """Encode a :class:`~repro.mapreduce.executors.MapTaskPayload`."""
    return _encode(
        (
            payload.task_id,
            payload.cost,
            _pack_events(payload.events),
            payload.emitted,
            _pack_counters(payload.counters),
            payload.num_records,
            payload.combine_input,
            payload.combine_output,
            _pack_spans(payload.spans),
            payload.stat_deltas,
            payload.wall_ns,
            payload.charge_profile,
        )
    )


def decode_map_payload(blob: bytes):
    from .executors import MapTaskPayload

    (
        task_id,
        cost,
        events,
        emitted,
        counters,
        num_records,
        combine_input,
        combine_output,
        spans,
        stat_deltas,
        wall_ns,
        charge_profile,
    ) = _decode(blob)
    return MapTaskPayload(
        task_id=task_id,
        cost=cost,
        events=_unpack_events(events),
        emitted=list(emitted),
        counters=_unpack_counters(counters),
        num_records=num_records,
        combine_input=combine_input,
        combine_output=combine_output,
        spans=_unpack_spans(spans),
        stat_deltas=stat_deltas,
        wall_ns=wall_ns,
        charge_profile=charge_profile,
    )


def encode_reduce_payload(payload) -> bytes:
    """Encode a :class:`~repro.mapreduce.executors.ReduceTaskPayload`."""
    return _encode(
        (
            payload.task_id,
            payload.cost,
            _pack_events(payload.events),
            payload.written,
            _pack_files(payload.files),
            _pack_counters(payload.counters),
            payload.num_groups,
            payload.num_records,
            _pack_spans(payload.spans),
            payload.stat_deltas,
            payload.wall_ns,
            payload.charge_profile,
        )
    )


def decode_reduce_payload(blob: bytes):
    from .executors import ReduceTaskPayload

    (
        task_id,
        cost,
        events,
        written,
        files,
        counters,
        num_groups,
        num_records,
        spans,
        stat_deltas,
        wall_ns,
        charge_profile,
    ) = _decode(blob)
    return ReduceTaskPayload(
        task_id=task_id,
        cost=cost,
        events=_unpack_events(events),
        written=list(written),
        files=_unpack_files(files),
        counters=_unpack_counters(counters),
        num_groups=num_groups,
        num_records=num_records,
        spans=_unpack_spans(spans),
        stat_deltas=stat_deltas,
        wall_ns=wall_ns,
        charge_profile=charge_profile,
    )


def raw_pickle_size(payload: Any) -> int:
    """Bytes a plain pickle of the ``payload`` dataclass needs — the
    baseline the wire format's compression ratio is quoted against."""
    return len(pickle.dumps(payload))


__all__ = [
    "COMPRESS_MIN_BYTES",
    "COMPRESS_LEVEL",
    "encode_map_payload",
    "decode_map_payload",
    "encode_reduce_payload",
    "decode_reduce_payload",
    "raw_pickle_size",
]

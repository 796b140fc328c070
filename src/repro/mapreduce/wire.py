"""Wire format for task payloads crossing the worker boundary.

The parallel backend moves one kind of data over process pipes: a fanned-
out task's :class:`~repro.mapreduce.executors.MapTaskPayload` or
:class:`~repro.mapreduce.executors.ReduceTaskPayload`, worker -> driver
(task inputs are fork-inherited).  A blob is a one-byte flag followed by
``pickle.dumps(payload, HIGHEST_PROTOCOL)``, zlib-compressed at
:data:`COMPRESS_LEVEL` when that is smaller; the flag (:data:`_RAW` /
:data:`_ZLIB`) makes decoding self-describing.  Pickling is lossless, so
``decode(encode(p))`` equals ``p`` in every engine-observable field, which
is what keeps the cross-backend determinism contract intact.

zlib stays because ER payloads are text-heavy (entity attributes, blocking
keys) and shrink several-fold: on a 2-vCPU host, switching it off cut
``books_process`` ``run_s`` 9 % but raised ``peak_rss_mb`` 4.7 % against
the benchmark's 5 % bound (``docs/architecture.md`` §5 has that ablation).
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any

#: zlib level: text-heavy ER payloads compress well past the default.
COMPRESS_LEVEL = 9

_RAW = b"\x00"
_ZLIB = b"\x01"


def encode(payload: Any) -> bytes:
    """Pickle ``payload``; keep the zlib stream only when it is smaller."""
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    packed = zlib.compress(data, COMPRESS_LEVEL)
    if len(packed) < len(data):
        return _ZLIB + packed
    return _RAW + data


def decode(blob: bytes) -> Any:
    """Invert :func:`encode`."""
    flag, data = blob[:1], blob[1:]
    if flag == _ZLIB:
        data = zlib.decompress(data)
    elif flag != _RAW:
        raise ValueError(f"unknown wire flag {flag!r}")
    return pickle.loads(data)


# One pair serves both payload kinds; benchmarks/e2e/child.py imports these names.
encode_map_payload = encode_reduce_payload = encode
decode_map_payload = decode_reduce_payload = decode


def raw_pickle_size(payload: Any) -> int:
    """Bytes a default-protocol pickle of ``payload`` needs — the baseline
    the wire format's compression ratio is quoted against."""
    return len(pickle.dumps(payload))


__all__ = [
    "COMPRESS_LEVEL",
    "encode",
    "decode",
    "encode_map_payload",
    "decode_map_payload",
    "encode_reduce_payload",
    "decode_reduce_payload",
    "raw_pickle_size",
]

"""Chunk identity, serialization, and provenance for the E24 data cube.

A cube chunk is a dense ``(t, y, x)`` slab of one variable, addressed by a
:class:`ChunkKey` — the ``(time_chunk, y_chunk, x_chunk)`` coordinates in
the cube's fixed chunk grid. Chunks are serialized to a self-describing
byte format (magic + JSON header + raw array bytes) so a chunk file read
back from HopsFS needs nothing but itself to decode, and every chunk
carries a :class:`ChunkProvenance` record: which source scenes fed it,
when it was sealed, and the processing lineage that produced its values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.errors import DatacubeError

#: Serialization magic: format version bumps change this string.
CHUNK_MAGIC = b"E24CUBE1\n"


@dataclass(frozen=True, order=True)
class ChunkKey:
    """Dense chunk-grid coordinates ``(time_chunk, y_chunk, x_chunk)``."""

    t: int
    y: int
    x: int

    def __post_init__(self) -> None:
        if self.t < 0 or self.y < 0 or self.x < 0:
            raise DatacubeError(f"chunk key must be non-negative, got {self}")

    @property
    def name(self) -> str:
        return f"t{self.t:05d}_y{self.y:03d}_x{self.x:03d}"


def chunk_path(root: str, variable: str, key: ChunkKey) -> str:
    """HopsFS path of a sealed chunk: ``<root>/<var>/t*/y*_x*.chunk``.

    One directory per (variable, time chunk): listing a time slab is a
    single-partition scan, and appending a new slab creates a fresh
    directory instead of growing an old one.
    """
    return f"{root}/{variable}/t{key.t:05d}/y{key.y:03d}_x{key.x:03d}.chunk"


def provenance_path(root: str, variable: str, key: ChunkKey) -> str:
    """HopsFS path of a chunk's provenance record (sibling of the chunk)."""
    return f"{root}/{variable}/t{key.t:05d}/y{key.y:03d}_x{key.x:03d}.prov"


def encode_chunk(array: np.ndarray) -> bytes:
    """Serialize a ``(t, y, x)`` slab: magic + JSON header + C-order bytes."""
    array = np.ascontiguousarray(array)
    if array.ndim != 3:
        raise DatacubeError(f"chunk arrays are 3-D (t, y, x), got ndim={array.ndim}")
    header = json.dumps(
        {"dtype": array.dtype.str, "shape": list(array.shape)}, sort_keys=True
    ).encode("utf-8")
    return CHUNK_MAGIC + len(header).to_bytes(4, "big") + header + array.tobytes()


def decode_chunk(payload: bytes) -> np.ndarray:
    """Inverse of :func:`encode_chunk`; validates magic, header, and length.

    The result is a **read-only** view over *payload* (which is immutable
    and stays alive with it): decoding copies nothing.
    """
    if not payload.startswith(CHUNK_MAGIC):
        raise DatacubeError("not a cube chunk: bad magic")
    offset = len(CHUNK_MAGIC)
    header_len = int.from_bytes(payload[offset : offset + 4], "big")
    offset += 4
    try:
        header = json.loads(payload[offset : offset + header_len].decode("utf-8"))
        dtype = np.dtype(header["dtype"])
        shape = tuple(header["shape"])
    except (ValueError, KeyError, TypeError) as exc:
        raise DatacubeError(f"corrupt chunk header: {exc}") from exc
    # What encode_chunk writes, and nothing else: a forged negative pair
    # would multiply to the right length.
    if len(shape) != 3 or not all(type(n) is int and n >= 0 for n in shape):
        raise DatacubeError(
            f"corrupt chunk header: shape {shape} is not three non-negative integers"
        )
    offset += header_len
    body, expected = len(payload) - offset, dtype.itemsize * math.prod(shape)
    if body != expected:
        raise DatacubeError(f"chunk body is {body} bytes, header says {expected}")
    try:
        return np.frombuffer(payload, dtype=dtype, offset=offset).reshape(shape)
    except ValueError as exc:  # a dtype no buffer can back: object, zero-width
        raise DatacubeError(f"corrupt chunk header: {exc}") from exc


@dataclass(frozen=True)
class ChunkProvenance:
    """What a sealed chunk is made of.

    ``source_ids`` are the scene/product identifiers of every time step in
    the slab (in time order), ``times`` their time-axis coordinates,
    ``sealed_seq`` the cube's monotonically increasing seal counter (the
    sim-friendly stand-in for an ingest timestamp), and ``lineage`` the
    ordered processing steps that produced the variable's values.
    """

    variable: str
    key: ChunkKey
    times: Tuple[float, ...]
    source_ids: Tuple[str, ...]
    sealed_seq: int
    lineage: Tuple[str, ...] = ()

    def to_json(self) -> bytes:
        return json.dumps(
            {
                "variable": self.variable,
                "key": [self.key.t, self.key.y, self.key.x],
                "times": list(self.times),
                "source_ids": list(self.source_ids),
                "sealed_seq": self.sealed_seq,
                "lineage": list(self.lineage),
            },
            sort_keys=True,
        ).encode("utf-8")

    @staticmethod
    def from_json(payload: bytes) -> "ChunkProvenance":
        try:
            record: Dict = json.loads(payload.decode("utf-8"))
            return ChunkProvenance(
                variable=record["variable"],
                key=ChunkKey(*record["key"]),
                times=tuple(record["times"]),
                source_ids=tuple(record["source_ids"]),
                sealed_seq=int(record["sealed_seq"]),
                lineage=tuple(record["lineage"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise DatacubeError(f"corrupt provenance record: {exc}") from exc

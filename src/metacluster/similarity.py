"""Compression-based record similarity.

For records x and y with compressed sizes C(x), C(y) and concatenated
compressed size C(xy):

    sim(x, y) = 1.0 - (C(xy) - min(C(x), C(y))) / max(C(x), C(y))

clamped to [0, 1].  Byte-identical payloads are similarity 1.0 exactly (the
ideal-compressor fixed point), which is what makes the level-100 threshold an
exact-duplicate test; real compressors alone land near 0.95 for identical
inputs and would make level 100 vacuous.  Two empty payloads are similarity
0 so empty records never cluster with anything.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .config import COMPRESSORS, check_compression
from .records import FieldMask, Record, serialize_for_compression

#: Byte placed between the two payloads when compressing a concatenation.
CONCAT_SEP = b"\x1d"

class Compression:
    """A pinned (compressor, level) pair, checked on construction as
    ``EngineConfig`` checks it."""

    def __init__(self, name: str = "zlib", level: int = 6):
        check_compression(name, level)
        self.name = name
        self.level = level
        self._fn = COMPRESSORS[name]

    def compressed_size(self, data: bytes) -> int:
        return len(self._fn(data, self.level))


def raw_similarity(cx: int, cy: int, cxy: int) -> float:
    """The unclamped formula value from three compressed sizes."""
    return 1.0 - (cxy - min(cx, cy)) / max(cx, cy)


class SimilarityContext:
    """Similarity over a fixed record population and field mask.

    A context lives for one pass: one level of the hierarchy or one GA
    evaluation.  For that pass it caches each record's serialized payload and
    its compressed size C(x) by record id, and memoizes ``similarity`` by the
    ordered id pair, so each ordered pair's concatenation is compressed at
    most once per pass however often head selection, assignment, validation,
    later iterations or GA fitness ask for it.  The memo holds one entry (an
    id-pair tuple and a float, about 120 bytes) per distinct ordered pair
    scored: 15.2k entries at level 100 of a 7,000-record hierarchy corpus.
    It is dropped with the context, and a pass never holds more entries than
    it makes similarity calls.
    """

    def __init__(
        self,
        records: Mapping[str, Record],
        compression: Compression | None = None,
        mask_for: Callable[[Record], FieldMask | None] | None = None,
    ):
        self.records = records
        self.compression = compression or Compression()
        self._mask_for = mask_for
        self._payloads: dict[str, bytes] = {}
        self._sizes: dict[str, int] = {}
        self._pairs: dict[tuple[str, str], float] = {}

    def serialize(self, record: Record) -> bytes:
        """Payload of any record, in the population or not, under this mask."""
        mask = self._mask_for(record) if self._mask_for is not None else None
        return serialize_for_compression(record, mask)

    def payload(self, record_id: str) -> bytes:
        data = self._payloads.get(record_id)
        if data is None:
            data = self._payloads[record_id] = self.serialize(self.records[record_id])
        return data

    def compressed_size_of(self, record_id: str) -> int:
        size = self._sizes.get(record_id)
        if size is None:
            size = self.compression.compressed_size(self.payload(record_id))
            self._sizes[record_id] = size
        return size

    def similarity(self, x: str, y: str) -> float:
        value = self._pairs.get((x, y))
        if value is None:
            bx = self.payload(x)
            by = self.payload(y)
            cx, cy = self.compressed_size_of(x), self.compressed_size_of(y)
            value = self._pairs[(x, y)] = self.similarity_of_payloads(bx, by, cx, cy)
        return value

    def similarity_of_payloads(
        self, bx: bytes, by: bytes, cx: int | None = None, cy: int | None = None
    ) -> float:
        if not bx and not by:
            return 0.0
        if bx == by:
            return 1.0
        if cx is None:
            cx = self.compression.compressed_size(bx)
        if cy is None:
            cy = self.compression.compressed_size(by)
        cxy = self.compression.compressed_size(bx + CONCAT_SEP + by)
        value = raw_similarity(cx, cy, cxy)
        return min(1.0, max(0.0, value))

"""Metadata records: ingestion, normalization, tokenization, serialization.

The input format is newline-delimited JSON, one record per line:

    {"id": "r1", "fields": {"dc:title": ["The Oil Shop part 01"], ...}}

Field values are always lists of strings.  The provider key is taken from
``europeana:dataProvider``, falling back to ``europeana:provider``.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Iterable, Iterator

from .config import DATA_PROVIDER_FIELD, DESCRIPTION_FIELD, PROVIDER_FIELD, TITLE_FIELD

ORIGINAL = "original"
ARTIFICIAL = "artificial"

# Maximal runs of alphanumeric code points (underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# JSON escape of a UTF-16 surrogate (\uD800-\uDFFF), paired or not.
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD]")

# Single-byte separators for the deterministic compressor payload.
_VALUE_SEP = b"\x1f"
_FIELD_SEP = b"\x1e"


@dataclass(frozen=True, slots=True)
class FieldMask:
    """A subset of field names used to represent records during one pass."""

    selected: frozenset[str]

    @classmethod
    def of(cls, *names: str) -> "FieldMask":
        return cls(frozenset(names))

    def __contains__(self, name: str) -> bool:
        return name in self.selected

    def sorted_names(self) -> list[str]:
        return sorted(self.selected)


@dataclass(frozen=True, slots=True)
class Record:
    """One metadata record; immutable after ingest.

    ``fields`` maps field names to ordered value tuples.  Artificial records
    (cluster summaries) carry ``kind="artificial"`` and the ids of the records
    they summarize in ``provenance``; they behave like ordinary records
    everywhere else.
    """

    id: str
    provider: str
    fields: dict[str, tuple[str, ...]]
    kind: str = ORIGINAL
    provenance: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class RejectedLine:
    line: int
    reason: str


@dataclass
class IngestResult:
    records: list[Record] = field(default_factory=list)
    rejects: list[RejectedLine] = field(default_factory=list)


def resolve_provider(fields: dict[str, tuple[str, ...]]) -> str:
    """Provider key: dataProvider value, else provider value, else empty."""
    for name in (DATA_PROVIDER_FIELD, PROVIDER_FIELD):
        values = fields.get(name)
        if values:
            return values[0]
    return ""


def check_record(record: Record) -> None:
    """The rules every corpus record obeys, from ingest or a library caller:
    a non-empty id, and an original carries dc:title or dc:description.

    Raises ValueError naming the broken rule.
    """
    if not record.id:
        raise ValueError("missing or empty id")
    if record.kind == ORIGINAL and not (
        record.fields.get(TITLE_FIELD) or record.fields.get(DESCRIPTION_FIELD)
    ):
        raise ValueError("record has neither dc:title nor dc:description")


def _parse_line(line: str) -> Record:
    doc = json.loads(line)
    if not isinstance(doc, dict):
        raise ValueError("document is not an object")
    rec_id = doc.get("id")
    if not isinstance(rec_id, str):
        raise ValueError("missing or empty id")
    raw_fields = doc.get("fields", {})
    if not isinstance(raw_fields, dict):
        raise ValueError("fields is not an object")
    fields: dict[str, tuple[str, ...]] = {}
    for name, values in raw_fields.items():
        if not isinstance(name, str):
            raise ValueError("field name is not a string")
        if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            raise ValueError(f"values of {name!r} are not a list of strings")
        if values:
            fields[name] = tuple(values)
    record = Record(id=rec_id, provider=resolve_provider(fields), fields=fields)
    check_record(record)
    # An unpaired surrogate has no UTF-8 form and would crash serialization
    # mid-run.  The line was decoded as strict UTF-8, so only a \uD800-\uDFFF
    # escape can produce one; lines without such an escape skip the check.
    if _SURROGATE_ESCAPE_RE.search(line):
        try:
            "".join([rec_id, *fields, *chain.from_iterable(fields.values())]).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("id, field name or value holds an unpaired surrogate") from None
    return record


def _split_lines(stream: Iterable[bytes]) -> Iterator[bytes]:
    # Binary reads end lines only at b"\n"; split CR and CRLF endings as
    # text mode would.  No multi-byte UTF-8 sequence holds a CR byte.
    for chunk in stream:
        if b"\r" in chunk:
            yield from chunk.splitlines()
        else:
            yield chunk


def ingest(stream: IO[bytes] | Iterable[bytes]) -> IngestResult:
    """Parse newline-delimited UTF-8 record documents.

    Malformed lines (bad UTF-8 included) and duplicate ids are collected in
    the rejects report instead of aborting the run; blank lines are skipped.
    """
    result = IngestResult()
    seen: set[str] = set()
    for lineno, raw in enumerate(_split_lines(stream), start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            record = _parse_line(line)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError included
            result.rejects.append(RejectedLine(lineno, str(exc)))
            continue
        if record.id in seen:
            result.rejects.append(RejectedLine(lineno, f"duplicate id {record.id!r}"))
            continue
        seen.add(record.id)
        result.records.append(record)
    return result


def ingest_path(path) -> IngestResult:
    with open(path, "rb") as fh:
        return ingest(fh)


def export_line(record: Record) -> str:
    """Canonical single-line JSON form.  ``ingest`` reads back only the id
    and the fields, not ``kind`` or ``provenance``; a run directory keeps
    that structure in ``forest.ndjson``."""
    doc: dict = {"id": record.id, "fields": {k: list(v) for k, v in sorted(record.fields.items())}}
    if record.kind != ORIGINAL:
        doc["kind"] = record.kind
    if record.provenance:
        doc["provenance"] = list(record.provenance)
    return json.dumps(doc, ensure_ascii=False, sort_keys=True)


def write_records(records: Iterable[Record], fh: IO[str]) -> None:
    for record in records:
        fh.write(export_line(record))
        fh.write("\n")


def _selected_items(record: Record, mask: FieldMask | None) -> Iterator[tuple[str, tuple[str, ...]]]:
    # None means "all fields"; missing selected fields contribute nothing.
    for name in sorted(record.fields):
        if mask is None or name in mask:
            yield name, record.fields[name]


def tokenize(record: Record, mask: FieldMask | None = None) -> list[str]:
    """Word tokens of the selected fields: NFC-normalized, case-folded,
    purely-numeric tokens dropped, order given by sorted field names.
    """
    tokens: list[str] = []
    for _, values in _selected_items(record, mask):
        for value in values:
            normalized = unicodedata.normalize("NFC", value).casefold()
            for match in _TOKEN_RE.finditer(normalized):
                token = match.group()
                if not token.isdigit():
                    tokens.append(token)
    return tokens


def serialize_for_compression(record: Record, mask: FieldMask | None = None) -> bytes:
    """Deterministic byte form of the selected fields.

    Depends only on the selected field names and their value lists; two
    records agreeing there serialize identically regardless of anything else.
    """
    parts: list[bytes] = []
    for name, values in _selected_items(record, mask):
        parts.append(name.encode("utf-8"))
        for value in values:
            parts.append(_VALUE_SEP)
            parts.append(value.encode("utf-8"))
        parts.append(_FIELD_SEP)
    return b"".join(parts)

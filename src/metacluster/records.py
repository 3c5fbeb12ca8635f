"""Metadata records: ingestion, normalization, tokenization, serialization.

The input format is newline-delimited JSON, one record per line:

    {"id": "r1", "fields": {"dc:title": ["The Oil Shop part 01"], ...}}

Field values are always lists of strings.  A record is its id and its
fields, an artificial record (a cluster summary) included.  A record's
provider is read off its fields: the first ``europeana:dataProvider`` value,
else the first ``europeana:provider`` value, else the empty string.
"""

from __future__ import annotations

import json
import re
import sys
import unicodedata
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Iterable, Iterator

from .config import DATA_PROVIDER_FIELD, DESCRIPTION_FIELD, PROVIDER_FIELD, TITLE_FIELD

# Maximal runs of alphanumeric code points (underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# JSON escape of a UTF-16 surrogate (\uD800-\uDFFF), paired or not.
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD]")
# A surrogate code point: a str holding one has no UTF-8 form.
_SURROGATE_RE = re.compile("[\ud800-\udfff]")

# Single-byte separators for the deterministic compressor payload.
_VALUE_SEP = b"\x1f"
_FIELD_SEP = b"\x1e"


#: The field names that represent records during one pass.
FieldMask = frozenset[str]


@dataclass(frozen=True, slots=True)
class Record:
    """One metadata record; immutable after ingest.

    ``fields`` maps field names to ordered value tuples.  An artificial
    record (a cluster summary) is a record like any other: its id is its
    cluster's, and the records it summarizes are that cluster's
    ``record_ids()``.  The provider is read off ``europeana:dataProvider``,
    then ``europeana:provider``, and can be set no other way.
    """

    id: str
    fields: dict[str, tuple[str, ...]]

    @property
    def provider(self) -> str:
        """The provider key ``resolve_provider`` reads off the fields."""
        return resolve_provider(self.fields)


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
    """The rules every record obeys, from ingest, a library caller or a
    cluster summary: a non-empty id without a line feed (run files list ids
    one per line), and a dc:title or dc:description value.  A summary's
    values are its members' values, so it carries one of the two as well.

    Raises ValueError naming the broken rule.
    """
    if not record.id:
        raise ValueError("missing or empty id")
    if "\n" in record.id:
        raise ValueError("id holds a line feed")
    if not (record.fields.get(TITLE_FIELD) or record.fields.get(DESCRIPTION_FIELD)):
        raise ValueError("record has neither dc:title nor dc:description")


def find_surrogate(texts: Iterable[str]) -> int | None:
    """Index of the first text holding a surrogate code point, or None.

    Such a text has no UTF-8 form and would crash serialization mid-run.
    ``json.loads`` joins an escaped surrogate pair into one code point, so a
    surrogate in an ingested str is unpaired.
    """
    return next((i for i, text in enumerate(texts) if _SURROGATE_RE.search(text)), None)


def _parse_line(line: str, shared: dict[tuple[str, ...], tuple[str, ...]]) -> Record:
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
            # One key object per distinct field name, and one tuple per
            # distinct value list, not one per line.
            fields[sys.intern(name)] = shared.setdefault(values := tuple(values), values)
    record = Record(id=rec_id, fields=fields)
    check_record(record)
    # The line was decoded as strict UTF-8, so only a \uD800-\uDFFF escape
    # can give an unpaired surrogate; lines without such an escape skip the
    # check.
    if _SURROGATE_ESCAPE_RE.search(line) and find_surrogate(
        chain([rec_id], fields, chain.from_iterable(fields.values()))
    ) is not None:
        raise ValueError("id, field name or value holds an unpaired surrogate")
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
    Records whose field value lists are equal share one tuple, and its
    strings, within one call: a provider's records repeat most of their
    values.  Nothing is shared with another call.
    """
    result = IngestResult()
    seen: set[str] = set()
    shared: dict[tuple[str, ...], tuple[str, ...]] = {}
    for lineno, raw in enumerate(_split_lines(stream), start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            record = _parse_line(line, shared)
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


#: A document as one sorted-key JSON line, non-ASCII kept as is: every NDJSON
#: line a run writes.  One encoder serves every call; ``json.dumps`` builds one per call.
json_line = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def export_line(record: Record) -> str:
    """Canonical single-line JSON form: the id and the fields, which is all
    ``ingest`` reads back."""
    return json_line({"id": record.id, "fields": record.fields})


def write_records(records: Iterable[Record], fh: IO[str]) -> None:
    for record in records:
        fh.write(export_line(record))
        fh.write("\n")


def _selected_items(record: Record, mask: FieldMask | None) -> Iterator[tuple[str, tuple[str, ...]]]:
    # None means "all fields"; missing selected fields contribute nothing.
    for name in sorted(record.fields):
        if mask is None or name in mask:
            yield name, record.fields[name]


def selected_values(record: Record, mask: FieldMask | None = None) -> list[str]:
    """Values of the selected fields, in sorted field-name order."""
    return [value for _, values in _selected_items(record, mask) for value in values]


def tokenize(*values: str) -> list[str]:
    """Word tokens of the values, in order: NFC-normalized, case-folded,
    purely-numeric tokens dropped.  A record's tokens under a mask are
    ``tokenize(*selected_values(record, mask))``.
    """
    # A space is a non-word starter that composes with nothing, so NFC,
    # casefold and the token pattern act on each value as if run separately.
    folded = unicodedata.normalize("NFC", " ".join(values)).casefold()
    return [token for token in _TOKEN_RE.findall(folded) if not token.isdigit()]


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

import io
import json
import re
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metacluster.records import (
    Record,
    RejectedLine,
    export_line,
    ingest,
    ingest_path,
    selected_values,
    serialize_for_compression,
    tokenize,
    write_records,
)


def ingest_lines(*lines: str):
    return ingest(io.BytesIO("".join(line + "\n" for line in lines).encode("utf-8")))


class TestIngest:
    def test_single_line(self):
        line = '{"id":"r1","fields":{"europeana:dataProvider":["BL"],"dc:title":["The Oil Shop part 01"]}}'
        result = ingest_lines(line)
        assert len(result.records) == 1
        assert not result.rejects
        record = result.records[0]
        assert record.id == "r1"
        assert record.provider == "BL"
        assert record.fields["dc:title"] == ("The Oil Shop part 01",)

    def test_missing_title_and_description_rejected(self):
        line = '{"id":"r1","fields":{"dc:subject":["maps"]}}'
        result = ingest_lines(line)
        assert not result.records
        assert len(result.rejects) == 1
        assert result.rejects[0].line == 1
        assert "dc:title" in result.rejects[0].reason

    def test_empty_stream(self):
        result = ingest(io.BytesIO(b""))
        assert result.records == []
        assert result.rejects == []

    def test_duplicate_id_rejects_later_occurrence(self):
        line = '{"id":"r1","fields":{"dc:title":["a"]}}'
        result = ingest_lines(line, line)
        assert len(result.records) == 1
        assert len(result.rejects) == 1
        assert result.rejects[0].line == 2
        assert "duplicate" in result.rejects[0].reason

    def test_malformed_json_line_number(self):
        good = '{"id":"r1","fields":{"dc:title":["a"]}}'
        result = ingest_lines(good, "{not json", good.replace("r1", "r2"))
        assert [r.id for r in result.records] == ["r1", "r2"]
        assert result.rejects[0].line == 2

    def test_provider_fallback(self):
        line = '{"id":"r1","fields":{"europeana:provider":["Agg"],"dc:title":["a"]}}'
        result = ingest_lines(line)
        assert result.records[0].provider == "Agg"

    def test_data_provider_wins_over_provider(self):
        line = (
            '{"id":"r1","fields":{"europeana:provider":["Agg"],'
            '"europeana:dataProvider":["Museum"],"dc:title":["a"]}}'
        )
        result = ingest_lines(line)
        assert result.records[0].provider == "Museum"

    def test_no_provider_fields_gives_empty_provider(self):
        line = '{"id":"r1","fields":{"dc:title":["a"]}}'
        result = ingest_lines(line)
        assert result.records[0].provider == ""

    def test_blank_lines_skipped(self):
        line = '{"id":"r1","fields":{"dc:title":["a"]}}'
        result = ingest(io.BytesIO(("\n" + line + "\n\n").encode("utf-8")))
        assert len(result.records) == 1
        assert not result.rejects

    def test_bad_value_shapes_rejected(self):
        result = ingest_lines(
            '{"id":"r1","fields":{"dc:title":"not a list"}}',
            '{"id":"r2","fields":{"dc:title":[1,2]}}',
            '{"id":"","fields":{"dc:title":["a"]}}',
            '["not an object"]',
        )
        assert not result.records
        assert [r.line for r in result.rejects] == [1, 2, 3, 4]

    def test_invalid_utf8_line_rejected(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(
            b'{"id":"r1","fields":{"dc:title":["a"]}}\n'
            b'{"id":"r2","fields":{"dc:title":["caf\xe9"]}}\n'
            b'{"id":"r3","fields":{"dc:title":["caf\xc3\xa9"]}}\n'
        )
        result = ingest_path(path)
        assert [r.id for r in result.records] == ["r1", "r3"]
        assert result.records[1].fields["dc:title"] == ("café",)
        assert [r.line for r in result.rejects] == [2]
        assert "utf-8" in result.rejects[0].reason

    def test_cr_and_crlf_line_endings(self, tmp_path):
        path = tmp_path / "corpus.ndjson"
        path.write_bytes(
            b'{"id":"r1","fields":{"dc:title":["a"]}}\r'
            b'{broken\r\n'
            b'\r'
            b'{"id":"r2","fields":{"dc:title":["b"]}}\r\n'
            b'{"id":"r3","fields":{"dc:title":["c"]}}'
        )
        result = ingest_path(path)
        assert [r.id for r in result.records] == ["r1", "r2", "r3"]
        assert [r.line for r in result.rejects] == [2]

    def test_equal_field_names_are_one_object(self):
        # json.loads builds a new key string per line; ingest keeps one.
        result = ingest_lines(
            '{"id":"r1","fields":{"dc:title":["a"],"dc:subject":["x"]}}',
            '{"id":"r2","fields":{"dc:title":["b"],"dc:subject":["y"]}}',
        )
        first, second = (list(r.fields) for r in result.records)
        assert first == second == ["dc:title", "dc:subject"]
        assert all(a is b for a, b in zip(first, second))

    def test_equal_value_lists_are_one_tuple_per_call(self):
        p = "europeana:dataProvider"
        lines = [
            '{"id":"a","fields":{"europeana:dataProvider":["BL"],"dc:title":["Map of Kent"]}}',
            '{"id":"b","fields":{"europeana:dataProvider":["BL"],"dc:title":["Map of Essex"]}}',
            "{not json",
            '{"id":"c","fields":{"europeana:dataProvider":["KB"],"dc:title":["Map of Kent"]}}',
        ]
        raw = "".join(line + "\n" for line in lines).encode("utf-8")
        result = ingest(io.BytesIO(raw))
        a, b, c = result.records
        assert a.fields[p] is b.fields[p]
        assert a.fields["dc:title"] is c.fields["dc:title"]
        assert a.fields[p] is not c.fields[p] and b.fields["dc:title"] is not a.fields["dc:title"]
        assert [r.line for r in result.rejects] == [3]
        docs = [json.loads(line) for line in lines if line != "{not json"]
        assert result.records == [
            Record(doc["id"], {name: tuple(values) for name, values in doc["fields"].items()}) for doc in docs
        ]
        again = ingest(io.BytesIO(raw)).records
        assert again == result.records
        first = {id(values) for record in result.records for values in record.fields.values()}
        assert not first & {id(values) for record in again for values in record.fields.values()}

    def test_unpaired_surrogate_rejected(self):
        result = ingest_lines(
            '{"id":"r\\ud800","fields":{"dc:title":["a"]}}',
            '{"id":"r2","fields":{"dc:\\udc00title":["a"],"dc:title":["b"]}}',
            '{"id":"r3","fields":{"dc:title":["a\\ud800"]}}',
            '{"id":"r4","fields":{"dc:title":["b\\uDBFF"]}}',
            '{"id":"r5","fields":{"dc:title":["pair \\ud83d\\ude00"]}}',
        )
        assert [r.id for r in result.records] == ["r5"]
        assert [r.line for r in result.rejects] == [1, 2, 3, 4]
        assert all("surrogate" in r.reason for r in result.rejects)
        serialize_for_compression(result.records[0])


class TestTokenize:
    def test_numbers_dropped(self):
        record = Record("r", {"dc:title": ("Map 1873 of London",)})
        assert tokenize(*selected_values(record, frozenset({"dc:title"}))) == ["map", "of", "london"]

    def test_mask_with_absent_field(self):
        record = Record("r", {"dc:title": ("One Map",), "dc:type": ("image",)})
        mask = frozenset({"dc:title", "dc:subject"})
        assert tokenize(*selected_values(record, mask)) == ["one", "map"]

    def test_case_folding_keeps_duplicates(self):
        record = Record("r", {"dc:title": ("Lithograph; LITHOGRAPH",)})
        assert tokenize(*selected_values(record)) == ["lithograph", "lithograph"]

    def test_mixed_alphanumeric_tokens_kept(self):
        record = Record("r", {"dc:title": ("no5 part 07",)})
        assert tokenize(*selected_values(record)) == ["no5", "part"]

    def test_sorted_field_order_and_punctuation(self):
        record = Record(
            "r", {"dc:title": ("b-title",), "dc:creator": ("A.Creator",)}
        )
        assert tokenize(*selected_values(record)) == ["a", "creator", "b", "title"]

    def test_idempotent_under_renormalization(self):
        record = Record("r", {"dc:title": ("Déjà Vu; 42 no5 MAPS",)})
        tokens = tokenize(*selected_values(record))
        rebuilt = Record("r2", {"dc:title": (" ".join(tokens),)})
        assert tokenize(*selected_values(rebuilt)) == tokens


class TestSerialize:
    def test_deterministic(self):
        record = Record("r", {"dc:title": ("a", "b"), "dc:type": ("t",)})
        assert serialize_for_compression(record) == serialize_for_compression(record)

    def test_content_addressing(self):
        a = Record("r1", {"dc:title": ("a",), "dc:type": ("t",)})
        b = Record("r2", {"dc:type": ("t",), "dc:title": ("a",)})
        assert serialize_for_compression(a) == serialize_for_compression(b)

    def test_unselected_fields_ignored(self):
        mask = frozenset({"dc:title"})
        a = Record("r1", {"dc:title": ("a",), "dc:type": ("x",)})
        b = Record("r2", {"dc:title": ("a",), "dc:type": ("y",)})
        assert serialize_for_compression(a, mask) == serialize_for_compression(b, mask)
        assert serialize_for_compression(a, mask) != serialize_for_compression(a)

    def test_value_order_matters_but_field_order_does_not(self):
        a = Record("r1", {"dc:title": ("a", "b")})
        b = Record("r2", {"dc:title": ("b", "a")})
        assert serialize_for_compression(a) != serialize_for_compression(b)


field_names = st.sampled_from(
    ["dc:title", "dc:description", "dc:subject", "dc:type", "dc:creator", "dcterms:spatial"]
)
values = st.lists(st.text(min_size=1, max_size=20), min_size=1, max_size=3)


@st.composite
def record_documents(draw):
    extra = draw(st.dictionaries(field_names, values, max_size=4))
    extra["dc:title"] = draw(values)
    # An id never holds a line feed: ``check_record`` rejects one.
    rid = draw(st.text(st.characters(exclude_characters="\n"), min_size=1, max_size=12))
    return rid, extra


@given(record_documents(), st.randoms(use_true_random=False))
def test_serialization_ignores_input_field_order(doc, rnd):
    rid, fields = doc
    names = list(fields)
    rnd.shuffle(names)
    a = Record(rid, {n: tuple(fields[n]) for n in fields})
    b = Record(rid, {n: tuple(fields[n]) for n in names})
    assert serialize_for_compression(a) == serialize_for_compression(b)
    assert tokenize(*selected_values(a)) == tokenize(*selected_values(b))


def tokenize_per_value(record, mask=None):
    """The definition of ``tokenize``, one value at a time."""
    tokens = []
    for name in sorted(record.fields):
        if mask is None or name in mask:
            for value in record.fields[name]:
                folded = unicodedata.normalize("NFC", value).casefold()
                tokens += [t for t in re.findall(r"[^\W_]+", folded) if not t.isdigit()]
    return tokens


# Code points where normalization or case folding depends on neighbours or
# changes length: combining marks (one with ccc 240 that folds to iota),
# Hangul jamo and a syllable, sigmas, sharp s, a ligature, dotted capital I,
# separators and digits of two scripts.
tricky_text = st.text(
    st.one_of(
        st.sampled_from(
            "e\u0301\u0323\u0308\u0345\u1100\u1161\u11a8\uac00\u03a3\u03c3\u03c2"
            "\u00df\ufb01\u0130_- 07\u0663aA"
        ),
        st.characters(),
    ),
    max_size=12,
)


@given(
    st.dictionaries(field_names, st.lists(tricky_text, min_size=1, max_size=3), max_size=4),
    st.frozensets(field_names),
    st.booleans(),
)
def test_tokenize_matches_per_value_definition(fields, selected, masked):
    record = Record("r", {n: tuple(v) for n, v in fields.items()})
    mask = frozenset(selected) if masked else None
    assert tokenize(*selected_values(record, mask)) == tokenize_per_value(record, mask)


@given(st.lists(record_documents(), max_size=8, unique_by=lambda d: d[0]))
def test_export_ingest_round_trip(docs):
    records = [Record(rid, {n: tuple(v) for n, v in fields.items()}) for rid, fields in docs]
    buffer = io.StringIO()
    write_records(records, buffer)
    result = ingest(io.BytesIO(buffer.getvalue().encode("utf-8")))
    assert not result.rejects
    original = {(r.id, tuple(sorted(r.fields.items()))) for r in records}
    restored = {(r.id, tuple(sorted(r.fields.items()))) for r in result.records}
    assert restored == original


def test_id_with_line_feed_is_rejected():
    # Run files list ids one per line; other line separators are id characters.
    lines = [
        json.dumps({"id": rid, "fields": {"dc:title": ["t"]}}) for rid in ("a\nb", "a\u2028b", "c\rd")
    ]
    result = ingest(io.BytesIO("\n".join(lines).encode("utf-8")))
    assert [r.id for r in result.records] == ["a\u2028b", "c\rd"]
    assert result.rejects == [RejectedLine(1, "id holds a line feed")]


def test_export_line_is_single_json_line():
    record = Record("r", {"dc:title": ("with\nnewline",)})
    line = export_line(record)
    assert "\n" not in line
    assert json.loads(line)["fields"]["dc:title"] == ["with\nnewline"]


def test_provider_is_read_off_the_fields():
    record = Record("r", {"europeana:dataProvider": ("BL",), "dc:title": ("t",)})
    assert record.provider == "BL"
    assert Record("r", {"europeana:provider": ("Agg",), "dc:title": ("t",)}).provider == "Agg"
    assert Record("r", {"dc:title": ("t",)}).provider == ""
    # A provider string in the old second position is refused at construction.
    with pytest.raises(TypeError):
        Record("r", "p", {"dc:title": ("t",)})

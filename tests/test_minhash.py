import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metacluster import hashing, minhash
from metacluster.config import GROUP_SIZES
from metacluster.hashing import MAX_U64, minhash_keys
from metacluster.minhash import (
    SENTINEL,
    SignatureComputer,
    assemble,
    band_key_matrix,
    band_positions,
    group_ids,
    shingle,
)
from metacluster.records import Record, selected_values, tokenize, write_records
from metacluster.synthetic import hierarchical_corpus, random_corpus

from reference_impl import bucket_groups, reference_band_keys, reference_draws, reference_keys, reference_row


def sign(records, count=64, seed=0):
    """Rows of records given by their values."""
    return SignatureComputer(count=count, seed=seed).signature_matrix(records, tokenize)


class TestShingle:
    def test_ten_character_word(self):
        assert shingle("clustering") == {"clusteri", "lusterin", "ustering"}

    def test_short_word_shingles_to_itself(self):
        assert shingle("map") == {"map"}

    def test_exact_length(self):
        assert shingle("abcdefgh") == {"abcdefgh"}

    def test_empty_word(self):
        assert shingle("") == set()


class TestSignature:
    def test_deterministic(self):
        tokens = ["hierarchical", "clustering", "of", "records"]
        a = SignatureComputer(count=64, seed=5).signature_vector(tokens, tokenize)
        b = SignatureComputer(count=64, seed=5).signature_vector(tokens, tokenize)
        assert np.array_equal(a, b)

    def test_seed_changes_signature(self):
        tokens = ["hierarchical", "clustering"]
        a = SignatureComputer(count=64, seed=5).signature_vector(tokens, tokenize)
        b = SignatureComputer(count=64, seed=6).signature_vector(tokens, tokenize)
        assert not np.array_equal(a, b)

    def test_empty_stream_is_sentinel(self):
        vec = SignatureComputer(count=64, seed=5).signature_vector([], tokenize)
        assert vec.shape == (64,)
        assert {int(v) for v in vec} == {SENTINEL}

    def test_signature_agreement_tracks_jaccard(self):
        # One rare word replaced; exact Jaccard over the shingle unions is the
        # oracle, signature agreement must land within +/-0.1 for H=64.
        rng = random.Random(3)
        base = ["".join(rng.choice("abcdefghijklmnop") for _ in range(12)) for _ in range(30)]
        other = base[:-1] + ["zzzzyyyyxxxxw"]

        def shingles(tokens):
            out = set()
            for token in tokens:
                out |= shingle(token)
            return out

        sa, sb = shingles(base), shingles(other)
        exact = len(sa & sb) / len(sa | sb)
        a, b = sign([base, other], seed=1)
        agreement = float((a == b).mean())
        assert agreement == pytest.approx(exact, abs=0.1)

    def test_token_order_and_duplication_irrelevant(self):
        computer = SignatureComputer(count=64, seed=2)
        a = computer.signature_vector(["alpha", "beta", "gamma"], tokenize)
        b = computer.signature_vector(["gamma", "alpha", "beta", "alpha"], tokenize)
        assert (a == b).all()


def distinct_single_values(n):
    """``n`` distinct single-value records, each three of 60 tokens."""
    words = [a + b + "word" for a in "abcdef" for b in "abcdefghij"]
    return [[" ".join(words[k // 60**p % 60] for p in range(3))] for k in range(n)]


def unkept_signing_peak(records):
    """The tracemalloc peak of signing ``records`` with ``keep=False``; numpy
    reports its allocations to tracemalloc."""
    computer = SignatureComputer(count=64, seed=3)
    tracemalloc.start()
    try:
        for _ in computer.signatures(records, tokenize, keep=False):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_unkept_signing_builds_no_value_rows():
    # 20,000 records: their value rows alone would take 10.24 MB.
    records = distinct_single_values(20_000)
    assert unkept_signing_peak(records) < len(records) * 64 * 8 / 2


def test_unkept_signing_index_work_grows_by_block():
    # The index arithmetic is done a record block at a time, so the peak grows
    # per record only by what the batch holds for it: its dict entry, its ids
    # and its tokens' ids, 94 bytes here, against 163 with index arrays as
    # long as the whole batch.
    small, large = distinct_single_values(20_000), distinct_single_values(80_000)
    grown = unkept_signing_peak(large) - unkept_signing_peak(small)
    assert grown / (len(large) - len(small)) < 128


def test_unkept_call_leaves_the_store_empty():
    # The first two records' values are stored; the unkept call meets them
    # beside a value new to it.
    records = [["alpha beta"], ["alpha beta", "gamma"], ["delta", "alpha beta"]]
    computer = SignatureComputer(count=64, seed=4)
    computer.signature_matrix(records[:2], tokenize)
    rows = assemble(computer.signatures(records, tokenize, keep=False), len(records), 64)
    assert computer._store == {} and computer._rows.shape == (0, 64)
    assert np.array_equal(rows, sign(records, seed=4))


@pytest.mark.parametrize("keep", [True, False])
def test_signing_holds_token_rows_a_column_block_at_a_time(keep):
    # 500 values of 40 tokens each, 20,000 distinct tokens: their rows for
    # all 64 positions would take 10.24 MB; the kept value rows take 0.26 MB.
    # numpy reports its allocations to tracemalloc.
    words = [f"w{k:05d}" for k in range(20_000)]
    records = [[" ".join(words[k : k + 40])] for k in range(0, len(words), 40)]
    computer = SignatureComputer(count=64, seed=3)
    token_rows = len(words) * computer.count * 8
    tracemalloc.start()
    try:
        for _ in computer.signatures(records, tokenize, keep=keep):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < token_rows / 2


def whole_keys(matrix, level, band_seed):
    """``band_key_matrix`` over whole signature rows, one block from position 0."""
    return band_key_matrix(matrix, 0, band_positions(level, band_seed, count=matrix.shape[1]))


class TestBandKeys:
    def test_group_sizes_at_endpoints(self):
        for level, expected in ((100, 16), (20, 2)):
            groups = band_positions(level, band_seed=0, count=64)
            assert len(groups) == 4
            assert all(len(g) == expected for g in groups)
            flat = [p for g in groups for p in g]
            assert len(set(flat)) == len(flat)  # disjoint

    def test_intermediate_sizes_monotone(self):
        sizes = [GROUP_SIZES[lv] for lv in (100, 80, 60, 40, 20)]
        assert sizes == sorted(sizes, reverse=True)

    def test_xor_identity(self):
        positions = band_positions(20, band_seed=0, count=8)
        hashes = np.zeros((1, 8), dtype=np.uint64)
        first_group = positions[0]
        hashes[0, first_group[0]] = 0x3
        hashes[0, first_group[1]] = 0x5
        keys, empty = band_key_matrix(hashes, 0, positions)
        assert int(keys[0, 0]) == 0x6
        assert not empty[0]

    def test_deterministic_given_inputs(self):
        matrix = sign([["alpha", "beta"]], seed=1)
        keys, _ = whole_keys(matrix, 80, 7)
        assert np.array_equal(keys, whole_keys(matrix, 80, 7)[0])
        assert not np.array_equal(keys, whole_keys(matrix, 80, 8)[0])

    def test_matrix_path_matches_scalar_path(self):
        streams = [["alpha", "beta"], ["gamma"], [], ["delta", "epsilon", "zeta"]]
        matrix = sign(streams, seed=3)
        for level in (100, 80, 60, 40, 20):
            positions = band_positions(level, band_seed=3, count=64)
            keys, empty = band_key_matrix(matrix, 0, positions)
            for i in range(len(streams)):
                scalar_keys, scalar_empty = reference_band_keys([int(v) for v in matrix[i]], positions)
                assert tuple(int(k) for k in keys[i]) == scalar_keys
                assert bool(empty[i]) == scalar_empty
            # Keys XOR-accumulated from blocks of 5 positions, the last one
            # partial, as band_signatures accumulates them.
            keys = np.zeros_like(keys)
            empty = np.ones_like(empty)
            for column in range(0, 64, 5):
                part, sentinel = band_key_matrix(matrix[:, column : column + 5], column, positions)
                keys ^= part
                empty &= sentinel
            for i in range(len(streams)):
                scalar_keys, scalar_empty = reference_band_keys([int(v) for v in matrix[i]], positions)
                assert tuple(int(k) for k in keys[i]) == scalar_keys
                assert bool(empty[i]) == scalar_empty


def grouped(rows, empty=()):
    """``group_ids`` over (id, four band keys) rows; ids in ``empty`` are
    sentinel rows."""
    ids = [rid for rid, _ in rows]
    keys = np.array([k for _, k in rows], dtype=np.uint64).reshape(len(rows), 4)
    return group_ids(ids, keys, np.array([rid in empty for rid in ids], dtype=bool))


class TestGrouping:
    def test_identical_records_group(self):
        assert grouped([("a", (1, 2, 3, 4)), ("b", (1, 2, 3, 4))]) == [("a", "b")]

    def test_transitive_closure(self):
        rows = [
            ("a", (1, 10, 11, 12)),
            ("b", (1, 20, 21, 3)),
            ("c", (30, 31, 32, 3)),
            ("d", (40, 41, 42, 43)),
        ]
        assert grouped(rows) == [("a", "b", "c"), ("d",)]

    def test_band_link_after_a_later_band_lowers_a_label(self):
        # r2 meets r3 in band 0, before band 2 links r3 to r0: one sweep over
        # the bands leaves r2 apart, so labels must settle over rounds.
        rows = [("r0", (3, 3, 2, 3)), ("r1", (1, 3, 0, 3)), ("r2", (2, 1, 1, 0)), ("r3", (2, 2, 2, 1))]
        assert grouped(rows) == [("r0", "r1", "r2", "r3")]

    def test_key_match_is_per_band_position(self):
        # Same value in different band positions must not connect records.
        assert grouped([("a", (7, 1, 2, 3)), ("b", (4, 7, 5, 6))]) == [("a",), ("b",)]

    def test_sentinel_records_always_singletons(self):
        rows = [("a", (1, 2, 3, 4)), ("b", (1, 2, 3, 4)), ("c", (1, 2, 3, 4))]
        assert grouped(rows, empty={"b", "c"}) == [("a",), ("b",), ("c",)]

    def test_random_corpus_mostly_singletons_at_level_100(self):
        records = random_corpus(1000, seed=5)
        matrix = sign([selected_values(r) for r in records], seed=5)
        keys, empty = whole_keys(matrix, 100, band_seed=5)
        groups = group_ids([r.id for r in records], keys, empty)
        singletons = sum(1 for g in groups if len(g) == 1)
        assert singletons >= 0.99 * len(records)

    def test_mean_group_size_grows_as_level_drops(self):
        records = random_corpus(400, seed=11, tokens_per_record=6, vocab_size=150)
        matrix = sign([selected_values(r) for r in records], seed=11)

        def mean_size(level):
            keys, empty = whole_keys(matrix, level, band_seed=11)
            groups = group_ids([r.id for r in records], keys, empty)
            return sum(len(g) for g in groups) / len(groups)

        assert mean_size(20) >= mean_size(100)

    def test_identical_metadata_same_keys_at_every_level(self):
        corpus = random_corpus(5, seed=2)
        matrix = sign([selected_values(corpus[0])] * 2, seed=9)
        for level in (100, 80, 60, 40, 20):
            keys, empty = whole_keys(matrix, level, band_seed=9)
            assert (keys[0] == keys[1]).all()
            assert not empty.any()


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
        min_size=1,
        max_size=40,
    )
)
def test_grouping_is_a_partition(key_rows):
    rows = [(f"r{i:03d}", row) for i, row in enumerate(key_rows)]
    groups = grouped(rows)
    flat = [rid for group in groups for rid in group]
    assert sorted(flat) == sorted(rid for rid, _ in rows)
    assert len(flat) == len(set(flat))


# Values with short, 8-character and longer words, several words, upper case,
# digits, a combining mark, non-ASCII letters and the empty string; a small
# alphabet makes values and tokens repeat within and across records.
VALUES = st.text(alphabet="abcé日ßжA1 \u0301", max_size=14)
FIELDS = ("dc:date", "dc:subject", "dc:title")


@settings(deadline=None)
@given(st.integers(0, MAX_U64), st.integers(2, 32).map(lambda n: 4 * n))
@example(0, 64)
@example(2**32 - 1, 64)
@example(2**32, 64)
@example(MAX_U64, 64)
@example(2**100 + 7, 8)  # entropy wider than 64 bits
def test_keys_are_numpys_pcg64_draws(entropy, count):
    assert minhash_keys(entropy, count) == reference_draws(entropy, count)


RUN_SCRIPT = """
import sys
from metacluster.cli import main
corpus, out = sys.argv[1:]
assert main(["cluster", "--input", corpus, "--out", out + "/run", "--ga-pop", "4", "--ga-gens", "2"]) == 0
assert main(["select-fields", "--input", corpus, "--out", out + "/sel", "--ga-pop", "4", "--ga-gens", "2"]) == 0
assert main(["stats", "--run", out + "/run"]) == 0
assert main(["sample-eval", "--run", out + "/run", "--input", corpus, "--out", out + "/sample.ndjson"]) == 0
print(sorted({"numpy.random", "_hashlib"} & set(sys.modules)))
"""


def test_a_run_does_not_load_numpy_random(tmp_path):
    # The keys are computed by hashing.minhash_keys; numpy.random would add
    # about 2 MB to every run's peak.  blake2b comes from _blake2, since
    # hashlib's import of _hashlib (OpenSSL) would add about 3.5 MB.
    corpus = tmp_path / "corpus.ndjson"
    with open(corpus, "w", encoding="utf-8") as fh:
        write_records(hierarchical_corpus(n_works=6, seed=20, noise_records=10), fh)
    paths = [str(Path(__file__).resolve().parents[1] / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-c", RUN_SCRIPT, str(corpus), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "[]"


def test_blake2b_is_the_constructor_hashlib_hands_out():
    assert hashing.blake2b is hashlib.blake2b


@st.composite
def record_batches(draw):
    pool = draw(st.lists(VALUES, min_size=1, max_size=8))
    value = st.sampled_from(pool) | VALUES
    fields = st.dictionaries(st.sampled_from(FIELDS), st.lists(value, min_size=1, max_size=4), max_size=3)
    batches = draw(st.lists(st.lists(fields, max_size=6), min_size=1, max_size=3))
    return [[Record(f"r{i}", {n: tuple(v) for n, v in f.items()}) for i, f in enumerate(b)] for b in batches]


@settings(deadline=None)
@given(
    record_batches(),
    st.none() | st.sets(st.sampled_from(FIELDS)).map(frozenset),
    st.sampled_from((1, 3, 64)),
    st.integers(0, 2**64 - 1),
    st.sampled_from((1, 10, minhash.BLOCK_VALUES)),
    st.sampled_from((1, 2, minhash.BLOCK_RECORDS)),
    st.sampled_from((3, minhash.STORE_LIMIT)),
    st.sampled_from((1, 5, minhash.COLUMN_BLOCK)),
)
def test_batch_signatures_match_reference_rows(batches, mask, count, seed, block, per_block, limit, width):
    keys = reference_keys(count, seed)
    computer = SignatureComputer(count=count, seed=seed)
    # The store starts over before it would pass the limit, so only a single
    # record with more values can take it past.
    bound = max([limit] + [len(selected_values(r, mask)) for batch in batches for r in batch])
    with (
        patch.object(minhash, "BLOCK_VALUES", block),
        patch.object(minhash, "BLOCK_RECORDS", per_block),
        patch.object(minhash, "STORE_LIMIT", limit),
        patch.object(minhash, "COLUMN_BLOCK", width),
    ):
        for batch in batches:  # later batches sign on the earlier ones' store
            values = [selected_values(r, mask) for r in batch]
            blocks = list(computer.signatures(iter(values), tokenize))
            assert_block_shapes(blocks, len(values), count, per_block, width)
            rows = assemble(blocks, len(values), count)
            expected = [reference_row(tokenize(*selected_values(r, mask)), keys, seed) for r in batch]
            assert [[int(v) for v in row] for row in rows] == expected
            assert len(computer._store) == len(computer._rows) <= bound
        assert np.array_equal(SignatureComputer(count=count, seed=seed).signature_matrix(values, tokenize), rows)


def assert_block_shapes(blocks, size, count, per_block, width):
    """Each block is uint64, holds at most ``width`` positions of at most
    ``per_block`` records per ``width``-position part of a row, and together
    the blocks cover every (record, position) of ``size`` records once."""
    covered = np.zeros((size, count), dtype=int)
    for start, column, b in blocks:
        assert 0 < len(b) <= per_block * -(-count // width) and 0 < b.shape[1] <= width
        assert b.dtype == np.uint64
        covered[start : start + len(b), column : column + b.shape[1]] += 1
    assert (covered == 1).all()


# Values without tokens (empty, numeric-only) beside ones that have some.
STREAM_VALUES = st.sampled_from(("", "12", "7 07", "alpha", "alpha beta", "gammadeltaepsilon")) | VALUES


@st.composite
def stored_then_last(draw):
    """Two value streams over one small pool: the first is signed into the
    store, the second signed last, so its records mix stored and new values
    and repeat values within and across blocks."""
    pool = draw(st.lists(STREAM_VALUES, min_size=1, max_size=6))
    value = st.sampled_from(pool) | STREAM_VALUES
    stream = st.lists(st.lists(value, max_size=4), max_size=30)
    return draw(stream), draw(stream.filter(bool))


@settings(deadline=None)
@given(
    stored_then_last(),
    st.sampled_from((1, 3, 64)),
    st.integers(0, 2**64 - 1),
    st.sampled_from((1, 3, minhash.BLOCK_RECORDS)),
    st.sampled_from((3, minhash.STORE_LIMIT)),
    st.sampled_from((1, 5, minhash.COLUMN_BLOCK)),
)
def test_unkept_signatures_match_kept_and_reference_rows(streams, count, seed, per_block, limit, width):
    stored, last = streams
    keys = reference_keys(count, seed)
    with (
        patch.object(minhash, "BLOCK_RECORDS", per_block),
        patch.object(minhash, "STORE_LIMIT", limit),
        patch.object(minhash, "COLUMN_BLOCK", width),
    ):
        computer = SignatureComputer(count=count, seed=seed)
        kept = SignatureComputer(count=count, seed=seed)
        for c in (computer, kept):
            list(c.signatures(iter(stored), tokenize))
        blocks = list(computer.signatures(iter(last), tokenize, keep=False))
        assert_block_shapes(blocks, len(last), count, per_block, width)
        assert not computer._store and computer._rows.shape == (0, count)
        expected = kept.signature_matrix(last, tokenize)
    got = assemble(blocks, len(last), count)
    assert np.array_equal(got, expected)
    assert [[int(v) for v in row] for row in got] == [reference_row(tokenize(*values), keys, seed) for values in last]


KEY_VALUES = st.sampled_from((0, 1, 2, 2**63, 2**64 - 1))


@given(
    st.lists(st.tuples(st.tuples(*[KEY_VALUES] * 4), st.booleans()), min_size=1, max_size=30),
    st.randoms(use_true_random=False),
)
def test_group_ids_matches_reference_in_any_row_order(rows, rng):
    # Ids r0, r1, ..., r10 sort as strings, not in row order.
    keysets = {f"r{i}": row for i, row in enumerate(rows)}
    expected = bucket_groups(keysets, set(keysets))
    ids = list(keysets)
    for _ in range(2):
        keys = np.array([keysets[rid][0] for rid in ids], dtype=np.uint64)
        empty = np.array([keysets[rid][1] for rid in ids], dtype=bool)
        assert group_ids(ids, keys, empty) == expected
        rng.shuffle(ids)

import random
import statistics

import pytest

from metacluster.config import COMPRESSORS, EngineConfig
from metacluster.errors import ConfigurationError
from metacluster.hierarchy import run_hierarchy
from metacluster.records import Record, serialize_for_compression
from metacluster.similarity import (
    CONCAT_SEP,
    Compression,
    SimilarityContext,
    raw_similarity,
)
from metacluster.synthetic import random_corpus


def make_ctx(records, **kwargs):
    return SimilarityContext({r.id: r for r in records}, **kwargs)


class TestCompression:
    def test_deterministic(self):
        compression = Compression("zlib", 6)
        data = b"the quick brown fox" * 10
        assert compression.compressed_size(data) == compression.compressed_size(data)

    def test_golden_repetitive_input(self):
        # Frozen output of the default compressor (zlib level 6).
        assert Compression("zlib", 6).compressed_size(b"abc" * 1000) == 29

    def test_golden_empty_input(self):
        assert Compression("zlib", 6).compressed_size(b"") == 8

    def test_nonempty_input_positive(self):
        assert Compression("zlib", 6).compressed_size(b"x") >= 1

    def test_unknown_compressor_rejected(self):
        with pytest.raises(ConfigurationError):
            Compression("zpaq", 6)

    def test_config_rejects_unknown_compressor(self):
        with pytest.raises(ConfigurationError, match="unknown compressor"):
            EngineConfig(compressor="nope")

    def test_config_rejects_bz2_level_zero(self):
        # bz2 has no level 0; the manifest would record a level never used.
        with pytest.raises(ConfigurationError, match="1-9 for bz2"):
            EngineConfig(compressor="bz2", compression_level=0)

    @pytest.mark.parametrize("name,level", [("bz2", 0), ("zlib", 12)])
    def test_compression_rejects_level_out_of_range(self, name, level):
        # Built directly, not through EngineConfig: the bad level must fail here,
        # not at the first compressed_size.
        with pytest.raises(ConfigurationError, match=f"compression level must be in .* for {name}"):
            Compression(name, level)

    @pytest.mark.parametrize("name", sorted(COMPRESSORS))
    def test_every_accepted_level_compresses(self, name):
        for level in range(10):
            try:
                EngineConfig(compressor=name, compression_level=level)
            except ConfigurationError:
                continue
            assert Compression(name, level).compressed_size(b"abc abc abc") > 0

    def test_identifier(self):
        # The manifest records the compressor as name:level.
        run = run_hierarchy([], None, EngineConfig(compression_level=3), levels=(100,))
        assert run.manifest["compressor"] == "zlib:3"


class _FixedSizes(Compression):
    """Compressor stub with scripted sizes, for exercising the clamp."""

    def __init__(self, table):
        super().__init__("zlib", 6)
        self.table = table

    def compressed_size(self, data):
        return self.table[data]


class TestSimilarityFormula:
    def test_identical_payloads_are_exactly_one(self):
        record = Record("r", {"dc:title": ("some redundant title text here",) * 4})
        twin = Record("s", dict(record.fields))
        ctx = make_ctx([record, twin])
        assert ctx.similarity("r", "s") == 1.0
        assert ctx.similarity("r", "r") == 1.0

    def test_raw_self_similarity_of_long_records_is_high(self):
        # Without the byte-identity shortcut, NCD self-similarity depends on
        # the compressor; for records >= 200 bytes it stays above 0.9.
        compression = Compression("zlib", 6)
        for record in random_corpus(50, seed=8, tokens_per_record=40):
            payload = serialize_for_compression(record)
            assert len(payload) >= 200
            c = compression.compressed_size(payload)
            cxx = compression.compressed_size(payload + CONCAT_SEP + payload)
            assert raw_similarity(c, c, cxx) >= 0.9

    def test_independent_random_kilobyte_strings_are_dissimilar(self):
        rng = random.Random(4)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 "
        ctx = SimilarityContext({}, Compression("zlib", 6))
        for _ in range(50):
            x = "".join(rng.choice(alphabet) for _ in range(1000)).encode()
            y = "".join(rng.choice(alphabet) for _ in range(1000)).encode()
            assert ctx.similarity_of_payloads(x, y) <= 0.1

    def test_clamped_below_zero(self):
        table = {b"x": 100, b"y": 100, b"x" + CONCAT_SEP + b"y": 300}
        ctx = SimilarityContext({}, _FixedSizes(table))
        assert raw_similarity(100, 100, 300) < 0
        assert ctx.similarity_of_payloads(b"x", b"y") == 0.0

    def test_clamped_above_one(self):
        table = {b"x": 100, b"y": 90, b"x" + CONCAT_SEP + b"y": 80}
        ctx = SimilarityContext({}, _FixedSizes(table))
        assert raw_similarity(100, 90, 80) > 1
        assert ctx.similarity_of_payloads(b"x", b"y") == 1.0

    def test_both_empty_is_zero(self):
        ctx = SimilarityContext({}, Compression("zlib", 6))
        assert ctx.similarity_of_payloads(b"", b"") == 0.0

    def test_one_empty_is_low_not_one(self):
        ctx = SimilarityContext({}, Compression("zlib", 6))
        value = ctx.similarity_of_payloads(b"", b"some actual content")
        assert 0.0 <= value < 0.5


class TestCache:
    def test_cached_size_matches_serialization(self):
        records = random_corpus(5, seed=1)
        mask = frozenset({"dc:title"})
        compression = Compression("zlib", 6)
        ctx = make_ctx(records, compression=compression, mask_for=lambda r: mask)
        rid = records[0].id
        ctx.similarity(rid, records[1].id)
        expected = compression.compressed_size(serialize_for_compression(records[0], mask))
        assert ctx.compressed_size_of(rid) == expected
        assert ctx.compression is compression

    def test_mask_changes_payload(self):
        record = Record("r", {"dc:title": ("a",), "dc:type": ("t",)})
        full = SimilarityContext({"r": record})
        masked = SimilarityContext({"r": record}, mask_for=lambda r: frozenset({"dc:title"}))
        assert full.payload("r") != masked.payload("r")


class TestEmpiricalProperties:
    def test_symmetry_gap_small_over_sample(self):
        records = random_corpus(200, seed=13, tokens_per_record=30)
        ctx = make_ctx(records)
        rng = random.Random(13)
        ids = [r.id for r in records]
        gaps = []
        for _ in range(1000):
            x, y = rng.sample(ids, 2)
            gaps.append(abs(ctx.similarity(x, y) - ctx.similarity(y, x)))
        assert max(gaps) <= 0.05

    def test_self_beats_unrelated_record(self):
        ours = random_corpus(60, seed=21, tokens_per_record=30, provider="a")
        theirs = random_corpus(60, seed=22, tokens_per_record=30, provider="b")
        ctx = make_ctx(ours + theirs)
        rng = random.Random(5)
        wins = 0
        trials = 300
        for _ in range(trials):
            x = rng.choice(ours).id
            y = rng.choice(theirs).id
            if ctx.similarity(x, x) > ctx.similarity(x, y):
                wins += 1
        assert wins / trials >= 0.99

    def test_monotone_degradation_under_corruption(self):
        rng = random.Random(17)
        ctx = SimilarityContext({}, Compression("zlib", 6))
        vocab = ["".join(rng.choice("abcdefghij") for _ in range(9)) for _ in range(400)]

        def corrupt(tokens, percent):
            out = list(tokens)
            count = round(len(out) * percent / 100)
            for idx in rng.sample(range(len(out)), count):
                out[idx] = "".join(rng.choice("qrstuvwxyz") for _ in range(9))
            return out

        medians = []
        for percent in (0, 25, 50, 75, 100):
            sims = []
            for _ in range(60):
                tokens = [rng.choice(vocab) for _ in range(40)]
                x = " ".join(tokens).encode()
                y = " ".join(corrupt(tokens, percent)).encode()
                sims.append(ctx.similarity_of_payloads(x, y))
            medians.append(statistics.median(sims))
        assert medians == sorted(medians, reverse=True)
        assert medians[0] == 1.0  # zero corruption leaves payloads identical

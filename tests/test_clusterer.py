import json
import random
from collections import Counter, defaultdict
from dataclasses import asdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metacluster.clusterer import (
    CandidateCluster,
    FieldRows,
    LevelBanding,
    _process_group,
    assign_to_heads,
    band_signatures,
    cluster_level,
    level_inputs,
    select_heads,
    sign_population,
    validate_candidate,
)
from metacluster.config import EngineConfig
from metacluster.errors import ConfigurationError
from metacluster.hashing import derive_seed
from metacluster.minhash import SENTINEL, SignatureComputer
from metacluster.records import FieldMask, Record
from metacluster.synthetic import (
    duplicate_pairs_corpus,
    family_corpus,
    ga_provider_corpus,
    random_corpus,
)

import numpy as np


def stub_sim(table, default=0.0):
    def sim(a, b):
        if a == b:
            return 1.0
        return table.get((a, b), table.get((b, a), default))

    return sim


def run_level(records, level, config, mask_for=None):
    by_id = {r.id: r for r in records}
    ids = sorted(by_id)
    banding, ctx = level_inputs(by_id, ids, level, config, mask_for=mask_for)
    return cluster_level(ids, level, ctx.similarity, banding, config), ctx


def manual_banding(level, groups_spec):
    """Banding where records listed together share one synthetic band key."""
    ids = sorted(rid for group in groups_spec for rid in group)
    index = {rid: i for i, rid in enumerate(ids)}
    keys = np.zeros((len(ids), 4), dtype=np.uint64)
    # distinct defaults so nothing collides accidentally
    for i in range(len(ids)):
        for b in range(4):
            keys[i, b] = 1000 + 10 * i + b
    for g, group in enumerate(groups_spec):
        for rid in group:
            keys[index[rid], 0] = g + 1
    return LevelBanding(level, ids, keys, np.zeros(len(ids), dtype=bool))


class TestSelectHeads:
    def test_single_record_is_sole_head(self):
        rng = random.Random(0)
        assert select_heads(["only"], 0.8, rng, stub_sim({})) == ["only"]

    def test_identical_records_one_head(self):
        ids = [f"r{i}" for i in range(12)]
        sim = stub_sim({}, default=1.0)  # everyone identical
        for seed in range(5):
            heads = select_heads(ids, 0.8, random.Random(seed), sim)
            assert len(heads) == 1

    def test_head_cap_at_ten(self):
        ids = [f"r{i:02d}" for i in range(25)]
        sim = stub_sim({}, default=0.0)  # everyone dissimilar
        heads = select_heads(ids, 0.8, random.Random(1), sim)
        assert len(heads) == 10

    def test_heads_pairwise_below_threshold(self):
        records, _ = family_corpus(4, 6, seed=2)
        by_id = {r.id: r for r in records}
        from metacluster.similarity import SimilarityContext

        ctx = SimilarityContext(by_id)
        heads = select_heads(sorted(by_id), 0.8, random.Random(3), ctx.similarity)
        for i, a in enumerate(heads):
            for b in heads[i + 1 :]:
                assert ctx.similarity(a, b) < 0.8

    def test_three_separated_families_give_three_heads(self):
        # Families constructed with within-family sim > 0.8 and cross < 0.3,
        # verified against the brute-force similarity matrix.
        records, families = family_corpus(3, 10, seed=6)
        by_id = {r.id: r for r in records}
        from metacluster.similarity import SimilarityContext

        ctx = SimilarityContext(by_id)
        ids = sorted(by_id)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                s = ctx.similarity(a, b)
                if families[a] == families[b]:
                    assert s > 0.8
                else:
                    assert s < 0.3
        hits = 0
        for seed in range(10):
            heads = select_heads(ids, 0.8, random.Random(seed), ctx.similarity)
            if len(heads) == 3 and len({families[h] for h in heads}) == 3:
                hits += 1
        assert hits >= 9


class TestAssign:
    def test_single_head_takes_all(self):
        candidates = assign_to_heads(["a", "b", "c"], ["b"], stub_sim({}))
        assert candidates == [CandidateCluster("b", ("a", "c"))]

    def test_tie_goes_to_smallest_head_id(self):
        sim = stub_sim({("h1", "x"): 0.7, ("h2", "x"): 0.7})
        candidates = assign_to_heads(["h1", "h2", "x"], ["h2", "h1"], sim)
        by_head = {c.head: c.members for c in candidates}
        assert by_head == {"h1": ("x",), "h2": ()}

    def test_families_join_their_heads(self):
        records, families = family_corpus(3, 8, seed=6)
        by_id = {r.id: r for r in records}
        from metacluster.similarity import SimilarityContext

        ctx = SimilarityContext(by_id)
        ids = sorted(by_id)
        heads = select_heads(ids, 0.8, random.Random(0), ctx.similarity)
        assert len(heads) == 3
        candidates = assign_to_heads(ids, heads, ctx.similarity)
        # oracle: argmax over the brute-force similarity matrix
        for candidate in candidates:
            for member in candidate.members:
                sims = {h: ctx.similarity(h, member) for h in heads}
                best = max(sims.values())
                winners = sorted(h for h, s in sims.items() if s == best)
                assert candidate.head == winners[0]
                assert families[member] == families[candidate.head]


class TestValidate:
    def test_identical_members_accepted(self):
        sim = stub_sim({}, default=1.0)
        ok, mean = validate_candidate(CandidateCluster("h", ("a", "b")), 0.8, sim)
        assert ok and mean == 1.0

    def test_single_low_member_rejected(self):
        sim = stub_sim({("h", "m"): 0.5})
        ok, mean = validate_candidate(CandidateCluster("h", ("m",)), 0.8, sim)
        assert not ok and mean == 0.5

    def test_boundary_mean_accepted(self):
        sim = stub_sim({("h", "a"): 0.8, ("h", "b"): 0.8})
        ok, mean = validate_candidate(CandidateCluster("h", ("a", "b")), 0.8, sim)
        assert ok and mean == pytest.approx(0.8)

    def test_empty_members_never_accepted(self):
        ok, mean = validate_candidate(CandidateCluster("h", ()), 0.8, stub_sim({}))
        assert not ok and mean == 0.0


class TestClusterLevel:
    def test_exact_duplicate_groups(self):
        records, pairs = duplicate_pairs_corpus(20, 0, seed=3)
        config = EngineConfig(seed=5)
        result, ctx = run_level(records, 100, config)
        # oracle: group records by byte-identical serialization
        by_payload = defaultdict(set)
        for record in records:
            by_payload[ctx.payload(record.id)].add(record.id)
        expected = sorted(tuple(sorted(g)) for g in by_payload.values() if len(g) > 1)
        got = sorted(tuple(sorted(c.record_ids())) for c in result.clusters)
        assert got == expected
        assert len(result.clusters) == 20
        assert result.iterations_used == 1
        clustered = result.clustered_ids()
        for a, b in pairs:
            assert a in clustered and b in clustered

    def test_all_distinct_random_corpus(self):
        records = random_corpus(300, seed=9)
        config = EngineConfig(seed=9)
        result, ctx = run_level(records, 100, config)
        assert result.clusters == ()
        assert len(result.unclustered) == len(records)
        # oracle: sample pairs, none reach the level-100 threshold
        rng = random.Random(1)
        ids = [r.id for r in records]
        for _ in range(300):
            x, y = rng.sample(ids, 2)
            assert ctx.similarity(x, y) < 1.0

    def test_families_cluster_at_level_80(self):
        records, families = family_corpus(6, 8, seed=10)
        config = EngineConfig(seed=10)
        result, _ = run_level(records, 80, config)
        assert result.clusters
        for cluster in result.clusters:
            labels = {families[rid] for rid in cluster.record_ids()}
            assert len(labels) == 1  # clusters never mix families

    def test_partition_and_mean_invariants(self):
        records, _ = duplicate_pairs_corpus(10, 30, seed=4)
        more, _ = family_corpus(3, 7, seed=5, id_prefix="ff")
        records = records + more
        config = EngineConfig(seed=6)
        for level in (100, 80, 60):
            result, ctx = run_level(records, level, config)
            placed = list(result.unclustered)
            for cluster in result.clusters:
                placed.extend(cluster.record_ids())
                # post-hoc re-verification with fresh similarity computations
                direct = cluster.direct_members()
                mean = sum(ctx.similarity(cluster.head, m) for m in direct) / len(direct)
                assert mean == pytest.approx(cluster.mean_head_similarity, abs=1e-9)
                assert mean >= level / 100.0
            assert sorted(placed) == sorted(r.id for r in records)

    def test_deterministic_across_runs(self):
        records, _ = family_corpus(5, 9, seed=12)
        records += random_corpus(40, seed=12, provider="noise")
        config = EngineConfig(seed=13)
        a, _ = run_level(records, 80, config)
        b, _ = run_level(records, 80, config)
        assert a == b
        assert json.dumps([asdict(c) for c in a.clusters]) == json.dumps(
            [asdict(c) for c in b.clusters]
        )

    def test_seed_changes_head_choice(self):
        records, _ = family_corpus(5, 9, seed=12)
        a, _ = run_level(records, 80, EngineConfig(seed=1))
        b, _ = run_level(records, 80, EngineConfig(seed=2))
        heads_a = sorted(c.head for c in a.clusters)
        heads_b = sorted(c.head for c in b.clusters)
        assert heads_a != heads_b  # random head selection is seed-driven

    def test_max_iter_below_one_rejected(self):
        records = random_corpus(5, seed=1)
        config = EngineConfig(seed=1, max_iterations=0)
        by_id = {r.id: r for r in records}
        banding, _ = level_inputs(by_id, sorted(by_id), 100, EngineConfig(seed=1))
        with pytest.raises(ConfigurationError):
            cluster_level(sorted(by_id), 100, stub_sim({}), banding, config)

    def test_parallel_run_keeps_invariants(self):
        records, _ = duplicate_pairs_corpus(40, 80, seed=7)
        config = EngineConfig(seed=8)
        result, ctx = run_level(records, 100, config)
        placed = list(result.unclustered)
        for cluster in result.clusters:
            placed.extend(cluster.record_ids())
            assert cluster.mean_head_similarity >= 1.0
        assert sorted(placed) == sorted(r.id for r in records)
        assert len(result.clusters) == 40

    def test_singleton_groups_stay_unclustered(self):
        records = random_corpus(4, seed=2)
        config = EngineConfig(seed=2)
        result, _ = run_level(records, 100, config)
        assert result.clusters == ()
        assert result.iterations_used == 0

    def test_carried_head_absorption_transfers_members(self):
        # Directional similarities (compression similarity is mildly
        # asymmetric): p and q both become heads when p is scanned first
        # (sim(p,q) below threshold) but a later iteration scanning q first
        # absorbs p (sim(q,p) above threshold), transferring p's members.
        table = {
            ("p", "q"): 0.79,
            ("q", "p"): 0.85,
            ("p", "pm"): 0.9,
            ("pm", "p"): 0.75,
            ("q", "qm"): 0.9,
            ("qm", "q"): 0.9,
            ("p", "qm"): 0.5,
            ("qm", "p"): 0.5,
            ("q", "pm"): 0.5,
            ("pm", "q"): 0.5,
            ("pm", "qm"): 0.1,
            ("qm", "pm"): 0.1,
        }

        def sim(a, b):
            return 1.0 if a == b else table[(a, b)]

        ids = ["p", "pm", "q", "qm"]
        banding = manual_banding(80, [tuple(ids)])
        merged = []
        for seed in range(40):
            config = EngineConfig(seed=seed)
            result = cluster_level(ids, 80, sim, banding, config)
            placed = list(result.unclustered)
            for cluster in result.clusters:
                placed.extend(cluster.record_ids())
                if cluster.transferred:
                    merged.append((seed, cluster))
            assert sorted(placed) == sorted(ids)
        assert merged, "no seed in range exercised the head-absorption path"
        for _, cluster in merged:
            assert set(cluster.transferred) < set(cluster.members)
            assert cluster.head == "q"
            assert cluster.transferred == ("pm",)
            assert set(cluster.members) == {"p", "pm", "qm"}

    def test_band_match_all_mode(self):
        records, _ = duplicate_pairs_corpus(10, 20, seed=3)
        config = EngineConfig(seed=4, band_match="all")
        result, _ = run_level(records, 100, config)
        assert len(result.clusters) == 10


def row_store_corpus() -> list[Record]:
    """A GA provider sample where some records lack fields and ``dc:date``
    holds only numbers, so it tokenizes to nothing."""
    records = []
    base = ga_provider_corpus(n_records=24, n_families=3, seed=41, extra_fields=2)
    for i, record in enumerate(base):
        fields = dict(record.fields)
        if i % 3 == 0:
            del fields["dc:description"]
        if i % 4 == 1:
            del fields["dc:extra0"]
        if i % 2 == 0:
            fields["dc:date"] = ("1871", "2024")
        records.append(Record(record.id, record.provider, fields))
    return records


ROW_RECORDS = row_store_corpus()
ROW_FIELDS = sorted({name for record in ROW_RECORDS for name in record.fields})
ROW_CONFIG = EngineConfig(seed=41)


@pytest.fixture(scope="module")
def row_store() -> FieldRows:
    return FieldRows(ROW_RECORDS, ROW_CONFIG)


class TestFieldRows:
    @given(st.sets(st.sampled_from(ROW_FIELDS)))
    def test_store_matches_tokenizing_path(self, row_store, names):
        mask = FieldMask(frozenset(names))
        by_id = {r.id: r for r in ROW_RECORDS}
        ids = [r.id for r in ROW_RECORDS]
        computer = SignatureComputer(count=ROW_CONFIG.minhash_count, seed=ROW_CONFIG.seed)
        expected = sign_population(by_id, ids, computer, lambda record: mask)
        got = row_store.signatures(mask)
        assert got.dtype == np.uint64
        assert np.array_equal(got, expected)
        banding = band_signatures(80, ids, got, ROW_CONFIG)
        reference, _ = level_inputs(by_id, ids, 80, ROW_CONFIG, mask_for=lambda record: mask)
        assert np.array_equal(banding.keys, reference.keys)
        assert np.array_equal(banding.empty, reference.empty)

    def test_numeric_only_and_missing_fields_give_sentinel(self, row_store):
        assert (row_store.signatures(FieldMask.of("dc:date")) == np.uint64(SENTINEL)).all()
        assert (row_store.signatures(FieldMask(frozenset())) == np.uint64(SENTINEL)).all()
        lacking = [i for i, r in enumerate(ROW_RECORDS) if "dc:description" not in r.fields]
        sig = row_store.signatures(FieldMask.of("dc:description"))
        assert (sig[lacking] == np.uint64(SENTINEL)).all()
        assert not (np.delete(sig, lacking, axis=0) == np.uint64(SENTINEL)).any()

    def test_one_row_per_present_pair(self, row_store):
        assert row_store.rows.shape == (
            sum(len(r.fields) for r in ROW_RECORDS),
            ROW_CONFIG.minhash_count,
        )


#: Exact thresholds are included on purpose: they reach the rounding corner.
SIM_VALUES = (0.0, 0.15, 0.2, 0.55, 0.6, 0.79, 0.8, 0.95, 1.0)
THRESHOLDS = st.sampled_from((0.2, 0.4, 0.6, 0.8, 1.0))


@st.composite
def group_with_sims(draw):
    """A candidate group and a directed similarity for every ordered pair."""
    n = draw(st.integers(2, 12))
    group = tuple(f"r{i:02d}" for i in range(n))
    values = st.one_of(st.sampled_from(SIM_VALUES), st.floats(0.0, 1.0))
    table = {(a, b): draw(values) for a in group for b in group if a != b}
    return group, table


def table_sim(table):
    return lambda x, y: 1.0 if x == y else table[(x, y)]


class TestProcessGroup:
    @given(group_with_sims(), THRESHOLDS, st.integers(0, 2**32))
    def test_each_ordered_pair_computed_once(self, spec, threshold, seed):
        group, table = spec
        raw = table_sim(table)
        calls: Counter = Counter()

        def counting(x, y):
            calls[(x, y)] += 1
            return raw(x, y)

        got = _process_group(group, threshold, random.Random(seed), counting)
        assert max(calls.values()) == 1

        # The three steps composed over the bare similarity agree.
        heads = select_heads(group, threshold, random.Random(seed), raw)
        accepted, restack = [], []
        for candidate in assign_to_heads(group, heads, raw):
            if not candidate.members:
                continue
            ok, mean = validate_candidate(candidate, threshold, raw)
            if ok:
                accepted.append((candidate.head, candidate.members, mean))
            else:
                restack.append(tuple(sorted((candidate.head,) + candidate.members)))
        assert got == (accepted, restack)

    @given(group_with_sims(), THRESHOLDS, st.integers(0, 2**32))
    def test_restack_is_strict_subset_unless_mean_rounds_down(self, spec, threshold, seed):
        group, table = spec
        sim = table_sim(table)
        accepted, restack = _process_group(group, threshold, random.Random(seed), sim)
        parts = [set(r) for r in restack] + [{head, *members} for head, members, _ in accepted]
        assert all(part <= set(group) for part in parts)
        assert sum(map(len, parts)) == len(set().union(*parts))  # pairwise disjoint
        for part in restack:
            if set(part) == set(group):
                # Only a single head takes the whole group, and every member
                # reached the threshold against it, so only float rounding of
                # the mean can have failed the candidate.
                heads = select_heads(group, threshold, random.Random(seed), sim)
                assert len(heads) == 1
                member_sims = [sim(heads[0], m) for m in group if m != heads[0]]
                assert min(member_sims) >= threshold
                assert sum(member_sims) / len(member_sims) < threshold

    def test_mean_rounding_restacks_whole_single_head_group(self):
        # The corner the strict-subset rule excludes: six members at exactly
        # the threshold average to just below it in floating point.
        group = tuple(f"r{i}" for i in range(7))
        sim = stub_sim({}, default=0.2)
        assert sum([0.2] * 6) / 6 < 0.2
        accepted, restack = _process_group(group, 0.2, random.Random(0), sim)
        assert accepted == [] and restack == [group]

    def test_visit_redraws_a_group_restacked_by_rounding(self):
        # With r0 as head every member sits exactly at 0.2 and the mean rounds
        # below the level-20 threshold; any other head passes.  A group whose
        # first draw puts r0 first is restacked whole, and only the ``visit``
        # term of the seed makes its second draw differ from the first.
        group = tuple(f"r{i}" for i in range(7))

        def sim(x, y):
            return 1.0 if x == y else (0.2 if x == "r0" else 0.9)

        def first_head(seed, visit):  # the documented per-group draw
            order = sorted(group)
            random.Random(derive_seed(seed, "level", 20, 1, visit, *group)).shuffle(order)
            return order[0]

        banding = manual_banding(20, [group])
        redrawn = 0
        for seed in range(60):
            heads = [first_head(seed, 0), first_head(seed, 1)]
            redrawn += heads[0] == "r0"
            result = cluster_level(group, 20, sim, banding, EngineConfig(seed=seed))
            if heads == ["r0", "r0"]:
                assert result.clusters == () and result.unclustered == group
            else:
                [cluster] = result.clusters
                assert cluster.head == next(h for h in heads if h != "r0")
        assert redrawn > 0

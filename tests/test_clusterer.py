import json
import random
from collections import defaultdict
from dataclasses import asdict, replace

import pytest

from metacluster.clusterer import (
    CandidateCluster,
    LevelBanding,
    assign_to_heads,
    build_banding,
    cluster_level,
    level_inputs,
    select_heads,
    validate_candidate,
)
from metacluster.config import EngineConfig
from metacluster.errors import ConfigurationError
from metacluster.minhash import SignatureComputer
from metacluster.synthetic import (
    duplicate_pairs_corpus,
    family_corpus,
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
        config = EngineConfig(seed=13, workers=1)
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
        banding = build_banding(by_id, sorted(by_id), 100, EngineConfig(seed=1))
        with pytest.raises(ConfigurationError):
            cluster_level(sorted(by_id), 100, stub_sim({}), banding, config)

    def test_parallel_run_keeps_invariants(self):
        records, _ = duplicate_pairs_corpus(40, 80, seed=7)
        config = EngineConfig(seed=8, workers=4)
        result, ctx = run_level(records, 100, config)
        placed = list(result.unclustered)
        for cluster in result.clusters:
            placed.extend(cluster.record_ids())
            assert cluster.mean_head_similarity >= 1.0
        assert sorted(placed) == sorted(r.id for r in records)
        assert len(result.clusters) == 40
        assert result == run_level(records, 100, replace(config, workers=1))[0]

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

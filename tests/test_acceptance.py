"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete; the two large corpora (criteria 4 and 7) take a few minutes
combined on one desktop core.
"""

import json
import math
import random
import statistics
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from metacluster import rundir
from metacluster.cli import main
from metacluster.clusterer import cluster_level, level_inputs
from metacluster.config import EngineConfig, GAConfig
from metacluster.ga import SENTINEL_FITNESS, clusterability, evolve
from metacluster.hierarchy import (
    expand,
    forest_index,
    forest_roots,
    never_clustered,
    run_hierarchy,
)
from metacluster.records import FieldMask, serialize_for_compression, write_records
from metacluster.similarity import CONCAT_SEP, Compression, SimilarityContext
from metacluster.synthetic import (
    corrupted_pairs_corpus,
    duplicate_pairs_corpus,
    family_corpus,
    ga_provider_corpus,
    hierarchical_corpus,
    random_corpus,
)

from reference_impl import reference_cluster_level, reference_keysets

import itertools


def check(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def run_level_100(records, seed):
    by_id = {r.id: r for r in records}
    ids = sorted(by_id)
    config = EngineConfig(seed=seed)
    banding, ctx = level_inputs(by_id, ids, 100, config)
    return cluster_level(ids, 100, ctx.similarity, banding, config)


def test_criterion_1_duplicate_recall():
    worst_recall = 1.0
    worst_seconds = 0.0
    for seed in (101, 102, 103):
        records, pairs = duplicate_pairs_corpus(1000, 8000, seed=seed)
        decoys = {r.id for r in records if r.id.startswith("dec")}
        started = time.perf_counter()
        result = run_level_100(records, seed)
        seconds = time.perf_counter() - started
        worst_seconds = max(worst_seconds, seconds)

        cluster_of = {}
        for cluster in result.clusters:
            for rid in cluster.record_ids():
                cluster_of[rid] = cluster.id
        recall = sum(
            a in cluster_of and cluster_of[a] == cluster_of.get(b) for a, b in pairs
        ) / len(pairs)
        worst_recall = min(worst_recall, recall)

        planted = {frozenset(pair) for pair in pairs}
        for cluster in result.clusters:
            ids = frozenset(cluster.record_ids())
            assert not ids & decoys, f"decoy absorbed into {cluster.id}"
            assert ids in planted, f"cluster {cluster.id} is not a planted pair"

    check(
        1,
        worst_recall >= 0.99 and worst_seconds <= 60.0,
        f"duplicate recall >= 99% (worst {worst_recall:.2%}), zero false merges, "
        f"worst runtime {worst_seconds:.1f}s <= 60s",
    )


def test_criterion_2_near_duplicate_behavior():
    total = 0
    at_80 = 0
    at_100 = 0
    for seed in (201, 202, 203):
        records, pairs = corrupted_pairs_corpus(100, seed=seed, corruption=0.10)
        by_id = {r.id: r for r in records}
        ids = sorted(by_id)
        config = EngineConfig(seed=seed)
        for level in (80, 100):
            banding, ctx = level_inputs(by_id, ids, level, config)
            result = cluster_level(ids, level, ctx.similarity, banding, config)
            cluster_of = {}
            for cluster in result.clusters:
                for rid in cluster.record_ids():
                    cluster_of[rid] = cluster.id
            together = sum(
                a in cluster_of and cluster_of[a] == cluster_of.get(b) for a, b in pairs
            )
            if level == 80:
                at_80 += together
            else:
                at_100 += together
        total += len(pairs)
    rate = at_80 / total
    check(
        2,
        rate >= 0.90,
        f"10%-corrupted pairs co-cluster at level 80 in {rate:.1%} of {total} cases "
        f"(and only {at_100} at level 100)",
    )


def test_criterion_3_oracle_equivalence():
    corpora = [
        duplicate_pairs_corpus(25, 60, seed=31)[0],               # 110 records
        family_corpus(5, 7, seed=32)[0] + random_corpus(40, seed=33),  # 75
        hierarchical_corpus(n_works=6, seed=34, noise_records=12),     # ~110
    ]
    compared = 0
    for corpus_idx, records in enumerate(corpora):
        assert len(records) <= 200
        by_id = {r.id: r for r in records}
        ids = sorted(by_id)
        for level in (100, 80, 60):
            for seed in (7, 8):
                config = EngineConfig(seed=seed)
                banding, ctx = level_inputs(by_id, ids, level, config)
                production = cluster_level(ids, level, ctx.similarity, banding, config)

                keysets = reference_keysets(by_id, ids, level, config)
                ctx2 = SimilarityContext(by_id, Compression())
                reference = reference_cluster_level(ids, level, ctx2.similarity, keysets, config)

                assert production == reference, (
                    f"corpus {corpus_idx} level {level} seed {seed}: results differ"
                )
                a = json.dumps([asdict(c) for c in production.clusters], sort_keys=True)
                b = json.dumps([asdict(c) for c in reference.clusters], sort_keys=True)
                assert a == b
                assert production.unclustered == reference.unclustered
                assert production.iterations_used == reference.iterations_used
                compared += 1
    check(3, compared == 18, f"straight-line reimplementation byte-identical in {compared}/18 runs")


def test_criterion_4_hierarchy_integrity_at_scale():
    records = hierarchical_corpus(
        n_works=11800,
        editions_per_work=2,
        volumes_per_edition=4,
        seed=41,
        duplicate_share=0.04,
        noise_records=4000,
    )
    assert len(records) >= 100_000, f"corpus too small: {len(records)}"
    config = EngineConfig(seed=41)
    run = run_hierarchy(records, None, config)  # verify_run asserts internally too

    original_ids = {r.id for r in records}
    index = forest_index(run.forest)
    covered = set()
    for root in forest_roots(run.forest):
        expansion = expand(root, index, original_ids)
        assert not covered & expansion, "root expansions overlap"
        covered |= expansion
    leftovers = never_clustered(run, original_ids)
    assert covered | leftovers == original_ids
    assert not covered & leftovers

    for result in run.results.values():
        placed = list(result.unclustered)
        for cluster in result.clusters:
            placed.extend(cluster.record_ids())
        assert len(placed) == len(set(placed))

    stats = {s.level: s for s in run.level_stats}
    monotone = stats[60].input_count >= stats[40].input_count >= stats[20].input_count
    check(
        4,
        monotone,
        f"refinement/conservation/partition hold on {len(records)} records; "
        f"populations {stats[60].input_count} >= {stats[40].input_count} >= "
        f"{stats[20].input_count} across 60/40/20",
    )


def test_criterion_5_ga_correctness():
    spot = clusterability(10, 2.0, 0.5)
    assert spot == pytest.approx(math.log(10) * (2.0 / 0.5), abs=1e-6)

    records = ga_provider_corpus(n_records=500, n_families=20, seed=51, extra_fields=2)
    engine = EngineConfig(seed=51)
    fields = sorted({name for r in records for name in r.fields})
    assert len(fields) <= 8

    from metacluster.ga import FSC_LEVEL, fitness

    by_id = {r.id: r for r in records}
    ids = sorted(by_id)
    free = [f for f in fields if f != "dc:title"]
    exhaustive_best = SENTINEL_FITNESS
    for bits in itertools.product((0, 1), repeat=len(free)):
        mask = FieldMask(frozenset({"dc:title"} | {f for f, b in zip(free, bits) if b}))
        banding, ctx = level_inputs(by_id, ids, FSC_LEVEL, engine, mask_for=lambda r: mask)
        result = cluster_level(ids, FSC_LEVEL, ctx.similarity, banding, engine)
        value = fitness(result, ctx, engine, pair_seed=0)
        exhaustive_best = max(exhaustive_best, value)
    assert exhaustive_best > SENTINEL_FITNESS

    hits = 0
    for seed in range(10):
        ga = GAConfig(seed=seed, population_size=16, generations=10)
        outcome = evolve(records, engine, ga, provider_key="acceptance")
        if outcome.fitness >= 0.95 * exhaustive_best:
            hits += 1
    check(
        5,
        hits >= 9,
        f"GA reached >=95% of exhaustive optimum fitness ({exhaustive_best:.3f}) "
        f"in {hits}/10 seeded runs; formula spot-check ln(10)x4 = {spot:.10f}",
    )


def test_criterion_6_similarity_properties():
    records = random_corpus(400, seed=61, tokens_per_record=30)
    by_id = {r.id: r for r in records}
    ctx = SimilarityContext(by_id)
    compression = Compression()
    ids = sorted(by_id)
    rng = random.Random(61)

    gaps = []
    for _ in range(1000):
        x, y = rng.sample(ids, 2)
        gaps.append(abs(ctx.similarity(x, y) - ctx.similarity(y, x)))
    gap_median = statistics.median(gaps)

    self_ok = True
    for rid in ids[:200]:
        payload = ctx.payload(rid)
        assert len(payload) >= 200
        c = compression.compressed_size(payload)
        cxx = compression.compressed_size(payload + CONCAT_SEP + payload)
        raw = 1.0 - (cxx - c) / c
        if raw < 0.9 or ctx.similarity(rid, rid) < 0.9:
            self_ok = False

    corrupt_rng = random.Random(62)
    scratch = SimilarityContext({}, compression)
    vocab = ["".join(corrupt_rng.choice("abcdefghij") for _ in range(9)) for _ in range(500)]
    medians = []
    for percent in (0, 25, 50, 75, 100):
        sims = []
        for _ in range(80):
            tokens = [corrupt_rng.choice(vocab) for _ in range(40)]
            damaged = list(tokens)
            count = round(len(damaged) * percent / 100)
            for idx in corrupt_rng.sample(range(len(damaged)), count):
                damaged[idx] = "".join(corrupt_rng.choice("qrstuvwxyz") for _ in range(9))
            sims.append(
                scratch.similarity_of_payloads(
                    " ".join(tokens).encode(), " ".join(damaged).encode()
                )
            )
        medians.append(statistics.median(sims))
    monotone = all(a >= b for a, b in zip(medians, medians[1:]))

    check(
        6,
        gap_median <= 0.05 and self_ok and monotone,
        f"symmetry gap median {gap_median:.4f} <= 0.05; self-similarity >= 0.9 on 200 "
        f"records >= 200 bytes; corruption medians {['%.2f' % m for m in medians]} non-increasing",
    )


def test_criterion_7_scaled_throughput():
    records, pairs = duplicate_pairs_corpus(n_pairs=5000, n_decoys=990_000, seed=71)
    assert len(records) == 1_000_000
    by_id = {r.id: r for r in records}
    ids = sorted(by_id)
    config = EngineConfig(seed=71)

    started = time.perf_counter()
    banding, ctx = level_inputs(by_id, ids, 100, config)
    result = cluster_level(ids, 100, ctx.similarity, banding, config)
    seconds = time.perf_counter() - started

    assert len(result.clusters) == 5000
    check(
        7,
        seconds <= 300.0,
        f"level-100 single pass over 1,000,000 records took {seconds:.1f}s "
        f"(<= 300s); {len(result.clusters)} duplicate clusters found",
    )


def test_criterion_8_full_run_determinism(tmp_path):
    records = hierarchical_corpus(n_works=10, seed=81, noise_records=20)
    records += ga_provider_corpus(n_records=120, n_families=6, seed=82, extra_fields=1)
    corpus = tmp_path / "corpus.ndjson"
    with open(corpus, "w", encoding="utf-8") as fh:
        write_records(records, fh)

    outputs = []
    for name, workers in (("one", "1"), ("two", "1"), ("threads", "2")):
        out = tmp_path / name
        code = main(
            [
                "cluster", "--input", str(corpus), "--out", str(out),
                "--seed", "88", "--workers", workers, "--ga-pop", "8", "--ga-gens", "3",
            ]
        )
        assert code == 0
        outputs.append(
            {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.name not in (rundir.MANIFEST_FILE, rundir.TIMINGS_FILE)
            }
        )
    same = outputs[0] == outputs[1] == outputs[2]
    check(
        8,
        same and len(outputs[0]) >= 15,
        f"{len(outputs[0])} output files byte-identical across repeated seeded runs "
        "with --workers 1, 1 and 2 (manifest/timings carry wall-clock data and are excluded)",
    )

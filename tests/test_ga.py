import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metacluster import rundir
from metacluster.clusterer import Cluster, LevelResult, cluster_level, level_inputs
from metacluster.config import EngineConfig, GAConfig
from metacluster.errors import ConfigurationError
from metacluster.ga import (
    FSC_LEVEL,
    SENTINEL_FITNESS,
    ProviderMask,
    clusterability,
    crossover,
    evolve,
    fitness,
    force_compulsory,
    mutate,
    select_all_providers,
    tournament,
)
from metacluster.hierarchy import make_artificial_record
from metacluster.records import Record
from metacluster.similarity import CONCAT_SEP, Compression, SimilarityContext
from metacluster.synthetic import family_corpus, ga_provider_corpus


def result_from_partition(groups, level=80):
    clusters = []
    for group in groups:
        ids = sorted(group)
        clusters.append(
            Cluster(
                id=f"L{level}-manual{ids[0]}",
                level=level,
                head=ids[0],
                members=tuple(ids[1:]),
                mean_head_similarity=1.0,
            )
        )
    return LevelResult(level=level, clusters=tuple(clusters), unclustered=(), iterations_used=1)


def evaluate_mask(records, mask_fields, engine, pair_seed=0):
    by_id = {r.id: r for r in records}
    ids = sorted(by_id)
    mask = frozenset(mask_fields)
    banding, ctx = level_inputs(by_id, ids, FSC_LEVEL, engine, mask_for=lambda r: mask)
    result = cluster_level(FSC_LEVEL, ctx.similarity, banding, engine)
    return fitness(result, ctx, engine, pair_seed=pair_seed)


class TestClusterability:
    def test_formula_spot_check(self):
        assert clusterability(10, 2.0, 0.5) == pytest.approx(math.log(10) * 4.0, abs=1e-6)
        assert clusterability(10, 2.0, 0.5) == pytest.approx(9.2103403719, abs=1e-6)

    def test_zero_within_is_sentinel(self):
        assert clusterability(10, 2.0, 0.0) == SENTINEL_FITNESS

    def test_ranking_invariant_under_distance_scaling(self):
        entries = [(8.0, 0.9, 0.2), (4.0, 0.5, 0.3), (12.0, 0.7, 0.1)]
        base = sorted(range(3), key=lambda i: clusterability(*entries[i]))
        for scale in (0.25, 3.7, 11.0):
            scaled = sorted(
                range(3),
                key=lambda i: clusterability(entries[i][0], entries[i][1] * scale, entries[i][2] * scale),
            )
            assert scaled == base


class TestFitness:
    def test_single_cluster_is_sentinel(self):
        records, families = family_corpus(1, 6, seed=1)
        by_id = {r.id: r for r in records}
        result = result_from_partition([list(by_id)])
        assert fitness(result, SimilarityContext(by_id), EngineConfig(seed=1)) == SENTINEL_FITNESS

    def test_identical_members_zero_within_is_sentinel(self):
        fields = {"dc:title": ("same exact title text",)}
        records = [Record(f"r{i}", "p", dict(fields)) for i in range(8)]
        by_id = {r.id: r for r in records}
        result = result_from_partition([["r0", "r1", "r2", "r3"], ["r4", "r5", "r6", "r7"]])
        assert fitness(result, SimilarityContext(by_id), EngineConfig(seed=1)) == SENTINEL_FITNESS

    def test_true_families_beat_arbitrary_split(self):
        records, families = family_corpus(2, 10, seed=7)
        by_id = {r.id: r for r in records}
        ids = sorted(by_id)
        engine = EngineConfig(seed=7)
        family_groups = [
            [rid for rid in ids if families[rid] == f] for f in range(2)
        ]
        # same records cut into four arbitrary groups that mix families
        shuffled = list(ids)
        random.Random(0).shuffle(shuffled)
        arbitrary = [shuffled[i::4] for i in range(4)]
        good = fitness(result_from_partition(family_groups), SimilarityContext(by_id), engine)
        bad = fitness(result_from_partition(arbitrary), SimilarityContext(by_id), engine)
        assert good > bad

    def test_between_pairs_sampled_deterministically(self):
        records, families = family_corpus(6, 5, seed=9)
        by_id = {r.id: r for r in records}
        ids = sorted(by_id)
        groups = [[rid for rid in ids if families[rid] == f] for f in range(6)]
        result = result_from_partition(groups)
        engine = EngineConfig(seed=9)
        a = fitness(result, SimilarityContext(by_id), engine, pair_seed=5)
        b = fitness(result, SimilarityContext(by_id), engine, pair_seed=5)
        assert a == b


class TestOperators:
    @given(
        st.lists(st.integers(0, 1), min_size=2, max_size=12),
        st.integers(0, 11),
        st.integers(0, 2**32 - 1),
    )
    def test_compulsory_bit_survives_operators(self, bits, compulsory, seed):
        compulsory = compulsory % len(bits)
        rng = random.Random(seed)
        other = [rng.randint(0, 1) for _ in bits]
        child_a, child_b = crossover(bits, other, rng)
        for child in (child_a, child_b):
            mutated = mutate(child, 0.5, rng)
            force_compulsory(mutated, compulsory)
            assert mutated[compulsory] == 1

    def test_crossover_preserves_length_and_material(self):
        rng = random.Random(1)
        a, b = [1, 1, 1, 1], [0, 0, 0, 0]
        child_a, child_b = crossover(a, b, rng)
        assert len(child_a) == len(child_b) == 4
        assert sorted(child_a + child_b) == sorted(a + b)

    def test_tournament_prefers_fitter(self):
        population = [(0, 1), (1, 0)]
        scores = {(0, 1): 1.0, (1, 0): 5.0}
        rng = random.Random(0)
        wins = sum(scores[tournament(population, scores, rng, 2)] == 5.0 for _ in range(20))
        assert wins >= 15


class TestEvolve:
    def test_single_field_provider_short_circuits(self):
        records = [
            Record(f"r{i}", "p", {"dc:title": (f"title words here {i}",)}) for i in range(20)
        ]
        outcome = evolve(records, EngineConfig(seed=1), GAConfig(seed=1, population_size=4, generations=1))
        assert outcome.mask == {"dc:title"}

    def test_no_fields_is_error(self):
        with pytest.raises(ConfigurationError):
            evolve([], EngineConfig(seed=1), GAConfig(seed=1))

    def test_no_title_or_description_is_error(self):
        records = [Record("r", "p", {"dc:subject": ("s",)})]
        with pytest.raises(ConfigurationError):
            evolve(records, EngineConfig(seed=1), GAConfig(seed=1))

    def test_best_history_is_monotone(self):
        records = ga_provider_corpus(n_records=120, n_families=8, seed=3, extra_fields=1)
        ga = GAConfig(seed=3, population_size=8, generations=6)
        outcome = evolve(records, EngineConfig(seed=3), ga, provider_key="p")
        assert list(outcome.best_history) == sorted(outcome.best_history)

    def test_deterministic(self):
        records = ga_provider_corpus(n_records=100, n_families=5, seed=4, extra_fields=1)
        ga = GAConfig(seed=4, population_size=6, generations=4)
        a = evolve(records, EngineConfig(seed=4), ga, provider_key="p")
        b = evolve(records, EngineConfig(seed=4), ga, provider_key="p")
        assert a.mask == b.mask and a.fitness == b.fitness

    def test_each_distinct_value_tokenized_once(self, monkeypatch):
        from metacluster import clusterer

        records = ga_provider_corpus(n_records=40, n_families=4, seed=12, extra_fields=1)
        records[0] = Record(records[0].id, records[0].provider, {"dc:title": ("only a title",)})
        calls: Counter = Counter()
        tokenize = clusterer.tokenize

        def counting(*values):
            calls.update(values)
            return tokenize(*values)

        monkeypatch.setattr(clusterer, "tokenize", counting)
        ga = GAConfig(seed=12, population_size=6, generations=3)
        outcome = evolve(records, EngineConfig(seed=12), ga, provider_key="p")
        assert outcome.evaluations > 1
        assert calls == Counter({value: 1 for r in records for vs in r.fields.values() for value in vs})

    def test_summary_built_once_per_member_tuple(self, monkeypatch):
        from metacluster import ga

        records = ga_provider_corpus(n_records=120, n_families=8, seed=3, extra_fields=1)
        built: Counter = Counter()
        scored: Counter = Counter()
        make, score = ga.make_artificial_record, ga.fitness

        def counting_make(cluster, members, value_cap=20):
            built[cluster.record_ids()] += 1
            return make(cluster, members, value_cap)

        def counting_fitness(clusters, *args, **kwargs):
            scored.update(cluster.record_ids() for cluster in clusters.clusters)
            return score(clusters, *args, **kwargs)

        monkeypatch.setattr(ga, "make_artificial_record", counting_make)
        monkeypatch.setattr(ga, "fitness", counting_fitness)
        outcome = evolve(records, EngineConfig(seed=3), GAConfig(seed=3, population_size=8, generations=4), "p")
        assert outcome.evaluations > 1 and max(scored.values()) > 1
        assert built == Counter(set(scored))

    def test_title_selected_description_rejected(self):
        # Exhaustive oracle over all masks (compulsory title fixed) for a
        # provider where the title carries family structure and the
        # description is noise; the GA must find the exhaustive optimum's
        # fitness and drop the description in at least 9/10 seeded runs.
        records = ga_provider_corpus(n_records=240, n_families=12, seed=5, extra_fields=2)
        engine = EngineConfig(seed=5)
        fields = sorted({name for r in records for name in r.fields})
        free = [f for f in fields if f != "dc:title"]
        best_fitness = SENTINEL_FITNESS
        for bits in itertools.product((0, 1), repeat=len(free)):
            chosen = {"dc:title"} | {f for f, b in zip(free, bits) if b}
            value = evaluate_mask(records, chosen, engine, pair_seed=0)
            best_fitness = max(best_fitness, value)
        assert best_fitness > SENTINEL_FITNESS

        ga_hits = 0
        mask_hits = 0
        for seed in range(10):
            ga = GAConfig(seed=seed, population_size=12, generations=8)
            outcome = evolve(records, engine, ga, provider_key="prov")
            if outcome.fitness >= 0.95 * best_fitness:
                ga_hits += 1
            if "dc:title" in outcome.mask and "dc:description" not in outcome.mask:
                mask_hits += 1
        assert ga_hits >= 9
        assert mask_hits >= 9


class TestSelectAllProviders:
    def test_threshold_rule(self):
        small = ga_provider_corpus(n_records=50, n_families=5, seed=6, provider="small")
        large = ga_provider_corpus(n_records=150, n_families=8, seed=7, provider="large")
        ga = GAConfig(seed=8, population_size=6, generations=2, min_provider_records=100)
        selection = select_all_providers(small + large, EngineConfig(seed=8), ga)
        assert list(selection) == ["large", "small"]
        assert selection["small"].method == "default"
        assert selection["large"].method == "ga"
        assert selection["small"].mask == {"dc:title"}

    def test_selection_keeps_ga_history(self):
        records = ga_provider_corpus(n_records=150, n_families=8, seed=7, provider="large")
        engine, ga = EngineConfig(seed=8), GAConfig(seed=8, population_size=6, generations=2)
        info = select_all_providers(records, engine, ga)["large"]
        outcome = evolve(records, engine, ga, provider_key="large")
        assert info.best_history == tuple(outcome.best_history)
        assert len(info.best_history) == ga.generations + 1
        assert info.evaluations == outcome.evaluations > 0

    def test_report_counting(self, tmp_path):
        selection = {}
        for provider, names in (
            ("p1", {"dc:title"}),
            ("p2", {"dc:title"}),
            ("p3", {"dc:title", "dc:type"}),
        ):
            selection[provider] = ProviderMask(provider, frozenset(names), None, "default")
        rundir.write_field_report(tmp_path / rundir.FIELD_REPORT_FILE, selection)
        report = json.loads((tmp_path / rundir.FIELD_REPORT_FILE).read_text(encoding="utf-8"))
        assert report["providers"] == 3
        assert report["field_counts"] == {"dc:title": 3, "dc:type": 1}
        assert report["combination_counts"] == {
            "dc:title": 2,
            "dc:title+dc:type": 1,
        }
        assert report["ga_providers"] == {}


class TestFitnessReuse:
    def test_fitness_compresses_only_what_validation_never_scored(self, monkeypatch):
        records = ga_provider_corpus(n_records=120, n_families=8, seed=3, extra_fields=1)
        by_id = {r.id: r for r in records}
        ids = sorted(by_id)
        engine = EngineConfig(seed=3)
        mask = frozenset({"dc:title"})
        banding, ctx = level_inputs(by_id, ids, FSC_LEVEL, engine, mask_for=lambda r: mask)
        compressed: list[bytes] = []
        size = Compression.compressed_size

        def counting_size(self, data):
            compressed.append(data)
            return size(self, data)

        monkeypatch.setattr(Compression, "compressed_size", counting_size)
        result = cluster_level(FSC_LEVEL, ctx.similarity, banding, engine)
        clustering = set(compressed)
        compressed.clear()
        assert fitness(result, ctx, engine) > SENTINEL_FITNESS

        def concat(x, y):
            return x + CONCAT_SEP + y

        summaries = [
            ctx.serialize(make_artificial_record(c, [by_id[rid] for rid in c.record_ids()])) for c in result.clusters
        ]
        between = {concat(a, b) for a, b in itertools.combinations(summaries, 2) if a != b}
        within = {concat(ctx.payload(c.head), ctx.payload(m)) for c in result.clusters for m in c.members}
        assert within & clustering  # validation scored these; fitness must not redo them
        assert len(compressed) == len(set(compressed))
        assert set(compressed) == set(summaries) | between | (within - clustering)

"""Per-provider genetic selection of metadata fields for the level-80 pass.

A chromosome is a bit vector over the provider's sorted field list; bit i set
means field i participates in tokenization and serialization.  The bit for
the compulsory field (dc:title, or dc:description for providers without
titles) is forced on after every operator.  Fitness rewards clusterings whose
clusters are big, tight and far apart:

    fitness = ln(mean cluster size) * between / within

where "within" is the mean head-to-member distance inside clusters,
"between" the mean pairwise distance between cluster summary records
(sampled to at most 1,000 pairs), and distance = 1 - similarity.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

from .clusterer import FieldRows, LevelResult, band_signatures, cluster_level
from .config import EngineConfig, GAConfig
from .hashing import derive_seed
from .hierarchy import default_mask_for, make_artificial_record
from .records import FieldMask, Record
from .similarity import Compression, SimilarityContext

FSC_LEVEL = 80

#: Fitness of degenerate clusterings (< 2 clusters, or zero within-distance).
SENTINEL_FITNESS = float("-inf")

#: Hard cap on sampled between-cluster distance pairs per evaluation.
BETWEEN_PAIR_CAP = 1000


@dataclass(frozen=True, slots=True)
class Chromosome:
    bits: tuple[int, ...]
    fitness: float | None = None

    def mask(self, fields: Sequence[str]) -> FieldMask:
        return FieldMask(frozenset(f for f, b in zip(fields, self.bits) if b))


@dataclass(frozen=True, slots=True)
class ProviderMask:
    provider: str
    mask: FieldMask
    fitness: float | None
    method: str  # "ga" | "default" | "single-field"
    #: GA only: best fitness so far after the initial population and each generation.
    best_history: tuple[float, ...] = ()
    #: GA only: distinct masks scored.
    evaluations: int = 0


@dataclass
class ProviderSelection:
    masks: dict[str, FieldMask] = field(default_factory=dict)
    details: dict[str, ProviderMask] = field(default_factory=dict)

    def field_counts(self) -> dict[str, int]:
        counts: Counter = Counter()
        for info in self.details.values():
            counts.update(info.mask.selected)
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def combination_counts(self) -> dict[str, int]:
        counts: Counter = Counter()
        for info in self.details.values():
            counts["+".join(info.mask.sorted_names())] += 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


def clusterability(avg_size: float, between: float, within: float) -> float:
    """ln(average cluster size) times the between/within distance ratio."""
    if avg_size <= 1.0 or within <= 0.0:
        return SENTINEL_FITNESS
    return math.log(avg_size) * (between / within)


def _pair_by_rank(rank: int, n: int) -> tuple[int, int]:
    # rank in [0, n*(n-1)/2) -> (i, j), i < j, lexicographic by i.
    i = 0
    remaining = rank
    row = n - 1
    while remaining >= row:
        remaining -= row
        i += 1
        row -= 1
    return i, i + 1 + remaining


def fitness(
    clusters: LevelResult,
    ctx: SimilarityContext,
    engine: EngineConfig,
    pair_seed: int = 0,
) -> float:
    """Clusterability of one level-80 result, scored through the context of
    the pass that produced it (its records, mask, compressor and cached
    C(x) sizes)."""
    accepted = clusters.clusters
    if len(accepted) < 2:
        return SENTINEL_FITNESS

    within_terms = []
    for cluster in accepted:
        distances = [1.0 - ctx.similarity(cluster.head, m) for m in cluster.members]
        within_terms.append(sum(distances) / len(distances))
    within = sum(within_terms) / len(within_terms)
    if within <= 0.0:
        return SENTINEL_FITNESS

    payloads = []
    for cluster in accepted:
        summary = make_artificial_record(
            cluster,
            [ctx.records[rid] for rid in cluster.record_ids()],
            engine.artificial_value_cap,
        )
        payloads.append(ctx.serialize(summary))
    sizes = [ctx.compression.compressed_size(p) for p in payloads]

    n = len(payloads)
    total_pairs = n * (n - 1) // 2
    if total_pairs <= BETWEEN_PAIR_CAP:
        pairs = [_pair_by_rank(r, n) for r in range(total_pairs)]
    else:
        rng = random.Random(pair_seed)
        pairs = [_pair_by_rank(r, n) for r in sorted(rng.sample(range(total_pairs), BETWEEN_PAIR_CAP))]
    between_sum = 0.0
    for i, j in pairs:
        between_sum += 1.0 - ctx.similarity_of_payloads(payloads[i], payloads[j], sizes[i], sizes[j])
    between = between_sum / len(pairs)

    avg_size = sum(c.size for c in accepted) / len(accepted)
    return clusterability(avg_size, between, within)


def force_compulsory(bits: list[int], compulsory_index: int) -> list[int]:
    bits[compulsory_index] = 1
    return bits


def crossover(a: Sequence[int], b: Sequence[int], rng: random.Random) -> tuple[list[int], list[int]]:
    """Single-point crossover; degenerates to copying for length-1 vectors."""
    if len(a) < 2:
        return list(a), list(b)
    point = rng.randrange(1, len(a))
    return list(a[:point]) + list(b[point:]), list(b[:point]) + list(a[point:])


def mutate(bits: Sequence[int], rate: float, rng: random.Random) -> list[int]:
    return [bit ^ 1 if rng.random() < rate else bit for bit in bits]


def tournament(
    population: list[Chromosome],
    rng: random.Random,
    size: int,
) -> Chromosome:
    contenders = rng.sample(range(len(population)), min(size, len(population)))
    best = max(contenders, key=lambda idx: (population[idx].fitness, -idx))
    return population[best]


@dataclass
class EvolveOutcome:
    mask: FieldMask
    fitness: float
    best_history: list[float]
    evaluations: int
    fields: list[str]


def evolve(
    provider_records: list[Record],
    engine: EngineConfig,
    ga: GAConfig,
    provider_key: str = "",
) -> EvolveOutcome:
    """Generational GA with tournament selection, single-point crossover,
    bit-flip mutation and elitism; returns the best-ever mask."""
    ga.validate()
    fields = sorted({name for record in provider_records for name in record.fields})
    (compulsory_field,) = default_mask_for(provider_records).selected
    compulsory = fields.index(compulsory_field)
    length = len(fields)

    sample = provider_records
    if len(sample) > ga.sample_cap:
        sample_rng = random.Random(derive_seed(ga.seed, "ga-sample", provider_key))
        sample = sample_rng.sample(sorted(provider_records, key=lambda r: r.id), ga.sample_cap)
    by_id = {record.id: record for record in sample}
    ids = sorted(by_id)

    # Each (record, field) pair is signed once; a mask's signatures are
    # reduced from those rows.
    rows = FieldRows([by_id[rid] for rid in ids], engine)
    compression = Compression(engine.compressor, engine.compression_level)
    cache: dict[tuple[int, ...], float] = {}
    evaluations = 0

    def evaluate(bits: tuple[int, ...]) -> float:
        nonlocal evaluations
        cached = cache.get(bits)
        if cached is not None:
            return cached
        mask = FieldMask(frozenset(f for f, b in zip(fields, bits) if b))
        banding = band_signatures(FSC_LEVEL, ids, rows.signatures(mask), engine)
        ctx = SimilarityContext(by_id, compression, mask_for=lambda record: mask)
        result = cluster_level(ids, FSC_LEVEL, ctx.similarity, banding, engine)
        value = fitness(
            result,
            ctx,
            engine,
            pair_seed=derive_seed(ga.seed, "ga-pairs", provider_key, "".join(map(str, bits))),
        )
        cache[bits] = value
        evaluations += 1
        return value

    if length == 1:
        value = evaluate((1,))
        return EvolveOutcome(FieldMask(frozenset(fields)), value, [value], evaluations, fields)

    rng = random.Random(derive_seed(ga.seed, "ga", provider_key))
    mutation_rate = ga.mutation_rate if ga.mutation_rate is not None else 1.0 / length

    def spawn() -> Chromosome:
        bits = [1 if rng.random() < 0.5 else 0 for _ in range(length)]
        force_compulsory(bits, compulsory)
        return Chromosome(tuple(bits))

    population = [spawn() for _ in range(ga.population_size)]
    population = [replace(c, fitness=evaluate(c.bits)) for c in population]

    best = max(population, key=lambda c: c.fitness)
    history = [best.fitness]
    for _ in range(ga.generations):
        elite = sorted(population, key=lambda c: (-c.fitness, c.bits))[: ga.elitism]
        offspring: list[Chromosome] = list(elite)
        while len(offspring) < ga.population_size:
            parent_a = tournament(population, rng, ga.tournament_size)
            parent_b = tournament(population, rng, ga.tournament_size)
            if rng.random() < ga.crossover_rate:
                child_a, child_b = crossover(parent_a.bits, parent_b.bits, rng)
            else:
                child_a, child_b = list(parent_a.bits), list(parent_b.bits)
            for bits in (child_a, child_b):
                if len(offspring) >= ga.population_size:
                    break
                mutated = mutate(bits, mutation_rate, rng)
                force_compulsory(mutated, compulsory)
                offspring.append(Chromosome(tuple(mutated)))
        population = [replace(c, fitness=evaluate(c.bits)) for c in offspring]
        generation_best = max(population, key=lambda c: c.fitness)
        if generation_best.fitness > best.fitness:
            best = generation_best
        history.append(best.fitness)

    return EvolveOutcome(best.mask(fields), best.fitness, history, evaluations, fields)


def select_all_providers(
    corpus: list[Record],
    engine: EngineConfig,
    ga: GAConfig,
) -> ProviderSelection:
    """GA masks for providers above the record threshold, defaults otherwise."""
    ga.validate()
    by_provider: dict[str, list[Record]] = {}
    for record in corpus:
        by_provider.setdefault(record.provider, []).append(record)

    selection = ProviderSelection()
    for provider in sorted(by_provider):
        records = by_provider[provider]
        if len(records) > ga.min_provider_records:
            outcome = evolve(records, engine, ga, provider_key=provider)
            info = ProviderMask(
                provider,
                outcome.mask,
                outcome.fitness,
                "ga",
                best_history=tuple(outcome.best_history),
                evaluations=outcome.evaluations,
            )
        else:
            info = ProviderMask(provider, default_mask_for(records), None, "default")
        selection.masks[provider] = info.mask
        selection.details[provider] = info
    return selection

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
from typing import Mapping, Sequence

from .clusterer import FieldRows, LevelResult, band_signatures, cluster_level
from .config import EngineConfig, GAConfig
from .hashing import derive_seed
from .hierarchy import ProviderMask, default_mask_for, make_artificial_record
from .minhash import SignatureComputer
from .records import FieldMask, Record
from .similarity import Compression, SimilarityContext

FSC_LEVEL = 80

#: Fitness of degenerate clusterings (< 2 clusters, or zero within-distance).
SENTINEL_FITNESS = float("-inf")

#: Hard cap on sampled between-cluster distance pairs per evaluation.
BETWEEN_PAIR_CAP = 1000

#: Operator settings; bit-flip mutation uses a rate of 1/chromosome-length.
CROSSOVER_RATE = 0.9
TOURNAMENT_SIZE = 2
ELITISM = 1


Bits = tuple[int, ...]


def bits_mask(fields: Sequence[str], bits: Bits) -> FieldMask:
    """The mask a chromosome encodes over the provider's sorted fields."""
    return frozenset(f for f, b in zip(fields, bits) if b)


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
    summaries: dict[tuple[str, ...], Record] | None = None,
) -> float:
    """Clusterability of one level-80 result, scored through the context of
    the pass that produced it (its records, mask, compressor, cached C(x)
    sizes and pair memo, so within-cluster pairs that validation scored are
    not compressed again).

    ``summaries`` caches each cluster's summary record by its record ids
    across the evaluations of one population at one level: a summary depends
    on the member records and the cluster id, never on the mask, so only its
    serialization and compression are redone per evaluation."""
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

    if summaries is None:
        summaries = {}
    payloads = []
    for cluster in accepted:
        key = cluster.record_ids()
        summary = summaries.get(key)
        if summary is None:
            members = [ctx.records[rid] for rid in key]
            summary = summaries[key] = make_artificial_record(cluster, members, engine.artificial_value_cap)
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


def tournament(population: list[Bits], scores: Mapping[Bits, float], rng: random.Random, size: int) -> Bits:
    """The fittest of ``size`` sampled contenders; ties go to the lower index."""
    contenders = rng.sample(range(len(population)), min(size, len(population)))
    best = max(contenders, key=lambda idx: (scores[population[idx]], -idx))
    return population[best]


def evolve(
    provider_records: list[Record],
    engine: EngineConfig,
    ga: GAConfig,
    provider_key: str = "",
    computer: SignatureComputer | None = None,
) -> ProviderMask:
    """Generational GA with tournament selection, single-point crossover,
    bit-flip mutation and elitism; returns the best-ever mask.  The sample
    is signed into ``computer``'s value store when one is given."""
    fields = sorted({name for record in provider_records for name in record.fields})
    (compulsory_field,) = default_mask_for(provider_records)
    compulsory = fields.index(compulsory_field)
    length = len(fields)

    sample = provider_records
    if len(sample) > ga.sample_cap:
        sample_rng = random.Random(derive_seed(ga.seed, "ga-sample", provider_key))
        sample = sample_rng.sample(sorted(provider_records, key=lambda r: r.id), ga.sample_cap)
    by_id = {record.id: record for record in sample}
    ids = sorted(by_id)

    # Each (record, field) pair is signed once; a mask's signatures are
    # reduced from those rows.  Cluster summaries are mask-independent.
    rows = FieldRows([by_id[rid] for rid in ids], engine, computer)
    compression = Compression(engine.compressor, engine.compression_level)
    summaries: dict[tuple[str, ...], Record] = {}
    # Each distinct mask is scored once; its fitness lives only here.
    scores: dict[Bits, float] = {}

    def score(population: list[Bits]) -> None:
        """Score the population's masks not yet scored, in population order."""
        for bits in population:
            if bits in scores:
                continue
            mask = bits_mask(fields, bits)
            banding = band_signatures(FSC_LEVEL, ids, rows.signatures(mask), engine)
            ctx = SimilarityContext(by_id, compression, mask_for=lambda record: mask)
            result = cluster_level(FSC_LEVEL, ctx.similarity, banding, engine)
            pair_seed = derive_seed(ga.seed, "ga-pairs", provider_key, "".join(map(str, bits)))
            scores[bits] = fitness(result, ctx, engine, pair_seed=pair_seed, summaries=summaries)

    if length == 1:
        score([(1,)])
        value = scores[(1,)]
        return ProviderMask(bits_mask(fields, (1,)), value, "ga", (value,), len(scores))

    rng = random.Random(derive_seed(ga.seed, "ga", provider_key))
    mutation_rate = 1.0 / length

    def spawn() -> Bits:
        bits = [1 if rng.random() < 0.5 else 0 for _ in range(length)]
        return tuple(force_compulsory(bits, compulsory))

    population = [spawn() for _ in range(ga.population_size)]
    score(population)
    best = max(population, key=scores.__getitem__)
    history = [scores[best]]
    for _ in range(ga.generations):
        offspring = sorted(population, key=lambda bits: (-scores[bits], bits))[:ELITISM]
        while len(offspring) < ga.population_size:
            parent_a = tournament(population, scores, rng, TOURNAMENT_SIZE)
            parent_b = tournament(population, scores, rng, TOURNAMENT_SIZE)
            if rng.random() < CROSSOVER_RATE:
                child_a, child_b = crossover(parent_a, parent_b, rng)
            else:
                child_a, child_b = list(parent_a), list(parent_b)
            for bits in (child_a, child_b):
                if len(offspring) >= ga.population_size:
                    break
                offspring.append(tuple(force_compulsory(mutate(bits, mutation_rate, rng), compulsory)))
        population = offspring
        score(population)
        generation_best = max(population, key=scores.__getitem__)
        if scores[generation_best] > scores[best]:
            best = generation_best
        history.append(scores[best])

    mask = bits_mask(fields, best)
    return ProviderMask(mask, scores[best], "ga", tuple(history), len(scores))


def select_all_providers(
    corpus: list[Record],
    engine: EngineConfig,
    ga: GAConfig,
    computer: SignatureComputer | None = None,
) -> dict[str, ProviderMask]:
    """GA masks for providers above the record threshold, defaults otherwise;
    keyed by provider in sorted order.  Without ``computer``, each provider's
    sample is signed into a store of its own, dropped once its rows exist."""
    by_provider: dict[str, list[Record]] = {}
    for record in corpus:
        by_provider.setdefault(record.provider, []).append(record)

    selection: dict[str, ProviderMask] = {}
    for provider in sorted(by_provider):
        records = by_provider[provider]
        if len(records) > ga.min_provider_records:
            selection[provider] = evolve(records, engine, ga, provider_key=provider, computer=computer)
        else:
            selection[provider] = ProviderMask(default_mask_for(records), None, "default")
    return selection

"""Five-level pass structure and the cross-level cluster forest.

Level 100 is a standalone duplicate-detection pass over the originals using
all fields; its clusters feed the duplicate report only.  Level 80 clusters
the originals again, represented by each provider's selected fields.  Below
80, every accepted cluster is summarized into an artificial record that
replaces its members, and each lower level clusters the previous level's
artificial records together with whatever stayed unclustered, all fields
considered.  The forest maps every chain cluster's id to the entities it
grouped; it is derived from the chain levels' results, never stored beside them.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Mapping, Sequence

from . import __version__ as _package_version
from .clusterer import Cluster, LevelResult, check_partition, cluster_level, level_inputs
from .config import DESCRIPTION_FIELD, LEVELS, TITLE_FIELD, EngineConfig
from .errors import ConfigurationError, IntegrityError
from .hashing import digest_lines
from .minhash import SignatureComputer
from .records import ARTIFICIAL, FieldMask, Record, RejectedLine, check_record, export_line, find_surrogate

CHAIN_LEVELS = (80, 60, 40, 20)


@dataclass(frozen=True, slots=True)
class ProviderMask:
    provider: str
    mask: FieldMask
    fitness: float | None
    method: str  # "ga" | "default"
    #: GA only: best fitness so far after the initial population and each generation.
    best_history: tuple[float, ...] = ()
    #: GA only: distinct masks scored.
    evaluations: int = 0


@dataclass
class HierarchyRun:
    """Results and seconds per level, both in run order (descending level);
    ``forest_of`` derives the forest from the results.  ``manifest`` is the
    dict ``manifest.json`` holds, enough to reproduce the run bit-exactly.
    ``rejects`` are the input lines ingest refused; ``selection`` is the GA's
    choice of masks, None when masks were given or level 80 did not run."""

    results: dict[int, LevelResult]
    seconds: dict[int, float]
    manifest: dict
    artificials: dict[str, Record] = field(default_factory=dict)
    duplicate_artificials: dict[str, Record] = field(default_factory=dict)
    rejects: list[RejectedLine] = field(default_factory=list)
    selection: dict[str, ProviderMask] | None = None


def make_artificial_record(cluster: Cluster, members: list[Record], value_cap: int = 20) -> Record:
    """Summarize a cluster into a synthetic record carrying, per field, the
    most frequent distinct values (descending frequency, then lexicographic),
    capped at ``value_cap`` values per field."""
    counts: dict[str, Counter] = {}
    for record in members:
        for name, values in record.fields.items():
            bucket = counts.setdefault(name, Counter())
            bucket.update(values)
    fields: dict[str, tuple[str, ...]] = {}
    for name in sorted(counts):
        ranked = sorted(counts[name].items(), key=lambda item: (-item[1], item[0]))
        fields[name] = tuple(value for value, _ in ranked[:value_cap])
    head_provider = next((r.provider for r in members if r.id == cluster.head), members[0].provider)
    return Record(
        id=cluster.id,
        provider=head_provider,
        fields=fields,
        kind=ARTIFICIAL,
        provenance=cluster.record_ids(),
    )


def default_mask_for(provider_records: Iterable[Record]) -> FieldMask:
    """dc:title when the provider's schema has it, else dc:description."""
    names = {name for record in provider_records for name in record.fields}
    for name in (TITLE_FIELD, DESCRIPTION_FIELD):
        if name in names:
            return frozenset([name])
    raise ConfigurationError("provider has neither dc:title nor dc:description in its schema; no mask derivable")


def corpus_digest(records: Sequence[Record]) -> str:
    """Digest of the records' canonical lines, independent of their order.

    The sorted lines are hashed one at a time, never joined.  A record with
    no UTF-8 form (an unpaired surrogate, which only a library caller can
    build) raises ConfigurationError naming it; the records are searched only
    on that path.
    """
    lines = [export_line(r) for r in records]
    try:
        return digest_lines(line.encode("utf-8") for line in sorted(lines))
    except UnicodeEncodeError:
        bad = records[find_surrogate(lines)]
        raise ConfigurationError(
            f"record {bad.id!r}: id, field name or value holds an unpaired surrogate"
        ) from None


def run_hierarchy(
    corpus: list[Record],
    masks: Mapping[str, FieldMask] | None,
    config: EngineConfig,
    levels: Iterable[int] = LEVELS,
    computer: SignatureComputer | None = None,
) -> HierarchyRun:
    """Execute the requested levels over the corpus and check the run (``verify_run``).

    Every level signs through one ``SignatureComputer``: ``computer`` when
    given (a ``cluster`` run passes the one its GA signed with), else a new
    one.  The last level signs without storing the values new to it, since no
    later level reads them, and the store is emptied once that level is
    signed."""
    requested = sorted(set(levels), reverse=True)
    unknown = [lv for lv in requested if lv not in LEVELS]
    if unknown:
        raise ConfigurationError(f"unknown similarity levels {unknown}; valid: {list(LEVELS)}")
    started = datetime.now(timezone.utc).isoformat()
    by_id: dict[str, Record] = {}
    for record in corpus:
        try:
            check_record(record)
        except ValueError as exc:
            raise ConfigurationError(f"record {record.id!r}: {exc}") from None
        if record.id in by_id:
            raise ConfigurationError(f"duplicate record id {record.id!r}")
        by_id[record.id] = record
    original_ids = sorted(by_id)
    digest = corpus_digest(corpus)
    # The digest omits providers, yet the run directory writes them.
    providers = list(dict.fromkeys(record.provider for record in corpus))
    bad = find_surrogate(providers)
    if bad is not None:
        rid = next(r.id for r in corpus if r.provider == providers[bad])
        raise ConfigurationError(f"record {rid!r}: provider holds an unpaired surrogate")

    masks = dict(masks) if masks else {}
    if 80 in requested:
        unmasked: dict[str, list[Record]] = {}
        for record in corpus:
            if record.provider not in masks:
                unmasked.setdefault(record.provider, []).append(record)
        for provider, provider_records in unmasked.items():
            masks[provider] = default_mask_for(provider_records)

    computer = computer or SignatureComputer(count=config.minhash_count, seed=config.seed)
    results: dict[int, LevelResult] = {}
    seconds: dict[int, float] = {}
    artificials: dict[str, Record] = {}

    def run_level(ids: list[str], level: int, mask_for) -> LevelResult:
        t0 = time.perf_counter()
        last = level == requested[-1]
        banding, ctx = level_inputs(by_id, ids, level, config, computer, mask_for, keep=not last)
        if last:
            computer.clear()  # no later level reads the value store: free it before clustering
        result = cluster_level(level, ctx.similarity, banding, config)
        seconds[level] = time.perf_counter() - t0
        results[level] = result
        return result

    def summarize(result: LevelResult) -> dict[str, Record]:
        cap = config.artificial_value_cap
        return {
            c.id: make_artificial_record(c, [by_id[rid] for rid in c.record_ids()], cap) for c in result.clusters
        }

    duplicate_artificials = summarize(run_level(original_ids, 100, None)) if 100 in requested else {}

    chain = [lv for lv in requested if lv in CHAIN_LEVELS]
    population = list(original_ids)
    for level in chain:
        mask_for = None
        if level == 80:
            mask_for = lambda record: masks[record.provider]
        result = run_level(population, level, mask_for)
        if level != chain[-1]:
            made = summarize(result)
            artificials.update(made)
            by_id.update(made)
            population = sorted([*made, *result.unclustered])

    manifest = asdict(config)
    manifest["compressor"] = f"{config.compressor}:{manifest.pop('compression_level')}"
    manifest["group_sizes"] = {str(k): v for k, v in config.group_sizes.items()}
    manifest.update(
        levels=requested,
        masks={p: sorted(m) for p, m in sorted(masks.items())},
        corpus_digest=digest,
        record_count=len(corpus),
        started_at=started,
        finished_at=datetime.now(timezone.utc).isoformat(),
        version=_package_version,
    )
    run = HierarchyRun(
        results=results,
        seconds=seconds,
        manifest=manifest,
        artificials=artificials,
        duplicate_artificials=duplicate_artificials,
    )
    verify_run(run, original_ids)
    return run


def chain_results(run: HierarchyRun) -> list[LevelResult]:
    """The results of the chain levels that ran, in run order."""
    return [result for level, result in run.results.items() if level in CHAIN_LEVELS]


def forest_of(run: HierarchyRun) -> dict[str, tuple[str, ...]]:
    """The forest: each chain cluster's id mapped to its children, ids from the
    previous chain level's output population (its cluster ids or originals)."""
    return {c.id: c.record_ids() for result in chain_results(run) for c in result.clusters}


def forest_roots(forest: Mapping[str, Sequence[str]]) -> list[str]:
    referenced = {child for children in forest.values() for child in children}
    return [cluster_id for cluster_id in forest if cluster_id not in referenced]


def verify_run(run: HierarchyRun, original_ids: Iterable[str]) -> None:
    """The chain rule that built the run, as a check: level 100 and the first
    chain level partition the originals, each later chain level the previous
    one's cluster and unclustered ids, and no chain cluster id repeats or names
    an original.  Artificial records summarize the clusters of level 100 and of
    every chain level but the last.  By induction, the forest refines,
    conserves the originals and never grows.  Raises IntegrityError."""
    population = sorted(original_ids)
    chain = chain_results(run)
    ids = [c.id for result in chain for c in result.clusters]
    distinct = set(ids)
    if len(distinct) < len(ids) or not distinct.isdisjoint(population):
        clash = sorted(distinct.intersection(population)) or sorted(i for i, n in Counter(ids).items() if n > 1)
        raise IntegrityError(f"chain cluster ids {clash[:3]} each name two entities of the forest")
    for level, result in run.results.items():
        check_partition(result, population)
        if level in CHAIN_LEVELS:
            population = sorted([*(c.id for c in result.clusters), *result.unclustered])
    level100 = [run.results[100]] if 100 in run.results else []
    for records, results in ((run.artificials, chain[:-1]), (run.duplicate_artificials, level100)):
        stray = {c.id for result in results for c in result.clusters}.symmetric_difference(records)
        if stray:
            raise IntegrityError(f"artificial records and the clusters they summarize differ on {sorted(stray)[:3]}")

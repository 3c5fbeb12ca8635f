"""Five-level pass structure and the cross-level cluster forest.

Level 100 is a standalone duplicate-detection pass over the originals using
all fields; its clusters feed the duplicate report only.  Level 80 clusters
the originals again, represented by each provider's selected fields.  Below
80, every accepted cluster is summarized into an artificial record that
replaces its members, and each lower level clusters the previous level's
artificial records together with whatever stayed unclustered, all fields
considered.  The forest links every chain cluster to the entities it grouped.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Mapping, Sequence

from . import __version__ as _package_version
from .clusterer import Cluster, LevelResult, cluster_level, level_inputs
from .config import DESCRIPTION_FIELD, LEVELS, TITLE_FIELD, EngineConfig
from .errors import ConfigurationError, IntegrityError
from .hashing import digest_hex
from .minhash import SignatureComputer
from .records import ARTIFICIAL, ORIGINAL, FieldMask, Record, check_record, export_line

CHAIN_LEVELS = (80, 60, 40, 20)

# Surrogate code points have no UTF-8 form, paired or not.
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


@dataclass(frozen=True, slots=True)
class HierarchyNode:
    """One cluster in the forest; children are ids from the previous level's
    output population (higher-level cluster ids or original record ids)."""

    cluster_id: str
    level: int
    head: str
    children: tuple[str, ...]
    artificial_record_id: str | None = None


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run bit-exactly."""

    seed: int
    compressor_id: str
    minhash_count: int
    group_sizes: dict[int, int]
    band_match: str
    max_iterations: int
    artificial_value_cap: int
    levels: tuple[int, ...]
    masks: dict[str, list[str]]
    corpus_digest: str
    record_count: int
    started_at: str = ""
    finished_at: str = ""
    version: str = _package_version

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "compressor": self.compressor_id,
            "minhash_count": self.minhash_count,
            "group_sizes": {str(k): v for k, v in sorted(self.group_sizes.items())},
            "band_match": self.band_match,
            "max_iterations": self.max_iterations,
            "artificial_value_cap": self.artificial_value_cap,
            "levels": list(self.levels),
            "masks": {k: v for k, v in sorted(self.masks.items())},
            "corpus_digest": self.corpus_digest,
            "record_count": self.record_count,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "version": self.version,
        }


@dataclass(frozen=True, slots=True)
class LevelStats:
    level: int
    input_count: int
    cluster_count: int
    clustered_records: int
    unclustered_count: int
    seconds: float


@dataclass
class HierarchyRun:
    results: dict[int, LevelResult]
    forest: list[HierarchyNode]
    manifest: RunManifest
    level_stats: list[LevelStats] = field(default_factory=list)
    artificials: dict[str, Record] = field(default_factory=dict)
    duplicate_artificials: dict[str, Record] = field(default_factory=dict)


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
    names: set[str] = set()
    for record in provider_records:
        names.update(record.fields)
    if TITLE_FIELD in names:
        return FieldMask.of(TITLE_FIELD)
    if DESCRIPTION_FIELD in names:
        return FieldMask.of(DESCRIPTION_FIELD)
    raise ConfigurationError(
        "provider has neither dc:title nor dc:description in its schema; no mask derivable"
    )


def corpus_digest(records: Sequence[Record]) -> str:
    """Digest of the records' canonical lines, independent of their order.

    A record with no UTF-8 form (an unpaired surrogate, which only a library
    caller can build) raises ConfigurationError naming it; the records are
    searched only on that path.
    """
    lines = [export_line(r) for r in records]
    try:
        return digest_hex("\n".join(sorted(lines)).encode("utf-8"))
    except UnicodeEncodeError:
        bad = next(r for r, line in zip(records, lines) if _SURROGATE_RE.search(line))
        raise ConfigurationError(
            f"record {bad.id!r}: id, field name or value holds an unpaired surrogate"
        ) from None


def run_hierarchy(
    corpus: list[Record],
    masks: Mapping[str, FieldMask] | None,
    config: EngineConfig,
    levels: Iterable[int] = LEVELS,
) -> HierarchyRun:
    """Execute the requested levels over the corpus and assemble the forest."""
    config.validate()
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

    masks = dict(masks) if masks else {}
    if 80 in requested:
        unmasked: dict[str, list[Record]] = {}
        for record in corpus:
            if record.provider not in masks:
                unmasked.setdefault(record.provider, []).append(record)
        for provider, provider_records in unmasked.items():
            masks[provider] = default_mask_for(provider_records)

    computer = SignatureComputer(count=config.minhash_count, seed=config.seed)
    results: dict[int, LevelResult] = {}
    stats: list[LevelStats] = []
    forest: list[HierarchyNode] = []
    artificials: dict[str, Record] = {}
    duplicate_artificials: dict[str, Record] = {}

    def run_level(ids: list[str], level: int, mask_for) -> LevelResult:
        t0 = time.perf_counter()
        banding, ctx = level_inputs(by_id, ids, level, config, computer, mask_for)
        result = cluster_level(ids, level, ctx.similarity, banding, config)
        seconds = time.perf_counter() - t0
        clustered = sum(c.size for c in result.clusters)
        stats.append(
            LevelStats(
                level=level,
                input_count=len(ids),
                cluster_count=len(result.clusters),
                clustered_records=clustered,
                unclustered_count=len(result.unclustered),
                seconds=seconds,
            )
        )
        results[level] = result
        return result

    if 100 in requested:
        result = run_level(original_ids, 100, None)
        for cluster in result.clusters:
            member_records = [by_id[rid] for rid in cluster.record_ids()]
            duplicate_artificials[cluster.id] = make_artificial_record(
                cluster, member_records, config.artificial_value_cap
            )

    chain = [lv for lv in requested if lv in CHAIN_LEVELS]
    population = list(original_ids)
    for position, level in enumerate(chain):
        mask_for = None
        if level == 80:
            mask_for = lambda record: masks[record.provider] if record.kind == ORIGINAL else None
        result = run_level(population, level, mask_for)
        has_next = position + 1 < len(chain)
        next_population: list[str] = []
        for cluster in result.clusters:
            member_records = [by_id[rid] for rid in cluster.record_ids()]
            artificial_id = None
            if has_next:
                artificial = make_artificial_record(cluster, member_records, config.artificial_value_cap)
                artificials[artificial.id] = artificial
                by_id[artificial.id] = artificial
                next_population.append(artificial.id)
                artificial_id = artificial.id
            forest.append(
                HierarchyNode(
                    cluster_id=cluster.id,
                    level=level,
                    head=cluster.head,
                    children=cluster.record_ids(),
                    artificial_record_id=artificial_id,
                )
            )
        next_population.extend(result.unclustered)
        population = sorted(next_population)

    manifest = RunManifest(
        seed=config.seed,
        compressor_id=f"{config.compressor}:{config.compression_level}",
        minhash_count=config.minhash_count,
        group_sizes=dict(config.group_sizes),
        band_match=config.band_match,
        max_iterations=config.max_iterations,
        artificial_value_cap=config.artificial_value_cap,
        levels=tuple(requested),
        masks={p: m.sorted_names() for p, m in sorted(masks.items())},
        corpus_digest=digest,
        record_count=len(corpus),
        started_at=started,
        finished_at=datetime.now(timezone.utc).isoformat(),
    )
    run = HierarchyRun(
        results=results,
        forest=forest,
        manifest=manifest,
        level_stats=stats,
        artificials=artificials,
        duplicate_artificials=duplicate_artificials,
    )
    verify_run(run, set(original_ids))
    return run


def forest_index(forest: Iterable[HierarchyNode]) -> dict[str, HierarchyNode]:
    return {node.cluster_id: node for node in forest}


def expand(
    node: HierarchyNode,
    index: Mapping[str, HierarchyNode],
    original_ids: set[str],
) -> set[str]:
    """Recursive union of the node's children down to original record ids.

    Raises IntegrityError on a dangling child id or when two children expand
    to overlapping sets (the refinement property).
    """
    out: set[str] = set()
    for child in node.children:
        child_node = index.get(child)
        if child_node is not None:
            part = expand(child_node, index, original_ids)
        elif child in original_ids:
            part = {child}
        else:
            raise IntegrityError(f"dangling child id {child!r} under {node.cluster_id}")
        dup = out & part
        if dup:
            raise IntegrityError(
                f"node {node.cluster_id} children overlap on {sorted(dup)[:3]}"
            )
        out |= part
    return out


def forest_roots(forest: list[HierarchyNode]) -> list[HierarchyNode]:
    referenced: set[str] = set()
    for node in forest:
        referenced.update(node.children)
    return [node for node in forest if node.cluster_id not in referenced]


def never_clustered(run: HierarchyRun, original_ids: set[str]) -> set[str]:
    """Originals that stayed unclustered through every chain level."""
    chain = [lv for lv in run.manifest.levels if lv in CHAIN_LEVELS]
    if not chain:
        return set(original_ids)
    last = run.results[chain[-1]]
    return {rid for rid in last.unclustered if rid in original_ids}


def verify_run(run: HierarchyRun, original_ids: set[str]) -> None:
    """Refinement, conservation and partition checks over the whole forest.

    Raises IntegrityError on the first violation.
    """
    index = forest_index(run.forest)
    level100_ids = {c.id for c in run.results[100].clusters} if 100 in run.results else set()
    for node in run.forest:
        for child in node.children:
            if child in level100_ids:
                raise IntegrityError(
                    f"duplicate-pass cluster {child} appears in the hierarchy chain"
                )

    covered: set[str] = set()
    roots = forest_roots(run.forest)
    for root in roots:
        expansion = expand(root, index, original_ids)
        clash = covered & expansion
        if clash:
            raise IntegrityError(
                f"roots overlap on {len(clash)} records (e.g. {sorted(clash)[:3]})"
            )
        covered |= expansion

    leftovers = never_clustered(run, original_ids)
    overlap = covered & leftovers
    if overlap:
        raise IntegrityError(
            f"{len(overlap)} records both clustered and left over (e.g. {sorted(overlap)[:3]})"
        )
    missing = original_ids - covered - leftovers
    if missing:
        raise IntegrityError(
            f"{len(missing)} records unaccounted for in the forest (e.g. {sorted(missing)[:3]})"
        )
    extra = (covered | leftovers) - original_ids
    if extra:
        raise IntegrityError(f"forest covers unknown ids (e.g. {sorted(extra)[:3]})")

    chain_stats = [s for s in run.level_stats if s.level in (60, 40, 20)]
    for earlier, later in zip(chain_stats, chain_stats[1:]):
        if later.input_count > earlier.input_count:
            raise IntegrityError(
                f"population grew from level {earlier.level} ({earlier.input_count}) "
                f"to level {later.level} ({later.input_count})"
            )


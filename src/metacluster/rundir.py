"""Run directory layout: newline-delimited output files and their loaders.

Every file the tool writes is re-parseable by the loaders here; the stats and
sample-eval subcommands work purely from a run directory.  All record-shaped
outputs are NDJSON with sorted keys; manifest and summary are single JSON
documents.  Wall-clock data lives only in ``manifest.json`` and
``timings.tsv`` so that every other file is byte-stable for a fixed seed,
whatever the worker count.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable

from .clusterer import Cluster, LevelResult
from .errors import ConfigurationError, IntegrityError
from .ga import ProviderMask, ProviderSelection
from .hierarchy import HierarchyNode, HierarchyRun, forest_index, forest_roots
from .records import FieldMask, Record, RejectedLine, export_line, ingest_path

MANIFEST_FILE = "manifest.json"
SUMMARY_FILE = "summary.json"
TIMINGS_FILE = "timings.tsv"
FOREST_FILE = "forest.ndjson"
REJECTS_FILE = "rejects.ndjson"
MASKS_FILE = "masks.ndjson"
FIELD_REPORT_FILE = "field_selection_report.json"
DUPLICATES_FILE = "duplicate_report.ndjson"
ARTIFICIALS_FILE = "artificial_records.ndjson"


def cluster_file(level: int) -> str:
    return f"clusters_level_{level}.ndjson"


def unclustered_file(level: int) -> str:
    return f"unclustered_level_{level}.txt"


def _dump(doc: dict) -> str:
    return json.dumps(doc, ensure_ascii=False, sort_keys=True)


def _finite_or_none(value: float | None) -> float | None:
    # JSON has no infinities; the degenerate-clustering fitness is written as null.
    return value if value is not None and math.isfinite(value) else None


def format_duration(seconds: float) -> str:
    minutes, rest = divmod(seconds, 60.0)
    return f"{int(minutes)}m{rest:.2f}s"


def write_run(out_dir: Path, run: HierarchyRun) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for level, result in sorted(run.results.items()):
        write_clusters(out_dir / cluster_file(level), result.clusters)
        (out_dir / unclustered_file(level)).write_text(
            "".join(rid + "\n" for rid in result.unclustered), encoding="utf-8"
        )

    with open(out_dir / FOREST_FILE, "w", encoding="utf-8") as fh:
        for node in sorted(run.forest, key=lambda n: (-n.level, n.cluster_id)):
            fh.write(
                _dump(
                    {
                        "cluster_id": node.cluster_id,
                        "level": node.level,
                        "head": node.head,
                        "children": list(node.children),
                        "artificial_record_id": node.artificial_record_id,
                        "category": "",
                    }
                )
                + "\n"
            )

    with open(out_dir / ARTIFICIALS_FILE, "w", encoding="utf-8") as fh:
        for rid in sorted(run.artificials):
            fh.write(export_line(run.artificials[rid]) + "\n")

    if 100 in run.results:
        with open(out_dir / DUPLICATES_FILE, "w", encoding="utf-8") as fh:
            for cluster in sorted(run.results[100].clusters, key=lambda c: c.id):
                summary = run.duplicate_artificials[cluster.id]
                fh.write(
                    _dump(
                        {
                            "cluster_id": cluster.id,
                            "head": cluster.head,
                            "members": list(cluster.members),
                            "mean_head_similarity": cluster.mean_head_similarity,
                            "artificial_record": {
                                "id": summary.id,
                                "fields": {k: list(v) for k, v in sorted(summary.fields.items())},
                            },
                        }
                    )
                    + "\n"
                )

    with open(out_dir / TIMINGS_FILE, "w", encoding="utf-8") as fh:
        fh.write("level\trecords\tclusters\ttime\n")
        for stat in run.level_stats:
            fh.write(
                f"{stat.level}\t{stat.input_count}\t{stat.cluster_count}\t"
                f"{format_duration(stat.seconds)}\n"
            )

    (out_dir / MANIFEST_FILE).write_text(
        json.dumps(run.manifest.to_dict(), ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    (out_dir / SUMMARY_FILE).write_text(
        json.dumps(summarize_run(run), ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def write_clusters(path: Path, clusters: Iterable[Cluster]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for cluster in sorted(clusters, key=lambda c: c.id):
            fh.write(
                _dump(
                    {
                        "id": cluster.id,
                        "level": cluster.level,
                        "head": cluster.head,
                        "members": list(cluster.members),
                        "transferred": list(cluster.transferred),
                        "mean_head_similarity": cluster.mean_head_similarity,
                        "size": cluster.size,
                    }
                )
                + "\n"
            )


def write_rejects(path: Path, rejects: Iterable[RejectedLine]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for reject in rejects:
            fh.write(_dump({"line": reject.line, "reason": reject.reason}) + "\n")


def write_masks(path: Path, selection: ProviderSelection) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for provider in sorted(selection.details):
            info = selection.details[provider]
            fh.write(
                _dump(
                    {
                        "provider": provider,
                        "mask": info.mask.sorted_names(),
                        "fitness": _finite_or_none(info.fitness),
                        "method": info.method,
                    }
                )
                + "\n"
            )


def write_field_report(path: Path, selection: ProviderSelection) -> None:
    doc = {
        "providers": len(selection.details),
        "field_counts": selection.field_counts(),
        "combination_counts": selection.combination_counts(),
        "ga_providers": {
            provider: {
                "best_history": [_finite_or_none(v) for v in info.best_history],
                "evaluations": info.evaluations,
            }
            for provider, info in sorted(selection.details.items())
            if info.method == "ga"
        },
    }
    path.write_text(
        json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _mask_entry(line: bytes) -> tuple[str, list[str]]:
    doc = json.loads(line.decode("utf-8"))
    if not isinstance(doc, dict) or "provider" not in doc or "mask" not in doc:
        raise ValueError('expected an object with "provider" and "mask"')
    provider, mask = doc["provider"], doc["mask"]
    names_ok = isinstance(mask, list) and all(isinstance(n, str) for n in mask)
    if not (isinstance(provider, str) and names_ok):
        raise ValueError('"provider" must be a string and "mask" a list of strings')
    if not mask:
        raise ValueError('"mask" names no field, so level 80 could cluster nothing')
    # An unpaired surrogate escape would otherwise crash the manifest write.
    "".join([provider, *mask]).encode("utf-8")
    return provider, mask


def load_masks(path: Path) -> dict[str, FieldMask]:
    """Read a saved masks file; a malformed line is a ConfigurationError."""
    masks: dict[str, FieldMask] = {}
    # splitlines() ends lines at LF, CRLF and CR alike, as text mode does.
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            provider, mask = _mask_entry(line)
        except ValueError as exc:  # JSONDecodeError and UnicodeError included
            raise ConfigurationError(f"masks file {path} line {lineno}: {exc}") from None
        masks[provider] = FieldMask(frozenset(mask))
    return masks


def load_clusters(run_dir: Path, level: int) -> list[Cluster]:
    path = run_dir / cluster_file(level)
    if not path.exists():
        raise IntegrityError(f"missing cluster file {path}")
    clusters = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            doc = json.loads(line)
            clusters.append(
                Cluster(
                    id=doc["id"],
                    level=doc["level"],
                    head=doc["head"],
                    members=tuple(doc["members"]),
                    mean_head_similarity=doc["mean_head_similarity"],
                    transferred=tuple(doc["transferred"]),
                )
            )
    return clusters


def load_unclustered(run_dir: Path, level: int) -> list[str]:
    path = run_dir / unclustered_file(level)
    if not path.exists():
        raise IntegrityError(f"missing unclustered file {path}")
    return [line.rstrip("\n") for line in path.read_text(encoding="utf-8").splitlines()]


def load_level_result(run_dir: Path, level: int) -> LevelResult:
    entry = load_summary(run_dir)["levels"].get(str(level), {})
    if "iterations_used" not in entry:
        raise IntegrityError(f"summary of {run_dir} has no iterations_used for level {level}")
    return LevelResult(
        level=level,
        clusters=tuple(load_clusters(run_dir, level)),
        unclustered=tuple(load_unclustered(run_dir, level)),
        iterations_used=entry["iterations_used"],
    )


def load_forest(run_dir: Path) -> list[HierarchyNode]:
    path = run_dir / FOREST_FILE
    if not path.exists():
        raise IntegrityError(f"missing forest file {path}")
    forest = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            doc = json.loads(line)
            forest.append(
                HierarchyNode(
                    cluster_id=doc["cluster_id"],
                    level=doc["level"],
                    head=doc["head"],
                    children=tuple(doc["children"]),
                    artificial_record_id=doc["artificial_record_id"],
                )
            )
    return forest


def load_manifest(run_dir: Path) -> dict:
    path = run_dir / MANIFEST_FILE
    if not path.exists():
        raise IntegrityError(f"missing manifest {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def load_summary(run_dir: Path) -> dict:
    path = run_dir / SUMMARY_FILE
    if not path.exists():
        raise IntegrityError(f"missing summary {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def load_field_report(run_dir: Path) -> dict | None:
    """The field selection report, or None for a run given saved masks."""
    path = run_dir / FIELD_REPORT_FILE
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def load_artificials(run_dir: Path) -> dict[str, Record]:
    """Artificial records by id.  Only ids and fields come back (read through
    ``ingest``, each is an original without provenance); ``load_forest`` has
    what each one summarizes."""
    path = run_dir / ARTIFICIALS_FILE
    if not path.exists():
        return {}
    result = ingest_path(path)
    return {record.id: record for record in result.records}


def size_histogram(sizes: list[int]) -> dict[str, int]:
    """Counts in doubling buckets: 2, 3-4, 5-8, 9-16, ..."""
    buckets: dict[str, int] = {}
    for size in sizes:
        if size <= 2:
            label = "2"
        else:
            hi = 4
            while size > hi:
                hi *= 2
            label = f"{hi // 2 + 1}-{hi}"
        buckets[label] = buckets.get(label, 0) + 1
    return dict(sorted(buckets.items(), key=lambda kv: int(kv[0].split("-")[0])))


def cluster_stats(clusters: list[Cluster]) -> dict:
    sizes = [c.size for c in clusters]
    if not sizes:
        return {"count": 0, "min_size": 0, "max_size": 0, "mean_size": 0.0, "histogram": {}}
    return {
        "count": len(sizes),
        "min_size": min(sizes),
        "max_size": max(sizes),
        "mean_size": sum(sizes) / len(sizes),
        "histogram": size_histogram(sizes),
    }


def forest_depths(forest: list[HierarchyNode]) -> dict[str, int]:
    index = forest_index(forest)

    def depth(node: HierarchyNode) -> int:
        child_depths = [depth(index[c]) for c in node.children if c in index]
        return 1 + (max(child_depths) if child_depths else 0)

    counts: dict[str, int] = {}
    for root in forest_roots(forest):
        d = str(depth(root))
        counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: int(kv[0])))


def summarize_run(run: HierarchyRun) -> dict:
    levels = {}
    for stat in run.level_stats:
        result = run.results[stat.level]
        entry = cluster_stats(list(result.clusters))
        entry.update(
            {
                "input_records": stat.input_count,
                "clustered_records": stat.clustered_records,
                "unclustered_records": stat.unclustered_count,
                "iterations_used": result.iterations_used,
            }
        )
        levels[str(stat.level)] = entry
    return {
        "levels": levels,
        "forest": {
            "nodes": len(run.forest),
            "depth_distribution": forest_depths(run.forest),
        },
        "corpus": {
            "records": run.manifest.record_count,
            "providers": len(run.manifest.masks),
        },
    }

"""Run directory layout: newline-delimited output files and their loaders.

Every file the tool writes is re-parseable by the loaders here.  The stats
and sample-eval subcommands read a run through ``load_run``, which rebuilds
each level's result from its files and checks it with the engine's own
checks.  All record-shaped outputs are NDJSON with sorted keys; manifest and
summary are single JSON documents.  Wall-clock data lives only in
``manifest.json`` and ``timings.tsv`` so that every other file is
byte-stable for a fixed seed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .clusterer import Cluster, LevelResult
from .config import LEVELS
from .errors import ConfigurationError, IntegrityError
from .ga import ProviderMask
from .hierarchy import HierarchyRun, chain_results, forest_of, forest_roots, verify_run
from .records import FieldMask, Record, RejectedLine, find_surrogate, resolve_provider, write_records

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


def write_ndjson(path: Path, docs: Iterable[dict]) -> None:
    """One sorted-key JSON document per line, non-ASCII kept as is (run files
    and the sample-eval worksheet)."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, ensure_ascii=False, sort_keys=True) + "\n")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _read_lines(path: Path) -> list[str]:
    """A run file's lines, split only at "\\n": a record id may hold "\\r" or
    U+2028.  A missing or non-UTF-8 file is an IntegrityError."""
    try:
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            return [line.removesuffix("\n") for line in fh]
    except FileNotFoundError:
        raise IntegrityError(f"missing run file {path}") from None
    except UnicodeDecodeError as exc:
        raise IntegrityError(f"run file {path} is not UTF-8: {exc.reason}") from None


def _parse_json(path: Path, lineno: int, text: str):
    # A file cut mid-write, say by a crash, must not end in a traceback.
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise IntegrityError(f"run file {path} line {lineno + exc.lineno - 1}: {exc.msg}") from None


def _read_ndjson(path: Path, build: Callable) -> list:
    """``build`` applied to each line's document.  A document of the wrong
    shape (a key missing, a list where an object belongs, a value ``build``
    refuses) is an IntegrityError naming the file and line."""
    out = []
    for n, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            out.append(build(_parse_json(path, n, line)))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
            raise IntegrityError(f"run file {path} line {n}: unexpected shape ({problem})") from None
    return out


def _exact(value: object, kind: type = str):
    # The writers give exact types: a str id, a list of ids, a float mean.
    if type(value) is not kind:
        raise TypeError(f"{value!r} is not a {kind.__name__}")
    return value


def _id_list(value: object) -> tuple[str, ...]:
    return tuple(map(_exact, _exact(value, list)))


def _read_json(path: Path) -> dict:
    return _parse_json(path, 1, "\n".join(_read_lines(path)))


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

    write_ndjson(out_dir / FOREST_FILE, forest_docs(run))
    with open(out_dir / ARTIFICIALS_FILE, "w", encoding="utf-8") as fh:
        write_records((run.artificials[rid] for rid in sorted(run.artificials)), fh)
    if 100 in run.results:
        write_ndjson(out_dir / DUPLICATES_FILE, duplicate_docs(run))

    (out_dir / TIMINGS_FILE).write_text(
        "level\trecords\tclusters\ttime\n"
        + "".join(
            f"{level}\t{result.input_count}\t{len(result.clusters)}\t"
            f"{format_duration(run.seconds[level])}\n"
            for level, result in run.results.items()
        ),
        encoding="utf-8",
    )
    _write_json(out_dir / MANIFEST_FILE, run.manifest)
    _write_json(out_dir / SUMMARY_FILE, summarize_run(run))


def forest_docs(run: HierarchyRun) -> Iterator[dict]:
    """``forest.ndjson``'s lines: one per chain cluster, by level, then id."""
    for c in sorted((c for result in chain_results(run) for c in result.clusters), key=lambda c: (-c.level, c.id)):
        yield {
            "cluster_id": c.id,
            "level": c.level,
            "head": c.head,
            "children": list(c.record_ids()),
            "artificial_record_id": c.id if c.id in run.artificials else None,
            "category": "",
        }


def duplicate_docs(run: HierarchyRun) -> Iterator[dict]:
    """``duplicate_report.ndjson``'s lines: one per level-100 cluster, by id."""
    for cluster in sorted(run.results[100].clusters, key=lambda c: c.id):
        artificial = run.duplicate_artificials[cluster.id]
        yield {
            "cluster_id": cluster.id,
            "head": cluster.head,
            "members": list(cluster.members),
            "mean_head_similarity": cluster.mean_head_similarity,
            "artificial_record": {"id": artificial.id, "fields": {k: list(v) for k, v in artificial.fields.items()}},
        }


def write_clusters(path: Path, clusters: Iterable[Cluster]) -> None:
    # Explicit docs: ``dataclasses.asdict`` deep-copies every member id and
    # made ``write_run`` 70% slower on a five-level run.
    write_ndjson(
        path,
        (
            {
                "id": c.id,
                "level": c.level,
                "head": c.head,
                "members": c.members,
                "transferred": c.transferred,
                "mean_head_similarity": c.mean_head_similarity,
                "size": c.size,
            }
            for c in sorted(clusters, key=lambda c: c.id)
        ),
    )


def write_rejects(path: Path, rejects: Iterable[RejectedLine]) -> None:
    write_ndjson(path, ({"line": r.line, "reason": r.reason} for r in rejects))


def write_masks(path: Path, selection: Mapping[str, ProviderMask]) -> None:
    write_ndjson(
        path,
        (
            {
                "provider": provider,
                "mask": sorted(info.mask),
                "fitness": _finite_or_none(info.fitness),
                "method": info.method,
            }
            for provider, info in sorted(selection.items())
        ),
    )


def write_field_report(path: Path, selection: Mapping[str, ProviderMask]) -> None:
    """Per-field and per-combination provider counts, plus each GA provider's history."""
    field_counts: Counter = Counter()
    combination_counts: Counter = Counter()
    for info in selection.values():
        field_counts.update(info.mask)
        combination_counts["+".join(sorted(info.mask))] += 1
    doc = {
        "providers": len(selection),
        "field_counts": field_counts,
        "combination_counts": combination_counts,
        "ga_providers": {
            provider: {
                "best_history": [_finite_or_none(v) for v in info.best_history],
                "evaluations": info.evaluations,
            }
            for provider, info in sorted(selection.items())
            if info.method == "ga"
        },
    }
    _write_json(path, doc)


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
    if find_surrogate([provider, *mask]) is not None:  # it would crash the manifest write
        raise ValueError('"provider" or "mask" holds an unpaired surrogate')
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
        masks[provider] = frozenset(mask)
    return masks


def load_clusters(run_dir: Path, level: int) -> list[Cluster]:
    def build(doc: dict) -> Cluster:
        cluster = Cluster(
            id=_exact(doc["id"]),
            level=doc["level"],
            head=_exact(doc["head"]),
            members=_id_list(doc["members"]),
            mean_head_similarity=_exact(doc["mean_head_similarity"], float),
            transferred=_id_list(doc["transferred"]),
        )
        if _exact(doc["size"], int) != cluster.size:
            raise ValueError(f"size {doc['size']!r} is not 1 + {len(cluster.members)} members")
        return cluster

    return _read_ndjson(run_dir / cluster_file(level), build)


def load_manifest(run_dir: Path) -> dict:
    """The manifest, its ``levels`` (known levels in run order, each once),
    ``record_count``, ``masks`` and ``corpus_digest`` checked for shape."""
    path = run_dir / MANIFEST_FILE
    doc = _read_json(path)
    try:
        levels = [_exact(lv, int) for lv in _exact(doc["levels"], list)]
        if not levels or levels != sorted(set(levels) & set(LEVELS), reverse=True):
            raise ValueError(f"levels {levels} are not known levels in run order")
        for key, kind in (("record_count", int), ("masks", dict), ("corpus_digest", str)):
            _exact(doc[key], kind)
    except (KeyError, TypeError, ValueError) as exc:
        raise IntegrityError(f"run file {path}: unexpected shape ({type(exc).__name__}: {exc})") from None
    return doc


def load_summary(run_dir: Path) -> dict:
    return _read_json(run_dir / SUMMARY_FILE)


def load_field_report(run_dir: Path) -> dict | None:
    """The field selection report, checked for the shape ``stats`` reads, or
    None for a run given saved masks."""
    path = run_dir / FIELD_REPORT_FILE
    if not path.exists():
        return None
    doc = _read_json(path)
    try:
        _exact(doc["providers"], int)
        for entry in _exact(doc["ga_providers"], dict).values():
            _exact(entry["evaluations"], int)
            history = _exact(entry["best_history"], list)
            if not history or any(v is not None and type(v) is not float for v in history):
                raise ValueError(f"best_history {history} is not a non-empty list of floats and nulls")
    except (KeyError, TypeError, ValueError) as exc:
        raise IntegrityError(f"run file {path}: unexpected shape ({type(exc).__name__}: {exc})") from None
    return doc


def _artificial(doc: dict) -> Record:
    """An artificial record's id and fields, the fields taken on trust."""
    fields = {name: tuple(values) for name, values in doc["fields"].items()}
    return Record(_exact(doc["id"]), resolve_provider(fields), fields)


def load_artificials(run_dir: Path) -> dict[str, Record]:
    """Artificial records by id; ``forest_of`` of the loaded run has what each summarizes."""
    return {record.id: record for record in _read_ndjson(run_dir / ARTIFICIALS_FILE, _artificial)}


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


def forest_depths(forest: Mapping[str, Sequence[str]]) -> dict[str, int]:
    def depth(cluster_id: str) -> int:
        return 1 + max((depth(c) for c in forest[cluster_id] if c in forest), default=0)

    counts = Counter(str(depth(root)) for root in forest_roots(forest))
    return dict(sorted(counts.items(), key=lambda kv: int(kv[0])))


def summarize_run(run: HierarchyRun) -> dict:
    forest = forest_of(run)
    levels = {}
    for level, result in run.results.items():
        sizes = [c.size for c in result.clusters]
        levels[str(level)] = {
            "count": len(sizes),
            "min_size": min(sizes, default=0),
            "max_size": max(sizes, default=0),
            "mean_size": sum(sizes) / len(sizes) if sizes else 0.0,
            "histogram": size_histogram(sizes),
            "input_records": result.input_count,
            "clustered_records": sum(sizes),
            "unclustered_records": len(result.unclustered),
            "iterations_used": result.iterations_used,
        }
    return {
        "levels": levels,
        "forest": {
            "nodes": len(forest),
            "depth_distribution": forest_depths(forest),
        },
        "corpus": {
            "records": run.manifest["record_count"],
            "providers": len(run.manifest["masks"]),
        },
    }


def load_run(run_dir: Path) -> HierarchyRun:
    """The run ``run_dir`` holds, checked as ``run_hierarchy`` checks it in
    memory: the first level places ``record_count`` distinct ids, the
    originals, and ``verify_run`` holds over them.  The summary, the forest
    and the duplicate report must be what the clusters give.  The artificial
    records' fields and ``iterations_used`` (read from the summary) are
    taken on trust; seconds are not read."""
    manifest = load_manifest(run_dir)
    summary = load_summary(run_dir)
    results: dict[int, LevelResult] = {}
    for level in manifest["levels"]:
        clusters = tuple(load_clusters(run_dir, level))
        if any(c.level != level for c in clusters):
            raise IntegrityError(f"run file {run_dir / cluster_file(level)} holds a cluster of another level")
        unclustered = tuple(_read_lines(run_dir / unclustered_file(level)))
        try:
            iterations = summary["levels"][str(level)]["iterations_used"]
        except (KeyError, TypeError):
            iterations = None  # the summary check below names what is missing
        results[level] = LevelResult(level, clusters, unclustered, iterations)
    report = []
    if 100 in results:
        report = _read_ndjson(run_dir / DUPLICATES_FILE, lambda doc: (doc, _artificial(doc["artificial_record"])))
    run = HierarchyRun(results, seconds={}, manifest=manifest, artificials=load_artificials(run_dir))
    run.duplicate_artificials = {record.id: record for _, record in report}

    first = next(iter(results.values()))
    originals = {*first.unclustered, *(rid for c in first.clusters for rid in c.record_ids())}
    if len(originals) != manifest["record_count"]:
        raise IntegrityError(
            f"level {first.level} places {len(originals)} ids; the manifest counts {manifest['record_count']}"
        )
    verify_run(run, originals)

    _check_mirror(run_dir / SUMMARY_FILE, summary, summarize_run(run))
    path = run_dir / FOREST_FILE
    _check_mirror(path, _read_ndjson(path, lambda doc: _exact(doc, dict)), list(forest_docs(run)))
    if 100 in results:
        _check_mirror(run_dir / DUPLICATES_FILE, [doc for doc, _ in report], list(duplicate_docs(run)))
    return run


def _check_mirror(path: Path, recorded: object, derived: object) -> None:
    """``recorded`` must equal ``derived``; the error names the first sorted
    key (a line number in a file of lines) where they part."""
    keys: list[str] = []
    while recorded != derived:
        if isinstance(recorded, list) and isinstance(derived, list):
            recorded, derived = dict(enumerate(recorded, 1)), dict(enumerate(derived, 1))
        if not (isinstance(recorded, dict) and isinstance(derived, dict)):
            raise IntegrityError(f"run file {path} does not match the cluster files at {'.'.join(keys) or 'its top'}")
        key = min(k for k in recorded.keys() | derived.keys() if recorded.get(k, ...) != derived.get(k, ...))
        keys.append(str(key))
        recorded, derived = recorded.get(key, ...), derived.get(key, ...)

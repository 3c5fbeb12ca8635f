"""Run directory layout: newline-delimited output files and their loaders.

Each file of a ``cluster`` run is defined once, as the lines the run renders
to (``run_lines``): the level files, the forest, the artificial records, the
duplicate report, the rejected input lines, the field selection and its
report, the manifest and the summary.  ``write_run`` writes those lines and
``timings.tsv``; ``load_run`` rebuilds the run from its files, checks it with
the engine's own checks and requires it to render back to every file, line
for line.  All record-shaped outputs are NDJSON with sorted keys; manifest,
summary and field report are single JSON documents.  Wall-clock data lives
only in ``manifest.json`` and ``timings.tsv`` so that every other file is
byte-stable for a fixed seed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import islice, zip_longest
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .clusterer import Cluster, LevelResult
from .config import LEVELS
from .errors import ConfigurationError, IntegrityError
from .hierarchy import HierarchyRun, ProviderMask, chain_results, forest_of, forest_roots, verify_run
from .records import FieldMask, Record, RejectedLine, find_surrogate, json_line

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


def _json_lines(doc: dict) -> list[str]:
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2).split("\n")


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def write_ndjson(path: Path, docs: Iterable[dict]) -> None:
    """One document per line (run files and the sample-eval worksheet)."""
    _write_lines(path, map(json_line, docs))


def _read_lines(path: Path) -> Iterator[str]:
    """A run file's lines, split only at "\\n": a record id may hold "\\r" or
    U+2028.  A missing or non-UTF-8 file is an IntegrityError."""
    try:
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            for line in fh:
                yield line.removesuffix("\n")
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


def _read_json(path: Path, build: Callable = lambda doc: doc):
    """``build`` applied to the file's one document, whose wrong shape is an
    IntegrityError naming the file, as ``_read_ndjson`` names file and line."""
    doc = _parse_json(path, 1, "\n".join(_read_lines(path)))
    try:
        return build(doc)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise IntegrityError(f"run file {path}: unexpected shape ({type(exc).__name__}: {exc})") from None


def _finite_or_none(value: float | None) -> float | None:
    # JSON has no infinities; the degenerate-clustering fitness is written as null.
    return value if value is not None and math.isfinite(value) else None


def format_duration(seconds: float) -> str:
    minutes, rest = divmod(seconds, 60.0)
    return f"{int(minutes)}m{rest:.2f}s"


def write_run(out_dir: Path, run: HierarchyRun) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, lines in run_lines(run):
        _write_lines(out_dir / name, lines)
    durations = (format_duration(run.seconds[level]) for level in run.results)
    _write_lines(out_dir / TIMINGS_FILE, timings_lines(run, durations))


def run_lines(run: HierarchyRun) -> Iterator[tuple[str, Iterable[str]]]:
    """Each file ``write_run`` writes but ``timings.tsv``, by name, with the
    lines it holds (no "\\n"); a file's lines are built as they are read."""
    yield REJECTS_FILE, _reject_lines(run.rejects)
    if run.selection is not None:
        yield MASKS_FILE, _mask_lines(run.selection)
        yield FIELD_REPORT_FILE, _json_lines(field_report(run.selection))
    for level, result in run.results.items():
        yield cluster_file(level), _cluster_lines(result.clusters)
        yield unclustered_file(level), sorted(result.unclustered)
    yield FOREST_FILE, map(json_line, forest_docs(run))
    yield ARTIFICIALS_FILE, map(json_line, artificial_docs(run))
    if 100 in run.results:
        yield DUPLICATES_FILE, map(json_line, duplicate_docs(run))
    # Read off the selection, so a run that lost its selection files, or
    # gained a GA's, no longer renders to its manifest.
    yield MANIFEST_FILE, _json_lines({**run.manifest, "masks_from_ga": run.selection is not None})
    yield SUMMARY_FILE, _json_lines(summarize_run(run))


def timings_lines(run: HierarchyRun, durations: Iterable[str]) -> Iterator[str]:
    """``timings.tsv``'s lines, ``durations`` giving the time column in run order."""
    durations = iter(durations)
    yield "level\trecords\tclusters\ttime"
    for level, result in run.results.items():
        yield f"{level}\t{result.input_count}\t{len(result.clusters)}\t{next(durations, '')}"


def _cluster_lines(clusters: Iterable[Cluster]) -> Iterator[str]:
    # Explicit docs: ``dataclasses.asdict`` deep-copies every member id and
    # made ``write_run`` 70% slower on a five-level run.
    for c in sorted(clusters, key=lambda c: c.id):
        yield json_line(
            {
                "id": c.id,
                "level": c.level,
                "head": c.head,
                "members": sorted(c.members),
                "transferred": sorted(c.transferred),
                "mean_head_similarity": c.mean_head_similarity,
                "size": c.size,
            }
        )


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


def artificial_docs(run: HierarchyRun) -> Iterator[dict]:
    """``artificial_records.ndjson``'s lines: one per chain cluster that has
    an artificial record, by id, its provenance the cluster's record ids."""
    clusters = (c for result in chain_results(run) for c in result.clusters if c.id in run.artificials)
    for c in sorted(clusters, key=lambda c: c.id):
        yield {"id": c.id, "fields": run.artificials[c.id].fields, "kind": "artificial", "provenance": c.record_ids()}


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


def _reject_lines(rejects: Iterable[RejectedLine]) -> Iterator[str]:
    return (json_line({"line": r.line, "reason": r.reason}) for r in rejects)


def write_rejects(path: Path, rejects: Iterable[RejectedLine]) -> None:
    _write_lines(path, _reject_lines(rejects))


def _mask_lines(selection: Mapping[str, ProviderMask]) -> Iterator[str]:
    for provider, info in sorted(selection.items()):
        yield json_line(
            {
                "provider": provider,
                "mask": sorted(info.mask),
                "fitness": _finite_or_none(info.fitness),
                "method": info.method,
            }
        )


def write_masks(path: Path, selection: Mapping[str, ProviderMask]) -> None:
    _write_lines(path, _mask_lines(selection))


def field_report(selection: Mapping[str, ProviderMask]) -> dict:
    """Per-field and per-combination provider counts, plus each GA provider's history."""
    field_counts: Counter = Counter()
    combination_counts: Counter = Counter()
    for info in selection.values():
        field_counts.update(info.mask)
        combination_counts["+".join(sorted(info.mask))] += 1
    return {
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


def write_field_report(path: Path, selection: Mapping[str, ProviderMask]) -> None:
    _write_lines(path, _json_lines(field_report(selection)))


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
    """Read a saved masks file; a malformed line, or a second line for one
    provider, is a ConfigurationError."""
    masks: dict[str, FieldMask] = {}
    lines: dict[str, int] = {}
    # splitlines() ends lines at LF, CRLF and CR alike, as text mode does.
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            provider, mask = _mask_entry(line)
            if provider in lines:
                raise ValueError(f"provider {provider!r} already has a mask on line {lines[provider]}")
        except ValueError as exc:  # JSONDecodeError and UnicodeError included
            raise ConfigurationError(f"masks file {path} line {lineno}: {exc}") from None
        lines[provider] = lineno
        masks[provider] = frozenset(mask)
    return masks


def load_clusters(run_dir: Path, level: int) -> list[Cluster]:
    """The clusters in ``level``'s file, each given that level: a line of
    another level renders back to a different line."""
    return _read_ndjson(
        run_dir / cluster_file(level),
        lambda doc: Cluster(
            id=_exact(doc["id"]),
            level=level,
            head=_exact(doc["head"]),
            members=_id_list(doc["members"]),
            mean_head_similarity=_exact(doc["mean_head_similarity"], float),
            transferred=_id_list(doc["transferred"]),
        ),
    )


def load_manifest(run_dir: Path) -> dict:
    """The manifest, its ``levels`` (known levels in run order, each once),
    ``record_count``, ``masks`` (lists of field names) and ``corpus_digest``
    checked for shape."""

    def check(doc: dict) -> dict:
        levels = [_exact(lv, int) for lv in _exact(doc["levels"], list)]
        if not levels or levels != sorted(set(levels) & set(LEVELS), reverse=True):
            raise ValueError(f"levels {levels} are not known levels in run order")
        for key, kind in (("record_count", int), ("masks", dict), ("corpus_digest", str)):
            _exact(doc[key], kind)
        for mask in doc["masks"].values():
            _id_list(mask)
        return doc

    return _read_json(run_dir / MANIFEST_FILE, check)


def load_summary(run_dir: Path) -> dict:
    return _read_json(run_dir / SUMMARY_FILE)


def _ga_histories(report: dict) -> dict[str, tuple[tuple, int]]:
    """Each GA provider's best-fitness history and evaluations in the field
    report, checked for the shape ``stats`` prints."""
    histories = {}
    for provider, entry in _exact(report["ga_providers"], dict).items():
        history = _exact(entry["best_history"], list)
        if not history or any(v is not None and type(v) is not float for v in history):
            raise ValueError(f"best_history {history} is not a non-empty list of floats and nulls")
        histories[provider] = (tuple(history), _exact(entry["evaluations"], int))
    return histories


def _load_selection(run_dir: Path, masks: Mapping[str, list[str]]) -> dict[str, ProviderMask] | None:
    """The field selection: the manifest's ``masks``, each with the fitness
    and method of its provider's ``masks.ndjson`` line and the report's GA
    history; None for a run that holds neither file."""
    path, report = run_dir / MASKS_FILE, run_dir / FIELD_REPORT_FILE
    if not (path.exists() or report.exists()):
        return None

    def outcome(doc: dict) -> tuple[str, tuple[float | None, str]]:
        fitness = doc["fitness"]
        return _exact(doc["provider"]), (None if fitness is None else _exact(fitness, float), _exact(doc["method"]))

    outcomes = dict(_read_ndjson(path, outcome))
    histories = _read_json(report, _ga_histories)
    selection = {}
    for provider, mask in sorted(masks.items()):
        # A provider without a masks line renders one the file lacks.
        fitness, method = outcomes.get(provider, (None, ""))
        history, evaluations = histories.get(provider, ((), 0))
        selection[provider] = ProviderMask(frozenset(mask), fitness, method, history, evaluations)
    return selection


def _artificial(doc: dict) -> Record:
    """An artificial record's id and fields, the fields taken on trust."""
    fields = {name: tuple(values) for name, values in doc["fields"].items()}
    return Record(_exact(doc["id"]), fields)


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
    """The run ``run_dir`` holds, read from its cluster, unclustered,
    artificial record, rejects and field selection files, and checked as
    ``run_hierarchy`` checks it in memory: the first level places
    ``record_count`` distinct ids, the originals, and ``verify_run`` holds
    over them.  Then the run must render back to every file ``write_run``
    wrote, line for line.  The artificial records' fields, ``iterations_used``
    (read from the summary), the GA fitness and histories and the durations
    in ``timings.tsv`` are taken on trust."""
    manifest = load_manifest(run_dir)
    summary = load_summary(run_dir)
    results: dict[int, LevelResult] = {}
    for level in manifest["levels"]:
        try:
            iterations = summary["levels"][str(level)]["iterations_used"]
        except (KeyError, TypeError):
            iterations = None  # the summary's rendering below names what is missing
        unclustered = tuple(_read_lines(run_dir / unclustered_file(level)))
        results[level] = LevelResult(level, tuple(load_clusters(run_dir, level)), unclustered, iterations)
    rejects = _read_ndjson(
        run_dir / REJECTS_FILE, lambda doc: RejectedLine(_exact(doc["line"], int), _exact(doc["reason"]))
    )
    selection = _load_selection(run_dir, manifest["masks"])
    run = HierarchyRun(results, seconds={}, manifest=manifest, rejects=rejects, selection=selection)
    run.artificials = {record.id: record for record in _read_ndjson(run_dir / ARTIFICIALS_FILE, _artificial)}
    if 100 in results:
        report = _read_ndjson(run_dir / DUPLICATES_FILE, lambda doc: _artificial(doc["artificial_record"]))
        run.duplicate_artificials = {record.id: record for record in report}

    first = next(iter(results.values()))
    originals = {*first.unclustered, *(rid for c in first.clusters for rid in c.record_ids())}
    if len(originals) != manifest["record_count"]:
        raise IntegrityError(
            f"level {first.level} places {len(originals)} ids; the manifest counts {manifest['record_count']}"
        )
    verify_run(run, originals)
    for name, lines in run_lines(run):
        _compare(run_dir / name, lines)
    path = run_dir / TIMINGS_FILE
    _compare(path, timings_lines(run, (line.rpartition("\t")[2] for line in islice(_read_lines(path), 1, None))))
    return run


def _compare(path: Path, rendered: Iterable[str]) -> None:
    """The file must hold the ``rendered`` lines and no others; the first
    difference is an IntegrityError naming its line."""
    for n, (line, expected) in enumerate(zip_longest(_read_lines(path), rendered), start=1):
        if line != expected:
            raise IntegrityError(f"run file {path} line {n}: differs from the rendering of the loaded run")

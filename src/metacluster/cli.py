"""Batch command line: cluster, select-fields, sample-eval, stats.

Seeds default to a fixed constant so repeated runs are reproducible; pass a
different ``--seed`` to vary. For a fixed seed all outputs except
``manifest.json`` and ``timings.tsv`` (which carry wall-clock data) are
byte-identical across repeated runs.  Level passes run sequentially;
``--workers`` is still accepted (it must be >= 1) and does not change a run.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from . import rundir
from .config import DEFAULT_GROUP_SIZES, DEFAULT_SEED, LEVELS, EngineConfig, GAConfig
from .errors import ConfigurationError, IntegrityError
from .ga import select_all_providers
from .hashing import derive_seed
from .hierarchy import corpus_digest, run_hierarchy
from .records import ingest_path
from .similarity import compressor_ids

#: Magnitudes measured on a 23.6M-record cultural-heritage aggregation
#: (dual 8-core server); printed next to local numbers for orientation.
REFERENCE_RUN = {
    100: {"records": 23_595_555, "clusters": 200_245, "time": "6m2.82s"},
    80: {"records": 23_595_555, "clusters": 1_476_089, "time": None},
    60: {"records": 6_407_615, "clusters": 382_268, "time": "3m35.26s"},
    40: {"records": 2_431_753, "clusters": 212_389, "time": "2m28.79s"},
    20: {"records": 1_068_188, "clusters": 84_554, "time": "1m20.99s"},
}
REFERENCE_LEVEL20_MEAN_SIZE = 190

#: Worksheet vocabulary for manual cluster categorization.
EVAL_CATEGORIES = (
    "same objects/duplicate records",
    "views of the same object",
    "parts of an object",
    "derivative works",
    "collections",
    "thematic grouping",
    "nonsense",
)


def _parse_levels(text: str) -> list[int]:
    try:
        levels = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad levels list {text!r}") from exc
    bad = [lv for lv in levels if lv not in LEVELS]
    if bad:
        raise argparse.ArgumentTypeError(f"unknown levels {bad}; valid: {list(LEVELS)}")
    if not levels:
        raise argparse.ArgumentTypeError("empty levels list")
    return levels


def _parse_group_sizes(text: str) -> dict[int, int]:
    sizes = dict(DEFAULT_GROUP_SIZES)
    try:
        for part in text.split(","):
            if not part.strip():
                continue
            level, size = part.split(":")
            sizes[int(level)] = int(size)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad group size spec {text!r}; expected like 100:16,80:8"
        ) from exc
    return sizes


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="run seed (fixed default)")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility and must be >= 1; runs are sequential",
    )
    parser.add_argument("--minhash-count", type=int, default=64, help="signature length H")
    parser.add_argument(
        "--band-group-sizes",
        type=_parse_group_sizes,
        default=dict(DEFAULT_GROUP_SIZES),
        metavar="L:G,...",
        help="minhashes XOR-ed per band key per level (default 100:16,80:8,60:6,40:4,20:2)",
    )
    parser.add_argument(
        "--band-match",
        choices=["any", "all"],
        default="any",
        help="group on any shared band key (banding) or require all 4 keys equal",
    )
    parser.add_argument("--compressor", choices=compressor_ids(), default="zlib")
    parser.add_argument("--compression-level", type=int, default=6)
    parser.add_argument("--max-iter", type=int, default=5, help="outer iteration cap per level")
    parser.add_argument(
        "--artificial-value-cap",
        type=int,
        default=20,
        help="max distinct values kept per field in cluster summary records",
    )


def _add_ga_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ga-pop", type=int, default=50, help="GA population size")
    parser.add_argument("--ga-gens", type=int, default=100, help="GA generations")
    parser.add_argument(
        "--ga-sample-cap",
        type=int,
        default=50_000,
        help="max records per provider used in one fitness evaluation",
    )
    parser.add_argument(
        "--min-provider-records",
        type=int,
        default=100,
        help="providers with more records than this get GA selection; others dc:title",
    )


def _engine_from(args: argparse.Namespace) -> EngineConfig:
    config = EngineConfig(
        minhash_count=args.minhash_count,
        group_sizes=args.band_group_sizes,
        band_match=args.band_match,
        compressor=args.compressor,
        compression_level=args.compression_level,
        max_iterations=args.max_iter,
        artificial_value_cap=args.artificial_value_cap,
        seed=args.seed,
    )
    config.validate()
    if args.workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {args.workers}")
    return config


def _ga_from(args: argparse.Namespace) -> GAConfig:
    config = GAConfig(
        population_size=args.ga_pop,
        generations=args.ga_gens,
        sample_cap=args.ga_sample_cap,
        min_provider_records=args.min_provider_records,
        seed=args.seed,
    )
    config.validate()
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metacluster",
        description="Cluster metadata records at five similarity levels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", help="run the full clustering pipeline")
    p_cluster.add_argument("--input", required=True, type=Path, help="NDJSON corpus")
    p_cluster.add_argument("--out", required=True, type=Path, help="run output directory")
    p_cluster.add_argument(
        "--levels",
        type=_parse_levels,
        default=list(LEVELS),
        metavar="L,L,...",
        help="similarity levels to run (default 100,80,60,40,20)",
    )
    p_cluster.add_argument(
        "--masks",
        type=Path,
        default=None,
        help="reuse a masks.ndjson from select-fields instead of running the GA",
    )
    _add_engine_flags(p_cluster)
    _add_ga_flags(p_cluster)

    p_select = sub.add_parser("select-fields", help="run per-provider GA field selection only")
    p_select.add_argument("--input", required=True, type=Path)
    p_select.add_argument("--out", required=True, type=Path, help="output directory")
    _add_engine_flags(p_select)
    _add_ga_flags(p_select)

    p_sample = sub.add_parser("sample-eval", help="export a manual-evaluation cluster sample")
    p_sample.add_argument("--run", required=True, type=Path, help="completed run directory")
    p_sample.add_argument(
        "--input", type=Path, default=None, help="corpus NDJSON for member metadata"
    )
    p_sample.add_argument("--per-level", type=int, default=100)
    p_sample.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sample.add_argument("--out", type=Path, default=None, help="output file (default: run dir)")

    p_stats = sub.add_parser("stats", help="recompute and print statistics for a run")
    p_stats.add_argument("--run", required=True, type=Path)

    return parser


def cmd_cluster(args: argparse.Namespace) -> int:
    engine = _engine_from(args)
    ga = _ga_from(args)
    levels = sorted(set(args.levels), reverse=True)

    result = ingest_path(args.input)
    out_dir: Path = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    rundir.write_rejects(out_dir / rundir.REJECTS_FILE, result.rejects)
    if result.rejects:
        print(f"rejected {len(result.rejects)} input lines (see rejects.ndjson)", file=sys.stderr)

    masks = None
    if 80 in levels:
        if args.masks is not None:
            masks = rundir.load_masks(args.masks)
        else:
            selection = select_all_providers(result.records, engine, ga)
            masks = selection.masks
            rundir.write_masks(out_dir / rundir.MASKS_FILE, selection)
            rundir.write_field_report(out_dir / rundir.FIELD_REPORT_FILE, selection)

    run = run_hierarchy(result.records, masks, engine, levels=levels)
    rundir.write_run(out_dir, run)

    for stat in run.level_stats:
        print(
            f"level {stat.level}: {stat.input_count} records -> {stat.cluster_count} clusters "
            f"in {rundir.format_duration(stat.seconds)}"
        )
    return 0


def cmd_select_fields(args: argparse.Namespace) -> int:
    engine = _engine_from(args)
    ga = _ga_from(args)
    result = ingest_path(args.input)
    out_dir: Path = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    rundir.write_rejects(out_dir / rundir.REJECTS_FILE, result.rejects)
    selection = select_all_providers(result.records, engine, ga)
    rundir.write_masks(out_dir / rundir.MASKS_FILE, selection)
    rundir.write_field_report(out_dir / rundir.FIELD_REPORT_FILE, selection)
    print(f"selected masks for {len(selection.details)} providers")
    return 0


def cmd_sample_eval(args: argparse.Namespace) -> int:
    run_dir: Path = args.run
    manifest = rundir.load_manifest(run_dir)
    by_id = {}
    if args.input is not None:
        corpus = ingest_path(args.input)
        by_id = {record.id: record for record in corpus.records}
        digest = corpus_digest(corpus.records)
        if digest != manifest["corpus_digest"]:
            print(
                "warning: --input digest differs from the run's corpus digest",
                file=sys.stderr,
            )
    by_id.update(rundir.load_artificials(run_dir))

    out_path = args.out or (run_dir / "eval_sample.ndjson")
    rows = 0
    with open(out_path, "w", encoding="utf-8") as fh:
        for level in manifest["levels"]:
            clusters = rundir.load_clusters(run_dir, level)
            if len(clusters) < args.per_level:
                print(
                    f"warning: level {level} has only {len(clusters)} clusters "
                    f"(requested {args.per_level}); exporting all",
                    file=sys.stderr,
                )
            rng = random.Random(derive_seed(args.seed, "sample-eval", level))
            ordered = sorted(clusters, key=lambda c: c.id)
            chosen = (
                ordered
                if len(ordered) <= args.per_level
                else rng.sample(ordered, args.per_level)
            )
            for cluster in sorted(chosen, key=lambda c: c.id):
                members = []
                for rid in cluster.record_ids():
                    record = by_id.get(rid)
                    members.append(
                        {
                            "id": rid,
                            "fields": {k: list(v) for k, v in sorted(record.fields.items())}
                            if record is not None
                            else None,
                        }
                    )
                fh.write(
                    json.dumps(
                        {
                            "cluster_id": cluster.id,
                            "level": cluster.level,
                            "size": cluster.size,
                            "members": members,
                            "category": "",
                            "category_choices": list(EVAL_CATEGORIES),
                        },
                        ensure_ascii=False,
                        sort_keys=True,
                    )
                    + "\n"
                )
                rows += 1
    print(f"wrote {rows} worksheet rows to {out_path}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    run_dir: Path = args.run
    manifest = rundir.load_manifest(run_dir)
    summary = rundir.load_summary(run_dir)

    status = 0
    print(f"{'level':>5} {'records':>10} {'clusters':>9} {'unclustered':>11} "
          f"{'min':>5} {'max':>7} {'mean':>8} {'iters':>5}   reference")
    for level in manifest["levels"]:
        clusters = rundir.load_clusters(run_dir, level)
        unclustered = rundir.load_unclustered(run_dir, level)
        stats = rundir.cluster_stats(clusters)
        recorded = summary["levels"][str(level)]
        recomputed = {
            "count": stats["count"],
            "min_size": stats["min_size"],
            "max_size": stats["max_size"],
            "mean_size": stats["mean_size"],
            "unclustered_records": len(unclustered),
        }
        recorded_view = {k: recorded[k] for k in recomputed}
        if recomputed != recorded_view:
            print(
                f"error: level {level} stats recomputed from cluster files do not match "
                f"the run summary: {recomputed} vs {recorded_view}",
                file=sys.stderr,
            )
            status = 1
        ref = REFERENCE_RUN.get(level)
        ref_text = (
            f"{ref['records']:,} recs / {ref['clusters']:,} clusters"
            + (f" / {ref['time']}" if ref["time"] else "")
            if ref
            else "-"
        )
        print(
            f"{level:>5} {recorded['input_records']:>10} {stats['count']:>9} "
            f"{len(unclustered):>11} {stats['min_size']:>5} {stats['max_size']:>7} "
            f"{stats['mean_size']:>8.2f} {recorded.get('iterations_used', '-'):>5}   {ref_text}"
        )
        if stats["histogram"]:
            print(f"      size histogram: {stats['histogram']}")
    if 20 in manifest["levels"]:
        print(f"reference level-20 mean cluster size: {REFERENCE_LEVEL20_MEAN_SIZE}")

    report = rundir.load_field_report(run_dir)
    for provider, ga_info in (report or {}).get("ga_providers", {}).items():
        # null marks a degenerate clustering (fewer than two clusters).
        history = ["-" if v is None else f"{v:.4f}" for v in ga_info["best_history"]]
        print(
            f"ga {provider}: {ga_info['evaluations']} evaluations, best fitness "
            f"{history[0]} -> {history[-1]} over {len(history) - 1} generations"
        )

    forest = rundir.load_forest(run_dir)
    depths = rundir.forest_depths(forest)
    print(f"forest: {len(forest)} nodes, depth distribution {depths}")
    if depths != summary["forest"]["depth_distribution"]:
        print("error: forest depth distribution does not match summary", file=sys.stderr)
        status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.command == "cluster":
            code = cmd_cluster(args)
        elif args.command == "select-fields":
            code = cmd_select_fields(args)
        elif args.command == "sample-eval":
            code = cmd_sample_eval(args)
        else:
            code = cmd_stats(args)
    except (ConfigurationError, IntegrityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command in ("cluster", "select-fields"):
        print(f"done in {rundir.format_duration(time.perf_counter() - started)}")
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Batch command line: cluster, select-fields, sample-eval, stats.

Seeds default to a fixed constant so repeated runs are reproducible; pass a
different ``--seed`` to vary. For a fixed seed all outputs except
``manifest.json`` and ``timings.tsv`` (which carry wall-clock data) are
byte-identical across repeated runs.  Level passes run sequentially;
``--workers`` is still accepted (it must be >= 1) and does not change a run.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

from . import rundir
from .config import COMPRESSORS, DEFAULT_GROUP_SIZES, DEFAULT_SEED, LEVELS, EngineConfig, GAConfig, check_seed
from .errors import ConfigurationError, IntegrityError
from .ga import select_all_providers
from .hashing import derive_seed
from .hierarchy import corpus_digest, run_hierarchy
from .minhash import SignatureComputer
from .records import ingest_path

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
    parser.add_argument("--seed", type=int, help="run seed (fixed default)")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility and must be >= 1; runs are sequential",
    )
    parser.add_argument("--minhash-count", type=int, help="signature length H")
    parser.add_argument(
        "--band-group-sizes",
        dest="group_sizes",
        type=_parse_group_sizes,
        metavar="L:G,...",
        help="minhashes XOR-ed per band key per level (default %(default)s)",
    )
    parser.add_argument(
        "--band-match",
        choices=["any", "all"],
        help="group on any shared band key (banding) or require all 4 keys equal",
    )
    parser.add_argument("--compressor", choices=sorted(COMPRESSORS))
    parser.add_argument("--compression-level", type=int, help="0-9 (bz2: 1-9)")
    parser.add_argument(
        "--max-iter", dest="max_iterations", type=int, help="outer iteration cap per level"
    )
    parser.add_argument(
        "--artificial-value-cap",
        type=int,
        help="max distinct values kept per field in cluster summary records",
    )
    # Each dest is an EngineConfig field, so the config supplies every default.
    parser.set_defaults(**dataclasses.asdict(EngineConfig()))


def _add_ga_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ga-pop", dest="population_size", type=int, help="GA population size")
    parser.add_argument("--ga-gens", dest="generations", type=int, help="GA generations")
    parser.add_argument(
        "--ga-sample-cap",
        dest="sample_cap",
        type=int,
        help="max records per provider used in one fitness evaluation",
    )
    parser.add_argument(
        "--min-provider-records",
        type=int,
        help="providers with more records than this get GA selection; others dc:title",
    )
    parser.set_defaults(**dataclasses.asdict(GAConfig()))


def _configs_from(args: argparse.Namespace) -> tuple[EngineConfig, GAConfig]:
    """The configs the engine and GA flags describe; --seed sets both."""
    if args.workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {args.workers}")

    def build(cls):
        return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})

    return build(EngineConfig), build(GAConfig)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metacluster",
        description="Cluster metadata records at five similarity levels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", help="run the full clustering pipeline")
    p_cluster.add_argument("--input", required=True, type=Path, help="NDJSON corpus")
    p_cluster.add_argument("--out", required=True, type=Path, help="new or empty run output directory")
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
    p_select.add_argument("--out", required=True, type=Path, help="new or empty output directory")
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

    p_stats = sub.add_parser("stats", help="verify a run directory and print its statistics")
    p_stats.add_argument("--run", required=True, type=Path)

    return parser


def _check_out(out_dir: Path) -> None:
    """Refuse an --out that holds anything, so a run never mixes with an earlier one."""
    if out_dir.exists() and not (out_dir.is_dir() and not any(out_dir.iterdir())):
        raise ConfigurationError(f"--out {out_dir} exists and is not an empty directory")


def _write_outputs(out_dir: Path, write: Callable[[Path], None], rejected: int) -> None:
    """Write a command's files through ``write`` once all of its computation has succeeded.

    The files are staged in a hidden temporary sibling of ``out_dir`` and
    moved into place by one ``os.replace`` (onto an empty ``out_dir`` if there
    is one) after every write has succeeded.  On any failure the sibling is
    removed and ``out_dir`` stays as it was; only a killed process can leave
    the sibling behind."""
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    holder = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    try:
        stage = holder / "run"
        stage.mkdir()  # not the private holder itself: the run directory keeps the umask's mode
        write(stage)
        os.replace(stage, out_dir)
    finally:
        shutil.rmtree(holder, ignore_errors=True)
    if rejected:
        print(f"rejected {rejected} input lines (see rejects.ndjson)", file=sys.stderr)


def cmd_cluster(args: argparse.Namespace) -> int:
    engine, ga = _configs_from(args)
    levels = sorted(set(args.levels), reverse=True)
    _check_out(args.out)
    result = ingest_path(args.input)

    # One value store for the GA and every level: each value is tokenized once.
    computer = SignatureComputer(count=engine.minhash_count, seed=engine.seed)
    masks = selection = None
    if 80 in levels:
        if args.masks is not None:
            masks = rundir.load_masks(args.masks)
        else:
            selection = select_all_providers(result.records, engine, ga, computer)
            masks = {provider: info.mask for provider, info in selection.items()}

    run = run_hierarchy(result.records, masks, engine, levels=levels, computer=computer)
    run.rejects, run.selection = result.rejects, selection
    _write_outputs(args.out, lambda stage: rundir.write_run(stage, run), len(run.rejects))

    for level, level_result in run.results.items():
        print(
            f"level {level}: {level_result.input_count} records -> {len(level_result.clusters)} "
            f"clusters in {rundir.format_duration(run.seconds[level])}"
        )
    return 0


def cmd_select_fields(args: argparse.Namespace) -> int:
    engine, ga = _configs_from(args)
    _check_out(args.out)
    result = ingest_path(args.input)
    selection = select_all_providers(result.records, engine, ga)

    def write(stage: Path) -> None:
        rundir.write_rejects(stage / rundir.REJECTS_FILE, result.rejects)
        rundir.write_masks(stage / rundir.MASKS_FILE, selection)
        rundir.write_field_report(stage / rundir.FIELD_REPORT_FILE, selection)

    _write_outputs(args.out, write, len(result.rejects))
    print(f"selected masks for {len(selection)} providers")
    return 0


def cmd_sample_eval(args: argparse.Namespace) -> int:
    if args.per_level < 0:
        raise ConfigurationError(f"per-level must be >= 0, got {args.per_level}")
    check_seed(args.seed)
    # The run is read and checked before --out is opened: a damaged run leaves it as it was.
    run = rundir.load_run(args.run)
    by_id = {}
    if args.input is not None:
        corpus = ingest_path(args.input)
        by_id = {record.id: record for record in corpus.records}
        if corpus_digest(corpus.records) != run.manifest["corpus_digest"]:
            print("warning: --input digest differs from the run's corpus digest", file=sys.stderr)
    by_id.update(run.artificials)

    rows = []
    for level, result in run.results.items():
        if len(result.clusters) < args.per_level:
            print(
                f"warning: level {level} has only {len(result.clusters)} clusters "
                f"(requested {args.per_level}); exporting all",
                file=sys.stderr,
            )
        rng = random.Random(derive_seed(args.seed, "sample-eval", level))
        ordered = sorted(result.clusters, key=lambda c: c.id)
        chosen = ordered if len(ordered) <= args.per_level else rng.sample(ordered, args.per_level)
        for cluster in sorted(chosen, key=lambda c: c.id):
            members = [
                {"id": rid, "fields": by_id[rid].fields if rid in by_id else None}
                for rid in cluster.record_ids()
            ]
            rows.append(
                {
                    "cluster_id": cluster.id,
                    "level": cluster.level,
                    "size": cluster.size,
                    "members": members,
                    "category": "",
                    "category_choices": EVAL_CATEGORIES,
                }
            )
    out_path = args.out or (args.run / "eval_sample.ndjson")
    rundir.write_ndjson(out_path, rows)
    print(f"wrote {len(rows)} worksheet rows to {out_path}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    run = rundir.load_run(args.run)
    summary = rundir.summarize_run(run)
    print(f"{'level':>5} {'records':>10} {'clusters':>9} {'unclustered':>11} "
          f"{'min':>5} {'max':>7} {'mean':>8} {'iters':>5}   reference")
    for level in run.results:
        entry = summary["levels"][str(level)]
        ref = REFERENCE_RUN[level]
        ref_text = f"{ref['records']:,} recs / {ref['clusters']:,} clusters"
        ref_text += f" / {ref['time']}" if ref["time"] else ""
        print(
            f"{level:>5} {entry['input_records']:>10} {entry['count']:>9} {entry['unclustered_records']:>11} "
            f"{entry['min_size']:>5} {entry['max_size']:>7} {entry['mean_size']:>8.2f} "
            f"{entry['iterations_used']!s:>5}   {ref_text}"
        )
        if entry["histogram"]:
            print(f"      size histogram: {entry['histogram']}")
    if 20 in run.results:
        print(f"reference level-20 mean cluster size: {REFERENCE_LEVEL20_MEAN_SIZE}")
    for provider, info in (run.selection or {}).items():
        if info.method != "ga":
            continue
        # null marks a degenerate clustering (fewer than two clusters).
        history = ["-" if v is None else f"{v:.4f}" for v in info.best_history]
        print(
            f"ga {provider}: {info.evaluations} evaluations, best fitness "
            f"{history[0]} -> {history[-1]} over {len(history) - 1} generations"
        )
    forest = summary["forest"]
    print(f"forest: {forest['nodes']} nodes, depth distribution {forest['depth_distribution']}")
    return 0


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

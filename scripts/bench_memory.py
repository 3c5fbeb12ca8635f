#!/usr/bin/env python3
"""Seconds and peak memory per stage of one `cluster` run, appended to a BENCH file.

Examples:
    python scripts/bench_memory.py --scenario dedup --label change
    python scripts/bench_memory.py --scenario level100_1m --label parent
    python scripts/bench_memory.py --scenario chain100k --label change
    python scripts/bench_memory.py --scenario hierarchy --label parent

Each invocation makes one run and appends one entry; alternate parent and
change invocations to compare two trees.  A scenario names a generator of
``metacluster.synthetic`` with its arguments, and the CLI arguments of the run.
A first fresh interpreter writes the seeded corpus (and a dc:title masks file
for every provider); a second one runs the CLI in-process, so the memory
figures cover interpreter start, imports and the run alone.  Stage hooks wrap
the names the CLI and ``run_hierarchy`` call: ingest, digest, sign and band
(``level_inputs``), cluster, verify and write.  After each stage the child
reads ``VmHWM`` (the process's peak resident set) and ``VmRSS`` from
``/proc/self/status``; ``import_mb`` is ``VmRSS`` right after the imports,
the interpreter and numpy floor below the run's own growth.  The entry goes
to ``BENCH_<scenario>.json`` at the repository root, with its stages,
records/s, core count, git SHA, source digest and seed.  Run it from a
source checkout; it imports ``src/metacluster``.  The child's module-level
imports are all modules the CLI loads itself; ``hashlib`` and ``subprocess``
are imported only by the parent's functions, so ``import_mb`` and each
stage's ``VmHWM`` are the CLI's own.
"""

import argparse
import importlib
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Stands for the scenario's masks file among its CLI arguments.
MASKS = "masks.ndjson"

#: Scenario -> (generator in ``metacluster.synthetic``, its keyword arguments,
#: CLI arguments after ``cluster --input CORPUS --out RUN``).
SCENARIOS = {
    "dedup": ("duplicate_pairs_corpus", {"n_pairs": 200, "n_decoys": 39_600, "seed": 71}, ["--levels", "100"]),
    "level100_1m": ("duplicate_pairs_corpus", {"n_pairs": 5_000, "n_decoys": 990_000, "seed": 71}, ["--levels", "100"]),
    # perfbench's hierarchy input: all five levels, saved dc:title masks.
    "hierarchy": (
        "hierarchical_corpus", {"n_works": 800, "noise_records": 270, "seed": 401}, ["--masks", MASKS]
    ),
    # The corpus of acceptance criterion 4, all five levels, saved masks.
    "chain100k": (
        "hierarchical_corpus",
        {
            "n_works": 11_800, "editions_per_work": 2, "volumes_per_edition": 4, "seed": 41,
            "duplicate_share": 0.04, "noise_records": 4_000,
        },
        ["--seed", "41", "--masks", MASKS],
    ),
}

#: Stage name -> (module, attribute) wrapped in the namespace it is called from.
STAGES = {
    "ingest": ("metacluster.cli", "ingest_path"),
    "digest": ("metacluster.hierarchy", "corpus_digest"),
    "sign_band": ("metacluster.hierarchy", "level_inputs"),
    "cluster": ("metacluster.hierarchy", "cluster_level"),
    "verify": ("metacluster.hierarchy", "verify_run"),
    "write": ("metacluster.rundir", "write_run"),
}


def memory_mb() -> dict[str, float]:
    """This process's peak and current resident set, in MB."""
    found = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                found[key] = int(value.split()[0]) / 1024.0
    return found


def measure(cli_args: list[str], result_path: Path) -> int:
    """Run the CLI in this process with every stage wrapped; write the stages."""
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    stages = {name: {"seconds": 0.0, "calls": 0} for name in STAGES}
    counts = {}

    def wrap(name, fn):
        def staged(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            stage = stages[name]
            stage["seconds"] += time.perf_counter() - t0
            stage["calls"] += 1
            stage.update(memory_mb())
            if name == "ingest":
                counts["records"] = len(result.records)
            return result

        return staged

    for name, (module, attr) in STAGES.items():
        owner = importlib.import_module(module)
        setattr(owner, attr, wrap(name, getattr(owner, attr)))
    from metacluster.cli import main

    imported = time.perf_counter()
    import_mb = memory_mb()["VmRSS"]
    code = main(cli_args)
    wall = time.perf_counter() - started
    doc = {
        "exit_code": code,
        "wall_s": wall,
        "import_s": imported - started,
        "import_mb": import_mb,
        "records": counts.get("records"),
        "stages": stages,
        "end": memory_mb(),
    }
    result_path.write_text(json.dumps(doc), encoding="utf-8")
    return code


def git_sha() -> str | None:
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def source_dirty() -> bool | None:
    """Whether ``src/`` differs from the commit, or None outside git."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return bool(out.stdout.strip())


def source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "metacluster").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def write_inputs(scenario: str, work: Path) -> None:
    """Write the scenario's corpus to ``work``, and a masks file that selects
    dc:title for each of its providers."""
    sys.path.insert(0, str(SRC))
    from metacluster import synthetic
    from metacluster.config import TITLE_FIELD
    from metacluster.records import json_line, write_records

    generator, kwargs, _ = SCENARIOS[scenario]
    records = getattr(synthetic, generator)(**kwargs)
    if isinstance(records, tuple):  # duplicate_pairs_corpus returns its planted pairs too
        records = records[0]
    with open(work / "corpus.ndjson", "w", encoding="utf-8") as fh:
        write_records(records, fh)
    with open(work / MASKS, "w", encoding="utf-8") as fh:
        for provider in sorted({record.provider for record in records}):
            fh.write(json_line({"provider": provider, "mask": [TITLE_FIELD]}) + "\n")


def run_once(scenario: str, work: Path) -> dict:
    import subprocess

    generator, kwargs, extra = SCENARIOS[scenario]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, __file__, "--inputs", scenario, str(work)], env=env, check=True)
    corpus = work / "corpus.ndjson"
    result = work / "result.json"
    cli_args = ["cluster", "--input", str(corpus), "--out", str(work / "run")]
    cli_args += [str(work / MASKS) if arg == MASKS else arg for arg in extra]
    subprocess.run(
        [sys.executable, __file__, "--measure", str(result), "--", *cli_args],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    doc = json.loads(result.read_text(encoding="utf-8"))
    if doc["exit_code"] != 0:
        raise SystemExit(f"cluster exited {doc['exit_code']}")
    stages = {
        name: {
            "seconds": round(stage["seconds"], 3),
            "calls": stage["calls"],
            "vmhwm_mb": round(stage.get("VmHWM", 0.0), 1),
            "vmrss_mb": round(stage.get("VmRSS", 0.0), 1),
        }
        for name, stage in doc["stages"].items()
    }
    return {
        "seed": kwargs["seed"],
        "corpus": f"{generator}({', '.join(f'{key}={value}' for key, value in kwargs.items())})",
        "command": " ".join(["cluster", *extra]),
        "records": doc["records"],
        "wall_s": round(doc["wall_s"], 3),
        "records_per_s": round(doc["records"] / doc["wall_s"], 1),
        "peak_rss_mb": round(doc["end"]["VmHWM"], 1),
        "import_mb": round(doc["import_mb"], 1),
        "stages": stages,
    }


def main() -> int:
    if len(sys.argv) > 2 and sys.argv[1] == "--measure":
        if sys.argv[3] != "--":
            print("usage: bench_memory.py --measure <result.json> -- <cli arguments>", file=sys.stderr)
            return 2
        return measure(sys.argv[4:], Path(sys.argv[2]))
    if len(sys.argv) == 4 and sys.argv[1] == "--inputs":
        write_inputs(sys.argv[2], Path(sys.argv[3]))
        return 0

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenario", choices=sorted(SCENARIOS), required=True)
    parser.add_argument("--label", required=True, help="names the entry, e.g. parent or change")
    parser.add_argument("--out", type=Path, default=None, help="BENCH file (default: BENCH_<scenario>.json)")
    args = parser.parse_args()

    out = args.out or ROOT / f"BENCH_{args.scenario}.json"
    bench = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"scenario": args.scenario, "entries": []}
    with tempfile.TemporaryDirectory(prefix="bench_memory_") as tmp:
        entry = {
            "label": args.label,
            "git_sha": git_sha(),
            "src_modified": source_dirty(),
            "source_digest": source_digest(),
            "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            **run_once(args.scenario, Path(tmp)),
        }
    bench["entries"].append(entry)
    print(
        f"{args.scenario} {args.label}: {entry['wall_s']:.2f} s, peak {entry['peak_rss_mb']:.1f} MB, "
        f"{entry['records_per_s']:.0f} records/s"
    )
    out.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs every workload once through the CLI at a small size and requires all of
its checks to pass.  Then it breaks a copy of each output in one known way
and requires the named check to count a failure: a dropped planted pair, a
clustered decoy, a ``summary.json`` that disagrees with the cluster files,
overlapping forest roots, a noise record joined to a work, a split edition, a GA
mask without ``dc:title``, a missing provider mask, and run directories whose
byte-stable files differ.  Exits 0 when every good output passes and every
broken one is caught.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SMALL = {
    "dedup": {"pairs": 20, "decoys": 400},
    "hierarchy": {"works": 30, "noise": 10, "workers": 1},
    "fieldselect": {"records": 300, "ga_pop": 16, "ga_gens": 10},
}


def _rewrite_ndjson(path: Path, edit) -> None:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    rows = edit(rows)
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows), encoding="utf-8")


def drop_first_pair(run_dir: Path, prepared) -> None:
    _rewrite_ndjson(run_dir / "clusters_level_100.ndjson", lambda rows: rows[1:])


def cluster_a_decoy(run_dir: Path, prepared) -> None:
    decoy = prepared.expect["decoys"][0]
    path = run_dir / "unclustered_level_100.txt"
    path.write_text("".join(line + "\n" for line in path.read_text().splitlines() if line != decoy))


def summary_disagrees(run_dir: Path, prepared) -> None:
    path = run_dir / "summary.json"
    doc = json.loads(path.read_text())
    doc["levels"]["80"]["count"] += 1
    path.write_text(json.dumps(doc))


def overlapping_roots(run_dir: Path, prepared) -> None:
    def edit(rows):
        copy = dict(rows[-1], cluster_id=rows[-1]["cluster_id"] + "-copy")
        return rows + [copy]

    _rewrite_ndjson(run_dir / "forest.ndjson", edit)


def noise_joins_work(run_dir: Path, prepared) -> None:
    noise = prepared.expect["noise"][0]

    def edit(rows):
        work_node = next(row for row in rows if row["level"] == 80 and row["head"].startswith("w"))
        work_node["children"] = work_node["children"] + [noise]
        return rows

    _rewrite_ndjson(run_dir / "forest.ndjson", edit)


def split_edition(run_dir: Path, prepared) -> None:
    def edit(rows):
        victim = next(row for row in rows if len(row["members"]) >= 2)
        moved = victim["members"].pop()
        return rows + [{"id": "split", "level": 80, "head": moved, "members": [], "transferred": []}]

    _rewrite_ndjson(run_dir / "clusters_level_80.ndjson", edit)


def mask_without_title(run_dir: Path, prepared) -> None:
    def edit(rows):
        for row in rows:
            row["mask"] = [name for name in row["mask"] if name != "dc:title"]
        return rows

    _rewrite_ndjson(run_dir / "masks.ndjson", edit)


def drop_provider_mask(run_dir: Path, prepared) -> None:
    _rewrite_ndjson(run_dir / "masks.ndjson", lambda rows: rows[1:])


MUTATIONS = {
    "dedup": [
        (drop_first_pair, "planted_pairs_exact"),
        (cluster_a_decoy, "decoys_unclustered"),
    ],
    "hierarchy": [
        (summary_disagrees, "stats_exit_0"),
        (overlapping_roots, "forest_partition"),
        (noise_joins_work, "noise_apart_from_works"),
        (split_edition, "editions_in_one_level80_cluster"),
    ],
    "fieldselect": [
        (mask_without_title, "mask_keeps_title_drops_description"),
        (drop_provider_mask, "one_mask_per_provider"),
    ],
}


def main() -> int:
    if not (SRC / "metacluster" / "cli.py").is_file():
        print(f"error: no metacluster sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, compare_hashes, output_hashes

    work = HERE / "work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    failures = 0
    try:
        for name, mutations in MUTATIONS.items():
            workload = WORKLOADS[name]
            directory = work / name
            directory.mkdir()
            prepared = workload.prepare(1, directory, SMALL[name])
            good = directory / "good"
            subprocess.run(
                [sys.executable, "-m", "metacluster.cli", *prepared.cli_args, "--out", str(good)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            checks, _ = workload.evaluate(good, prepared, env)
            bad = [c.name for c in checks if not c.ok]
            print(f"{name}: good output, {len(checks) - len(bad)}/{len(checks)} checks pass")
            failures += len(bad)
            for mutate, expected in mutations:
                broken = directory / mutate.__name__
                shutil.copytree(good, broken)
                mutate(broken, prepared)
                checks, _ = workload.evaluate(broken, prepared, env)
                caught = any(c.name == expected and not c.ok for c in checks)
                print(f"{name}: {mutate.__name__:<20} -> {expected} {'fails (caught)' if caught else 'PASSES (missed)'}")
                failures += not caught

        hierarchy_good = work / "hierarchy" / "good"
        other = work / "hierarchy" / "summary_disagrees"
        same = compare_hashes([output_hashes(hierarchy_good), output_hashes(hierarchy_good)])
        differ = compare_hashes([output_hashes(hierarchy_good), output_hashes(other)])
        print(f"byte_stable_outputs: identical runs {'pass' if same.ok else 'FAIL'}, "
              f"differing runs {'fail (caught)' if not differ.ok else 'PASS (missed)'}")
        failures += (not same.ok) + differ.ok
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test passed" if not failures else f"self-test FAILED ({failures} problems)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

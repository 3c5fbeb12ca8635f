"""The benchmark workloads: seeded inputs, CLI arguments, output checks, quality.

Inputs come from ``metacluster.synthetic`` and are written as NDJSON (plus a
masks file for the hierarchy workloads); the program sees only those files.
Checks read the run directory's files directly, so they do not depend on the
program's internals, only on its output format.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from metacluster.records import write_records
from metacluster.synthetic import duplicate_pairs_corpus, ga_provider_corpus, hierarchical_corpus

TITLE = "dc:title"
DESCRIPTION = "dc:description"

#: Files whose bytes carry wall-clock data and are left out of the stability hash.
CLOCK_FILES = {"manifest.json", "timings.tsv"}


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Prepared:
    """Inputs written for one invocation and what their outputs must show."""

    cli_args: list[str]
    records: int
    files: list[Path]
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, Path, dict], Prepared]
    evaluate: Callable[[Path, Prepared, dict], tuple[list[Check], dict[str, float]]]
    #: Name of the quality value reported as the ``quality`` metric.
    quality: str
    #: Whether repeated runs must give byte-identical outputs (``--workers 1``).
    stable: bool
    sizes: dict


def _write(records, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_records(records, fh)


def _read_ndjson(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _cluster_sets(run_dir: Path, level: int) -> list[frozenset]:
    return [
        frozenset([doc["head"], *doc["members"]])
        for doc in _read_ndjson(run_dir / f"clusters_level_{level}.ndjson")
    ]


def output_hashes(run_dir: Path) -> dict[str, str]:
    """Digest of every byte-stable file of a run directory."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(run_dir.iterdir())
        if path.is_file() and path.name not in CLOCK_FILES
    }


def compare_hashes(hashed: list[dict[str, str]]) -> Check:
    """Byte-stable files must hash the same in every run of one set."""
    differing = sorted(
        {name for h in hashed[1:] for name in set(h) | set(hashed[0]) if h.get(name) != hashed[0].get(name)}
    )
    return Check("byte_stable_outputs", not differing, f"differing files: {differing}")


# -- dedup -------------------------------------------------------------------


def prepare_dedup(seed: int, directory: Path, sizes: dict) -> Prepared:
    records, pairs = duplicate_pairs_corpus(sizes["pairs"], sizes["decoys"], seed=seed)
    path = directory / "dedup.ndjson"
    _write(records, path)
    paired = {rid for pair in pairs for rid in pair}
    decoys = sorted(r.id for r in records if r.id not in paired)
    return Prepared(
        cli_args=["cluster", "--input", str(path), "--levels", "100"],
        records=len(records),
        files=[path],
        expect={"pairs": pairs, "decoys": decoys},
    )


def evaluate_dedup(run_dir: Path, prepared: Prepared, env: dict):
    planted = {frozenset(pair) for pair in prepared.expect["pairs"]}
    found = set(_cluster_sets(run_dir, 100))
    exact = found & planted
    unclustered = set(_read_lines(run_dir / "unclustered_level_100.txt"))
    stray = [rid for rid in prepared.expect["decoys"] if rid not in unclustered]
    checks = [
        Check(
            "planted_pairs_exact",
            found == planted,
            f"{len(exact)}/{len(planted)} planted pairs found, {len(found)} clusters",
        ),
        Check("decoys_unclustered", not stray, f"{len(stray)} decoys clustered"),
    ]
    quality = {
        "dup_recall": len(exact) / len(planted),
        "dup_precision": len(exact) / len(found) if found else 0.0,
    }
    return checks, quality


# -- hierarchy ---------------------------------------------------------------


def prepare_hierarchy(seed: int, directory: Path, sizes: dict) -> Prepared:
    records = hierarchical_corpus(sizes["works"], seed=seed, noise_records=sizes["noise"])
    path = directory / "hierarchy.ndjson"
    _write(records, path)
    masks = directory / "masks.ndjson"
    with open(masks, "w", encoding="utf-8") as fh:
        for provider in sorted({r.provider for r in records}):
            fh.write(json.dumps({"provider": provider, "mask": [TITLE]}) + "\n")
    # Ids follow the generator's scheme: w<work>e<edition>v<volume>[dup], noise<k>.
    works: dict[str, list[str]] = defaultdict(list)
    editions: dict[str, list[str]] = defaultdict(list)
    noise = []
    for record in records:
        if record.id.startswith("noise"):
            noise.append(record.id)
        else:
            works[record.id[:6]].append(record.id)
            editions[record.id[:8]].append(record.id)
    return Prepared(
        cli_args=["cluster", "--input", str(path), "--masks", str(masks), "--workers", str(sizes["workers"])],
        records=len(records),
        files=[path, masks],
        expect={
            "originals": sorted(r.id for r in records),
            "works": dict(works),
            "editions": dict(editions),
            "noise": noise,
            "duplicates": [rid for rid in (r.id for r in records) if rid.endswith("dup")],
        },
    )


def _forest_roots(run_dir: Path, originals: set[str]) -> tuple[dict[str, set[str]], list[str]]:
    """Expansion of every forest root down to original ids, and the problems
    found on the way (dangling children, overlapping expansions)."""
    nodes = {doc["cluster_id"]: doc["children"] for doc in _read_ndjson(run_dir / "forest.ndjson")}
    referenced = {child for children in nodes.values() for child in children}
    problems: list[str] = []

    def expand(node_id: str) -> set[str]:
        out: set[str] = set()
        for child in nodes[node_id]:
            if child in nodes:
                part = expand(child)
            elif child in originals:
                part = {child}
            else:
                problems.append(f"dangling child {child} under {node_id}")
                continue
            if out & part:
                problems.append(f"children of {node_id} overlap")
            out |= part
        return out

    roots = {node_id: expand(node_id) for node_id in sorted(nodes) if node_id not in referenced}
    return roots, problems


def evaluate_hierarchy(run_dir: Path, prepared: Prepared, env: dict):
    expect = prepared.expect
    originals = set(expect["originals"])
    checks = []

    stats = subprocess.run(
        [sys.executable, "-m", "metacluster.cli", "stats", "--run", str(run_dir)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    checks.append(Check("stats_exit_0", stats.returncode == 0, stats.stderr.strip()[-300:]))

    roots, problems = _forest_roots(run_dir, originals)
    covered: set[str] = set()
    for expansion in roots.values():
        if covered & expansion:
            problems.append("forest roots overlap")
        covered |= expansion
    leftovers = {rid for rid in _read_lines(run_dir / "unclustered_level_20.txt") if rid in originals}
    if covered & leftovers:
        problems.append("records both under a root and left over")
    missing = originals - covered - leftovers
    if missing:
        problems.append(f"{len(missing)} originals neither under a root nor left over")
    checks.append(Check("forest_partition", not problems, "; ".join(problems[:5])))

    # Noise records have random titles and no duplicates.  Two of them may
    # still meet level 20's threshold, since the field names and provider
    # value they share are much of their payload, but none may join a work.
    noise = set(expect["noise"])
    joined = [root for root, expansion in roots.items() if expansion & noise and expansion - noise]
    noise100 = [ids for ids in _cluster_sets(run_dir, 100) if ids & noise]
    checks.append(
        Check(
            "noise_apart_from_works",
            not joined and not noise100,
            f"{len(joined)} forest trees join noise and works, {len(noise100)} level-100 clusters hold noise",
        )
    )

    # Volumes of an edition are near-identical: each edition must sit inside
    # one level-80 cluster, and no level-80 cluster may join two works.
    level80 = _cluster_sets(run_dir, 80)
    where = {rid: i for i, ids in enumerate(level80) for rid in ids}
    split = []
    for edition, ids in expect["editions"].items():
        places = {where.get(rid) for rid in ids}
        if len(places) != 1 or None in places:
            split.append(edition)
    mixed = sum(1 for ids in level80 if len({rid[:6] for rid in ids}) > 1)
    checks.append(
        Check(
            "editions_in_one_level80_cluster",
            not split and not mixed,
            f"{len(split)} editions split, {mixed} level-80 clusters mixing works",
        )
    )

    root_of = {rid: root for root, expansion in roots.items() for rid in expansion}
    together = sum(
        1 for ids in expect["works"].values() if ids[0] in root_of and len({root_of.get(r) for r in ids}) == 1
    )
    level100 = {rid: i for i, ids in enumerate(_cluster_sets(run_dir, 100)) for rid in ids}
    found = sum(
        1
        for dup in expect["duplicates"]
        if dup in level100 and level100[dup] == level100.get(dup[: -len("dup")])
    )
    quality = {
        "work_recall": together / len(expect["works"]),
        "dup_recall": found / len(expect["duplicates"]) if expect["duplicates"] else 1.0,
    }
    return checks, quality


# -- fieldselect -------------------------------------------------------------


def prepare_fieldselect(seed: int, directory: Path, sizes: dict) -> Prepared:
    records = ga_provider_corpus(sizes["records"], seed=seed)
    path = directory / "fieldselect.ndjson"
    _write(records, path)
    return Prepared(
        cli_args=[
            "select-fields", "--input", str(path),
            "--ga-pop", str(sizes["ga_pop"]), "--ga-gens", str(sizes["ga_gens"]),
        ],
        records=len(records),
        files=[path],
        expect={"providers": sorted({r.provider for r in records})},
    )


def evaluate_fieldselect(run_dir: Path, prepared: Prepared, env: dict):
    rows = _read_ndjson(run_dir / "masks.ndjson")
    ga_rows = [row for row in rows if row.get("method") == "ga"]
    providers = sorted(row["provider"] for row in ga_rows)
    planted = [row for row in ga_rows if TITLE in row["mask"] and DESCRIPTION not in row["mask"]]
    checks = [
        Check(
            "one_mask_per_provider",
            providers == prepared.expect["providers"] and len(rows) == len(ga_rows),
            f"GA masks for {providers}",
        ),
        Check(
            "mask_keeps_title_drops_description",
            bool(ga_rows) and len(planted) == len(ga_rows),
            "; ".join(f"{row['provider']}: {row['mask']}" for row in ga_rows),
        ),
    ]
    fitness = [row["fitness"] for row in ga_rows if isinstance(row.get("fitness"), (int, float))]
    return checks, {"ga_fitness": max(fitness) if fitness else 0.0}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dedup",
            "level-100 pass over mostly unique records with 1% planted duplicates: "
            "tokenize, sign and group bound, compression nearly idle",
            prepare_dedup,
            evaluate_dedup,
            quality="dup_recall",
            stable=True,
            sizes={"pairs": 200, "decoys": 39_600},
        ),
        Workload(
            "hierarchy",
            "all five levels with saved dc:title masks, one worker: compression, "
            "clustering, artificial records, forest and run-directory writes",
            prepare_hierarchy,
            evaluate_hierarchy,
            quality="work_recall",
            stable=True,
            sizes={"works": 800, "noise": 270, "workers": 1},
        ),
        Workload(
            "fieldselect",
            "GA field selection on one provider: the same banding and clustering "
            "repeated over one population with changing masks",
            prepare_fieldselect,
            evaluate_fieldselect,
            quality="ga_fitness",
            stable=True,
            sizes={"records": 600, "ga_pop": 16, "ga_gens": 10},
        ),
        Workload(
            "hierarchy_w2",
            "the hierarchy workload with two worker threads: the only one that "
            "runs the parallel drain; head choice varies, so no byte comparison",
            prepare_hierarchy,
            evaluate_hierarchy,
            quality="work_recall",
            stable=False,
            sizes={"works": 800, "noise": 270, "workers": 2},
        ),
    )
}

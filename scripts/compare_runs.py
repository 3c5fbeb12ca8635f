#!/usr/bin/env python3
"""Compare two run directories file by file, ignoring wall-clock data.

Prints every file that differs or exists on one side only, and exits 1 if
there is any; exits 0 when the runs match. The clock fields are left out:
``started_at`` and ``finished_at`` in ``manifest.json`` and the time column
of ``timings.tsv``.

Example:
    python scripts/compare_runs.py runs/before runs/after
"""

import argparse
import json
import sys
from pathlib import Path

CLOCK_KEYS = ("started_at", "finished_at")


def comparable(path: Path) -> bytes:
    """The file's bytes, with its clock data removed."""
    data = path.read_bytes()
    if path.name == "manifest.json":
        doc = json.loads(data)
        for key in CLOCK_KEYS:
            doc.pop(key, None)
        return json.dumps(doc, sort_keys=True).encode("utf-8")
    if path.name == "timings.tsv":
        return b"\n".join(line.rsplit(b"\t", 1)[0] for line in data.splitlines())
    return data


def differing_files(a: Path, b: Path) -> list[str]:
    names_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    out = [f"{name}: only in {a}" for name in sorted(names_a - names_b)]
    out += [f"{name}: only in {b}" for name in sorted(names_b - names_a)]
    out += [
        f"{name}: differs"
        for name in sorted(names_a & names_b)
        if comparable(a / name) != comparable(b / name)
    ]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", type=Path, help="first run directory")
    parser.add_argument("b", type=Path, help="second run directory")
    args = parser.parse_args()
    for directory in (args.a, args.b):
        if not directory.is_dir():
            parser.error(f"{directory} is not a directory")
    differences = differing_files(args.a, args.b)
    for line in differences:
        print(line)
    if differences:
        return 1
    print(f"no difference between {args.a} and {args.b}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

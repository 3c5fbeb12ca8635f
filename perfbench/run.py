#!/usr/bin/env python3
"""The metacluster benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (it needs ``src/metacluster``).  One
invocation generates the workload's inputs from ``--seed``, then runs the
real CLI as fresh child processes:

1. one warm-up setup probe (discarded);
2. measured runs of the whole command until ``--seconds`` have passed and at
   least ``MIN_RUNS`` are done.  Untraced, a setup probe that stops right
   after ingest follows each run (at least ``SETUP_PROBES`` in all), giving
   ``setup_s``.  With ``--trace 1`` runs alternate between untraced and
   traced, and the traced ones give the per-layer metrics;
3. output checks on every run, and, for single-worker workloads, a
   comparison of the byte-stable output files across all runs.

It prints one line per metric with its unit, writes everything it measured to
``perfbench/results/``, and ends with one JSON line: ``correct``,
``attempted`` and ``failed`` (output checks) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
MIN_RUNS = 3
MIN_RUNS_TRACED = 4
#: No new child starts when it could not finish before this many seconds.
BUDGET_S = 160.0
CHILD_TIMEOUT_S = 150.0

END_TO_END = ("wall_s", "setup_s", "records_per_s", "peak_rss_mb", "quality")


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, float, float, int]:
    """Run one child; return (start, wall seconds, its own peak RSS in MB, exit code)."""
    with open(log, "wb") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, usage.ru_maxrss / 1024.0, proc.returncode


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "metacluster").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(cli_args: list[str]) -> dict:
    import numpy

    from metacluster.cli import build_parser

    parsed = build_parser().parse_args(cli_args + ["--out", "unused"])
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "compressor": f"{parsed.compressor}:{parsed.compression_level}",
        "loadavg_before": os.getloadavg(),
    }


def summary(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def per_layer_names() -> list[str]:
    from tracer import metric_names

    return metric_names() + ["rundir.bytes_written", "trace.overhead_s", "trace.overhead_share"]


def run(args: argparse.Namespace) -> dict:
    from tracer import analyze, metric_unit
    from workloads import WORKLOADS, Check, compare_hashes, output_hashes

    workload = WORKLOADS[args.workload]
    began = time.monotonic()
    work = HERE / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        prepared = workload.prepare(args.seed, work, workload.sizes)
        report = {
            "workload": workload.name,
            "why": workload.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "records": prepared.records,
            "sizes": workload.sizes,
            "inputs": {path.name: file_digest(path) for path in prepared.files},
            "environment": environment(prepared.cli_args),
        }

        def command(out: Path, traced_to: Path | None = None) -> list[str]:
            cli = prepared.cli_args + ["--out", str(out)]
            if traced_to is not None:
                return [sys.executable, str(HERE / "child.py"), "trace", str(traced_to), "--", *cli]
            return [sys.executable, "-m", "metacluster.cli", *cli]

        def setup_probe(i: int) -> float:
            marks = work / f"setup{i}.json"
            argv = [sys.executable, str(HERE / "child.py"), "setup", str(marks), "--",
                    *prepared.cli_args, "--out", str(work / f"setup{i}")]
            start, _, _, code = spawn(argv, env, work / f"setup{i}.log")
            if code != 0:
                raise RuntimeError(f"setup probe exited {code}: {(work / f'setup{i}.log').read_text()[-500:]}")
            return json.loads(marks.read_text())["setup_end"] - start

        setup_probe(0)  # warm-up: fills the page cache and compiles bytecode
        setups: list[float] = []

        runs = []
        min_runs = MIN_RUNS_TRACED if args.trace else MIN_RUNS
        window = time.monotonic()
        while len(runs) < min_runs or time.monotonic() - window < args.seconds:
            longest = max((r["wall_s"] for r in runs), default=0.0)
            if runs and time.monotonic() - began + 1.5 * longest > BUDGET_S:
                report["stopped_early"] = f"time budget reached after {len(runs)} runs"
                break
            i = len(runs)
            traced = bool(args.trace) and i % 2 == 1
            out = work / f"run{i}"
            trace_file = work / f"trace{i}.json" if traced else None
            _, wall, rss, code = spawn(command(out, trace_file), env, work / f"run{i}.log")
            runs.append({"out": out, "traced": traced, "trace": trace_file, "wall_s": wall,
                         "peak_rss_mb": rss, "exit": code})
            if not args.trace:
                # Probes between runs sample the machine at different moments.
                setups.append(setup_probe(len(setups) + 1))
        while not args.trace and len(setups) < SETUP_PROBES:
            setups.append(setup_probe(len(setups) + 1))

        checks: list[Check] = []
        quality_values: dict[str, list[float]] = {}
        for i, r in enumerate(runs):
            ok = r["exit"] == 0 and r["out"].is_dir()
            log_tail = (work / f"run{i}.log").read_text(errors="replace")[-300:]
            checks.append(Check(f"run{i}.exit_0", ok, "" if ok else log_tail))
            if not ok:
                continue
            got, quality = workload.evaluate(r["out"], prepared, env)
            checks.extend(Check(f"run{i}.{c.name}", c.ok, c.detail) for c in got)
            for key, value in quality.items():
                quality_values.setdefault(key, []).append(value)
            r["hashes"] = output_hashes(r["out"])
            r["bytes_written"] = sum(p.stat().st_size for p in r["out"].iterdir() if p.is_file())
        hashed = [r["hashes"] for r in runs if "hashes" in r]
        if workload.stable and len(hashed) >= 2:
            checks.append(compare_hashes(hashed))

        untraced = [r for r in runs if not r["traced"] and r["exit"] == 0]
        walls = [r["wall_s"] for r in untraced]
        report["samples"] = {
            "wall_s": [r["wall_s"] for r in runs if not r["traced"]],
            "traced_wall_s": [r["wall_s"] for r in runs if r["traced"]],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs if not r["traced"]],
            "setup_s": setups,
        }
        report["quality"] = {k: summary(v) for k, v in quality_values.items()}

        metrics: dict[str, tuple[float, str]] = {}
        absent: list[str] = []
        if walls and not args.trace:
            wall = statistics.median(walls)
            metrics["wall_s"] = (wall, "s")
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["records_per_s"] = (prepared.records / wall, "1/s")
            metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in untraced), "MB")
            quality = quality_values.get(workload.quality)
            if quality:
                metrics["quality"] = (statistics.median(quality), "score")
        traced_ok = [r for r in runs if r["traced"] and r["exit"] == 0]
        if args.trace and walls and traced_ok:
            per_run = []
            for r in traced_ok:
                values, missing = analyze(r["trace"])
                per_run.append(values)
                absent = sorted(set(absent) | set(missing))
            for name in per_run[0]:
                value = statistics.median(v[name] for v in per_run)
                metrics[name] = (value, metric_unit(name))
            metrics["rundir.bytes_written"] = (statistics.median(r["bytes_written"] for r in traced_ok), "bytes")
            traced_wall = statistics.median(r["wall_s"] for r in traced_ok)
            overhead = traced_wall - statistics.median(walls)
            metrics["trace.overhead_s"] = (overhead, "s")
            metrics["trace.overhead_share"] = (overhead / statistics.median(walls), "share")
        report["absent"] = absent
        report["checks"] = [c.__dict__ for c in checks]
        report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        report["elapsed_s"] = time.monotonic() - began
        report["failed"] = sum(not c.ok for c in checks)
        report["attempted"] = len(checks)
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{report['records']} records; {report['why']}")
    env = report["environment"]
    print(f"  env: {env['nproc']} cores ({env['usable_cores']} usable), python {env['python']}, "
          f"numpy {env['numpy']}, {env['compressor']}, git {env['git_sha']}, "
          f"source {env['source_digest']}, load {env['loadavg_before']}")
    samples = report["samples"]
    for key in ("wall_s", "traced_wall_s", "peak_rss_mb", "setup_s"):
        if samples[key]:
            s = summary(samples[key])
            print(f"  samples {key}: median {s['median']:.4f} min {s['min']:.4f} max {s['max']:.4f} n={s['n']}")
    for key, s in report["quality"].items():
        print(f"  {key:<36} {s['median']:.6g} score (median of {s['n']})")
    for name, m in report["metrics"].items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    for name in report["absent"]:
        print(f"  {name:<36} absent (hook missing or call shape changed)")
    print(f"  {'failed_checks':<36} {report['failed']} count (of {report['attempted']} attempted)")
    for c in report["checks"]:
        if not c["ok"]:
            print(f"  FAILED {c['name']}: {c['detail']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "metacluster" / "cli.py").is_file():
        print(f"error: no metacluster sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    report = run(args)
    print_report(report)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1, sort_keys=True, default=str) + "\n")

    expected = END_TO_END if not args.trace else per_layer_names()
    metrics = {k: report["metrics"][k] for k in expected if k in report["metrics"]}
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

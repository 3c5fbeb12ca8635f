"""Every stage ``scripts/bench_memory.py`` wraps must fire in a small ``cluster``
run: the script wraps each stage by module and attribute name, so a stage whose
function was renamed or is no longer called would read 0 calls and 0 seconds
in a BENCH entry without any error.  The script is loaded by file path and run
in ``--measure`` mode, which writes only its result file, no BENCH file."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from metacluster.records import write_records
from metacluster.synthetic import hierarchical_corpus

ROOT = Path(__file__).resolve().parents[1]
BENCH_MEMORY_PATH = ROOT / "scripts" / "bench_memory.py"


def load_stages() -> dict:
    spec = importlib.util.spec_from_file_location("bench_memory", BENCH_MEMORY_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.STAGES


@pytest.fixture(scope="module")
def measured(tmp_path_factory) -> dict:
    """The result document of one measured ``cluster`` run over all five levels."""
    if not Path("/proc/self/status").exists():
        pytest.skip("bench_memory.py reads VmHWM and VmRSS from /proc/self/status, which this host lacks")
    base = tmp_path_factory.mktemp("bench_memory")
    corpus = base / "corpus.ndjson"
    with open(corpus, "w", encoding="utf-8") as fh:
        write_records(hierarchical_corpus(n_works=6, seed=20, noise_records=10), fh)
    result = base / "result.json"
    cli_args = ["cluster", "--input", str(corpus), "--out", str(base / "run"), "--ga-pop", "4", "--ga-gens", "2"]
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, str(BENCH_MEMORY_PATH), "--measure", str(result), "--", *cli_args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(result.read_text(encoding="utf-8"))


@pytest.mark.parametrize("stage", list(load_stages()))
def test_stage_fires(measured, stage):
    assert measured["exit_code"] == 0
    assert measured["stages"][stage]["calls"] >= 1, f"stage {stage} never fired in a measured cluster run"


def test_import_floor_is_recorded(measured):
    # VmRSS after the imports, below every stage's peak.
    assert 0 < measured["import_mb"] <= min(stage["VmHWM"] for stage in measured["stages"].values())


def test_measured_child_imports_only_what_the_cli_loads():
    # A module the script imports at module level and the CLI does not load
    # (hashlib brings in OpenSSL) would raise import_mb and every stage's VmHWM.
    tree = ast.parse(BENCH_MEMORY_PATH.read_text(encoding="utf-8"))
    imported = {alias.name for node in tree.body if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in tree.body if isinstance(node, ast.ImportFrom)}
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, metacluster.cli; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert imported - set(proc.stdout.split()) == set()

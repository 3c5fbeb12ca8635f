import dataclasses
import importlib.util
import json
import shutil
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from metacluster import cli, rundir
from metacluster.cli import EVAL_CATEGORIES, _configs_from, build_parser, main
from metacluster.config import DATA_PROVIDER_FIELD, EngineConfig, GAConfig
from metacluster.errors import IntegrityError
from metacluster.ga import SENTINEL_FITNESS, ProviderMask
from metacluster.hashing import MAX_U64
from metacluster.hierarchy import forest_of, run_hierarchy
from metacluster.records import Record, RejectedLine, ingest_path, write_records
from metacluster.synthetic import (
    family_corpus,
    ga_provider_corpus,
    hierarchical_corpus,
)

GA_FLAGS = ["--ga-pop", "6", "--ga-gens", "2"]

COMPARE_RUNS_PATH = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"


def write_corpus(path: Path, records) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        write_records(records, fh)
    return path


def corpus_records() -> list:
    records = hierarchical_corpus(n_works=8, seed=20, noise_records=15)
    return records + ga_provider_corpus(n_records=120, n_families=8, seed=21, extra_fields=1)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory) -> Path:
    return write_corpus(tmp_path_factory.mktemp("corpus") / "corpus.ndjson", corpus_records())


@pytest.fixture(scope="module")
def full_run(corpus_path, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("run") / "out"
    code = main(
        ["cluster", "--input", str(corpus_path), "--out", str(out), "--seed", "33", *GA_FLAGS]
    )
    assert code == 0
    return out


def without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


#: What ``stats`` and ``sample-eval`` report for a manifest of the wrong shape.
MANIFEST_SHAPE = f"{rundir.MANIFEST_FILE}: unexpected shape"
FIELD_REPORT_SHAPE = f"{rundir.FIELD_REPORT_FILE}: unexpected shape"
#: What they report for a run file that differs from what the loaded run renders to.
RENDERING = "differs from the rendering of the loaded run"


def with_first(rows: list[dict], **changes) -> list[dict]:
    return [{**rows[0], **changes}, *rows[1:]]


def swap_level80_children(rows: list[dict]) -> list[dict]:
    a, b = [row for row in rows if row["level"] == 80][:2]
    a["children"][-1], b["children"][-1] = b["children"][-1], a["children"][-1]
    return rows


def line_edit(name: str, edit):
    """The file ``name`` and an edit of a run directory that applies ``edit``
    to that file's lines (without their "\\n")."""

    def apply(run_dir: Path) -> None:
        path = run_dir / name
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        path.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")

    return name, apply


def json_edit(name: str, change):
    """The JSON document ``name`` and an edit that applies ``change`` to it,
    written back in the run's own indented form."""

    def apply(run_dir: Path) -> None:
        path = run_dir / name
        doc = change(json.loads(path.read_text(encoding="utf-8")))
        path.write_text(json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n", encoding="utf-8")

    return name, apply


def edit_first_doc(change, sort_keys: bool = True):
    def edit(lines: list[str]) -> list[str]:
        return [json.dumps(change(json.loads(lines[0])), ensure_ascii=False, sort_keys=sort_keys), *lines[1:]]

    return edit


def delete_selection_files(run_dir: Path) -> None:
    for name in (rundir.MASKS_FILE, rundir.FIELD_REPORT_FILE):
        (run_dir / name).unlink()


def selection_files_into_masks_run(run_dir: Path) -> None:
    # Replace the GA run by a `--masks` run of its own masks over the same
    # corpus, then copy the GA's two selection files into it.
    masks_run = run_dir.parent / "masks-run"
    corpus = write_corpus(run_dir.parent / "corpus.ndjson", corpus_records())
    masks = ["--masks", str(run_dir / rundir.MASKS_FILE)]
    assert main(["cluster", "--input", str(corpus), "--out", str(masks_run), "--seed", "33", *masks]) == 0
    for name in (rundir.MASKS_FILE, rundir.FIELD_REPORT_FILE):
        shutil.copyfile(run_dir / name, masks_run / name)
    shutil.rmtree(run_dir)
    masks_run.rename(run_dir)


def reverse_members_with_forest(run_dir: Path) -> None:
    # The edit a hand makes to keep the two files agreeing.
    docs = [json.loads(line) for line in (run_dir / rundir.cluster_file(80)).read_text(encoding="utf-8").splitlines()]
    doc = next(doc for doc in docs if len(doc["members"]) >= 2)
    doc["members"].reverse()
    nodes = [json.loads(line) for line in (run_dir / rundir.FOREST_FILE).read_text(encoding="utf-8").splitlines()]
    node = next(node for node in nodes if node["cluster_id"] == doc["id"])
    node["children"] = [doc["head"], *doc["members"]]
    for name, rows in ((rundir.cluster_file(80), docs), (rundir.FOREST_FILE, nodes)):
        text = "".join(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n" for row in rows)
        (run_dir / name).write_text(text, encoding="utf-8")


def run_files(run_dir: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(run_dir.iterdir())
        if p.is_file()
    }


class TestClusterCommand:
    def test_levels_subset_writes_duplicate_report_only(self, corpus_path, tmp_path):
        out = tmp_path / "run100"
        code = main(
            ["cluster", "--input", str(corpus_path), "--out", str(out), "--levels", "100"]
        )
        assert code == 0
        assert (out / "clusters_level_100.ndjson").exists()
        assert (out / rundir.DUPLICATES_FILE).exists()
        assert not (out / "clusters_level_80.ndjson").exists()
        assert not (out / rundir.MASKS_FILE).exists()  # GA skipped without level 80
        assert forest_of(rundir.load_run(out)) == {}

    def test_deterministic_outputs(self, corpus_path, full_run, tmp_path):
        out2 = tmp_path / "again"
        code = main(
            ["cluster", "--input", str(corpus_path), "--out", str(out2), "--seed", "33", *GA_FLAGS]
        )
        assert code == 0
        first = run_files(full_run)
        second = run_files(out2)
        assert set(first) == set(second)
        varying = {rundir.MANIFEST_FILE, rundir.TIMINGS_FILE}
        for name in sorted(set(first) - varying):
            assert first[name] == second[name], f"{name} differs between identical runs"
        manifest_a = json.loads(first[rundir.MANIFEST_FILE])
        manifest_b = json.loads(second[rundir.MANIFEST_FILE])
        for key in ("started_at", "finished_at"):
            manifest_a.pop(key), manifest_b.pop(key)
        assert manifest_a == manifest_b

    def test_mask_file_reuse_matches_combined_run(self, corpus_path, full_run, tmp_path):
        fields_out = tmp_path / "fields"
        code = main(
            ["select-fields", "--input", str(corpus_path), "--out", str(fields_out), "--seed", "33", *GA_FLAGS]
        )
        assert code == 0
        masks = fields_out / rundir.MASKS_FILE
        assert masks.read_bytes() == (full_run / rundir.MASKS_FILE).read_bytes()

        reuse_out = tmp_path / "reuse"
        code = main(
            [
                "cluster", "--input", str(corpus_path), "--out", str(reuse_out),
                "--seed", "33", "--masks", str(masks),
            ]
        )
        assert code == 0
        assert (reuse_out / "clusters_level_80.ndjson").read_bytes() == (
            full_run / "clusters_level_80.ndjson"
        ).read_bytes()

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"mask": ["dc:title"]}',
            "{not json",
            '{"provider": "p", "mask": "dc:title"}',
            '{"provider": "p", "mask": []}',
            '["p", ["dc:title"]]',
            b'{"provider": "caf\xe9", "mask": ["dc:title"]}',
            '{"provider": "\\ud800", "mask": ["dc:title"]}',
            # A second mask for provider p was once taken over the first.
            '{"provider": "p", "mask": ["dc:description"]}',
        ],
    )
    def test_malformed_masks_file_is_error_exit(self, corpus_path, tmp_path, capsys, bad_line):
        masks = tmp_path / "masks.ndjson"
        good = b'{"provider": "p", "mask": ["dc:title"]}\n'
        bad = bad_line if isinstance(bad_line, bytes) else bad_line.encode("utf-8")
        masks.write_bytes(good + bad + b"\n")
        code = main(
            [
                "cluster", "--input", str(corpus_path), "--out", str(tmp_path / "out"),
                "--levels", "80", "--masks", str(masks),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{masks} line 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("masks", ["missing", "malformed", "valid"])
    def test_masks_file_is_read_when_level_80_does_not_run(self, corpus_path, tmp_path, capsys, masks):
        # A run without level 80 once left --masks unread, so a missing or
        # malformed file passed; a good one still does not reach the run.
        path = tmp_path / "masks.ndjson"
        if masks != "missing":
            path.write_bytes(b'{"provider": "p", "mask": ["dc:title"]}\n' if masks == "valid" else b"{not json\n")
        out = tmp_path / "out"
        argv = ["cluster", "--input", str(corpus_path), "--out", str(out), "--levels", "100", "--masks", str(path)]
        code = main(argv)
        if masks == "valid":
            assert code == 0
            assert json.loads((out / rundir.MANIFEST_FILE).read_text(encoding="utf-8"))["masks"] == {}
            return
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert not out.exists()

    def test_masks_file_with_cr_line_endings(self, tmp_path):
        masks = tmp_path / "masks.ndjson"
        masks.write_bytes(
            b'{"provider": "p", "mask": ["dc:title"]}\r'
            b'{"provider": "q", "mask": ["dc:type"]}\r\n'
        )
        loaded = rundir.load_masks(masks)
        assert sorted(loaded) == ["p", "q"]
        assert loaded["q"] == frozenset(["dc:type"])

    def test_rejects_report(self, tmp_path):
        corpus = tmp_path / "bad.ndjson"
        corpus.write_text(
            '{"id":"ok","fields":{"dc:title":["fine"]}}\n'
            "{broken\n"
            '{"id":"no-text","fields":{"dc:subject":["s"]}}\n',
            encoding="utf-8",
        )
        out = tmp_path / "run"
        code = main(["cluster", "--input", str(corpus), "--out", str(out), "--levels", "100"])
        assert code == 0
        lines = [
            json.loads(line)
            for line in (out / rundir.REJECTS_FILE).read_text().splitlines()
        ]
        assert [d["line"] for d in lines] == [2, 3]

    def test_missing_input_is_error_exit(self, tmp_path):
        code = main(
            ["cluster", "--input", str(tmp_path / "nope.ndjson"), "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_bad_flag_values_rejected(self, corpus_path, tmp_path):
        code = main(
            [
                "cluster", "--input", str(corpus_path), "--out", str(tmp_path / "x"),
                "--max-iter", "0", "--levels", "100",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["cluster", "select-fields"])
    @pytest.mark.parametrize(
        "flag",
        [["--minhash-count", "64"], ["--band-group-sizes", "100:16"], ["--band-match", "any"]],
        ids=lambda flag: flag[0],
    )
    def test_removed_banding_flags_are_refused(self, corpus_path, tmp_path, capsys, command, flag):
        # The banding is fixed: 64 minhashes, GROUP_SIZES and any-key matching.
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--input", str(corpus_path), "--out", str(out), *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_below_one_is_error_exit(self, corpus_path, tmp_path, capsys):
        code = main(
            [
                "cluster", "--input", str(corpus_path), "--out", str(tmp_path / "x"),
                "--workers", "0", "--levels", "100",
            ]
        )
        assert code == 1
        assert "workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, seed",
        [("cluster", -1), ("cluster", 2**64), ("select-fields", -1), ("sample-eval", 2**127)],
    )
    def test_seed_out_of_range_is_error_exit(self, corpus_path, full_run, tmp_path, capsys, command, seed):
        # Seeds key 8-byte hashes: any other seed is refused before ingest.
        out = tmp_path / "out"
        if command == "sample-eval":
            argv = ["sample-eval", "--run", str(full_run)]
        else:
            argv = [command, "--input", str(corpus_path), *GA_FLAGS]
        code = main([*argv, "--out", str(out), "--seed", str(seed)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: seed must be in 0-{MAX_U64}, got {seed}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_flag_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["cluster", "--input", "c.ndjson", "--out", "o"])
        assert _configs_from(args) == (EngineConfig(), GAConfig())

    def test_compression_level_out_of_range_is_error_exit(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(
            [
                "cluster", "--input", str(corpus_path), "--out", str(out),
                "--compression-level", "12", "--levels", "100",
            ]
        )
        assert code == 1
        assert "error: compression level must be in 0-9" in capsys.readouterr().err
        assert not out.exists()

    def test_ga_run_tokenizes_each_distinct_value_once(self, corpus_path, tmp_path, monkeypatch):
        # The GA and every level sign through one value store.
        from metacluster import clusterer

        calls: Counter = Counter()
        tokenize = clusterer.tokenize

        def counting(*values):
            calls.update(values)
            return tokenize(*values)

        monkeypatch.setattr(clusterer, "tokenize", counting)
        out = tmp_path / "out"
        assert main(["cluster", "--input", str(corpus_path), "--out", str(out), "--seed", "33", *GA_FLAGS]) == 0
        assert any(info.method == "ga" for info in rundir.load_run(out).selection.values())
        records = ingest_path(corpus_path).records
        assert calls == Counter({value: 1 for r in records for vs in r.fields.values() for value in vs})


class TestSampleEval:
    def test_worksheet_rows_and_exhaustion_warning(self, corpus_path, full_run, tmp_path, capsys):
        out_file = tmp_path / "sample.ndjson"
        code = main(
            [
                "sample-eval", "--run", str(full_run), "--input", str(corpus_path),
                "--per-level", "3", "--out", str(out_file), "--seed", "1",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err  # some level has fewer than 3 clusters
        rows = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert rows
        for row in rows:
            assert row["category"] == ""
            assert row["category_choices"] == list(EVAL_CATEGORIES)
            assert row["size"] == len(row["members"])
            assert all(m["fields"] is not None for m in row["members"])
        per_level = {}
        for row in rows:
            per_level[row["level"]] = per_level.get(row["level"], 0) + 1
        assert all(count <= 3 for count in per_level.values())

    def test_same_seed_same_sample(self, corpus_path, full_run, tmp_path):
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        for out_file in (a, b):
            code = main(
                [
                    "sample-eval", "--run", str(full_run), "--input", str(corpus_path),
                    "--per-level", "2", "--out", str(out_file), "--seed", "9",
                ]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_per_level_is_error_exit(self, full_run, tmp_path, capsys):
        out_file = tmp_path / "sample.ndjson"
        out_file.write_text("kept\n", encoding="utf-8")
        code = main(
            ["sample-eval", "--run", str(full_run), "--per-level", "-1", "--out", str(out_file)]
        )
        assert code == 1
        assert "error: per-level must be >= 0" in capsys.readouterr().err
        assert out_file.read_text(encoding="utf-8") == "kept\n"

    def test_missing_cluster_file_leaves_out_file_untouched(self, full_run, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(full_run, run_dir)
        (run_dir / rundir.cluster_file(60)).unlink()
        out_file = tmp_path / "sample.ndjson"
        out_file.write_bytes(b"kept\n")
        code = main(["sample-eval", "--run", str(run_dir), "--out", str(out_file)])
        assert code == 1
        assert rundir.cluster_file(60) in capsys.readouterr().err
        assert out_file.read_bytes() == b"kept\n"

    def test_without_corpus_fields_are_null_for_originals(self, full_run, tmp_path):
        out_file = tmp_path / "nofields.ndjson"
        code = main(
            ["sample-eval", "--run", str(full_run), "--per-level", "1", "--out", str(out_file)]
        )
        assert code == 0
        rows = [json.loads(line) for line in out_file.read_text().splitlines()]
        level80 = [r for r in rows if r["level"] == 80]
        assert any(m["fields"] is None for row in level80 for m in row["members"])


    @pytest.mark.parametrize(
        "name", [rundir.SUMMARY_FILE, rundir.TIMINGS_FILE, rundir.cluster_file(80), rundir.MASKS_FILE]
    )
    def test_out_naming_a_run_file_is_refused(self, corpus_path, tmp_path, capsys, name):
        # A worksheet once overwrote summary.json, and stats then refused the
        # run; one written as masks.ndjson into a --masks run, which has no
        # selection files, was read as the run's selection.
        run_dir = tmp_path / "run"
        masks_run = ["--levels", "100,80", "--masks", "/dev/null"]
        assert main(["cluster", "--input", str(corpus_path), "--out", str(run_dir), *masks_run]) == 0
        files = run_files(run_dir)
        assert main(["sample-eval", "--run", str(run_dir), "--out", str(run_dir / name)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"--out {run_dir / name}" in err
        assert run_files(run_dir) == files
        # The default worksheet lies in the run directory too, and is no run file.
        assert main(["sample-eval", "--run", str(run_dir)]) == 0
        assert (run_dir / "eval_sample.ndjson").exists()
        assert main(["stats", "--run", str(run_dir)]) == 0

    @pytest.mark.parametrize("damage", ["cut", "missing"])
    def test_damaged_artificial_records_is_error_exit(self, full_run, tmp_path, capsys, damage):
        # A line cut mid-write was once read as a reject and dropped: the
        # worksheet then held null fields for the members it summarized.
        run_dir = tmp_path / "run"
        shutil.copytree(full_run, run_dir)
        path = run_dir / rundir.ARTIFICIALS_FILE
        if damage == "cut":
            lines = path.read_bytes().splitlines(keepends=True)
            cut = len(lines) // 2
            path.write_bytes(b"".join(lines[:cut]) + lines[cut][: len(lines[cut]) // 2])
        else:
            path.unlink()
        out_file = tmp_path / "sample.ndjson"
        code = main(["sample-eval", "--run", str(run_dir), "--out", str(out_file)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"run file {path}" in err
        assert "Traceback" not in err
        assert not out_file.exists()


class TestOutDirectory:
    """A run's directory describes only that run: ``cluster`` and
    ``select-fields`` refuse an --out that holds anything, and write nothing
    until all of their computation has succeeded."""

    @pytest.mark.parametrize("command", ["cluster", "select-fields"])
    def test_rerun_into_used_out_is_refused(self, corpus_path, full_run, tmp_path, capsys, command):
        # The rerun of the reproduced case: saved masks, two levels, same --out.
        out = tmp_path / "used"
        shutil.copytree(full_run, out)
        before = run_files(out)
        saved = ["--levels", "100,80", "--masks", str(out / rundir.MASKS_FILE)]
        extra = saved if command == "cluster" else GA_FLAGS
        code = main([command, "--input", str(corpus_path), "--out", str(out), *extra])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not an empty directory" in err
        assert run_files(out) == before

    def test_empty_existing_out_is_accepted(self, corpus_path, tmp_path):
        out = tmp_path / "empty"
        out.mkdir()
        assert main(["cluster", "--input", str(corpus_path), "--out", str(out), "--levels", "100"]) == 0
        assert (out / rundir.MANIFEST_FILE).exists()

    def test_failed_run_writes_nothing(self, corpus_path, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise IntegrityError("injected failure")

        monkeypatch.setattr(cli, "run_hierarchy", failing)
        out = tmp_path / "out"
        code = main(["cluster", "--input", str(corpus_path), "--out", str(out), "--seed", "33", *GA_FLAGS])
        assert code == 1
        assert "error: injected failure" in capsys.readouterr().err
        for name in (rundir.MASKS_FILE, rundir.FIELD_REPORT_FILE, rundir.REJECTS_FILE):
            assert not (out / name).exists()


    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_out_as_it_was(self, corpus_path, tmp_path, monkeypatch, capsys, existing):
        # Files are written to a hidden sibling, moved into place only when
        # every write has succeeded.  A nested --out, as perfbench passes,
        # gets its parents made.
        out = tmp_path / "nest" / "out"
        if existing:
            out.mkdir(parents=True)
        write_lines = rundir._write_lines
        calls = []

        def failing_after_two(*args, **kwargs):
            calls.append(args)
            if len(calls) > 2:
                raise OSError("injected write failure")
            write_lines(*args, **kwargs)

        monkeypatch.setattr(rundir, "_write_lines", failing_after_two)
        argv = ["cluster", "--input", str(corpus_path), "--out", str(out), "--seed", "33", *GA_FLAGS]
        assert main(argv) == 1
        assert "error: injected write failure" in capsys.readouterr().err
        assert len(calls) == 3
        assert list(out.parent.iterdir()) == ([out] if existing else [])
        assert not out.exists() or not any(out.iterdir())

        monkeypatch.setattr(rundir, "_write_lines", write_lines)
        assert main(argv) == 0
        assert list(out.parent.iterdir()) == [out]
        assert main(["stats", "--run", str(out)]) == 0


class TestStats:
    def test_stats_consistent_with_summary(self, full_run, capsys):
        code = main(["stats", "--run", str(full_run)])
        assert code == 0
        out = capsys.readouterr().out
        assert "reference level-20 mean cluster size: 190" in out
        assert "23,595,555" in out  # reference magnitudes shown beside local numbers

    def test_single_cluster_stats(self, tmp_path):
        records, _ = family_corpus(1, 5, seed=30, shared_tokens=45, unique_tokens=1)
        corpus = write_corpus(tmp_path / "c.ndjson", records)
        out = tmp_path / "run"
        assert main(["cluster", "--input", str(corpus), "--out", str(out), "--levels", "80"]) == 0
        summary = rundir.load_summary(out)
        entry = summary["levels"]["80"]
        assert entry["count"] == 1
        assert entry["min_size"] == entry["max_size"] == 5
        assert entry["mean_size"] == 5.0

    def test_tampered_cluster_file_detected(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(
            ["cluster", "--input", str(corpus_path), "--out", str(out), "--levels", "100,80", "--masks", "/dev/null"]
        ) == 0
        path = out / "clusters_level_80.ndjson"
        lines = path.read_text().splitlines()
        if not lines:
            pytest.skip("no clusters to tamper with")
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        code = main(["stats", "--run", str(out)])
        assert code == 1

    @pytest.mark.parametrize("name", [rundir.MASKS_FILE, rundir.FIELD_REPORT_FILE])
    def test_mask_files_of_another_run_detected(self, full_run, tmp_path, capsys, name):
        other = tmp_path / "other"
        corpus = write_corpus(tmp_path / "c.ndjson", ga_provider_corpus(n_records=120, n_families=8, seed=5))
        assert main(["select-fields", "--input", str(corpus), "--out", str(other), *GA_FLAGS]) == 0
        run_dir = tmp_path / "run"
        shutil.copytree(full_run, run_dir)
        shutil.copyfile(other / name, run_dir / name)
        capsys.readouterr()
        assert main(["stats", "--run", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: run file {run_dir / name} line ") and RENDERING in err

    @pytest.mark.parametrize("name", [rundir.cluster_file(60), rundir.SUMMARY_FILE])
    def test_run_file_cut_mid_line_is_error_exit(self, full_run, tmp_path, capsys, name):
        # A crash mid-write can leave a partial file; stats names it, no traceback.
        run_dir = tmp_path / "run"
        shutil.copytree(full_run, run_dir)
        path = run_dir / name
        lines = path.read_bytes().splitlines(keepends=True)
        cut = len(lines) // 2
        path.write_bytes(b"".join(lines[:cut]) + lines[cut][: len(lines[cut]) // 2])
        code = main(["stats", "--run", str(run_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: run file {path} line {cut + 1}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name,damage,command,message",
        [
            (rundir.cluster_file(80), lambda doc: without(doc, "head"), "stats", "line 1: unexpected shape"),
            (rundir.FOREST_FILE, lambda doc: [1, 2], "stats", f"line 1: {RENDERING}"),
            (rundir.ARTIFICIALS_FILE, lambda doc: without(doc, "fields"), "sample-eval", "line 1: unexpected shape"),
            (
                rundir.SUMMARY_FILE,
                lambda doc: {**doc, "levels": without(doc["levels"], "60")},
                "stats",
                RENDERING,
            ),
            (rundir.MANIFEST_FILE, lambda doc: without(doc, "record_count"), "stats", MANIFEST_SHAPE),
            (rundir.MANIFEST_FILE, lambda doc: {**doc, "levels": "80"}, "stats", MANIFEST_SHAPE),
            (rundir.MANIFEST_FILE, lambda doc: {**doc, "levels": [80, 100]}, "sample-eval", MANIFEST_SHAPE),
            (rundir.MANIFEST_FILE, lambda doc: without(doc, "corpus_digest"), "sample-eval", MANIFEST_SHAPE),
            (rundir.FIELD_REPORT_FILE, lambda doc: without(doc, "providers"), "stats", RENDERING),
            (
                rundir.FIELD_REPORT_FILE,
                lambda doc: {
                    **doc,
                    "ga_providers": {p: without(e, "best_history") for p, e in doc["ga_providers"].items()},
                },
                "stats",
                FIELD_REPORT_SHAPE,
            ),
            (rundir.FIELD_REPORT_FILE, lambda doc: [doc], "stats", FIELD_REPORT_SHAPE),
        ],
        ids=[
            "cluster-without-head",
            "forest-line-a-list",
            "artificial-without-fields",
            "summary-without-level",
            "manifest-without-record-count",
            "manifest-levels-a-string",
            "manifest-levels-out-of-order",
            "manifest-without-corpus-digest",
            "field-report-without-providers",
            "field-report-ga-entry-without-history",
            "field-report-a-list",
        ],
    )
    def test_run_file_of_wrong_shape_is_error_exit(self, full_run, tmp_path, capsys, name, damage, command, message):
        # Valid JSON of the wrong shape ends in an error line, not a traceback.
        run_dir = tmp_path / "run"
        shutil.copytree(full_run, run_dir)
        path = run_dir / name
        text = path.read_text(encoding="utf-8")
        if name in (rundir.SUMMARY_FILE, rundir.MANIFEST_FILE, rundir.FIELD_REPORT_FILE):
            path.write_text(json.dumps(damage(json.loads(text))), encoding="utf-8")
        else:
            first, *rest = text.splitlines(keepends=True)
            path.write_text(json.dumps(damage(json.loads(first))) + "\n" + "".join(rest), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--run", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        if message in (MANIFEST_SHAPE, FIELD_REPORT_SHAPE):
            assert f"error: run file {path}: " in err
        elif name != rundir.SUMMARY_FILE:
            assert f"error: run file {path} line 1: " in err

    @pytest.mark.parametrize(
        "name,edit",
        [
            (rundir.FOREST_FILE, swap_level80_children),
            (rundir.cluster_file(80), lambda rows: with_first(rows, members=["ghost", *rows[0]["members"][1:]])),
            (rundir.cluster_file(80), lambda rows: with_first(rows, mean_head_similarity=0.1)),
            (rundir.cluster_file(80), lambda rows: with_first(rows, mean_head_similarity="0.9")),
            (rundir.cluster_file(60), lambda rows: with_first(rows, members=[[1], *rows[0]["members"][1:]])),
            (rundir.ARTIFICIALS_FILE, lambda rows: with_first(rows, id=[1])),
            (rundir.FOREST_FILE, lambda rows: with_first(rows, cluster_id=[1])),
            (rundir.unclustered_file(80), lambda rows: rows[1:]),
            (rundir.ARTIFICIALS_FILE, lambda rows: rows[1:]),
            (rundir.FOREST_FILE, lambda rows: with_first(rows, head="ghost")),
            (rundir.FOREST_FILE, lambda rows: with_first(rows, level=7)),
            (rundir.FOREST_FILE, lambda rows: with_first(rows, artificial_record_id="zzz")),
            (rundir.FOREST_FILE, lambda rows: with_first(rows, category="nonsense")),
            (rundir.DUPLICATES_FILE, lambda rows: with_first(rows, members=["ghost"])),
            (rundir.DUPLICATES_FILE, lambda rows: with_first(rows, mean_head_similarity=0.1)),
            (rundir.DUPLICATES_FILE, lambda rows: rows[:-1]),
            (
                rundir.DUPLICATES_FILE,
                lambda rows: with_first(rows, artificial_record={**rows[0]["artificial_record"], "id": "zzz"}),
            ),
            (rundir.cluster_file(80), lambda rows: with_first(rows, size=999)),
            (rundir.cluster_file(60), lambda rows: with_first(rows, transferred=["ghost"])),
            # The same cluster's mean in both files that hold it.
            (
                (rundir.cluster_file(100), rundir.DUPLICATES_FILE),
                lambda rows: with_first(rows, mean_head_similarity=1.5),
            ),
        ],
        ids=[
            "forest-child-swapped",
            "level80-member-ghost",
            "level80-mean-below-threshold",
            "level80-mean-a-string",
            "level60-member-a-list",
            "artificial-id-a-list",
            "forest-cluster-id-a-list",
            "unclustered-id-dropped",
            "artificial-record-dropped",
            "forest-head-ghost",
            "forest-level-7",
            "forest-artificial-id-zzz",
            "forest-category-set",
            "duplicate-members-ghost",
            "duplicate-mean-below-threshold",
            "duplicate-line-dropped",
            "duplicate-artificial-id-zzz",
            "level80-size-999",
            "level60-transferred-ghost",
            "level100-mean-above-1",
        ],
    )
    def test_damaged_run_is_error_exit(self, full_run, tmp_path, capsys, name, edit):
        # All but the dropped unclustered id once passed stats with exit 0 or
        # ended in a traceback.  sample-eval reads the run the same way, before
        # it opens --out.
        run_dir = tmp_path / "run"
        shutil.copytree(full_run, run_dir)
        for path in [run_dir / n for n in (name if isinstance(name, tuple) else [name])]:
            ndjson = path.suffix == ".ndjson"
            rows = [json.loads(line) if ndjson else line for line in path.read_text(encoding="utf-8").splitlines()]
            rows = edit(rows)
            dump = (lambda row: json.dumps(row, ensure_ascii=False, sort_keys=True)) if ndjson else str
            path.write_text("".join(dump(row) + "\n" for row in rows), encoding="utf-8")
        capsys.readouterr()
        assert main(["stats", "--run", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        out_file = tmp_path / "sample.ndjson"
        out_file.write_bytes(b"kept\n")
        assert main(["sample-eval", "--run", str(run_dir), "--out", str(out_file)]) == 1
        assert capsys.readouterr().err == err
        assert out_file.read_bytes() == b"kept\n"

    @pytest.mark.parametrize(
        "name,edit",
        [
            line_edit(rundir.unclustered_file(80), lambda lines: lines[::-1]),
            line_edit(rundir.cluster_file(80), lambda lines: [lines[1], lines[0], *lines[2:]]),
            # Once collapsed into one record on reading, and passed.
            line_edit(rundir.ARTIFICIALS_FILE, lambda lines: [lines[0], *lines]),
            line_edit(rundir.MASKS_FILE, lambda lines: [lines[0], *lines]),
            line_edit(rundir.cluster_file(80), lambda lines: [lines[0], "", *lines[1:]]),
            line_edit(rundir.cluster_file(80), edit_first_doc(lambda doc: dict(reversed(doc.items())), False)),
            line_edit(rundir.cluster_file(80), edit_first_doc(lambda doc: {**doc, "note": ""})),
            line_edit(rundir.REJECTS_FILE, lambda lines: ["garbage"]),
            line_edit(rundir.TIMINGS_FILE, lambda lines: ["garbage"]),
            (rundir.cluster_file(80), reverse_members_with_forest),
            json_edit(rundir.FIELD_REPORT_FILE, lambda doc: {**doc, "providers": doc["providers"] + 1}),
            (rundir.MANIFEST_FILE, delete_selection_files),
            (rundir.MANIFEST_FILE, selection_files_into_masks_run),
            # Provenance and kind are the cluster's, not the file's.
            line_edit(rundir.ARTIFICIALS_FILE, edit_first_doc(lambda doc: {**doc, "provenance": doc["provenance"][::-1]})),
            line_edit(rundir.ARTIFICIALS_FILE, edit_first_doc(lambda doc: {**doc, "kind": "original"})),
        ],
        ids=[
            "unclustered-reversed",
            "cluster-lines-swapped",
            "artificial-line-repeated",
            "masks-line-repeated",
            "blank-line-inserted",
            "cluster-keys-unsorted",
            "cluster-key-added",
            "rejects-garbage",
            "timings-garbage",
            "members-reversed-with-forest",
            "field-report-providers-changed",
            "selection-files-deleted",
            "selection-files-into-masks-run",
            "artificial-provenance-reversed",
            "artificial-kind-changed",
        ],
    )
    def test_edit_that_does_not_render_back_is_error_exit(self, full_run, tmp_path, capsys, name, edit):
        # A run directory is valid iff it is the rendering of the run loaded
        # from it; each of these edits once passed stats or sample-eval with
        # exit 0.  Both read the run through load_run, so both refuse it.
        run_dir = tmp_path / "run"
        shutil.copytree(full_run, run_dir)
        edit(run_dir)
        capsys.readouterr()
        assert main(["stats", "--run", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: run file {run_dir / name}") and "Traceback" not in err
        assert main(["sample-eval", "--run", str(run_dir), "--out", str(tmp_path / "sample.ndjson")]) == 1
        assert capsys.readouterr().err == err

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])  # capsys is read per example
    @given(st.data())
    def test_structural_edit_is_error_exit(self, full_run, tmp_path_factory, capsys, data):
        # One line of a line-oriented run file dropped, repeated, swapped
        # with another, preceded by a blank line, or with a key renamed.
        files = [p for p in full_run.iterdir() if p.suffix in (".ndjson", ".txt", ".tsv") and p.read_bytes()]
        names = sorted(p.name for p in files)
        run_dir = tmp_path_factory.mktemp("edit") / "run"
        shutil.copytree(full_run, run_dir)
        path = run_dir / data.draw(st.sampled_from(names))
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        edits = ["drop", "repeat", "swap", "blank"] + (["rekey"] if path.suffix == ".ndjson" else [])
        edit, i = data.draw(st.sampled_from(edits)), data.draw(st.integers(0, len(lines) - 1))
        if edit == "drop":
            del lines[i]
        elif edit in ("repeat", "blank"):
            lines.insert(i, lines[i] if edit == "repeat" else "")
        elif edit == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            assume(lines[i] != lines[j])
            lines[i], lines[j] = lines[j], lines[i]
        else:
            doc = json.loads(lines[i])
            key = data.draw(st.sampled_from(sorted(doc)))
            doc[key + "_"] = doc.pop(key)
            lines[i] = json.dumps(doc, ensure_ascii=False, sort_keys=True)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["stats", "--run", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_edit_of_a_trusted_mean_passes(self, full_run, tmp_path, capsys):
        # Only a replay of the corpus could tell; the README lists the mean as trusted.
        run_dir = tmp_path / "run"
        shutil.copytree(full_run, run_dir)
        raise_mean = edit_first_doc(lambda doc: {**doc, "mean_head_similarity": doc["mean_head_similarity"] + 0.01})
        _, edit = line_edit(rundir.cluster_file(40), raise_mean)
        edit(run_dir)
        assert main(["stats", "--run", str(run_dir)]) == 0
        assert "error" not in capsys.readouterr().err

    def test_original_named_like_a_level100_cluster(self, tmp_path, capsys):
        # An original may carry any id, a level-100 cluster's included; level
        # 100 stays out of the chain, so the id is no clash.
        title = "the oil shop at the corner of the market street in old town"
        records = [Record(rid, {"dc:title": (title,)}) for rid in ("a", "b")]
        records += family_corpus(3, 4, seed=5)[0]
        (cluster_id,) = [c.id for c in run_hierarchy(records, None, EngineConfig(seed=7)).results[100].clusters]
        near = "a survey of cobalt glazes used by delft potters in the seventeenth century"
        records += [Record(cluster_id, {"dc:title": (f"{near} volume one",)})]
        records += [Record("z", {"dc:title": (f"{near} volume two",)})]
        corpus = write_corpus(tmp_path / "c.ndjson", records)
        out = tmp_path / "run"
        assert main(["cluster", "--input", str(corpus), "--out", str(out), "--seed", "7"]) == 0
        run = rundir.load_run(out)
        assert [c.id for c in run.results[100].clusters] == [cluster_id]
        assert any(c.record_ids() == ("z", cluster_id) for c in run.results[80].clusters)
        assert main(["stats", "--run", str(out)]) == 0
        assert "error" not in capsys.readouterr().err

    def test_original_named_like_a_level80_cluster(self, tmp_path, capsys):
        # The original joins another cluster at level 80 while the cluster it
        # is named after forms beside it: one id would name two entities of
        # the forest, and the run is refused.
        records = family_corpus(3, 4, seed=5)[0]
        cluster_id = run_hierarchy(records, None, EngineConfig(seed=7)).results[80].clusters[0].id
        near = "a survey of cobalt glazes used by delft potters in the seventeenth century"
        records += [Record(cluster_id, {"dc:title": (f"{near} volume one",)})]
        records += [Record("z", {"dc:title": (f"{near} volume two",)})]
        corpus = write_corpus(tmp_path / "c.ndjson", records)
        capsys.readouterr()
        assert main(["cluster", "--input", str(corpus), "--out", str(tmp_path / "run"), "--seed", "7"]) == 1
        assert capsys.readouterr().err.startswith(f"error: chain cluster ids ['{cluster_id}'] each name two entities")

    def test_run_file_cut_inside_a_character_is_error_exit(self, full_run, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(full_run, run_dir)
        path = run_dir / rundir.unclustered_file(20)
        path.write_bytes(path.read_bytes() + "é".encode("utf-8")[:1])
        assert main(["stats", "--run", str(run_dir)]) == 1
        assert f"error: run file {path} is not UTF-8" in capsys.readouterr().err

    def test_ids_with_other_line_separators_round_trip(self, tmp_path, capsys):
        # Run files end lines at "\n" only; "\r" and U+2028 may sit in an id.
        ids = ["a\u2028b", "c\rd", "e"]
        titles = ["alpha canal", "brick furnace", "cobalt glaze"]
        records = [Record(rid, {"dc:title": (title,)}) for rid, title in zip(ids, titles)]
        corpus = write_corpus(tmp_path / "c.ndjson", records)
        out = tmp_path / "run"
        assert main(["cluster", "--input", str(corpus), "--out", str(out)]) == 0
        for result in rundir.load_run(out).results.values():
            assert result.unclustered == tuple(sorted(ids))
        assert main(["stats", "--run", str(out)]) == 0
        assert "error" not in capsys.readouterr().err

    def test_outputs_reparseable_by_loaders(self, corpus_path, full_run):
        # Each level partitions its input, verify_run holds and the run renders back to its files.
        loaded = rundir.load_run(full_run)
        masks = rundir.load_masks(full_run / rundir.MASKS_FILE)
        run = run_hierarchy(ingest_path(corpus_path).records, masks, EngineConfig(seed=33))
        assert {level: set(r.clusters) for level, r in loaded.results.items()} == {
            level: set(r.clusters) for level, r in run.results.items()
        }
        # A record is its id and its fields, in memory and loaded alike.
        assert run.artificials and run.duplicate_artificials
        assert loaded.artificials == run.artificials
        assert loaded.duplicate_artificials == run.duplicate_artificials


class TestRunDirRoundTrip:
    def test_manifest_records_every_engine_config_field(self, full_run):
        # The manifest is built from the config's fields, so a new field
        # lands in it without a second list to update.
        manifest = rundir.load_manifest(full_run)
        config = EngineConfig(seed=33)
        for name, value in dataclasses.asdict(config).items():
            if name == "compression_level":
                assert name not in manifest
                assert manifest["compressor"] == f"{config.compressor}:{value}"
            elif name != "compressor":
                assert manifest[name] == value

    def test_manifest_with_former_banding_settings_still_loads(self, full_run, tmp_path, capsys):
        # Runs made while the banding was configurable carry its three settings.
        former = {
            "minhash_count": 64,
            "group_sizes": {"100": 16, "80": 8, "60": 6, "40": 4, "20": 2},
            "band_match": "any",
        }
        assert rundir.load_manifest(full_run).keys().isdisjoint(former)
        run_dir = tmp_path / "run"
        shutil.copytree(full_run, run_dir)
        _, apply = json_edit(rundir.MANIFEST_FILE, lambda doc: {**doc, **former})
        apply(run_dir)
        assert main(["stats", "--run", str(run_dir)]) == 0
        out_file = tmp_path / "sample.ndjson"
        assert main(["sample-eval", "--run", str(run_dir), "--out", str(out_file)]) == 0
        assert out_file.read_text(encoding="utf-8")
        assert "error" not in capsys.readouterr().err

    def test_iterations_used_round_trip(self, corpus_path, tmp_path, capsys):
        run = run_hierarchy(ingest_path(corpus_path).records, None, EngineConfig(seed=33))
        out = tmp_path / "run"
        rundir.write_run(out, run)
        assert any(result.iterations_used > 0 for result in run.results.values())
        summary = rundir.load_summary(out)
        loaded = rundir.load_run(out)
        for level, result in run.results.items():
            assert summary["levels"][str(level)]["iterations_used"] == result.iterations_used
            assert loaded.results[level].iterations_used == result.iterations_used
            assert loaded.results[level].clusters == tuple(sorted(result.clusters, key=lambda c: c.id))
            assert loaded.results[level].unclustered == result.unclustered
        assert main(["stats", "--run", str(out)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows[0][:8] == ["level", "records", "clusters", "unclustered", "min", "max", "mean", "iters"]
        printed = {int(row[0]): int(row[7]) for row in rows[1:] if row and row[0].isdigit()}
        assert printed == {level: r.iterations_used for level, r in run.results.items()}

    def test_ga_history_round_trip(self, tmp_path):
        records = [
            Record(f"{p}{i}", {"dc:title": (f"harbour view {i}",), DATA_PROVIDER_FIELD: (p,)})
            for p in ("big", "small")
            for i in (1, 2)
        ]
        run = run_hierarchy(records, None, EngineConfig(seed=3), levels=[80])
        run.selection = {
            "big": ProviderMask(frozenset({"dc:title"}), 2.5, "ga", (SENTINEL_FITNESS, 1.5, 2.5), 7),
            "small": ProviderMask(frozenset({"dc:title"}), None, "default"),
        }
        out = tmp_path / "run"
        rundir.write_run(out, run)
        # JSON has no infinities: the degenerate fitness comes back as null.
        big = dataclasses.replace(run.selection["big"], best_history=(None, 1.5, 2.5))
        assert rundir.load_run(out).selection == {**run.selection, "big": big}

    def test_rejects_and_selection_round_trip(self, corpus_path, tmp_path, monkeypatch):
        # A GA cluster run's rejected lines and field selection come back from its directory as written.
        corpus = tmp_path / "c.ndjson"
        corpus.write_bytes(b"garbage\n" + corpus_path.read_bytes() + b'{"id": 1}\n')
        runs = []

        def keep(*args, **kwargs):
            runs.append(run_hierarchy(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "run_hierarchy", keep)
        out = tmp_path / "run"
        assert main(["cluster", "--input", str(corpus), "--out", str(out), "--seed", "33", *GA_FLAGS]) == 0
        (written,) = runs
        loaded = rundir.load_run(out)
        assert [r.line for r in loaded.rejects] == [1, len(corpus.read_bytes().splitlines())]
        assert loaded.rejects == written.rejects
        assert any(info.method == "ga" for info in written.selection.values())
        assert loaded.selection == written.selection

    def test_run_files_byte_format(self, tmp_path):
        # Non-ASCII ids, providers and values; pairs of equal titles cluster at 100.
        records = hierarchical_corpus(n_works=4, seed=12, noise_records=5)
        records += [
            Record(f"ü{i}", {"dc:title": (f"Café Zürich 東京 {i // 2}",), DATA_PROVIDER_FIELD: ("prov-é",)})
            for i in range(6)
        ]
        run = run_hierarchy(records, None, EngineConfig(seed=3))
        run.rejects = [RejectedLine(1, "bad line — «x»")]
        # A selection covers every provider the manifest's masks name.
        masks = run.manifest["masks"]
        run.selection = {p: ProviderMask(frozenset(mask), None, "default") for p, mask in masks.items()}
        run.selection["prov-é"] = ProviderMask(frozenset(masks["prov-é"]), 1.5, "ga", (SENTINEL_FITNESS, 1.5), 3)
        out = tmp_path / "run"
        rundir.write_run(out, run)

        ndjson = sorted(out.glob("*.ndjson"))
        assert len(ndjson) == 10  # five cluster levels, forest, artificials, duplicates, rejects, masks
        lines = [line for path in ndjson for line in path.read_text(encoding="utf-8").splitlines()]
        for line in lines:
            assert line == json.dumps(json.loads(line), ensure_ascii=False, sort_keys=True)
        assert any("Zürich" in line for line in lines)
        documents = sorted(out.glob("*.json"))
        assert [p.name for p in documents] == [
            rundir.FIELD_REPORT_FILE, rundir.MANIFEST_FILE, rundir.SUMMARY_FILE
        ]
        for path in documents:
            text = path.read_text(encoding="utf-8")
            canonical = json.dumps(json.loads(text), ensure_ascii=False, sort_keys=True, indent=2)
            assert text == canonical + "\n"
            assert "prov-é" in text or path.name == rundir.SUMMARY_FILE

        assert run.results[100].clusters
        for level, result in run.results.items():
            assert rundir.load_clusters(out, level) == sorted(result.clusters, key=lambda c: c.id)
        assert forest_of(rundir.load_run(out)) == forest_of(run)

    def test_stats_prints_ga_history(self, full_run, capsys):
        selection = rundir.load_run(full_run).selection
        assert [p for p, info in selection.items() if info.method == "ga"] == ["gaprov"]
        assert main(["stats", "--run", str(full_run)]) == 0
        assert f"ga gaprov: {selection['gaprov'].evaluations} evaluations" in capsys.readouterr().out


def load_compare_runs():
    spec = importlib.util.spec_from_file_location("compare_runs", COMPARE_RUNS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompareRuns:
    def test_clock_data_ignored_and_other_changes_listed(self, full_run, tmp_path):
        differing_files = load_compare_runs().differing_files
        other = tmp_path / "other"
        shutil.copytree(full_run, other)
        manifest = json.loads((other / rundir.MANIFEST_FILE).read_text(encoding="utf-8"))
        manifest["started_at"] = manifest["finished_at"] = "then"
        (other / rundir.MANIFEST_FILE).write_text(json.dumps(manifest), encoding="utf-8")
        timings = (other / rundir.TIMINGS_FILE).read_text(encoding="utf-8").splitlines()
        retimed = [line.rsplit("\t", 1)[0] + "\t9m9.99s" for line in timings]
        (other / rundir.TIMINGS_FILE).write_text("\n".join(retimed) + "\n", encoding="utf-8")
        assert differing_files(full_run, other) == []

        manifest["seed"] += 1
        (other / rundir.MANIFEST_FILE).write_text(json.dumps(manifest), encoding="utf-8")
        (other / rundir.unclustered_file(20)).unlink()
        with open(other / rundir.cluster_file(80), "a", encoding="utf-8") as fh:
            fh.write("\n")
        assert differing_files(full_run, other) == [
            f"{rundir.unclustered_file(20)}: only in {full_run}",
            f"{rundir.cluster_file(80)}: differs",
            f"{rundir.MANIFEST_FILE}: differs",
        ]

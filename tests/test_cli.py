import json
from pathlib import Path

import pytest

from metacluster import rundir
from metacluster.cli import EVAL_CATEGORIES, main
from metacluster.config import EngineConfig
from metacluster.ga import SENTINEL_FITNESS, ProviderMask, ProviderSelection
from metacluster.hierarchy import run_hierarchy
from metacluster.records import FieldMask, ingest_path, write_records
from metacluster.synthetic import (
    duplicate_pairs_corpus,
    family_corpus,
    ga_provider_corpus,
    hierarchical_corpus,
)

GA_FLAGS = ["--ga-pop", "6", "--ga-gens", "2"]


def write_corpus(path: Path, records) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        write_records(records, fh)
    return path


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("corpus")
    records = hierarchical_corpus(n_works=8, seed=20, noise_records=15)
    records += ga_provider_corpus(n_records=120, n_families=8, seed=21, extra_fields=1)
    return write_corpus(base / "corpus.ndjson", records)


@pytest.fixture(scope="module")
def full_run(corpus_path, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("run") / "out"
    code = main(
        ["cluster", "--input", str(corpus_path), "--out", str(out), "--seed", "33", *GA_FLAGS]
    )
    assert code == 0
    return out


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
        assert rundir.load_forest(out) == []

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

    def test_masks_file_with_cr_line_endings(self, tmp_path):
        masks = tmp_path / "masks.ndjson"
        masks.write_bytes(
            b'{"provider": "p", "mask": ["dc:title"]}\r'
            b'{"provider": "q", "mask": ["dc:type"]}\r\n'
        )
        loaded = rundir.load_masks(masks)
        assert sorted(loaded) == ["p", "q"]
        assert loaded["q"] == FieldMask(frozenset(["dc:type"]))

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

    def test_workers_below_one_is_error_exit(self, corpus_path, tmp_path, capsys):
        code = main(
            [
                "cluster", "--input", str(corpus_path), "--out", str(tmp_path / "x"),
                "--workers", "0", "--levels", "100",
            ]
        )
        assert code == 1
        assert "workers must be >= 1" in capsys.readouterr().err


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

    def test_without_corpus_fields_are_null_for_originals(self, full_run, tmp_path):
        out_file = tmp_path / "nofields.ndjson"
        code = main(
            ["sample-eval", "--run", str(full_run), "--per-level", "1", "--out", str(out_file)]
        )
        assert code == 0
        rows = [json.loads(line) for line in out_file.read_text().splitlines()]
        level80 = [r for r in rows if r["level"] == 80]
        assert any(m["fields"] is None for row in level80 for m in row["members"])


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

    def test_outputs_reparseable_by_loaders(self, corpus_path, full_run):
        manifest = rundir.load_manifest(full_run)
        for level in manifest["levels"]:
            clusters = rundir.load_clusters(full_run, level)
            unclustered = rundir.load_unclustered(full_run, level)
            assert all(c.level == level for c in clusters)
            placed = set(unclustered)
            for cluster in clusters:
                placed.update(cluster.record_ids())
            assert placed  # partition re-checked in acceptance suite
        forest = rundir.load_forest(full_run)
        artificials = rundir.load_artificials(full_run)
        for node in forest:
            if node.artificial_record_id:
                assert node.artificial_record_id in artificials
        # Only ids and fields come back; kind and provenance live in the forest.
        masks = rundir.load_masks(full_run / rundir.MASKS_FILE)
        run = run_hierarchy(ingest_path(corpus_path).records, masks, EngineConfig(seed=33))
        assert run.artificials
        assert {rid: r.fields for rid, r in artificials.items()} == {
            rid: r.fields for rid, r in run.artificials.items()
        }


class TestRunDirRoundTrip:
    def test_iterations_used_round_trip(self, corpus_path, tmp_path, capsys):
        run = run_hierarchy(ingest_path(corpus_path).records, None, EngineConfig(seed=33))
        out = tmp_path / "run"
        rundir.write_run(out, run)
        assert any(result.iterations_used > 0 for result in run.results.values())
        for level, result in run.results.items():
            loaded = rundir.load_level_result(out, level)
            assert loaded.iterations_used == result.iterations_used
            assert sorted(loaded.clusters, key=lambda c: c.id) == sorted(result.clusters, key=lambda c: c.id)
            assert loaded.unclustered == result.unclustered
        assert main(["stats", "--run", str(out)]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows[0][:8] == ["level", "records", "clusters", "unclustered", "min", "max", "mean", "iters"]
        printed = {int(row[0]): int(row[7]) for row in rows[1:] if row and row[0].isdigit()}
        assert printed == {level: r.iterations_used for level, r in run.results.items()}

    def test_ga_history_round_trip(self, tmp_path):
        selection = ProviderSelection()
        for info in (
            ProviderMask("big", FieldMask.of("dc:title"), 2.5, "ga", (SENTINEL_FITNESS, 1.5, 2.5), 7),
            ProviderMask("small", FieldMask.of("dc:title"), None, "default"),
        ):
            selection.masks[info.provider] = info.mask
            selection.details[info.provider] = info
        rundir.write_field_report(tmp_path / rundir.FIELD_REPORT_FILE, selection)
        report = rundir.load_field_report(tmp_path)
        # JSON has no infinities: the degenerate fitness comes back as null.
        assert report["ga_providers"] == {"big": {"best_history": [None, 1.5, 2.5], "evaluations": 7}}
        assert rundir.load_field_report(tmp_path / "missing") is None

    def test_stats_prints_ga_history(self, full_run, capsys):
        report = rundir.load_field_report(full_run)
        assert list(report["ga_providers"]) == ["gaprov"]
        assert main(["stats", "--run", str(full_run)]) == 0
        evaluations = report["ga_providers"]["gaprov"]["evaluations"]
        assert f"ga gaprov: {evaluations} evaluations" in capsys.readouterr().out

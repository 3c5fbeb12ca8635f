import dataclasses
import io
import json

import pytest

from metacluster import hierarchy, rundir
from metacluster.clusterer import Cluster
from metacluster.config import DATA_PROVIDER_FIELD, EngineConfig
from metacluster.errors import ConfigurationError, IntegrityError
from metacluster.hierarchy import (
    corpus_digest,
    default_mask_for,
    forest_of,
    forest_roots,
    make_artificial_record,
    run_hierarchy,
    verify_run,
)
from metacluster.minhash import SignatureComputer
from metacluster.records import Record, check_record, ingest, tokenize, write_records
from metacluster.synthetic import (
    duplicate_pairs_corpus,
    family_corpus,
    hierarchical_corpus,
    random_corpus,
)

from forest_walk import expand, never_clustered


def cluster_of(ids, level=80, head=None):
    head = head or ids[0]
    members = tuple(sorted(set(ids) - {head}))
    return Cluster(
        id=f"L{level}-test{head}",
        level=level,
        head=head,
        members=members,
        mean_head_similarity=level / 100.0,
    )


class TestArtificialRecord:
    def test_identical_records_keep_fields(self):
        fields = {"dc:title": ("A", "B"), "dc:type": ("image",)}
        records = [Record(f"r{i}", dict(fields)) for i in range(4)]
        cluster = cluster_of([r.id for r in records])
        artificial = make_artificial_record(cluster, records)
        assert artificial.fields == fields
        assert artificial.id == cluster.id
        # A summary's values are its members', so it obeys every record's rules.
        check_record(artificial)

    def test_part_series_structure(self):
        # Eight parts with distinct titles sharing one spatial value collapse
        # to eight title values and a single spatial value.
        records = [
            Record(
                f"part{i}",
                {
                    "dc:title": (f"The Oil Shop part {i:02d}",),
                    "dcterms:spatial": ("City of London",),
                },
            )
            for i in range(1, 9)
        ]
        cluster = cluster_of([r.id for r in records])
        artificial = make_artificial_record(cluster, records)
        assert len(artificial.fields["dc:title"]) == 8
        assert artificial.fields["dcterms:spatial"] == ("City of London",)

    def test_value_cap_keeps_most_frequent(self):
        records = []
        for i in range(100):
            # value "common" appears in every record, fillers once each
            records.append(
                Record(
                    f"r{i}",
                    {"dc:title": ("common", f"filler{i:03d}")},
                )
            )
        cluster = cluster_of([r.id for r in records])
        artificial = make_artificial_record(cluster, records, value_cap=20)
        values = artificial.fields["dc:title"]
        assert len(values) == 20
        assert values[0] == "common"
        # remaining 19 are the lexicographically first fillers (ties on count)
        assert list(values[1:]) == [f"filler{i:03d}" for i in range(19)]


class TestDefaultMask:
    def test_title_preferred(self):
        records = [Record("r", {"dc:title": ("t",), "dc:description": ("d",)})]
        assert default_mask_for(records) == frozenset({"dc:title"})

    def test_description_fallback(self):
        records = [Record("r", {"dc:description": ("d",)})]
        assert default_mask_for(records) == frozenset({"dc:description"})

    def test_neither_is_configuration_error(self):
        records = [Record("r", {"dc:subject": ("s",)})]
        with pytest.raises(ConfigurationError):
            default_mask_for(records)


class TestRunHierarchy:
    def test_empty_corpus(self):
        run = run_hierarchy([], None, EngineConfig(seed=1))
        assert forest_of(run) == {}
        assert all(result.clusters == () for result in run.results.values())

    def test_degenerate_flow_when_nothing_clusters_at_80(self):
        records = random_corpus(80, seed=3)
        run = run_hierarchy(records, None, EngineConfig(seed=3), levels=(80, 60))
        assert run.results[80].clusters == ()
        assert run.results[60].input_count == len(records)

    @pytest.mark.parametrize(
        "levels", [(80, 40), (60, 20), (100, 60), (100, 80, 60, 40, 20)], ids=["80-40", "60-20", "100-60", "full"]
    )
    def test_forest_levels_and_children_population(self, tmp_path, levels):
        records = hierarchical_corpus(n_works=10, seed=5, noise_records=10)
        run = run_hierarchy(records, None, EngineConfig(seed=5), levels=levels)
        rundir.write_run(tmp_path, run)
        with open(tmp_path / rundir.FOREST_FILE, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh]
        forest = forest_of(run)
        assert forest, "no chain level clustered anything"
        assert {line["cluster_id"]: tuple(line["children"]) for line in lines} == forest
        assert forest_of(rundir.load_run(tmp_path)) == forest
        chain = [level for level in levels if level != 100]
        # Children of the first chain level's nodes are original record ids;
        # those of a lower node come from the previous chain level's output
        # population: its artificial records plus its unclustered set (which
        # may carry entities through from even higher levels).  Exactly the
        # clusters of a level with a next chain level have an artificial record.
        population = {r.id for r in records}
        for level in chain:
            result = run.results[level]
            nodes = [line for line in lines if line["level"] == level]
            assert {line["cluster_id"] for line in nodes} == {c.id for c in result.clusters}
            for line in nodes:
                assert set(line["children"]) <= population
                expected = line["cluster_id"] if level != chain[-1] else None
                assert line["artificial_record_id"] == expected
            made = {c.id for c in result.clusters} if level != chain[-1] else set()
            assert made <= set(run.artificials)
            population = made | set(result.unclustered)
        assert {line["artificial_record_id"] for line in lines} - {None} == set(run.artificials)

    def test_editions_merge_into_lower_level_node(self):
        records = hierarchical_corpus(
            n_works=6, editions_per_work=2, volumes_per_edition=4, seed=8, duplicate_share=0.0
        )
        run = run_hierarchy(records, None, EngineConfig(seed=8))
        level80 = {c.id for c in run.results[80].clusters}
        merged = [
            cluster_id
            for cluster_id, children in forest_of(run).items()
            if cluster_id not in level80 and sum(1 for child in children if child in level80) >= 2
        ]
        assert merged, "no lower-level node joined two level-80 clusters"

    def test_level_100_results_kept_out_of_chain(self):
        records = hierarchical_corpus(n_works=8, seed=9, duplicate_share=0.3)
        run = run_hierarchy(records, None, EngineConfig(seed=9))
        assert run.results[100].clusters  # duplicates exist
        assert run.duplicate_artificials
        chain_children = {c for children in forest_of(run).values() for c in children}
        for cluster in run.results[100].clusters:
            assert cluster.id not in chain_children

    def test_monotone_population_shrinkage(self):
        records = hierarchical_corpus(n_works=12, seed=10, noise_records=25)
        run = run_hierarchy(records, None, EngineConfig(seed=10))
        counts = {level: result.input_count for level, result in run.results.items()}
        assert counts[60] >= counts[40] >= counts[20]

    def test_conservation_and_refinement(self):
        records = hierarchical_corpus(n_works=10, seed=11, noise_records=15)
        run = run_hierarchy(records, None, EngineConfig(seed=11))
        original_ids = {r.id for r in records}
        forest = forest_of(run)
        covered = set()
        for root in forest_roots(forest):
            expansion = expand(root, forest, original_ids)
            assert not covered & expansion
            covered |= expansion
        leftovers = never_clustered(run, original_ids)
        assert covered | leftovers == original_ids
        assert not covered & leftovers

    def test_provider_mask_used_at_level_80(self):
        # Same titles, different descriptions: with the title mask the pair
        # clusters at 80; adding the noisy description it would not.
        records = []
        for i in range(6):
            noise_a = f"completely different text block alpha {i} " * 6
            noise_b = f"unrelated descriptive payload beta {i} " * 6
            records.append(
                Record(
                    f"a{i}",
                    {
                        "dc:title": ("shared family title words here",),
                        "dc:description": (noise_a,),
                        DATA_PROVIDER_FIELD: ("p",),
                    },
                )
            )
            records.append(
                Record(
                    f"b{i}",
                    {
                        "dc:title": ("shared family title words here",),
                        "dc:description": (noise_b,),
                        DATA_PROVIDER_FIELD: ("p",),
                    },
                )
            )
        masks = {"p": frozenset({"dc:title"})}
        run = run_hierarchy(records, masks, EngineConfig(seed=12), levels=(80,))
        # Every record's provider is the "p" its field names: no default mask is added.
        assert run.manifest["masks"] == {"p": ["dc:title"]}
        assert len(run.results[80].clusters) == 1
        assert run.results[80].clusters[0].size == 12

    def test_written_corpus_reproduces_its_run(self):
        # Each record's provider split in two by index parity, one mask per
        # half: the run files and the digest must survive write and ingest.
        records = [
            Record(r.id, {**r.fields, DATA_PROVIDER_FIELD: (f"{r.provider}-{i % 2}",)})
            for i, r in enumerate(hierarchical_corpus(300, seed=3, noise_records=100))
        ]
        masks = {
            p: frozenset({"dc:title"} if p.endswith("-0") else {"dc:title", "dcterms:spatial"})
            for p in {r.provider for r in records}
        }
        text = io.StringIO()
        write_records(records, text)
        ingested = ingest(io.BytesIO(text.getvalue().encode("utf-8")))
        assert not ingested.rejects
        runs = [run_hierarchy(rs, masks, EngineConfig(seed=5), levels=[80]) for rs in (records, ingested.records)]

        def files(run):
            return {name: list(lines) for name, lines in rundir.run_lines(run) if name != rundir.MANIFEST_FILE}

        assert files(runs[0]) == files(runs[1])
        assert runs[0].manifest["corpus_digest"] == runs[1].manifest["corpus_digest"]

    def test_original_without_title_or_description_rejected(self):
        records = [Record("r", {"dc:subject": ("s",)})]
        with pytest.raises(ConfigurationError):
            run_hierarchy(records, None, EngineConfig(seed=1))

    def test_unpaired_surrogate_is_configuration_error_before_any_level(self, monkeypatch):
        def no_level(*args, **kwargs):
            raise AssertionError("a level ran before the corpus was checked")

        monkeypatch.setattr(hierarchy, "cluster_level", no_level)
        records = [
            Record("ok", {"dc:title": ("fine",)}),
            Record("a", {"dc:title": ("x\ud800y",)}),
        ]
        with pytest.raises(ConfigurationError, match="record 'a'"):
            run_hierarchy(records, None, EngineConfig(seed=1))

    def test_provider_surrogate_is_configuration_error_before_any_level(self, monkeypatch):
        def no_level(*args, **kwargs):
            raise AssertionError("a level ran before the providers were checked")

        monkeypatch.setattr(hierarchy, "cluster_level", no_level)
        records = [
            Record("ok", {"dc:title": ("fine",)}),
            Record("a", {"dc:title": ("x y z",), DATA_PROVIDER_FIELD: ("p\ud800",)}),
        ]
        with pytest.raises(ConfigurationError, match="record 'a'"):
            run_hierarchy(records, None, EngineConfig(seed=1))

    def test_last_level_stores_no_value_it_meets_first(self):
        records = [Record(f"r{i}", {"dc:title": (f"title {i}",)}) for i in range(6)]
        config = EngineConfig(seed=1)
        computer = SignatureComputer(seed=config.seed)
        computer.signature_matrix([("title 0",)], tokenize)
        rows_learned = []
        learn = computer._learn

        def recording_learn(tokenize):
            learn(tokenize)
            rows_learned.append(len(computer._rows))

        computer._learn = recording_learn
        run_hierarchy(records, None, config, levels=(100,), computer=computer)
        # Only "title 0", stored before the run, ever has a row.
        assert max(rows_learned, default=1) == 1
        assert computer._store == {} and len(computer._rows) == 0

    def test_duplicate_ids_rejected(self):
        record = Record("r", {"dc:title": ("t",)})
        with pytest.raises(ConfigurationError):
            run_hierarchy([record, record], None, EngineConfig(seed=1))

    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigurationError):
            run_hierarchy([], None, EngineConfig(seed=1), levels=(90,))

    def test_artificial_records_exported_for_chain(self):
        records, _ = family_corpus(4, 6, seed=13)
        config = EngineConfig(seed=13)
        run = run_hierarchy(records, None, config, levels=(80, 60))
        by_id = {record.id: record for record in records}
        assert run.results[80].clusters
        for cluster in run.results[80].clusters:
            members = [by_id[rid] for rid in cluster.record_ids()]
            assert run.artificials[cluster.id] == make_artificial_record(cluster, members, config.artificial_value_cap)


class TestCorpusDigest:
    RECORDS = [
        Record("b2", {"dc:title": ("Zweite Ausgabe",), "dc:subject": ("maps", "atlas")}),
        Record("a1", {"dc:title": ("Café été 日本",)}),
        Record("c3", {"dc:description": ('a "quoted"\nline',), "dc:date": ("1901",)}),
        Record("L80-x", {"dc:title": ("Zweite Ausgabe",)}),
    ]

    def test_pinned_value(self):
        # Pinned from the join-then-hash implementation it streams.
        assert corpus_digest(self.RECORDS) == "38f2434ff8dc229413ccdff2"
        assert corpus_digest([]) == "b8e1dda3ac0aa3820ad2990b"

    def test_independent_of_record_order(self):
        assert corpus_digest(self.RECORDS[::-1]) == corpus_digest(self.RECORDS)
        assert corpus_digest(self.RECORDS[1:] + self.RECORDS[:1]) == corpus_digest(self.RECORDS)


class TestExpand:
    def test_leaf_cluster_expands_to_head_and_members(self):
        forest = {"c1": ("h", "m1", "m2")}
        assert expand("c1", forest, {"h", "m1", "m2"}) == {"h", "m1", "m2"}

    def test_two_child_clusters(self):
        forest = {"a": ("h1", "x1", "x2"), "b": ("h2", "y1", "y2", "y3"), "t": ("a", "b")}
        originals = {"h1", "x1", "x2", "h2", "y1", "y2", "y3"}
        assert forest_roots(forest) == ["t"]
        assert expand("t", forest, originals) == originals

    def test_dangling_child_is_integrity_error(self):
        with pytest.raises(IntegrityError):
            expand("c1", {"c1": ("h", "ghost")}, {"h"})

    def test_overlapping_children_are_integrity_error(self):
        forest = {"a": ("h1", "x1"), "t": ("a", "x1")}
        with pytest.raises(IntegrityError, match="overlap"):
            expand("t", forest, {"h1", "x1"})


def absorb_level80_original(run):
    level60 = run.results[60]
    first, *rest = level60.clusters
    extra = dataclasses.replace(first, members=first.members + (run.results[80].clusters[0].head,))
    run.results[60] = dataclasses.replace(level60, clusters=(extra, *rest))


def drop_level40_cluster(run):
    run.results[40] = dataclasses.replace(run.results[40], clusters=run.results[40].clusters[1:])


def drop_level60_artificial(run):
    del run.artificials[run.results[60].clusters[0].id]


class TestVerify:
    def test_tampered_forest_detected(self):
        records, _ = duplicate_pairs_corpus(6, 10, seed=14)
        run = run_hierarchy(records, None, EngineConfig(seed=14), levels=(80, 60))
        result = run.results[80]
        if not result.clusters:
            pytest.skip("corpus produced no level-80 clusters")
        first, *rest = result.clusters
        bad = dataclasses.replace(first, members=first.members + ("ghost",))
        run.results[80] = dataclasses.replace(result, clusters=(bad, *rest))
        with pytest.raises(IntegrityError, match="ghost"):
            verify_run(run, {r.id for r in records})

    @pytest.mark.parametrize(
        "tamper,message",
        [
            (absorb_level80_original, "level 60 output is not a partition"),
            (drop_level40_cluster, "level 40 output is not a partition"),
            (drop_level60_artificial, "artificial records"),
        ],
        ids=["level60-absorbs-original-twice", "level40-cluster-dropped", "level60-artificial-dropped"],
    )
    def test_tampered_chain_detected(self, tamper, message):
        records = hierarchical_corpus(n_works=10, seed=5, noise_records=10)
        run = run_hierarchy(records, None, EngineConfig(seed=5))
        assert all(run.results[level].clusters for level in (80, 60, 40))
        tamper(run)
        with pytest.raises(IntegrityError, match=message):
            verify_run(run, {r.id for r in records})

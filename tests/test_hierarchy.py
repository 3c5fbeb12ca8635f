import pytest

from metacluster import hierarchy
from metacluster.clusterer import Cluster
from metacluster.config import EngineConfig
from metacluster.errors import ConfigurationError, IntegrityError
from metacluster.hierarchy import (
    HierarchyNode,
    default_mask_for,
    expand,
    forest_index,
    forest_roots,
    make_artificial_record,
    never_clustered,
    run_hierarchy,
    verify_run,
)
from metacluster.records import FieldMask, Record
from metacluster.synthetic import (
    duplicate_pairs_corpus,
    family_corpus,
    hierarchical_corpus,
    random_corpus,
)


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
        records = [Record(f"r{i}", "p", dict(fields)) for i in range(4)]
        cluster = cluster_of([r.id for r in records])
        artificial = make_artificial_record(cluster, records)
        assert artificial.fields == fields
        assert artificial.kind == "artificial"
        assert artificial.id == cluster.id
        assert artificial.provenance == cluster.record_ids()

    def test_part_series_structure(self):
        # Eight parts with distinct titles sharing one spatial value collapse
        # to eight title values and a single spatial value.
        records = [
            Record(
                f"part{i}",
                "BL",
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
                    "p",
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
        records = [Record("r", "p", {"dc:title": ("t",), "dc:description": ("d",)})]
        assert default_mask_for(records) == FieldMask.of("dc:title")

    def test_description_fallback(self):
        records = [Record("r", "p", {"dc:description": ("d",)})]
        assert default_mask_for(records) == FieldMask.of("dc:description")

    def test_neither_is_configuration_error(self):
        records = [Record("r", "p", {"dc:subject": ("s",)})]
        with pytest.raises(ConfigurationError):
            default_mask_for(records)


class TestRunHierarchy:
    def test_empty_corpus(self):
        run = run_hierarchy([], None, EngineConfig(seed=1))
        assert run.forest == []
        assert all(result.clusters == () for result in run.results.values())

    def test_degenerate_flow_when_nothing_clusters_at_80(self):
        records = random_corpus(80, seed=3)
        run = run_hierarchy(records, None, EngineConfig(seed=3), levels=(80, 60))
        stats = {s.level: s for s in run.level_stats}
        assert stats[80].cluster_count == 0
        assert stats[60].input_count == len(records)

    def test_forest_levels_and_children_population(self):
        records = hierarchical_corpus(n_works=10, seed=5, noise_records=10)
        run = run_hierarchy(records, None, EngineConfig(seed=5))
        by_level = {}
        for node in run.forest:
            by_level.setdefault(node.level, []).append(node)
        assert set(by_level) <= {80, 60, 40, 20}
        # children of level-80 nodes are original record ids only
        original_ids = {r.id for r in records}
        for node in by_level.get(80, []):
            assert all(child in original_ids for child in node.children)
        # children of a lower node come from the adjacent higher level's
        # output population: its artificial records plus its unclustered set
        # (which may carry entities through from even higher levels).
        population = set(original_ids)
        for level in (80, 60, 40, 20):
            if level not in run.results:
                continue
            for node in by_level.get(level, []):
                assert set(node.children) <= population
            result = run.results[level]
            population = {
                node.artificial_record_id
                for node in by_level.get(level, [])
                if node.artificial_record_id
            } | set(result.unclustered)

    def test_editions_merge_into_lower_level_node(self):
        records = hierarchical_corpus(
            n_works=6, editions_per_work=2, volumes_per_edition=4, seed=8, duplicate_share=0.0
        )
        run = run_hierarchy(records, None, EngineConfig(seed=8))
        index = forest_index(run.forest)
        merged = [
            node
            for node in run.forest
            if node.level < 80
            and sum(1 for child in node.children if child in index and index[child].level == 80) >= 2
        ]
        assert merged, "no lower-level node joined two level-80 clusters"

    def test_level_100_results_kept_out_of_chain(self):
        records = hierarchical_corpus(n_works=8, seed=9, duplicate_share=0.3)
        run = run_hierarchy(records, None, EngineConfig(seed=9))
        assert run.results[100].clusters  # duplicates exist
        assert run.duplicate_artificials
        chain_children = {c for node in run.forest for c in node.children}
        for cluster in run.results[100].clusters:
            assert cluster.id not in chain_children

    def test_monotone_population_shrinkage(self):
        records = hierarchical_corpus(n_works=12, seed=10, noise_records=25)
        run = run_hierarchy(records, None, EngineConfig(seed=10))
        stats = {s.level: s for s in run.level_stats}
        assert stats[60].input_count >= stats[40].input_count >= stats[20].input_count

    def test_conservation_and_refinement(self):
        records = hierarchical_corpus(n_works=10, seed=11, noise_records=15)
        run = run_hierarchy(records, None, EngineConfig(seed=11))
        original_ids = {r.id for r in records}
        index = forest_index(run.forest)
        covered = set()
        for root in forest_roots(run.forest):
            expansion = expand(root, index, original_ids)
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
                    "p",
                    {"dc:title": ("shared family title words here",), "dc:description": (noise_a,)},
                )
            )
            records.append(
                Record(
                    f"b{i}",
                    "p",
                    {"dc:title": ("shared family title words here",), "dc:description": (noise_b,)},
                )
            )
        masks = {"p": FieldMask.of("dc:title")}
        run = run_hierarchy(records, masks, EngineConfig(seed=12), levels=(80,))
        assert len(run.results[80].clusters) == 1
        assert run.results[80].clusters[0].size == 12

    def test_original_without_title_or_description_rejected(self):
        records = [Record("r", "p", {"dc:subject": ("s",)})]
        with pytest.raises(ConfigurationError):
            run_hierarchy(records, None, EngineConfig(seed=1))

    def test_unpaired_surrogate_is_configuration_error_before_any_level(self, monkeypatch):
        def no_level(*args, **kwargs):
            raise AssertionError("a level ran before the corpus was checked")

        monkeypatch.setattr(hierarchy, "cluster_level", no_level)
        records = [
            Record("ok", "p", {"dc:title": ("fine",)}),
            Record("a", "p", {"dc:title": ("x\ud800y",)}),
        ]
        with pytest.raises(ConfigurationError, match="record 'a'"):
            run_hierarchy(records, None, EngineConfig(seed=1))

    def test_duplicate_ids_rejected(self):
        record = Record("r", "p", {"dc:title": ("t",)})
        with pytest.raises(ConfigurationError):
            run_hierarchy([record, record], None, EngineConfig(seed=1))

    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigurationError):
            run_hierarchy([], None, EngineConfig(seed=1), levels=(90,))

    def test_artificial_records_exported_for_chain(self):
        records, _ = family_corpus(4, 6, seed=13)
        run = run_hierarchy(records, None, EngineConfig(seed=13), levels=(80, 60))
        for node in run.forest:
            if node.level == 80 and node.artificial_record_id:
                artificial = run.artificials[node.artificial_record_id]
                assert artificial.kind == "artificial"
                assert artificial.provenance == node.children


class TestExpand:
    def test_leaf_cluster_expands_to_head_and_members(self):
        node = HierarchyNode("c1", 80, "h", ("h", "m1", "m2"))
        assert expand(node, {}, {"h", "m1", "m2"}) == {"h", "m1", "m2"}

    def test_two_child_clusters(self):
        leaf_a = HierarchyNode("a", 80, "h1", ("h1", "x1", "x2"))
        leaf_b = HierarchyNode("b", 80, "h2", ("h2", "y1", "y2", "y3"))
        top = HierarchyNode("t", 60, "a", ("a", "b"))
        index = {"a": leaf_a, "b": leaf_b}
        originals = {"h1", "x1", "x2", "h2", "y1", "y2", "y3"}
        assert expand(top, index, originals) == originals

    def test_dangling_child_is_integrity_error(self):
        node = HierarchyNode("c1", 80, "h", ("h", "ghost"))
        with pytest.raises(IntegrityError):
            expand(node, {}, {"h"})

    def test_overlapping_children_are_integrity_error(self):
        leaf = HierarchyNode("a", 80, "h1", ("h1", "x1"))
        top = HierarchyNode("t", 60, "a", ("a", "x1"))
        with pytest.raises(IntegrityError, match="overlap"):
            expand(top, {"a": leaf}, {"h1", "x1"})


class TestVerify:
    def test_tampered_forest_detected(self):
        records, _ = duplicate_pairs_corpus(6, 10, seed=14)
        run = run_hierarchy(records, None, EngineConfig(seed=14), levels=(80, 60))
        node = next((n for n in run.forest if n.level == 80), None)
        if node is None:
            pytest.skip("corpus produced no level-80 clusters")
        bad = HierarchyNode(node.cluster_id, node.level, node.head, node.children + ("ghost",))
        run.forest[run.forest.index(node)] = bad
        with pytest.raises(IntegrityError):
            verify_run(run, {r.id for r in records})

import json
import math
import random
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from metacluster import clusterer
from metacluster.clusterer import (
    FieldRows,
    LevelBanding,
    _drain,
    _process_group,
    assign_to_heads,
    band_signatures,
    cluster_level,
    level_inputs,
    select_heads,
    validate_candidate,
)
from metacluster.config import EngineConfig
from metacluster.errors import ConfigurationError
from metacluster.hashing import derive_seed
from metacluster.minhash import SENTINEL, SignatureComputer, assemble
from metacluster.records import Record, selected_values, tokenize
from metacluster.similarity import CONCAT_SEP, Compression, SimilarityContext
from metacluster.synthetic import (
    duplicate_pairs_corpus,
    family_corpus,
    ga_provider_corpus,
    random_corpus,
)

import numpy as np

from reference_impl import reference_cluster_level


def stub_sim(table, default=0.0):
    def sim(a, b):
        if a == b:
            return 1.0
        return table.get((a, b), table.get((b, a), default))

    return sim


def run_level(records, level, config, mask_for=None):
    by_id = {r.id: r for r in records}
    ids = sorted(by_id)
    banding, ctx = level_inputs(by_id, ids, level, config, mask_for=mask_for)
    return cluster_level(level, ctx.similarity, banding, config), ctx


def manual_banding(groups_spec):
    """Banding where records listed together share one synthetic band key."""
    ids = sorted(rid for group in groups_spec for rid in group)
    index = {rid: i for i, rid in enumerate(ids)}
    keys = np.zeros((len(ids), 4), dtype=np.uint64)
    # distinct defaults so nothing collides accidentally
    for i in range(len(ids)):
        for b in range(4):
            keys[i, b] = 1000 + 10 * i + b
    for g, group in enumerate(groups_spec):
        for rid in group:
            keys[index[rid], 0] = g + 1
    return LevelBanding(ids, keys, np.zeros(len(ids), dtype=bool))


class TestSelectHeads:
    def test_single_record_is_sole_head(self):
        rng = random.Random(0)
        assert select_heads(["only"], 0.8, rng, stub_sim({})) == ["only"]

    def test_identical_records_one_head(self):
        ids = [f"r{i}" for i in range(12)]
        sim = stub_sim({}, default=1.0)  # everyone identical
        for seed in range(5):
            heads = select_heads(ids, 0.8, random.Random(seed), sim)
            assert len(heads) == 1

    def test_head_cap_at_ten(self):
        ids = [f"r{i:02d}" for i in range(25)]
        sim = stub_sim({}, default=0.0)  # everyone dissimilar
        heads = select_heads(ids, 0.8, random.Random(1), sim)
        assert len(heads) == 10

    def test_heads_pairwise_below_threshold(self):
        records, _ = family_corpus(4, 6, seed=2)
        by_id = {r.id: r for r in records}
        from metacluster.similarity import SimilarityContext

        ctx = SimilarityContext(by_id)
        heads = select_heads(sorted(by_id), 0.8, random.Random(3), ctx.similarity)
        for i, a in enumerate(heads):
            for b in heads[i + 1 :]:
                assert ctx.similarity(a, b) < 0.8

    def test_three_separated_families_give_three_heads(self):
        # Families constructed with within-family sim > 0.8 and cross < 0.3,
        # verified against the brute-force similarity matrix.
        records, families = family_corpus(3, 10, seed=6)
        by_id = {r.id: r for r in records}
        from metacluster.similarity import SimilarityContext

        ctx = SimilarityContext(by_id)
        ids = sorted(by_id)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                s = ctx.similarity(a, b)
                if families[a] == families[b]:
                    assert s > 0.8
                else:
                    assert s < 0.3
        hits = 0
        for seed in range(10):
            heads = select_heads(ids, 0.8, random.Random(seed), ctx.similarity)
            if len(heads) == 3 and len({families[h] for h in heads}) == 3:
                hits += 1
        assert hits >= 9


class TestAssign:
    def test_single_head_takes_all(self):
        candidates = assign_to_heads(["a", "b", "c"], ["b"], stub_sim({}))
        assert candidates == [("b", ("a", "c"))]

    def test_tie_goes_to_smallest_head_id(self):
        sim = stub_sim({("h1", "x"): 0.7, ("h2", "x"): 0.7})
        candidates = assign_to_heads(["h1", "h2", "x"], ["h2", "h1"], sim)
        by_head = dict(candidates)
        assert by_head == {"h1": ("x",), "h2": ()}

    def test_families_join_their_heads(self):
        records, families = family_corpus(3, 8, seed=6)
        by_id = {r.id: r for r in records}
        from metacluster.similarity import SimilarityContext

        ctx = SimilarityContext(by_id)
        ids = sorted(by_id)
        heads = select_heads(ids, 0.8, random.Random(0), ctx.similarity)
        assert len(heads) == 3
        candidates = assign_to_heads(ids, heads, ctx.similarity)
        # oracle: argmax over the brute-force similarity matrix
        for head, members in candidates:
            for member in members:
                sims = {h: ctx.similarity(h, member) for h in heads}
                best = max(sims.values())
                winners = sorted(h for h, s in sims.items() if s == best)
                assert head == winners[0]
                assert families[member] == families[head]


class TestValidate:
    def test_identical_members_accepted(self):
        sim = stub_sim({}, default=1.0)
        ok, mean = validate_candidate("h", ("a", "b"), 0.8, sim)
        assert ok and mean == 1.0

    def test_single_low_member_rejected(self):
        sim = stub_sim({("h", "m"): 0.5})
        ok, mean = validate_candidate("h", ("m",), 0.8, sim)
        assert not ok and mean == 0.5

    def test_boundary_mean_accepted(self):
        sim = stub_sim({("h", "a"): 0.8, ("h", "b"): 0.8})
        ok, mean = validate_candidate("h", ("a", "b"), 0.8, sim)
        assert ok and mean == pytest.approx(0.8)

    def test_empty_members_never_accepted(self):
        ok, mean = validate_candidate("h", (), 0.8, stub_sim({}))
        assert not ok and mean == 0.0


class TestClusterLevel:
    def test_exact_duplicate_groups(self):
        records, pairs = duplicate_pairs_corpus(20, 0, seed=3)
        config = EngineConfig(seed=5)
        result, ctx = run_level(records, 100, config)
        # oracle: group records by byte-identical serialization
        by_payload = defaultdict(set)
        for record in records:
            by_payload[ctx.payload(record.id)].add(record.id)
        expected = sorted(tuple(sorted(g)) for g in by_payload.values() if len(g) > 1)
        got = sorted(tuple(sorted(c.record_ids())) for c in result.clusters)
        assert got == expected
        assert len(result.clusters) == 20
        assert result.iterations_used == 1
        clustered = {rid for cluster in result.clusters for rid in cluster.record_ids()}
        for a, b in pairs:
            assert a in clustered and b in clustered

    def test_all_distinct_random_corpus(self):
        records = random_corpus(300, seed=9)
        config = EngineConfig(seed=9)
        result, ctx = run_level(records, 100, config)
        assert result.clusters == ()
        assert len(result.unclustered) == len(records)
        # oracle: sample pairs, none reach the level-100 threshold
        rng = random.Random(1)
        ids = [r.id for r in records]
        for _ in range(300):
            x, y = rng.sample(ids, 2)
            assert ctx.similarity(x, y) < 1.0

    def test_families_cluster_at_level_80(self):
        records, families = family_corpus(6, 8, seed=10)
        config = EngineConfig(seed=10)
        result, _ = run_level(records, 80, config)
        assert result.clusters
        for cluster in result.clusters:
            labels = {families[rid] for rid in cluster.record_ids()}
            assert len(labels) == 1  # clusters never mix families

    def test_partition_and_mean_invariants(self):
        records, _ = duplicate_pairs_corpus(10, 30, seed=4)
        more, _ = family_corpus(3, 7, seed=5, id_prefix="ff")
        records = records + more
        config = EngineConfig(seed=6)
        for level in (100, 80, 60):
            result, ctx = run_level(records, level, config)
            placed = list(result.unclustered)
            for cluster in result.clusters:
                placed.extend(cluster.record_ids())
                # post-hoc re-verification with fresh similarity computations
                direct = [m for m in cluster.members if m not in cluster.transferred]
                mean = sum(ctx.similarity(cluster.head, m) for m in direct) / len(direct)
                assert mean == pytest.approx(cluster.mean_head_similarity, abs=1e-9)
                assert mean >= level / 100.0
            assert sorted(placed) == sorted(r.id for r in records)

    def test_deterministic_across_runs(self):
        records, _ = family_corpus(5, 9, seed=12)
        records += random_corpus(40, seed=12, provider="noise")
        config = EngineConfig(seed=13)
        a, _ = run_level(records, 80, config)
        b, _ = run_level(records, 80, config)
        assert a == b
        assert json.dumps([asdict(c) for c in a.clusters]) == json.dumps(
            [asdict(c) for c in b.clusters]
        )

    def test_seed_changes_head_choice(self):
        records, _ = family_corpus(5, 9, seed=12)
        a, _ = run_level(records, 80, EngineConfig(seed=1))
        b, _ = run_level(records, 80, EngineConfig(seed=2))
        heads_a = sorted(c.head for c in a.clusters)
        heads_b = sorted(c.head for c in b.clusters)
        assert heads_a != heads_b  # random head selection is seed-driven

    def test_max_iter_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="max iterations"):
            EngineConfig(seed=1, max_iterations=0)

    def test_parallel_run_keeps_invariants(self):
        records, _ = duplicate_pairs_corpus(40, 80, seed=7)
        config = EngineConfig(seed=8)
        result, ctx = run_level(records, 100, config)
        placed = list(result.unclustered)
        for cluster in result.clusters:
            placed.extend(cluster.record_ids())
            assert cluster.mean_head_similarity >= 1.0
        assert sorted(placed) == sorted(r.id for r in records)
        assert len(result.clusters) == 40

    def test_singleton_groups_stay_unclustered(self):
        records = random_corpus(4, seed=2)
        config = EngineConfig(seed=2)
        result, _ = run_level(records, 100, config)
        assert result.clusters == ()
        assert result.iterations_used == 0

    def test_carried_head_absorption_transfers_members(self):
        # Directional similarities (compression similarity is mildly
        # asymmetric): p and q both become heads when p is scanned first
        # (sim(p,q) below threshold) but a later iteration scanning q first
        # absorbs p (sim(q,p) above threshold), transferring p's members.
        table = {
            ("p", "q"): 0.79,
            ("q", "p"): 0.85,
            ("p", "pm"): 0.9,
            ("pm", "p"): 0.75,
            ("q", "qm"): 0.9,
            ("qm", "q"): 0.9,
            ("p", "qm"): 0.5,
            ("qm", "p"): 0.5,
            ("q", "pm"): 0.5,
            ("pm", "q"): 0.5,
            ("pm", "qm"): 0.1,
            ("qm", "pm"): 0.1,
        }

        def sim(a, b):
            return 1.0 if a == b else table[(a, b)]

        ids = ["p", "pm", "q", "qm"]
        banding = manual_banding([tuple(ids)])
        merged = []
        for seed in range(40):
            config = EngineConfig(seed=seed)
            result = cluster_level(80, sim, banding, config)
            placed = list(result.unclustered)
            for cluster in result.clusters:
                placed.extend(cluster.record_ids())
                if cluster.transferred:
                    merged.append((seed, cluster))
            assert sorted(placed) == sorted(ids)
        assert merged, "no seed in range exercised the head-absorption path"
        for _, cluster in merged:
            assert set(cluster.transferred) < set(cluster.members)
            assert cluster.head == "q"
            assert cluster.transferred == ("pm",)
            assert set(cluster.members) == {"p", "pm", "qm"}

    def test_band_match_all_mode(self):
        records, _ = duplicate_pairs_corpus(10, 20, seed=3)
        config = EngineConfig(seed=4, band_match="all")
        result, _ = run_level(records, 100, config)
        assert len(result.clusters) == 10


def row_store_corpus() -> list[Record]:
    """A GA provider sample where some records lack fields and ``dc:date``
    holds only numbers, so it tokenizes to nothing."""
    records = []
    base = ga_provider_corpus(n_records=24, n_families=3, seed=41, extra_fields=2)
    for i, record in enumerate(base):
        fields = dict(record.fields)
        if i % 3 == 0:
            del fields["dc:description"]
        if i % 4 == 1:
            del fields["dc:extra0"]
        if i % 2 == 0:
            fields["dc:date"] = ("1871", "2024")
        records.append(Record(record.id, fields))
    return records


ROW_RECORDS = row_store_corpus()
ROW_FIELDS = sorted({name for record in ROW_RECORDS for name in record.fields})
ROW_CONFIG = EngineConfig(seed=41)


@pytest.fixture(scope="module")
def row_store() -> FieldRows:
    return FieldRows(ROW_RECORDS, ROW_CONFIG)


def mask_matrix(rows: FieldRows, mask: frozenset) -> np.ndarray:
    """The population's signature matrix under ``mask``, from its blocks."""
    return assemble(rows.signatures(mask), rows.size, rows.count)


class TestFieldRows:
    @given(st.sets(st.sampled_from(ROW_FIELDS)))
    def test_store_matches_tokenizing_path(self, row_store, names):
        mask = frozenset(names)
        by_id = {r.id: r for r in ROW_RECORDS}
        ids = [r.id for r in ROW_RECORDS]
        computer = SignatureComputer(count=ROW_CONFIG.minhash_count, seed=ROW_CONFIG.seed)
        streams = (selected_values(by_id[rid], mask) for rid in ids)
        expected = assemble(computer.signatures(streams, tokenize), len(ids), ROW_CONFIG.minhash_count)
        blocks = list(row_store.signatures(mask))
        assert all(b.dtype == np.uint64 for _, _, b in blocks)
        got = mask_matrix(row_store, mask)
        assert np.array_equal(got, expected)
        banding = band_signatures(80, ids, blocks, ROW_CONFIG)
        reference, _ = level_inputs(by_id, ids, 80, ROW_CONFIG, mask_for=lambda record: mask)
        assert np.array_equal(banding.keys, reference.keys)
        assert np.array_equal(banding.empty, reference.empty)

    def test_numeric_only_and_missing_fields_give_sentinel(self, row_store):
        assert (mask_matrix(row_store, frozenset({"dc:date"})) == np.uint64(SENTINEL)).all()
        assert (mask_matrix(row_store, frozenset()) == np.uint64(SENTINEL)).all()
        lacking = [i for i, r in enumerate(ROW_RECORDS) if "dc:description" not in r.fields]
        sig = mask_matrix(row_store, frozenset({"dc:description"}))
        assert (sig[lacking] == np.uint64(SENTINEL)).all()
        assert not (np.delete(sig, lacking, axis=0) == np.uint64(SENTINEL)).any()

    def test_one_row_per_present_pair(self, row_store):
        assert row_store.rows.shape == (
            sum(len(r.fields) for r in ROW_RECORDS),
            ROW_CONFIG.minhash_count,
        )


def test_field_rows_mask_gathers_rows_a_block_at_a_time():
    # Every field selected: a mask's signatures must not copy the selected
    # pair rows whole (15.4 MB here).  numpy reports its allocations to
    # tracemalloc.
    rows = FieldRows(ga_provider_corpus(n_records=5000, seed=5), EngineConfig(seed=5))
    mask = frozenset(rows.fields)
    tracemalloc.start()
    try:
        mask_matrix(rows, mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows.rows.nbytes / 2


def test_second_level_over_seen_values_tokenizes_nothing(monkeypatch):
    # Level 80 over the same records under a title mask, then over copies
    # carrying only already-seen values, as artificial records do.
    records = ga_provider_corpus(n_records=40, n_families=4, seed=9, extra_fields=1)
    by_id = {r.id: r for r in records}
    ids = sorted(by_id)
    config = EngineConfig(seed=9)
    computer = SignatureComputer(count=config.minhash_count, seed=config.seed)
    calls: Counter = Counter()
    tokenize = clusterer.tokenize

    def counting(*values):
        calls.update(values)
        return tokenize(*values)

    monkeypatch.setattr(clusterer, "tokenize", counting)
    level_inputs(by_id, ids, 100, config, computer)
    assert calls == Counter({value: 1 for r in records for vs in r.fields.values() for value in vs})
    calls.clear()
    title = frozenset({"dc:title"})
    level_inputs(by_id, ids, 80, config, computer, mask_for=lambda record: title)
    copies = {f"c{i}": Record(f"c{i}", dict(r.fields)) for i, r in enumerate(records)}
    level_inputs(copies, sorted(copies), 60, config, computer)
    assert calls == Counter()


#: Exact thresholds are included on purpose: they reach the rounding corner.
SIM_VALUES = (0.0, 0.15, 0.2, 0.55, 0.6, 0.79, 0.8, 0.95, 1.0)
THRESHOLDS = st.sampled_from((0.2, 0.4, 0.6, 0.8, 1.0))


@st.composite
def group_with_sims(draw):
    """A candidate group and a directed similarity for every ordered pair."""
    n = draw(st.integers(2, 12))
    group = tuple(f"r{i:02d}" for i in range(n))
    values = st.one_of(st.sampled_from(SIM_VALUES), st.floats(0.0, 1.0))
    table = {(a, b): draw(values) for a in group for b in group if a != b}
    return group, table


def table_sim(table):
    return lambda x, y: 1.0 if x == y else table[(x, y)]


@st.composite
def disjoint_groups_with_sims(draw):
    """Pairwise disjoint candidate groups, as one iteration's band groups are,
    and a directed similarity for every ordered pair within a group."""
    groups, table = [], {}
    for k, (group, sims) in enumerate(draw(st.lists(group_with_sims(), min_size=1, max_size=4))):
        groups.append(tuple(f"g{k}{rid}" for rid in group))
        table.update({(f"g{k}{a}", f"g{k}{b}"): value for (a, b), value in sims.items()})
    return groups, table


class TestDrain:
    @given(disjoint_groups_with_sims(), THRESHOLDS, st.integers(0, 2**32), st.data())
    def test_order_of_work_does_not_change_result(self, spec, threshold, seed, data):
        # Each group draws from its own RNG and no tuple recurs within one
        # drain, so the stack gives the same clusters and visit counts
        # whatever order the groups come in, also after an earlier iteration.
        groups, table = spec
        sim = table_sim(table)
        prior: Counter = Counter()
        _drain(groups, threshold, sim, prior, seed, 80, 1)
        runs = []
        for work in (sorted(groups), data.draw(st.permutations(groups))):
            guard = Counter(prior)
            runs.append((_drain(list(work), threshold, sim, guard, seed, 80, 2), guard))
        assert runs[0] == runs[1]


@st.composite
def keyed_population(draw):
    """Sorted ids with band keys from few distinct values, so that components
    split as their linking records are absorbed, a sentinel flag each, and a
    symmetric similarity for every pair."""
    n = draw(st.integers(2, 16))
    ids = [f"r{i:02d}" for i in range(n)]
    key = st.integers(0, draw(st.integers(1, 3)))
    sentinel = st.sampled_from((False,) * 5 + (True,))
    keysets = {rid: (draw(st.tuples(key, key, key, key)), draw(sentinel)) for rid in ids}
    sims = {frozenset((a, b)): draw(st.sampled_from(SIM_VALUES)) for a in ids for b in ids if a < b}
    return ids, keysets, lambda x, y: 1.0 if x == y else sims[frozenset((x, y))]


@pytest.mark.parametrize(
    "ids,message", [(["a", "c", "b"], "'b' follows 'c'"), (["a", "b", "b"], "'b' follows 'b'")]
)
def test_band_signatures_refuses_ids_out_of_order(ids, message):
    # Carried row tuples map to sorted id tuples only when rows are in id order.
    blocks = [(0, 0, np.zeros((len(ids), ROW_CONFIG.minhash_count), dtype=np.uint64))]
    with pytest.raises(ValueError, match=message):
        band_signatures(80, ids, blocks, ROW_CONFIG)


class TestCarriedGroups:
    @given(
        keyed_population(),
        st.sampled_from((20, 40, 60, 80, 100)),
        st.integers(1, 5),
        st.sampled_from(("any", "all")),
        st.integers(0, 2**32),
    )
    def test_matches_oracle_regrouping_whole_population(self, population, level, max_iterations, mode, seed):
        # Later iterations regroup only the rest of the previous groups; the
        # oracle regroups every record still in the population.
        ids, keysets, sim = population
        keys = np.array([keysets[rid][0] for rid in ids], dtype=np.uint64)
        empty = np.array([keysets[rid][1] for rid in ids], dtype=bool)
        config = EngineConfig(seed=seed, max_iterations=max_iterations, band_match=mode)
        got = cluster_level(level, sim, LevelBanding(ids, keys, empty), config)
        assert got == reference_cluster_level(ids, level, sim, keysets, config)


class TestProcessGroup:
    @given(group_with_sims(), THRESHOLDS, st.integers(0, 2**32))
    def test_three_steps_composed_agree(self, spec, threshold, seed):
        group, table = spec
        sim = table_sim(table)
        got = _process_group(group, threshold, random.Random(seed), sim)

        heads = select_heads(group, threshold, random.Random(seed), sim)
        accepted, restack = [], []
        for head, members in assign_to_heads(group, heads, sim):
            if not members:
                continue
            ok, mean = validate_candidate(head, members, threshold, sim)
            if ok:
                accepted.append((head, members, mean))
            else:
                restack.append(tuple(sorted((head,) + members)))
        assert got == (accepted, restack)

    @given(group_with_sims(), THRESHOLDS, st.integers(0, 2**32))
    def test_restack_is_strict_subset(self, spec, threshold, seed):
        group, table = spec
        sim = table_sim(table)
        accepted, restack = _process_group(group, threshold, random.Random(seed), sim)
        parts = [set(r) for r in restack] + [{head, *members} for head, members, _ in accepted]
        assert all(part <= set(group) for part in parts)
        assert sum(map(len, parts)) == len(set().union(*parts))  # pairwise disjoint
        assert all(set(part) < set(group) for part in restack)

    def test_single_head_group_at_threshold_is_accepted(self):
        # Six members at exactly the threshold average to just below it in
        # floating point; the exact mean check still accepts the group whole.
        group = tuple(f"r{i}" for i in range(7))
        assert sum([0.2] * 6) / 6 < 0.2
        sim = stub_sim({}, default=0.2)
        [(head, members, _)], restack = _process_group(group, 0.2, random.Random(0), sim)
        assert restack == [] and members == tuple(sorted(set(group) - {head}))

    def test_visit_accepts_single_head_group_on_first_draw(self):
        # With r0 as head every member sits exactly at 0.2, and the float mean
        # rounds below the level-20 threshold; any other head sees 0.9.  The
        # group is accepted on its first draw, whichever head that draw puts
        # first.
        group = tuple(f"r{i}" for i in range(7))

        def sim(x, y):
            return 1.0 if x == y else (0.2 if x == "r0" else 0.9)

        banding = manual_banding([group])
        drew_r0 = 0
        for seed in range(60):
            order = sorted(group)
            random.Random(derive_seed(seed, "level", 20, 1, 0, *group)).shuffle(order)
            drew_r0 += order[0] == "r0"
            result = cluster_level(20, sim, banding, EngineConfig(seed=seed))
            [cluster] = result.clusters
            assert cluster.head == order[0]
            assert cluster.members == tuple(sorted(set(group) - {order[0]}))
            assert result.iterations_used == 1 and result.unclustered == ()
        assert drew_r0 > 0


class TestValidateCandidate:
    @given(
        st.lists(st.one_of(st.sampled_from(SIM_VALUES), st.floats(0.0, 1.0)), min_size=1, max_size=40),
        THRESHOLDS,
        st.integers(-2, 2),
    )
    @example([0.2] * 5, 0.2, 0)
    def test_mean_check_is_exact(self, sims, threshold, ulps):
        # Nudge one value a few ulps around the threshold, where float means round.
        sims = sims + [threshold]
        for _ in range(abs(ulps)):
            sims[-1] = min(1.0, max(0.0, math.nextafter(sims[-1], math.copysign(2.0, ulps))))
        members = tuple(f"m{i:02d}" for i in range(len(sims)))
        by_member = dict(zip(members, sims))
        ok, mean = validate_candidate("h", members, threshold, lambda _, m: by_member[m])
        assert ok == (sum(map(Fraction, sims)) >= len(sims) * Fraction(threshold))
        assert mean == sum(sims) / len(sims)

    def test_members_all_at_threshold_pass_and_one_ulp_below_fails(self):
        members = tuple(f"m{i}" for i in range(6))
        assert validate_candidate("h", members, 0.2, lambda *_: 0.2)[0]
        below = {m: 0.2 for m in members} | {"m5": math.nextafter(0.2, 0.0)}
        assert not validate_candidate("h", members, 0.2, lambda _, m: below[m])[0]


class TestSimilarityMemo:
    def test_each_ordered_pair_compressed_once_per_pass(self, monkeypatch):
        # One band group over twelve families: heads stay in the population,
        # so later iterations ask again for pairs earlier ones scored.
        records, _ = family_corpus(12, 5, seed=1)
        by_id = {r.id: r for r in records}
        ids = sorted(by_id)
        ctx = SimilarityContext(by_id)
        assert len({ctx.payload(rid) for rid in ids}) == len(ids)
        compressed: Counter = Counter()
        size = Compression.compressed_size

        def counting_size(self, data):
            compressed[data] += 1
            return size(self, data)

        monkeypatch.setattr(Compression, "compressed_size", counting_size)
        asked: Counter = Counter()

        def sim(x, y):
            asked[(x, y)] += 1
            return ctx.similarity(x, y)

        result = cluster_level(80, sim, manual_banding([ids]), EngineConfig(seed=1))
        assert result.iterations_used >= 3 and max(asked.values()) > 1
        assert max(compressed.values()) == 1
        pairs = {ctx.payload(x) + CONCAT_SEP + ctx.payload(y) for x, y in asked}
        alone = {ctx.payload(rid) for pair in asked for rid in pair}
        assert set(compressed) == pairs | alone

"""Iterative clustering of one candidate population at one similarity level.

The loop per level:

1. group the current population by band keys and put non-singleton groups on
   a stack (singletons cannot cluster and stay out);
2. pop a group, randomly pick up to 10 pairwise-dissimilar cluster heads,
   assign every other record to its closest head;
3. accept a candidate cluster iff the mean similarity between head and
   members reaches level/100, otherwise push the whole candidate set back on
   the stack to be divided further;
4. when the stack drains, absorbed members leave the population and the
   remaining records (cluster heads included) go through another iteration,
   until an iteration clusters nothing or the iteration cap is reached.

Heads that rejoin later iterations keep the clusters they accrued; when such
a head is itself absorbed as a member of a new cluster, its cluster dissolves
into the absorbing one (its former members become "transferred" members of
the new head, preserving the partition of the input).

RNG sequence contract (relied on by the reference implementation in the test
suite): every processed group gets its own ``random.Random`` seeded with
``derive_seed(seed, "level", level, iteration, visit, *group)``, where
``iteration`` counts from 1 within the level, ``group`` is the sorted id
tuple and ``visit`` is how often that exact tuple was processed before at
this level (0 or 1; a tuple seen twice is dissolved to unclustered).  The
group consumes exactly one ``rng.shuffle(sorted(group))`` call and nothing
else.  Groups in one wave are pairwise disjoint and each draws from its own
RNG, so the order a wave is processed in does not change the result.

A restack is a subset of the group it came from, and a strict one unless the
group had a single head: then every member reached the threshold against that
head, and only float rounding of the mean (``sum([0.2] * 6) / 6 < 0.2``) can
fail the candidate and restack the whole group.  ``visit`` separates two draws
only in that corner; otherwise a tuple recurs only in a later iteration, which
``iteration`` already separates.  It stays in the seed so the RNG contract and
outputs stay unchanged; dropping it is a contract change of its own.

Within one processed group, each ordered pair's similarity is computed at
most once (head selection, assignment and validation share a per-group memo),
so the memo is bounded by the group size and dropped with the group.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .config import EngineConfig
from .errors import ConfigurationError, IntegrityError
from .hashing import derive_seed, digest_hex
from .minhash import SENTINEL, SignatureComputer, band_key_matrix, group_ids
from .records import FieldMask, Record, tokenize
from .similarity import Compression, SimilarityContext

MAX_HEADS = 10

SimilarityFn = Callable[[str, str], float]


@dataclass(frozen=True, slots=True)
class Cluster:
    """An accepted cluster: head, members (head excluded) and validity stats.

    ``mean_head_similarity`` is the mean head-to-member similarity over the
    directly validated members, i.e. ``members`` minus ``transferred`` (the
    members inherited from absorbed heads, which were validated against their
    own former head at the same threshold).
    """

    id: str
    level: int
    head: str
    members: tuple[str, ...]
    mean_head_similarity: float
    transferred: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return 1 + len(self.members)

    def record_ids(self) -> tuple[str, ...]:
        return (self.head,) + self.members

    def direct_members(self) -> tuple[str, ...]:
        skip = set(self.transferred)
        return tuple(m for m in self.members if m not in skip)


@dataclass(frozen=True, slots=True)
class CandidateCluster:
    head: str
    members: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class LevelResult:
    """Outcome of one level pass: a partition of the input ids."""

    level: int
    clusters: tuple[Cluster, ...]
    unclustered: tuple[str, ...]
    iterations_used: int

    def clustered_ids(self) -> set[str]:
        out: set[str] = set()
        for cluster in self.clusters:
            out.add(cluster.head)
            out.update(cluster.members)
        return out


class LevelBanding:
    """Band keys for one population at one level, regroupable per iteration."""

    def __init__(self, level: int, ids: list[str], keys: np.ndarray, empty: np.ndarray):
        self.level = level
        self.ids = ids
        self.keys = keys
        self.empty = empty

    def groups(self, subset: set[str], mode: str = "any") -> list[tuple[str, ...]]:
        rows = [i for i, rid in enumerate(self.ids) if rid in subset]
        if not rows:
            return []
        sel = np.array(rows, dtype=np.intp)
        return group_ids([self.ids[i] for i in rows], self.keys[sel], self.empty[sel], mode=mode)


def sign_population(
    records: Mapping[str, Record],
    ids: list[str],
    computer: SignatureComputer,
    mask_for: Callable[[Record], FieldMask | None] | None = None,
) -> np.ndarray:
    """Tokenize and sign each record under its mask: one minhash row per id."""
    population = (records[rid] for rid in ids)
    return computer.signatures(
        tokenize(record, mask_for(record) if mask_for is not None else None) for record in population
    )


def band_signatures(
    level: int, ids: list[str], signatures: np.ndarray, config: EngineConfig
) -> LevelBanding:
    """Band a signature matrix for one level pass (hierarchy and GA alike)."""
    keys, empty = band_key_matrix(signatures, level, config.seed, config.group_sizes)
    return LevelBanding(level, ids, keys, empty)


class FieldRows:
    """Minhash rows of a fixed population, one per present (record, field) pair.

    The minhash of a union is the elementwise minimum of the parts' minhashes,
    so a record's signature under any field mask is the minimum over its
    selected rows, or the sentinel row when none is selected.  Each pair is
    tokenized once and all are signed in one batch, in record order; the
    signer's token vocabulary is dropped when the build returns.  Memory:
    pairs x ``minhash_count`` x 8 bytes.
    """

    def __init__(self, records: Sequence[Record], config: EngineConfig):
        self.fields = sorted({name for record in records for name in record.fields})
        self.count = config.minhash_count
        self.size = len(records)
        column = {name: f for f, name in enumerate(self.fields)}
        pairs = [(i, name) for i, record in enumerate(records) for name in sorted(record.fields)]
        self.record_index = np.fromiter((i for i, _ in pairs), dtype=np.intp, count=len(pairs))
        self.field_index = np.fromiter((column[name] for _, name in pairs), dtype=np.intp, count=len(pairs))
        computer = SignatureComputer(count=config.minhash_count, seed=config.seed)
        self.rows = computer.signatures(tokenize(records[i], FieldMask.of(name)) for i, name in pairs)

    def signatures(self, mask: FieldMask) -> np.ndarray:
        """Minhash matrix of the population under ``mask``, in record order."""
        selected = np.array([name in mask for name in self.fields], dtype=bool)
        keep = selected[self.field_index]
        owners = self.record_index[keep]
        out = np.full((self.size, self.count), SENTINEL, dtype=np.uint64)
        if len(owners):
            starts = np.flatnonzero(np.diff(owners, prepend=-1))
            out[owners[starts]] = np.minimum.reduceat(self.rows[keep], starts, axis=0)
        return out


def level_inputs(
    records: Mapping[str, Record],
    ids: Iterable[str],
    level: int,
    config: EngineConfig,
    computer: SignatureComputer | None = None,
    mask_for: Callable[[Record], FieldMask | None] | None = None,
) -> tuple[LevelBanding, SimilarityContext]:
    """Banding plus a compatible similarity context for one level pass."""
    id_list = list(ids)
    computer = computer or SignatureComputer(count=config.minhash_count, seed=config.seed)
    banding = band_signatures(level, id_list, sign_population(records, id_list, computer, mask_for), config)
    ctx = SimilarityContext(
        records,
        Compression(config.compressor, config.compression_level),
        mask_for=mask_for,
    )
    return banding, ctx


def select_heads(
    group: Iterable[str],
    threshold: float,
    rng: random.Random,
    sim: SimilarityFn,
    limit: int = MAX_HEADS,
) -> list[str]:
    """Scan the group in shuffled order; a record becomes a head iff it is
    below the threshold against every head chosen so far; stop at ``limit``."""
    order = sorted(group)
    rng.shuffle(order)
    heads: list[str] = []
    for rid in order:
        if all(sim(head, rid) < threshold for head in heads):
            heads.append(rid)
            if len(heads) >= limit:
                break
    return heads


def assign_to_heads(
    group: Iterable[str],
    heads: list[str],
    sim: SimilarityFn,
) -> list[CandidateCluster]:
    """Attach each non-head record to its most similar head; ties go to the
    smallest head id.  Returns one candidate per head, members possibly empty."""
    head_set = set(heads)
    members: dict[str, list[str]] = {head: [] for head in heads}
    heads_sorted = sorted(heads)
    for rid in sorted(group):
        if rid in head_set:
            continue
        best_head = heads_sorted[0]
        best_sim = -1.0
        for head in heads_sorted:
            s = sim(head, rid)
            if s > best_sim:
                best_head, best_sim = head, s
        members[best_head].append(rid)
    return [CandidateCluster(head, tuple(members[head])) for head in heads]


def validate_candidate(
    candidate: CandidateCluster,
    threshold: float,
    sim: SimilarityFn,
) -> tuple[bool, float]:
    """Step-6 rule: accept iff the mean head-to-member similarity reaches the
    threshold (boundary inclusive).  Empty-member candidates are never
    accepted; the caller leaves such heads unclustered without re-stacking."""
    if not candidate.members:
        return False, 0.0
    total = sum(sim(candidate.head, member) for member in candidate.members)
    mean = total / len(candidate.members)
    return mean >= threshold, mean


_Accepted = tuple[str, tuple[str, ...], float]  # head, members, event mean


def _process_group(
    group: tuple[str, ...],
    threshold: float,
    rng: random.Random,
    sim: SimilarityFn,
) -> tuple[list[_Accepted], list[tuple[str, ...]]]:
    memo: dict[tuple[str, str], float] = {}

    def once(x: str, y: str) -> float:
        value = memo.get((x, y))
        if value is None:
            value = memo[(x, y)] = sim(x, y)
        return value

    heads = select_heads(group, threshold, rng, once)
    accepted: list[_Accepted] = []
    restack: list[tuple[str, ...]] = []
    for candidate in assign_to_heads(group, heads, once):
        if not candidate.members:
            continue
        ok, mean = validate_candidate(candidate, threshold, once)
        if ok:
            accepted.append((candidate.head, candidate.members, mean))
        else:
            restack.append(tuple(sorted((candidate.head,) + candidate.members)))
    return accepted, restack


def _drain(
    work: list[tuple[str, ...]],
    threshold: float,
    sim: SimilarityFn,
    guard: Counter,
    seed: int,
    level: int,
    iteration: int,
) -> list[_Accepted]:
    """Process candidate groups in waves until none is restacked.

    Groups in one wave are pairwise disjoint (a restack is a subset of the
    group it came from) and each draws from its own RNG, so the result does
    not depend on the order they run in.
    """
    accepted: list[_Accepted] = []
    frontier = sorted(work)
    while frontier:
        restacks: list[tuple[str, ...]] = []
        for group in frontier:
            visit = guard[group]
            if visit >= 2:
                continue  # livelocked set: dissolve to unclustered
            guard[group] += 1
            rng = random.Random(derive_seed(seed, "level", level, iteration, visit, *group))
            got, restack = _process_group(group, threshold, rng, sim)
            accepted.extend(got)
            restacks.extend(restack)
        frontier = sorted(restacks)
    accepted.sort()
    return accepted


def cluster_level(
    input_ids: Iterable[str],
    level: int,
    sim: SimilarityFn,
    banding: LevelBanding,
    config: EngineConfig,
) -> LevelResult:
    """Run the full iterative loop at one level over one population."""
    if config.max_iterations < 1:
        raise ConfigurationError(f"max iterations must be >= 1, got {config.max_iterations}")
    threshold = level / 100.0
    population = set(input_ids)
    input_all = sorted(population)
    guard: Counter = Counter()

    direct: dict[str, list[str]] = {}
    inherited: dict[str, list[str]] = {}
    sim_sums: dict[str, float] = {}
    sim_counts: dict[str, int] = {}

    iterations = 0
    while iterations < config.max_iterations:
        groups = banding.groups(population, mode=config.band_match)
        work = [g for g in groups if len(g) >= 2]
        if not work:
            break
        iterations += 1
        accepted = _drain(work, threshold, sim, guard, config.seed, level, iterations)
        if not accepted:
            break
        for head, members, mean in accepted:
            entry = direct.setdefault(head, [])
            inherit = inherited.setdefault(head, [])
            sim_sums[head] = sim_sums.get(head, 0.0) + mean * len(members)
            sim_counts[head] = sim_counts.get(head, 0) + len(members)
            for member in members:
                entry.append(member)
                if member in direct:
                    inherit.extend(direct.pop(member))
                    inherit.extend(inherited.pop(member))
                    sim_sums.pop(member)
                    sim_counts.pop(member)
            population.difference_update(members)

    clusters = []
    for head in sorted(direct):
        members = tuple(sorted(direct[head] + inherited[head]))
        mean = sim_sums[head] / sim_counts[head]
        cid = f"L{level}-" + digest_hex("\x00".join((str(level), head) + members).encode("utf-8"))
        clusters.append(
            Cluster(
                id=cid,
                level=level,
                head=head,
                members=members,
                mean_head_similarity=mean,
                transferred=tuple(sorted(inherited[head])),
            )
        )
    unclustered = tuple(sorted(population - direct.keys()))
    result = LevelResult(
        level=level,
        clusters=tuple(clusters),
        unclustered=unclustered,
        iterations_used=iterations,
    )
    _check_partition(result, input_all)
    return result


def _check_partition(result: LevelResult, input_ids: list[str]) -> None:
    seen: list[str] = list(result.unclustered)
    for cluster in result.clusters:
        seen.append(cluster.head)
        seen.extend(cluster.members)
        if not cluster.members:
            raise IntegrityError(f"cluster {cluster.id} has no members")
        threshold = result.level / 100.0
        if cluster.mean_head_similarity < threshold - 1e-9:
            raise IntegrityError(
                f"cluster {cluster.id} mean head similarity "
                f"{cluster.mean_head_similarity:.4f} below {threshold}"
            )
    if sorted(seen) != input_ids:
        raise IntegrityError(
            f"level {result.level} output is not a partition of its input "
            f"({len(seen)} placements vs {len(input_ids)} inputs)"
        )

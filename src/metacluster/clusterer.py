"""Iterative clustering of one candidate population at one similarity level.

The loop per level:

1. group the current population by band keys and put non-singleton groups on
   a stack (singletons cannot cluster and stay out);
2. pop a group, randomly pick up to 10 pairwise-dissimilar cluster heads,
   assign every other record to its closest head;
3. accept a candidate cluster iff the mean similarity between head and
   members reaches level/100, otherwise push the whole candidate set back on
   the stack to be divided further;
4. when the stack drains, absorbed members leave and the rest of the
   iteration's groups (cluster heads included) is regrouped for another
   iteration, until an iteration clusters nothing or the cap is reached.

Regrouping only those records is exact: groups are the components of the
band-key graph on the population, an edge does not depend on who else is in
it, so a later, smaller population's components refine an earlier one's and
a singleton stays one.

Heads that rejoin later iterations keep the clusters they accrued; when such
a head is itself absorbed as a member of a new cluster, its cluster dissolves
into the absorbing one (its former members become "transferred" members of
the new head, preserving the partition of the input).

RNG sequence contract (relied on by the reference implementation in the test
suite): every processed group gets its own ``random.Random`` seeded with
``derive_seed(seed, "level", level, iteration, visit, *group)``, where
``iteration`` counts from 1 within the level, ``group`` is the sorted id
tuple and ``visit`` is how often that exact tuple was processed before at
this level (0 or 1; a third visit of a tuple is skipped, and its ids keep
what the earlier visits gave them: a head keeps its cluster).  The
group consumes exactly one ``rng.shuffle(sorted(group))`` call and nothing
else.  An iteration drains its groups off one stack: they are pairwise
disjoint, each draws from its own RNG and no tuple recurs within the drain
(see below), so the order they are processed in does not change the result.

A restack is a strict subset of the group it came from.  A group with a
single head cannot be restacked whole: every member reached the threshold
against that head, and the mean check is exact (a float mean such as
``sum([0.2] * 6) / 6`` may round below the threshold; the exact sum does
not).  So a tuple is processed at most once per iteration, and recurs only in
a later iteration, which ``iteration`` already separates; ``visit`` stays in
the seed so the RNG contract and outputs stay unchanged, and dropping it is a
contract change of its own.

Head selection, assignment and validation score pairs through the level's
``SimilarityContext``, which memoizes each ordered pair for the whole pass,
so a pair is compressed once however many groups, steps or iterations ask.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .config import BAND_COUNT, MINHASH_COUNT, EngineConfig
from .errors import IntegrityError
from .hashing import derive_seed, digest_hex
from .minhash import COLUMN_BLOCK, Block, SignatureComputer, band_key_matrix, band_positions, group_ids, segment_min
from .records import FieldMask, Record, selected_values, tokenize
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


@dataclass(frozen=True, slots=True)
class LevelResult:
    """Outcome of one level pass: a partition of the input ids."""

    level: int
    clusters: tuple[Cluster, ...]
    unclustered: tuple[str, ...]
    iterations_used: int

    @property
    def input_count(self) -> int:
        """Clustered plus unclustered ids: the partition covers the input."""
        return sum(c.size for c in self.clusters) + len(self.unclustered)


@dataclass(frozen=True, slots=True, eq=False)
class LevelBanding:
    """Band keys for one population at one level, one row per id in strictly
    increasing id order, so a sorted row tuple maps to a sorted id tuple."""

    ids: list[str]
    keys: np.ndarray
    empty: np.ndarray

    def groups(self, rows: list[int]) -> list[tuple[int, ...]]:
        """The candidate groups of two or more among ``rows``, as sorted row tuples."""
        return [g for g in group_ids(rows, self.keys[rows], self.empty[rows]) if len(g) >= 2]


def band_signatures(level: int, ids: list[str], blocks: Iterable[Block], config: EngineConfig) -> LevelBanding:
    """Band keys of signature blocks over ids in strictly increasing order,
    for one level pass (hierarchy and GA alike).  The band positions are
    drawn once; keys start at zero and each block XORs in its band positions,
    so a block is dropped once banded and no row need be whole at once."""
    for prev, rid in pairwise(ids):
        if rid <= prev:
            raise ValueError(f"ids must be strictly increasing: {rid!r} follows {prev!r}")
    keys = np.zeros((len(ids), BAND_COUNT), dtype=np.uint64)
    empty = np.ones(len(ids), dtype=bool)
    positions = band_positions(level, config.seed)
    for start, column, block in blocks:
        rows = slice(start, start + len(block))
        part, sentinel = band_key_matrix(block, column, positions)
        keys[rows] ^= part
        empty[rows] &= sentinel
    return LevelBanding(ids, keys, empty)


class FieldRows:
    """Minhash rows of a fixed population, one per present (record, field) pair.

    The minhash of a union is the elementwise minimum of the parts' minhashes,
    so a record's signature under any field mask is the minimum over its
    selected rows, or the sentinel row when none is selected.  Each pair's row
    is the minimum over its field's value rows in a ``SignatureComputer``
    store, which tokenizes each distinct value once: the given computer's,
    which keeps the value rows for later signing, or else a new one dropped
    when the build returns.  Memory: pairs x ``MINHASH_COUNT`` x 8 bytes;
    a mask's signatures gather the selected rows a block at a time into
    records x ``COLUMN_BLOCK`` x 8 bytes.
    """

    def __init__(
        self, records: Sequence[Record], config: EngineConfig, computer: SignatureComputer | None = None
    ):
        self.fields = sorted({name for record in records for name in record.fields})
        self.size = len(records)
        column = {name: f for f, name in enumerate(self.fields)}
        pairs = [(i, name) for i, record in enumerate(records) for name in sorted(record.fields)]
        self.record_index = np.fromiter((i for i, _ in pairs), dtype=np.intp, count=len(pairs))
        self.field_index = np.fromiter((column[name] for _, name in pairs), dtype=np.intp, count=len(pairs))
        computer = computer or SignatureComputer(seed=config.seed)
        self.rows = computer.signature_matrix([records[i].fields[name] for i, name in pairs], tokenize)

    def signatures(self, mask: FieldMask) -> Iterator[Block]:
        """Minhash rows of the population under ``mask``, in record order, a
        block of ``COLUMN_BLOCK`` positions of every record at a time."""
        selected = np.array([name in mask for name in self.fields], dtype=bool)
        chosen = np.flatnonzero(selected[self.field_index])
        lengths = np.bincount(self.record_index[chosen], minlength=self.size)
        for column in range(0, MINHASH_COUNT, COLUMN_BLOCK):
            out = np.empty((self.size, min(COLUMN_BLOCK, MINHASH_COUNT - column)), dtype=np.uint64)
            columns = slice(column, column + out.shape[1])
            segment_min(lengths, lambda a, b: self.rows[chosen[a:b], columns], out)
            yield 0, column, out


def level_inputs(
    records: Mapping[str, Record],
    ids: list[str],
    level: int,
    config: EngineConfig,
    computer: SignatureComputer | None = None,
    mask_for: Callable[[Record], FieldMask | None] | None = None,
    keep: bool = True,
) -> tuple[LevelBanding, SimilarityContext]:
    """Banding plus a compatible similarity context for one level pass.  Each
    record is signed from the values its mask selects; values new to
    ``computer``'s store are tokenized once, and kept only when ``keep``."""
    computer = computer or SignatureComputer(seed=config.seed)
    population = map(records.__getitem__, ids)
    streams = (selected_values(r, mask_for(r) if mask_for is not None else None) for r in population)
    banding = band_signatures(level, ids, computer.signatures(streams, tokenize, keep), config)
    compression = Compression(config.compressor, config.compression_level)
    return banding, SimilarityContext(records, compression, mask_for)


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
) -> list[tuple[str, tuple[str, ...]]]:
    """Attach each non-head record to its most similar head; ties go to the
    smallest head id.  Returns one (head, members) candidate per head,
    members possibly empty."""
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
    return [(head, tuple(members[head])) for head in heads]


def validate_candidate(
    head: str,
    members: tuple[str, ...],
    threshold: float,
    sim: SimilarityFn,
) -> tuple[bool, float]:
    """Step-6 rule: accept iff the mean head-to-member similarity reaches the
    threshold (boundary inclusive).  Empty-member candidates are never
    accepted; the caller leaves such heads unclustered without re-stacking.

    The rule is exact: the similarities' exact sum must reach
    ``len(members) * threshold``, so members that each reach the threshold
    always pass, where the float mean may round below it
    (``sum([0.2] * 6) / 6 < 0.2``).  ``math.fsum`` rounds the exact value of
    the sum minus n thresholds correctly, so its sign is exact."""
    if not members:
        return False, 0.0
    sims = [sim(head, member) for member in members]
    ok = math.fsum(sims + [-threshold] * len(sims)) >= 0.0
    return ok, sum(sims) / len(sims)


_Accepted = tuple[str, tuple[str, ...], float]  # head, members, event mean


@dataclass(slots=True)
class _OpenCluster:
    """A head's cluster while its level runs: ``direct`` members were
    validated against the head (one similarity each, summed in ``sim_sum``),
    ``inherited`` ones came from heads it absorbed."""

    direct: list[str] = field(default_factory=list)
    inherited: list[str] = field(default_factory=list)
    sim_sum: float = 0.0


def _process_group(
    group: tuple[str, ...],
    threshold: float,
    rng: random.Random,
    sim: SimilarityFn,
) -> tuple[list[_Accepted], list[tuple[str, ...]]]:
    heads = select_heads(group, threshold, rng, sim)
    accepted: list[_Accepted] = []
    restack: list[tuple[str, ...]] = []
    for head, members in assign_to_heads(group, heads, sim):
        if not members:
            continue
        ok, mean = validate_candidate(head, members, threshold, sim)
        if ok:
            accepted.append((head, members, mean))
        else:
            restack.append(tuple(sorted((head,) + members)))
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
    """Process one iteration's candidate groups off one stack, pushing each
    group's restacks back on, until the stack is empty.  No tuple recurs in
    one drain, and the order of ``work`` does not matter (see the module
    docstring), so ``guard`` counts only earlier iterations."""
    accepted: list[_Accepted] = []
    stack = list(work)
    while stack:
        group = stack.pop()
        visit = guard[group]
        if visit >= 2:
            continue  # livelocked set: skipped, its ids keep what earlier visits gave them
        guard[group] += 1
        rng = random.Random(derive_seed(seed, "level", level, iteration, visit, *group))
        got, restack = _process_group(group, threshold, rng, sim)
        accepted.extend(got)
        stack.extend(restack)
    accepted.sort()
    return accepted


def cluster_level(level: int, sim: SimilarityFn, banding: LevelBanding, config: EngineConfig) -> LevelResult:
    """Run the full iterative loop at one level over the banding's population."""
    ids = banding.ids
    guard: Counter = Counter()
    open_clusters: dict[str, _OpenCluster] = {}
    rows = list(range(len(ids)))
    iterations = 0
    while rows and iterations < config.max_iterations:
        work = banding.groups(rows)
        if not work:
            break
        iterations += 1
        groups = [tuple(map(ids.__getitem__, g)) for g in work]
        accepted = _drain(groups, level / 100.0, sim, guard, config.seed, level, iterations)
        if not accepted:
            break
        for head, members, mean in accepted:
            entry = open_clusters.setdefault(head, _OpenCluster())
            entry.sim_sum += mean * len(members)
            entry.direct.extend(members)
            for member in members:
                former = open_clusters.pop(member, None)
                if former is not None:
                    entry.inherited += former.direct + former.inherited
        absorbed = {member for _, members, _ in accepted for member in members}
        rows = [row for g in work for row in g if ids[row] not in absorbed]

    clusters = []
    for head, entry in sorted(open_clusters.items()):
        members = tuple(sorted(entry.direct + entry.inherited))
        mean = entry.sim_sum / len(entry.direct)
        cid = f"L{level}-" + digest_hex("\x00".join((str(level), head) + members).encode("utf-8"))
        clusters.append(Cluster(cid, level, head, members, mean, transferred=tuple(sorted(entry.inherited))))
    placed = {rid for cluster in clusters for rid in cluster.record_ids()}
    unclustered = tuple(rid for rid in ids if rid not in placed)
    result = LevelResult(level, tuple(clusters), unclustered, iterations_used=iterations)
    check_partition(result, ids)
    return result


def check_partition(result: LevelResult, input_ids: list[str]) -> None:
    """Every input id placed once, and every cluster non-empty, with a mean
    between its level's threshold and 1 (similarities are clamped to [0, 1])
    and its transferred ids among its members."""
    seen: list[str] = list(result.unclustered)
    for cluster in result.clusters:
        seen.append(cluster.head)
        seen.extend(cluster.members)
        if not cluster.members:
            raise IntegrityError(f"cluster {cluster.id} has no members")
        threshold = result.level / 100.0
        if not threshold - 1e-9 <= cluster.mean_head_similarity <= 1.0:  # NaN fails too
            raise IntegrityError(
                f"cluster {cluster.id} mean head similarity "
                f"{cluster.mean_head_similarity:.4f} outside [{threshold}, 1]"
            )
        if not set(cluster.members).issuperset(cluster.transferred):
            raise IntegrityError(f"cluster {cluster.id} transfers ids that are not its members")
    if sorted(seen) != input_ids:
        stray = sorted({rid for rid, _ in Counter(seen).items() ^ Counter(input_ids).items()})[:3]
        raise IntegrityError(
            f"level {result.level} output is not a partition of its input "
            f"({len(seen)} placements vs {len(input_ids)} inputs; miscounted ids {stray})"
        )

"""Straight-line reference of minhash rows, band keys and the iterative
level-clustering loop.

Written independently of the production code as plain loops over Python ints:
a minhash row is, per key of the family, the minimum over the record's
shingles of splitmix64(blake2b(shingle) ^ key) masked to 64 bits (the key
family is drawn the way ``SignatureComputer`` draws it); band keys XOR each
band's signature positions (only ``band_positions``, ``selected_values`` and
``tokenize`` come from production, and ``tokenize`` runs on whole records);
candidate groups come from a bucket adjacency + BFS connected components (no
label propagation), head selection, assignment and validation are inlined
(validation always compares the exact rational sum with n * threshold),
and each level's groups are drained off one depth-first stack, as in
production.  It follows the same RNG sequence contract (one Random per
processed group, seeded from the level, iteration, visit count and the
group's ids; one shuffle per processed group), so for a fixed seed the two
must produce byte-identical results.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from metacluster.clusterer import Cluster, LevelResult
from metacluster.config import MINHASH_COUNT, EngineConfig
from metacluster.hashing import derive_seed, digest_hex
from metacluster.minhash import band_positions
from metacluster.records import selected_values, tokenize

MAX_HEADS = 10
MASK64 = (1 << 64) - 1
SENTINEL = MASK64

#: A record's band keys at one level, and whether its signature is the
#: sentinel (such a record never groups).
KeySet = tuple[tuple[int, ...], bool]


def reference_draws(entropy: int, count: int) -> list[int]:
    """``count`` full-range uint64 draws of numpy's ``default_rng(entropy)``."""
    rng = np.random.default_rng(entropy)
    return [int(key) for key in rng.integers(0, 2**64, size=count, dtype=np.uint64)]


def reference_keys(count: int, seed: int) -> list[int]:
    """The minhash key family: ``count`` draws from the seed's numpy stream."""
    return reference_draws(derive_seed(seed, "minhash-family"), count)


def splitmix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_row(tokens: list[str], keys: list[int], seed: int) -> list[int]:
    """Minhash row of a token stream; all-sentinel when it has no shingles."""
    shingles = set()
    for token in tokens:
        if len(token) <= 8:
            shingles.add(token)
        else:
            shingles.update(token[i : i + 8] for i in range(len(token) - 7))
    shingles.discard("")
    key_bytes = seed.to_bytes(8, "big")
    hashes = [
        int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8, key=key_bytes).digest(), "big")
        for s in shingles
    ]
    return [min((splitmix64(h ^ key) for h in hashes), default=SENTINEL) for key in keys]


def reference_band_keys(row: list[int], positions: list[list[int]]) -> KeySet:
    """XOR the signature values at each band's positions into one key."""
    keys = []
    for group in positions:
        acc = 0
        for pos in group:
            acc ^= row[pos]
        keys.append(acc)
    return tuple(keys), all(value == SENTINEL for value in row)


def reference_keysets(records, ids, level: int, config: EngineConfig) -> dict[str, KeySet]:
    """Band keys of each record over all its fields at one level."""
    keys = reference_keys(MINHASH_COUNT, config.seed)
    positions = band_positions(level, config.seed)
    return {
        rid: reference_band_keys(
            reference_row(tokenize(*selected_values(records[rid])), keys, config.seed), positions
        )
        for rid in ids
    }


def bucket_groups(keysets: dict[str, KeySet], population: set[str]) -> list[tuple[str, ...]]:
    ids = sorted(population)
    by_key: dict[tuple[int, int], list[str]] = {}
    adjacency: dict[str, set[str]] = {rid: set() for rid in ids}
    for rid in ids:
        keys, empty = keysets[rid]
        if empty:
            continue
        for band, key in enumerate(keys):
            by_key.setdefault((band, key), []).append(rid)
    for members in by_key.values():
        anchor = members[0]
        for other in members[1:]:
            adjacency[anchor].add(other)
            adjacency[other].add(anchor)

    groups: list[tuple[str, ...]] = []
    visited: set[str] = set()
    for rid in ids:
        if rid in visited:
            continue
        component = {rid}
        frontier = [rid]
        while frontier:
            current = frontier.pop()
            for neighbor in adjacency[current]:
                if neighbor not in component:
                    component.add(neighbor)
                    frontier.append(neighbor)
        visited |= component
        groups.append(tuple(sorted(component)))
    return sorted(groups)


def reference_cluster_level(
    input_ids,
    level: int,
    sim,
    keysets: dict[str, KeySet],
    config: EngineConfig,
) -> LevelResult:
    threshold = level / 100.0
    population = set(input_ids)
    guard: Counter = Counter()

    direct: dict[str, list[str]] = {}
    inherited: dict[str, list[str]] = {}
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}

    iterations = 0
    while iterations < config.max_iterations:
        work = [g for g in bucket_groups(keysets, population) if len(g) >= 2]
        if not work:
            break
        iterations += 1

        stack = sorted(work, reverse=True)
        accepted: list[tuple[str, tuple[str, ...], float]] = []
        while stack:
            group = stack.pop()
            visit = guard[group]
            if visit >= 2:
                continue
            guard[group] = visit + 1

            order = sorted(group)
            seed = derive_seed(config.seed, "level", level, iterations, visit, *order)
            random.Random(seed).shuffle(order)
            heads: list[str] = []
            for rid in order:
                if all(sim(head, rid) < threshold for head in heads):
                    heads.append(rid)
                    if len(heads) >= MAX_HEADS:
                        break

            heads_sorted = sorted(heads)
            assigned: dict[str, list[str]] = {head: [] for head in heads}
            for rid in sorted(group):
                if rid in assigned:
                    continue
                best, best_sim = heads_sorted[0], -1.0
                for head in heads_sorted:
                    s = sim(head, rid)
                    if s > best_sim:
                        best, best_sim = head, s
                assigned[best].append(rid)

            for head in heads:
                members = assigned[head]
                if not members:
                    continue
                sims = [sim(head, m) for m in members]
                mean = sum(sims) / len(sims)
                # Exact rule: the rational sum reaches n * threshold.
                if sum(Fraction(s) for s in sims) >= len(sims) * Fraction(threshold):
                    accepted.append((head, tuple(members), mean))
                else:
                    stack.append(tuple(sorted([head] + members)))

        if not accepted:
            break
        for head, members, mean in accepted:
            direct.setdefault(head, [])
            inherited.setdefault(head, [])
            sums[head] = sums.get(head, 0.0) + mean * len(members)
            counts[head] = counts.get(head, 0) + len(members)
            for member in members:
                direct[head].append(member)
                if member in direct:
                    inherited[head].extend(direct.pop(member))
                    inherited[head].extend(inherited.pop(member))
                    sums.pop(member)
                    counts.pop(member)
            population.difference_update(members)

    clusters = []
    for head in sorted(direct):
        members = tuple(sorted(direct[head] + inherited[head]))
        cid = f"L{level}-" + digest_hex("\x00".join((str(level), head) + members).encode("utf-8"))
        clusters.append(
            Cluster(
                id=cid,
                level=level,
                head=head,
                members=members,
                mean_head_similarity=sums[head] / counts[head],
                transferred=tuple(sorted(inherited[head])),
            )
        )
    return LevelResult(
        level=level,
        clusters=tuple(clusters),
        unclustered=tuple(sorted(population - direct.keys())),
        iterations_used=iterations,
    )

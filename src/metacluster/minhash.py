"""Minhash signatures over 8-character word shingles and XOR band keys.

Every record is reduced to ``minhash_count`` 64-bit minhashes over the union
of all shingles of all its tokens.  Per similarity level, a seeded permutation
picks 4 disjoint groups of signature positions; XOR-ing each group yields the
4 band keys that route records into candidate groups.  Records sharing a band
key (same band position, same value) become clustering candidates; candidate
groups are the connected components of that relation.
"""

from __future__ import annotations

import random

import numpy as np

from .config import BAND_COUNT, DEFAULT_GROUP_SIZES
from .hashing import MAX_U64, derive_seed, stable_hash64

SHINGLE_LENGTH = 8

#: Minhash value of an empty shingle union; such records never group.
SENTINEL = MAX_U64

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)

#: Distinct tokens whose minhash vector one SignatureComputer keeps.
TOKEN_CACHE_LIMIT = 1_000_000


def shingle(word: str) -> set[str]:
    """All contiguous 8-character substrings; words shorter than 8 shingle
    to themselves so short titles still discriminate."""
    if not word:
        return set()
    if len(word) < SHINGLE_LENGTH:
        return {word}
    return {word[i : i + SHINGLE_LENGTH] for i in range(len(word) - SHINGLE_LENGTH + 1)}


def _mix(values: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; uint64 arithmetic wraps modulo 2**64.
    z = values
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


class SignatureComputer:
    """Computes minhash signatures for token streams.

    The per-token minhash vector (the columnwise minimum over the token's
    shingles) is cached, because the minimum over a union of shingle sets is
    the elementwise minimum of the per-token vectors.  Corpus vocabularies
    repeat heavily, which makes this the dominant cost saver at scale.
    """

    def __init__(self, count: int = 64, seed: int = 0):
        self.count = count
        self.seed = seed
        rng = np.random.default_rng(derive_seed(seed, "minhash-family"))
        self._keys = rng.integers(0, 2**64, size=count, dtype=np.uint64)
        self._cache: dict[str, np.ndarray] = {}
        self._sentinel_row = np.full(count, SENTINEL, dtype=np.uint64)

    def _token_vector(self, token: str) -> np.ndarray:
        vec = self._cache.get(token)
        if vec is None:
            shingles = shingle(token)
            base = np.fromiter(
                (stable_hash64(s.encode("utf-8"), key=self.seed) for s in shingles),
                dtype=np.uint64,
                count=len(shingles),
            )
            vec = _mix(base[:, None] ^ self._keys[None, :]).min(axis=0)
            if len(self._cache) < TOKEN_CACHE_LIMIT:
                self._cache[token] = vec
        return vec

    def signature_vector(self, tokens: list[str]) -> np.ndarray:
        """Raw uint64 minhash row; sentinel row for an empty shingle union."""
        if not tokens:
            return self._sentinel_row
        vectors = [self._token_vector(t) for t in tokens]
        if len(vectors) == 1:
            return vectors[0]
        return np.minimum.reduce(vectors)


def band_positions(
    level: int,
    band_seed: int,
    count: int = 64,
    group_sizes: dict[int, int] | None = None,
) -> list[list[int]]:
    """Seeded choice of 4 disjoint position groups of g(level) each."""
    sizes = group_sizes or DEFAULT_GROUP_SIZES
    g = sizes[level]
    rng = random.Random(derive_seed(band_seed, "bands", level))
    chosen = rng.sample(range(count), g * BAND_COUNT)
    return [chosen[b * g : (b + 1) * g] for b in range(BAND_COUNT)]


def band_key_matrix(
    signatures: np.ndarray,
    level: int,
    band_seed: int,
    group_sizes: dict[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized band keys for a signature matrix.

    Returns ``(keys, empty)`` where keys is (N, 4) uint64 and empty marks
    sentinel rows.
    """
    positions = band_positions(level, band_seed, count=signatures.shape[1], group_sizes=group_sizes)
    keys = np.empty((signatures.shape[0], BAND_COUNT), dtype=np.uint64)
    for b, group in enumerate(positions):
        keys[:, b] = np.bitwise_xor.reduce(signatures[:, group], axis=1)
    empty = (signatures == np.uint64(SENTINEL)).all(axis=1)
    return keys, empty


class UnionFind:
    """Disjoint sets over arbitrary ids with min-id roots.

    Linking the larger root under the smaller makes the final component
    representatives independent of union order, which keeps candidate
    grouping deterministic under parallel key computation.
    """

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while x != root:
            x, parent[x] = parent.get(x, root), root
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        self.parent[hi] = lo

    def components(self, universe) -> dict:
        groups: dict = {}
        for x in universe:
            groups.setdefault(self.find(x), []).append(x)
        return groups


def group_ids(
    ids: list[str],
    keys: np.ndarray,
    empty: np.ndarray,
    mode: str = "any",
) -> list[tuple[str, ...]]:
    """Candidate groups from a band key matrix.

    ``any``: records sharing a key in any band position are connected and
    groups are the connected components.  ``all``: records group only on the
    exact 4-key tuple.  Sentinel (empty-signature) records are always
    singletons.  Output is a partition of ``ids``, each group sorted, groups
    sorted by first member.
    """
    groups: list[list[str]] = []
    if mode == "all":
        buckets: dict[tuple[int, ...], list[str]] = {}
        for i, rid in enumerate(ids):
            if empty[i]:
                groups.append([rid])
            else:
                buckets.setdefault(tuple(int(k) for k in keys[i]), []).append(rid)
        groups.extend(buckets.values())
    else:
        uf = UnionFind()
        first_owner: dict[tuple[int, int], str] = {}
        grouped: list[str] = []
        for i, rid in enumerate(ids):
            if empty[i]:
                groups.append([rid])
                continue
            grouped.append(rid)
            row = keys[i]
            for b in range(BAND_COUNT):
                bucket = (b, int(row[b]))
                owner = first_owner.get(bucket)
                if owner is None:
                    first_owner[bucket] = rid
                else:
                    uf.union(owner, rid)
        groups.extend(uf.components(grouped).values())
    return sorted(tuple(sorted(g)) for g in groups)

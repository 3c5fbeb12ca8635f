"""Minhash signatures over 8-character word shingles and XOR band keys.

Every record is reduced to ``MINHASH_COUNT`` (64) 64-bit minhashes over the
union of all shingles of all tokens of its selected field values.  The minhash
of a union is the elementwise minimum of the parts' minhashes, so a token's
row is the minimum over its shingles, a value's row the minimum over its
tokens' rows and a record's row the minimum over its values' rows, under any
field mask.  ``SignatureComputer`` keeps one row per distinct value: each new
value is tokenized once, and records are signed from their values' rows, a
block of records and of positions at a time.  Each position is a minhash of
its own (Broder 1997), so token rows are mixed ``COLUMN_BLOCK`` positions at a
time.  A call whose rows no later call reads (``keep=False``) builds no value
rows: each record's row is the minimum of its new values' token rows and its
known values' stored rows, and the store is emptied when the call ends.

Per similarity level, a seeded permutation picks 4 disjoint groups of
``GROUP_SIZES[level]`` signature positions; XOR-ing each group yields the 4
band keys that route records into candidate groups.  Records sharing any one
band key (same band position, same value) become clustering candidates;
candidate groups are the connected components of that relation.
"""

from __future__ import annotations

import random
from array import array
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .config import BAND_COUNT, GROUP_SIZES, MINHASH_COUNT
from .hashing import MAX_U64, derive_seed, keyed_hasher, minhash_keys

SHINGLE_LENGTH = 8

#: Minhash value of an empty shingle union; such records never group.
SENTINEL = MAX_U64

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)

#: Most distinct values one SignatureComputer's store holds; only one record
#: with more values than that takes it past.
STORE_LIMIT = 1_000_000

#: Records signed per block of ``count`` positions: ``signatures`` yields
#: their rows together, and a block's index arithmetic reads only its slice of
#: the batch, so neither a caller nor a pass holds arrays as long as the
#: population.  A block of ``COLUMN_BLOCK`` positions holds proportionally more
#: records.  On a 40k-record level-100 run, 256 rather than 1,024 lowered the
#: peak from 69.7 to 64.1 MB in the same signing time.
BLOCK_RECORDS = 1 << 8

#: Minhash positions mixed and signed at once: a batch holds its tokens' rows
#: for this many positions, never for all ``count``.  On a 40k-record level-100
#: run (2 vCPUs), 8 positions lowered the peak by a further 0.6 MB but signed
#: 8% slower, and 32 signed 7% faster but hold twice the token rows.
COLUMN_BLOCK = 16

#: uint64 values (64 KiB) materialised at once when mixing shingle hashes or
#: gathering token or value rows; one token, value or record longer than that
#: is one block.  Larger blocks are no faster and raise peak memory, because
#: the freed blocks and their temporaries stay on the heap.
BLOCK_VALUES = 1 << 13

#: Splits one field value into its word tokens.
Tokenizer = Callable[[str], list[str]]

#: Positions ``column`` onward of consecutive rows from ``start`` on, as
#: ``(start, column, rows)``: every signature producer yields these.
Block = tuple[int, int, np.ndarray]


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


def segment_min(lengths: np.ndarray, rows: Callable[[int, int], np.ndarray], out: np.ndarray) -> None:
    """Set ``out[k]`` to the elementwise minimum of segment k of a row source,
    where the segments are consecutive runs of ``lengths[k]`` rows; an empty
    segment gets the sentinel row.  ``rows(a, b)`` materialises source rows
    ``a:b``, whole segments and about ``BLOCK_VALUES`` values at a time."""
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out[lengths == 0] = SENTINEL
    step = max(1, BLOCK_VALUES // out.shape[1])
    k = 0
    while k < len(lengths):
        stop = max(k + 1, int(np.searchsorted(ends, starts[k] + step, side="right")))
        live = lengths[k:stop] > 0
        block = rows(int(starts[k]), int(ends[stop - 1]))
        out[k:stop][live] = np.minimum.reduceat(block, starts[k:stop][live] - starts[k], axis=0)
        k = stop


def assemble(blocks: Iterable[Block], size: int, count: int) -> np.ndarray:
    """The (size, count) matrix of rows that ``blocks`` cover."""
    out = np.empty((size, count), dtype=np.uint64)
    for start, column, rows in blocks:
        out[start : start + len(rows), column : column + rows.shape[1]] = rows
    return out


class SignatureComputer:
    """Signs records from a store of minhash rows, one per distinct value.

    A record is given as the sequence of its selected field values, and its
    row is the elementwise minimum of their rows: the sentinel row when it has
    none, or when no value has a token.  ``signatures`` tokenizes once each
    value the store has not seen, hashes its tokens' shingles in a vocabulary
    that lives only while that batch is signed, and keeps the value rows.
    The store persists across kept calls, so the levels of one hierarchy sign
    a value once per run.  Pass the same tokenizer on every call: stored rows
    are reused whatever tokenizer a later call passes.

    One dict numbers every value the store holds, the batch's pending new
    values included, and holds at most ``STORE_LIMIT`` of them: when a
    record's values would take it past, the records before it are finished
    and the store starts over.  Memory: a dict entry per value and
    ``count`` x 8 bytes per value row; while a batch is signed, 8 bytes per
    shingle of its new values' tokens, and those tokens' rows for one block
    of ``COLUMN_BLOCK`` positions at a time, tokens x ``COLUMN_BLOCK`` x 8
    bytes; a 4-byte id per value occurrence in the batch and per token
    occurrence of its new values, and 8 bytes per record; and, for one block
    of ``BLOCK_RECORDS`` x ``count`` record positions at a time, its rows and
    its index arithmetic, a few 8-byte entries per value and token occurrence
    of its records.  A call with ``keep=False`` learns no value rows, and
    empties the store when it ends.
    """

    def __init__(self, count: int = MINHASH_COUNT, seed: int = 0):
        self.count = count
        self.seed = seed
        self._keys = np.array(minhash_keys(derive_seed(seed, "minhash-family"), count), dtype=np.uint64)
        self._hasher = keyed_hasher(seed)
        self._store: dict[str, int] = {}
        self._rows = np.empty((0, count), dtype=np.uint64)

    def signatures(
        self, records: Iterable[Sequence[str]], tokenize: Tokenizer, keep: bool = True
    ) -> Iterator[Block]:
        """Raw uint64 minhash rows of records given by their values, as
        ``Block``s of at most ``COLUMN_BLOCK`` positions, numbered by the
        records' order.  Together they cover each record's ``count`` positions
        once; a record's positions come in different blocks.

        ``keep=False`` is for a caller that signs for the last time: the rows
        the store holds are used, but a value it lacks gets no row; its
        tokens' rows go straight into its records' rows.  Nothing of such a
        call outlives it: the store is empty once its last block is yielded."""
        store = self._store
        get, setdefault = store.get, store.setdefault
        ids, lengths = array("i"), array("q")
        done = 0
        for values in records:
            found = list(map(get, values))
            if None in found:
                if len(store) + len(values) > STORE_LIMIT:
                    yield from self._finish(ids, lengths, tokenize, keep, done)
                    done += len(lengths)
                    self.clear()
                    found = [None] * len(values)
                    ids, lengths = array("i"), array("q")
                found = [setdefault(value, len(store)) if row is None else row for value, row in zip(values, found)]
            ids.extend(found)
            lengths.append(len(found))
        yield from self._finish(ids, lengths, tokenize, keep, done)
        if not keep:
            self.clear()

    def clear(self) -> None:
        """Empty the value store; later calls tokenize every value anew."""
        self._store.clear()
        self._rows = np.empty((0, self.count), dtype=np.uint64)

    def signature_matrix(self, records: Sequence[Sequence[str]], tokenize: Tokenizer) -> np.ndarray:
        """All rows of ``signatures`` in one (N, count) matrix."""
        return assemble(self.signatures(records, tokenize), len(records), self.count)

    def signature_vector(self, values: Sequence[str], tokenize: Tokenizer) -> np.ndarray:
        """One record's row: ``signature_matrix([values], tokenize)[0]``."""
        return self.signature_matrix([values], tokenize)[0]

    def _finish(self, ids: array, lengths: array, tokenize: Tokenizer, keep: bool, start: int) -> Iterator[Block]:
        """Learn the rows of new values when ``keep``, then yield the pending
        records' rows, numbered from ``start``, a column block after another.
        A record's row is the minimum over its values' stored rows and over
        the token rows of its values that have no row."""
        if keep:
            self._learn(tokenize)
        base = len(self._rows)
        token_ids, token_counts, shingle_counts, hashes = self._tokens(islice(self._store, base, None), tokenize)
        token_starts = np.cumsum(token_counts) - token_counts
        value_ids = np.frombuffer(ids, dtype=np.intc)
        lengths = np.frombuffer(lengths, dtype=np.int64)
        # Each column block redoes a record block's index work, so a block
        # holds BLOCK_RECORDS records per COLUMN_BLOCK positions of a row.
        per_block = BLOCK_RECORDS * -(-self.count // COLUMN_BLOCK)
        for column, token_rows in self._token_columns(shingle_counts, hashes):
            columns = slice(column, column + token_rows.shape[1])
            first = 0
            for k in range(0, len(lengths), per_block):
                counts = lengths[k : k + per_block]
                block_ids = value_ids[first : first + int(counts.sum())]
                first += len(block_ids)
                new = block_ids >= base
                owner = np.repeat(np.arange(len(counts)), counts)
                known_ids = block_ids[~new]
                known = np.bincount(owner[~new], minlength=len(counts))
                # Tokens of each record's values without a row, as a count per record.
                values = block_ids[new] - base
                value_tokens = token_counts[values]
                tokens = np.bincount(np.repeat(owner[new], value_tokens), minlength=len(counts))
                out = np.empty((len(counts), token_rows.shape[1]), dtype=np.uint64)

                def stored(a: int, b: int) -> np.ndarray:
                    return self._rows[known_ids[a:b], columns]

                if not tokens.any():
                    segment_min(known, stored, out)
                else:
                    spans = np.repeat(token_starts[values] - (np.cumsum(value_tokens) - value_tokens), value_tokens)
                    block_tokens = token_ids[spans + np.arange(len(spans))]
                    segment_min(tokens, lambda a, b: token_rows[block_tokens[a:b]], out)
                    # A second buffer only where a block mixes both kinds of value.
                    if known.any():
                        rows = np.empty_like(out)
                        segment_min(known, stored, rows)
                        np.minimum(out, rows, out=out)
                yield start + k, column, out

    def _learn(self, tokenize: Tokenizer) -> None:
        """Compute the rows of the stored values that have none yet."""
        known = len(self._rows)
        if len(self._store) == known:
            return
        token_ids, counts, shingle_counts, hashes = self._tokens(islice(self._store, known, None), tokenize)
        rows = np.empty((len(self._store), self.count), dtype=np.uint64)
        rows[:known] = self._rows
        for column, token_rows in self._token_columns(shingle_counts, hashes):
            new = rows[known:, column : column + token_rows.shape[1]]
            segment_min(counts, lambda a, b: token_rows[token_ids[a:b]], new)
        self._rows = rows

    def _tokens(
        self, values: Iterable[str], tokenize: Tokenizer
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each value's token ids in a vocabulary of its batch and its token
        count; each vocabulary token's shingle count, and the hashes of its
        shingles, token after token.  The vocabulary itself is dropped on
        return."""
        vocab: dict[str, int] = {}
        get, setdefault = vocab.get, vocab.setdefault
        token_ids, counts = array("i"), array("q")
        for value in values:
            tokens = tokenize(value)
            found = list(map(get, tokens))
            if None in found:
                found = [setdefault(token, len(vocab)) for token in tokens]
            token_ids.extend(found)
            counts.append(len(found))
        digests = bytearray()
        shingle_counts = array("q")
        copy = self._hasher.copy
        for token in vocab:
            shingles = shingle(token)
            shingle_counts.append(len(shingles))
            for piece in shingles:
                h = copy()
                h.update(piece.encode("utf-8"))
                digests += h.digest()
        return (
            np.frombuffer(token_ids, dtype=np.intc),
            np.frombuffer(counts, dtype=np.int64),
            np.frombuffer(shingle_counts, dtype=np.int64),
            np.frombuffer(digests, dtype=">u8").astype(np.uint64),
        )

    def _token_columns(self, shingle_counts: np.ndarray, hashes: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """Each token's row, the minimum over its shingles, one column block
        at a time: (first position, tokens x width rows).  The blocks share
        one buffer, so each is overwritten by the next; no two are alive."""
        buffer = np.empty((len(shingle_counts), min(COLUMN_BLOCK, self.count)), dtype=np.uint64)
        for column in range(0, self.count, COLUMN_BLOCK):
            keys = self._keys[column : column + COLUMN_BLOCK]
            rows = buffer[:, : len(keys)]
            segment_min(shingle_counts, lambda a, b: _mix(hashes[a:b, None] ^ keys), rows)
            yield column, rows


def band_positions(level: int, band_seed: int, count: int = MINHASH_COUNT) -> list[list[int]]:
    """Seeded choice of 4 disjoint position groups of ``GROUP_SIZES[level]`` each."""
    g = GROUP_SIZES[level]
    rng = random.Random(derive_seed(band_seed, "bands", level))
    chosen = rng.sample(range(count), g * BAND_COUNT)
    return [chosen[b * g : (b + 1) * g] for b in range(BAND_COUNT)]


def band_key_matrix(signatures: np.ndarray, column: int, positions: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized band keys for the block of signature positions from
    ``column`` on, each band reading its ``positions`` (``band_positions``).

    Returns ``(keys, empty)`` where keys is (N, 4) uint64, the XOR of each
    band's positions in the block (0 for a band with none there), and empty
    marks rows whose positions there are all sentinel.  XOR-ing the keys of a
    row's blocks, and AND-ing their ``empty``, gives its full keys.
    """
    width = signatures.shape[1]
    keys = np.zeros((signatures.shape[0], BAND_COUNT), dtype=np.uint64)
    for b, group in enumerate(positions):
        local = [p - column for p in group if column <= p < column + width]
        if local:
            keys[:, b] = np.bitwise_xor.reduce(signatures[:, local], axis=1)
    empty = (signatures == np.uint64(SENTINEL)).all(axis=1)
    return keys, empty


def _shared_buckets(columns: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Buckets of equal key rows holding two or more of ``rows``: their
    members bucket after bucket, each bucket's size and its first position."""
    order = np.lexsort(columns.T)
    ordered = columns[order]
    opens = np.ones(len(order), dtype=bool)
    opens[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    sizes = np.diff(np.append(np.flatnonzero(opens), len(order)))
    shared = sizes >= 2
    members = rows[order[np.repeat(shared, sizes)]]
    sizes = sizes[shared]
    return members, sizes, np.cumsum(sizes) - sizes


def group_ids(ids: list[str], keys: np.ndarray, empty: np.ndarray) -> list[tuple[str, ...]]:
    """Candidate groups from a band key matrix.

    Records sharing a key in any band position are connected and groups are
    the connected components.  Sentinel (empty-signature) records are always
    singletons.  Output is a partition of ``ids``, each group sorted, groups
    sorted by first member.

    Rows are ranked by id and every record is labelled with the smallest rank
    in its component: each bucket of two or more records takes its members'
    smallest label, then labels jump to their label's label, until nothing
    changes (min-label propagation with Shiloach-Vishkin pointer jumping).
    These min-id roots do not depend on the order of the input rows, which
    keeps candidate grouping deterministic.
    """
    rank = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    keys = keys[rank]
    live = np.flatnonzero(~empty[rank])
    buckets = [_shared_buckets(keys[live, b : b + 1], live) for b in range(BAND_COUNT)]

    labels = np.arange(len(ids))
    changed = True
    while changed:
        changed = False
        for members, sizes, starts in buckets:
            current = labels[members]
            lowest = np.repeat(np.minimum.reduceat(current, starts), sizes)
            if (lowest < current).any():
                labels[members] = lowest
                changed = True
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]

    members = np.argsort(labels, kind="stable")
    names = tuple(map(ids.__getitem__, rank[members].tolist()))
    bounds = np.flatnonzero(labels[members] == members).tolist() + [len(ids)]
    return [names[a:b] for a, b in zip(bounds, bounds[1:])]

"""Deterministic hashing helpers.

Python's builtin ``hash`` is salted per process, so everything that must be
reproducible across runs (shingle hashing, seed derivation, cluster ids) goes
through keyed blake2b instead.  ``blake2b`` is CPython's built-in constructor,
the very one ``hashlib.blake2b`` hands out; it is taken from ``_blake2``
directly because importing ``hashlib`` also loads OpenSSL (``_hashlib``),
about 3.5 MB of resident set that no run uses.
"""

from __future__ import annotations

from _blake2 import blake2b
from itertools import permutations, product
from typing import Iterable

_SEED_BYTES = 8

MAX_U64 = (1 << 64) - 1


def keyed_hasher(key: int = 0) -> blake2b:
    """Keyed 64-bit blake2b, stable across processes and platforms.

    Hash each input on a ``copy()`` of the returned object: the copy starts
    after the key block, which is then not hashed again per input.
    """
    return blake2b(digest_size=8, key=key.to_bytes(_SEED_BYTES, "big"))


def derive_seed(*parts: int | str) -> int:
    """Derive an independent RNG seed from a root seed and a label path.

    Each distinct ``parts`` tuple yields an unrelated 64-bit seed, so
    subsystems (minhash family, band permutations, per-level RNGs, per-provider
    GA runs) never share RNG streams by accident.
    """
    h = blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, int):
            h.update(b"i" + part.to_bytes(16, "big", signed=True))
        else:
            h.update(b"s" + part.encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "big")


def digest_hex(data: bytes) -> str:
    """Short stable hex digest used for content-derived identifiers."""
    return blake2b(data, digest_size=12).hexdigest()


def digest_lines(lines: Iterable[bytes]) -> str:
    """``digest_hex(b"\\n".join(lines))``, hashed a line at a time."""
    h = blake2b(digest_size=12)
    separator = b""
    for line in lines:
        h.update(separator)
        h.update(line)
        separator = b"\n"
    return h.hexdigest()


_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: int, const: list[int], mult: int = 0x931E8875) -> int:
    # numpy SeedSequence's hash; ``const[0]`` is its running hash constant.
    value ^= const[0]
    const[0] = const[0] * mult & _M32
    value = value * const[0] & _M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return value ^ value >> 16


def minhash_keys(entropy: int, count: int) -> list[int]:
    """``count`` raw outputs of numpy's ``PCG64(SeedSequence(entropy))`` (O'Neill
    2014), as ``default_rng(entropy).integers(0, 2**64, count, np.uint64)``
    draws them, computed without loading ``numpy.random``."""
    words = [entropy >> shift & _M32 for shift in range(0, max(entropy.bit_length(), 1), 32)]
    const = [0x43B0D7E5]
    pool = [_hashmix(words[i] if i < len(words) else 0, const) for i in range(4)]
    for src, dst in permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], const))
    for word, dst in product(words[4:], range(4)):
        pool[dst] = _mix(pool[dst], _hashmix(word, const))
    const = [0x8B51F9DD]
    state = [_hashmix(pool[i % 4], const, 0x58F38DED) for i in range(8)]
    # generate_state(4, uint64) pairs the words little-endian; PCG64 takes
    # its 128-bit seed from the first two uint64s and its stream from the last two.
    seed, inc = (state[i] << 64 | state[i + 1] << 96 | state[i + 2] | state[i + 3] << 32 for i in (0, 4))
    inc = inc << 1 & _M128 | 1
    state = ((inc + seed) * _PCG_MULT + inc) & _M128
    keys = []
    for _ in range(count):
        state = (state * _PCG_MULT + inc) & _M128
        word, rot = (state >> 64 ^ state) & MAX_U64, state >> 122
        keys.append((word >> rot | word << (64 - rot)) & MAX_U64)
    return keys

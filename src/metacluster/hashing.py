"""Deterministic hashing helpers.

Python's builtin ``hash`` is salted per process, so everything that must be
reproducible across runs (shingle hashing, seed derivation, cluster ids) goes
through keyed blake2b instead.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

_SEED_BYTES = 8

MAX_U64 = (1 << 64) - 1


def keyed_hasher(key: int = 0) -> "hashlib._Hash":
    """Keyed 64-bit blake2b, stable across processes and platforms.

    Hash each input on a ``copy()`` of the returned object: the copy starts
    after the key block, which is then not hashed again per input.
    """
    return hashlib.blake2b(digest_size=8, key=key.to_bytes(_SEED_BYTES, "big"))


def derive_seed(*parts: int | str) -> int:
    """Derive an independent RNG seed from a root seed and a label path.

    Each distinct ``parts`` tuple yields an unrelated 64-bit seed, so
    subsystems (minhash family, band permutations, per-level RNGs, per-provider
    GA runs) never share RNG streams by accident.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, int):
            h.update(b"i" + part.to_bytes(16, "big", signed=True))
        else:
            h.update(b"s" + part.encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "big")


def digest_hex(data: bytes) -> str:
    """Short stable hex digest used for content-derived identifiers."""
    return hashlib.blake2b(data, digest_size=12).hexdigest()


def digest_lines(lines: Iterable[bytes]) -> str:
    """``digest_hex(b"\\n".join(lines))``, hashed a line at a time."""
    h = hashlib.blake2b(digest_size=12)
    separator = b""
    for line in lines:
        h.update(separator)
        h.update(line)
        separator = b"\n"
    return h.hexdigest()

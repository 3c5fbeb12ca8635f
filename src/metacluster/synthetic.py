"""Synthetic corpora for tests and benchmarks.

All generators are deterministic given their seed and produce records in the
ingest schema (dc:title and friends, provider fields set).
"""

from __future__ import annotations

import random

from .config import DATA_PROVIDER_FIELD
from .records import Record

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def _word(rng: random.Random, lo: int = 5, hi: int = 12) -> str:
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(lo, hi)))


def _vocab(rng: random.Random, size: int, lo: int = 5, hi: int = 12) -> list[str]:
    return [_word(rng, lo, hi) for _ in range(size)]


def _make_record(
    rid: str,
    provider: str,
    title: str,
    extra: dict[str, list[str]] | None = None,
) -> Record:
    fields: dict[str, tuple[str, ...]] = {
        "dc:title": (title,),
        DATA_PROVIDER_FIELD: (provider,),
    }
    for name, values in (extra or {}).items():
        fields[name] = tuple(values)
    return Record(id=rid, fields=fields)


def random_corpus(
    n: int,
    seed: int = 0,
    tokens_per_record: int = 8,
    vocab_size: int | None = None,
    provider: str = "rand",
) -> list[Record]:
    """Records with pairwise-distinct random titles drawn from a vocabulary."""
    rng = random.Random(seed)
    vocab = _vocab(rng, vocab_size or max(1000, n // 10))
    records = []
    seen: set[str] = set()
    for i in range(n):
        while True:
            title = " ".join(rng.choice(vocab) for _ in range(tokens_per_record))
            if title not in seen:
                seen.add(title)
                break
        records.append(_make_record(f"{provider}{i:07d}", provider, title))
    return records


def duplicate_pairs_corpus(
    n_pairs: int,
    n_decoys: int,
    seed: int = 0,
    tokens_per_record: int = 12,
) -> tuple[list[Record], list[tuple[str, str]]]:
    """Planted exact-duplicate pairs among unique random-text decoys.

    Duplicates share the complete metadata byte-for-byte; decoys are pairwise
    distinct.  Returns (records, planted id pairs).
    """
    rng = random.Random(seed)
    vocab = _vocab(rng, max(2000, (n_pairs + n_decoys) // 2))
    records: list[Record] = []
    pairs: list[tuple[str, str]] = []
    seen: set[str] = set()

    def fresh_title(tokens: int) -> str:
        while True:
            title = " ".join(rng.choice(vocab) for _ in range(tokens))
            if title not in seen:
                seen.add(title)
                return title

    for p in range(n_pairs):
        title = fresh_title(tokens_per_record)
        a, b = f"dup{p:06d}a", f"dup{p:06d}b"
        records.append(_make_record(a, "dup", title))
        records.append(_make_record(b, "dup", title))
        pairs.append((a, b))
    for d in range(n_decoys):
        records.append(_make_record(f"dec{d:07d}", "dup", fresh_title(tokens_per_record)))
    order_rng = random.Random(seed + 1)
    order_rng.shuffle(records)
    return records, pairs


def corrupted_pairs_corpus(
    n_pairs: int,
    seed: int = 0,
    corruption: float = 0.10,
    tokens_per_record: int = 48,
    word_length: tuple[int, int] = (12, 16),
) -> tuple[list[Record], list[tuple[str, str]]]:
    """Near-duplicate pairs: the copy has ``corruption`` of its token
    positions altered by a final-character substitution.

    Long words keep most of their 8-character shingles under a one-character
    change, so the pair still collides on band keys at mid levels while the
    byte difference keeps it out of exact-duplicate range.
    """
    rng = random.Random(seed)
    records: list[Record] = []
    pairs: list[tuple[str, str]] = []
    for p in range(n_pairs):
        words = [_word(rng, *word_length) for _ in range(tokens_per_record)]
        corrupted = list(words)
        n_corrupt = max(1, round(corruption * len(words)))
        for idx in rng.sample(range(len(words)), n_corrupt):
            w = corrupted[idx]
            corrupted[idx] = w[:-1] + rng.choice([c for c in _ALPHABET if c != w[-1]])
        a, b = f"near{p:06d}a", f"near{p:06d}b"
        records.append(_make_record(a, "near", " ".join(words)))
        records.append(_make_record(b, "near", " ".join(corrupted)))
        pairs.append((a, b))
    return records, pairs


def family_corpus(
    n_families: int,
    per_family: int,
    seed: int = 0,
    shared_tokens: int = 30,
    unique_tokens: int = 3,
    provider: str = "fam",
    id_prefix: str = "fam",
) -> tuple[list[Record], dict[str, int]]:
    """Well-separated families: records share most tokens within a family and
    nothing across families.  Returns (records, id -> family index)."""
    rng = random.Random(seed)
    records: list[Record] = []
    families: dict[str, int] = {}
    for f in range(n_families):
        base = [_word(rng) for _ in range(shared_tokens)]
        for m in range(per_family):
            tail = [_word(rng) for _ in range(unique_tokens)]
            rid = f"{id_prefix}{f:03d}m{m:03d}"
            records.append(_make_record(rid, provider, " ".join(base + tail)))
            families[rid] = f
    return records, families


def ga_provider_corpus(
    n_records: int = 500,
    n_families: int = 20,
    seed: int = 0,
    provider: str = "gaprov",
    extra_fields: int = 3,
) -> list[Record]:
    """A provider whose dc:title encodes family structure while
    dc:description is per-record noise; a few constant filler fields pad the
    search space.  Titles within a family differ by a short per-record tail
    (think page markers) so family clusters are tight but not degenerate.
    Selecting the title and not the description is the planted optimum for
    level-80 clustering."""
    rng = random.Random(seed)
    titles = [[_word(rng) for _ in range(14)] for _ in range(n_families)]
    fillers = {f"dc:extra{k}": ["common value"] for k in range(extra_fields)}
    records = []
    for i in range(n_records):
        fam = i % n_families
        marker = _word(rng, 4, 6)
        noise = " ".join(_word(rng) for _ in range(30))
        extra = {"dc:description": [noise], **fillers}
        records.append(
            _make_record(f"ga{i:05d}", provider, " ".join(titles[fam] + [marker]), extra)
        )
    return records


def hierarchical_corpus(
    n_works: int,
    editions_per_work: int = 2,
    volumes_per_edition: int = 4,
    seed: int = 0,
    duplicate_share: float = 0.05,
    noise_records: int = 0,
) -> list[Record]:
    """Multi-scale structure: volumes of one edition are near-identical
    (tight, level-80 material), editions of one work share most of their
    description (mid levels), works are unrelated.  A share of volumes is
    duplicated outright for the level-100 pass, and optional noise records
    stay unclustered everywhere."""
    rng = random.Random(seed)
    records: list[Record] = []
    for w in range(n_works):
        work_words = [_word(rng, 8, 12) for _ in range(18)]
        for e in range(editions_per_work):
            edition_words = work_words + [_word(rng, 8, 12) for _ in range(4)]
            for v in range(volumes_per_edition):
                title = " ".join(edition_words + [f"volume{v}"])
                rid = f"w{w:05d}e{e}v{v}"
                spatial = " ".join(work_words[:2])
                records.append(
                    _make_record(
                        rid,
                        f"prov{w % 7}",
                        title,
                        {"dcterms:spatial": [spatial]},
                    )
                )
                if rng.random() < duplicate_share:
                    records.append(Record(id=rid + "dup", fields=dict(records[-1].fields)))
    for k in range(noise_records):
        records.append(
            _make_record(f"noise{k:06d}", "noisy", " ".join(_word(rng) for _ in range(10)))
        )
    return records

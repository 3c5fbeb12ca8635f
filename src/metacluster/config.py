"""Run configuration dataclasses and defaults."""

from __future__ import annotations

import bz2
import lzma
import zlib
from dataclasses import dataclass, field
from typing import Callable

from .errors import ConfigurationError
from .hashing import MAX_U64

LEVELS = (100, 80, 60, 40, 20)

#: Minhashes XOR-combined per band key, per similarity level.  The endpoints
#: (16 at level 100, 2 at level 20) are fixed; the intermediate levels
#: interpolate monotonically and can be overridden.
DEFAULT_GROUP_SIZES = {100: 16, 80: 8, 60: 6, 40: 4, 20: 2}

BAND_COUNT = 4

DEFAULT_SEED = 42

#: The compulsory fields: ingest requires one of them in every record,
#: ``default_mask_for`` picks one (title first) and the GA forces that
#: field's bit on in every mask it tries.
TITLE_FIELD = "dc:title"
DESCRIPTION_FIELD = "dc:description"

DATA_PROVIDER_FIELD = "europeana:dataProvider"
PROVIDER_FIELD = "europeana:provider"

#: The compressors by name: each maps (data, level) to compressed bytes.
#: Levels run 0-9, except bz2, which has no level 0.
COMPRESSORS: dict[str, Callable[[bytes, int], bytes]] = {
    "zlib": zlib.compress,
    "bz2": bz2.compress,
    "lzma": lambda data, level: lzma.compress(data, preset=level),
}


class GroupSizes(dict):
    """Band group size per level, read-only once built.  A dict, so that
    ``dataclasses.asdict`` and JSON see the sizes as they are."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("band group sizes are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only


def check_compression(name: str, level: int) -> None:
    """Raise ConfigurationError unless ``name`` is a compressor and ``level``
    one of its levels."""
    if name not in COMPRESSORS:
        raise ConfigurationError(f"unknown compressor {name!r}; available: {sorted(COMPRESSORS)}")
    lowest = 1 if name == "bz2" else 0
    if not lowest <= level <= 9:
        raise ConfigurationError(f"compression level must be in {lowest}-9 for {name}, got {level}")


def check_seed(seed: int) -> None:
    """Raise ConfigurationError unless ``seed`` fits the 64 unsigned bits a
    run's hashes are keyed with."""
    if not 0 <= seed <= MAX_U64:
        raise ConfigurationError(f"seed must be in 0-{MAX_U64}, got {seed}")


@dataclass(frozen=True)
class EngineConfig:
    """Parameters shared by banding, similarity and the level clusterer;
    an invalid combination raises ConfigurationError on construction."""

    minhash_count: int = 64
    group_sizes: dict[int, int] = field(default_factory=lambda: GroupSizes(DEFAULT_GROUP_SIZES))
    band_match: str = "any"  # "any": union-find over shared keys; "all": exact 4-key match
    compressor: str = "zlib"
    compression_level: int = 6
    max_iterations: int = 5
    artificial_value_cap: int = 20
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.minhash_count < 8 or self.minhash_count % 4 != 0:
            raise ConfigurationError(
                f"minhash count must be >= 8 and divisible by 4, got {self.minhash_count}"
            )
        object.__setattr__(self, "group_sizes", GroupSizes(self.group_sizes))
        unknown = sorted(set(self.group_sizes) - set(LEVELS), key=str)
        if unknown:
            raise ConfigurationError(
                f"band group sizes for unknown levels {unknown}; valid: {list(LEVELS)}"
            )
        for level in LEVELS:
            g = self.group_sizes.get(level)
            if g is None:
                raise ConfigurationError(f"missing band group size for level {level}")
            if g < 1:
                raise ConfigurationError(f"band group size for level {level} must be >= 1, got {g}")
            if g * BAND_COUNT > self.minhash_count:
                raise ConfigurationError(
                    f"level {level}: {BAND_COUNT} bands of {g} minhashes exceed "
                    f"signature length {self.minhash_count}"
                )
        if self.band_match not in ("any", "all"):
            raise ConfigurationError(f"band match mode must be 'any' or 'all', got {self.band_match!r}")
        check_compression(self.compressor, self.compression_level)
        if self.max_iterations < 1:
            raise ConfigurationError(f"max iterations must be >= 1, got {self.max_iterations}")
        if self.artificial_value_cap < 1:
            raise ConfigurationError("artificial record value cap must be >= 1")
        check_seed(self.seed)


@dataclass(frozen=True)
class GAConfig:
    """Knobs of the per-provider genetic field selection; the operator settings
    are constants in ``ga``."""

    population_size: int = 50
    generations: int = 100
    sample_cap: int = 50_000
    min_provider_records: int = 100
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ConfigurationError(f"GA population must be >= 2, got {self.population_size}")
        if self.generations < 1:
            raise ConfigurationError(f"GA generations must be >= 1, got {self.generations}")
        if self.sample_cap < 2:
            raise ConfigurationError("evaluation sample cap must be >= 2")
        check_seed(self.seed)

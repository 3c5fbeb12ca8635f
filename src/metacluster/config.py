"""Run configuration dataclasses and defaults."""

from __future__ import annotations

import bz2
import lzma
import zlib
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigurationError
from .hashing import MAX_U64

LEVELS = (100, 80, 60, 40, 20)

#: Minhashes per record signature (Broder 1997).
MINHASH_COUNT = 64

#: Minhashes XOR-combined per band key, per similarity level: 16 at level 100
#: down to 2 at level 20, so higher levels need closer agreement.
GROUP_SIZES = {100: 16, 80: 8, 60: 6, 40: 4, 20: 2}

#: Band keys per record and level; records sharing any one are candidates.
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

    compressor: str = "zlib"
    compression_level: int = 6
    max_iterations: int = 5
    artificial_value_cap: int = 20
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
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

"""Run configuration dataclasses and defaults."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigurationError

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


@dataclass(frozen=True)
class EngineConfig:
    """Parameters shared by banding, similarity and the level clusterer."""

    minhash_count: int = 64
    group_sizes: dict[int, int] = field(default_factory=lambda: dict(DEFAULT_GROUP_SIZES))
    band_match: str = "any"  # "any": union-find over shared keys; "all": exact 4-key match
    compressor: str = "zlib"
    compression_level: int = 6
    max_iterations: int = 5
    artificial_value_cap: int = 20
    seed: int = DEFAULT_SEED

    def validate(self) -> None:
        if self.minhash_count < 8 or self.minhash_count % 4 != 0:
            raise ConfigurationError(
                f"minhash count must be >= 8 and divisible by 4, got {self.minhash_count}"
            )
        for level in LEVELS:
            g = self.group_sizes.get(level)
            if g is None or g < 1:
                raise ConfigurationError(f"missing band group size for level {level}")
            if g * BAND_COUNT > self.minhash_count:
                raise ConfigurationError(
                    f"level {level}: {BAND_COUNT} bands of {g} minhashes exceed "
                    f"signature length {self.minhash_count}"
                )
        if self.band_match not in ("any", "all"):
            raise ConfigurationError(f"band match mode must be 'any' or 'all', got {self.band_match!r}")
        if self.max_iterations < 1:
            raise ConfigurationError(f"max iterations must be >= 1, got {self.max_iterations}")
        if self.artificial_value_cap < 1:
            raise ConfigurationError("artificial record value cap must be >= 1")


@dataclass(frozen=True)
class GAConfig:
    """Knobs of the per-provider genetic field selection."""

    population_size: int = 50
    generations: int = 100
    crossover_rate: float = 0.9
    mutation_rate: float | None = None  # None: 1/chromosome-length
    tournament_size: int = 2
    elitism: int = 1
    sample_cap: int = 50_000
    min_provider_records: int = 100
    seed: int = DEFAULT_SEED

    def validate(self) -> None:
        if self.population_size < 2:
            raise ConfigurationError(f"GA population must be >= 2, got {self.population_size}")
        if self.generations < 1:
            raise ConfigurationError(f"GA generations must be >= 1, got {self.generations}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigurationError("crossover rate must be in [0, 1]")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigurationError("mutation rate must be in [0, 1]")
        if self.tournament_size < 1:
            raise ConfigurationError("tournament size must be >= 1")
        if self.elitism < 0 or self.elitism >= self.population_size:
            raise ConfigurationError("elitism count must be in [0, population)")
        if self.sample_cap < 2:
            raise ConfigurationError("evaluation sample cap must be >= 2")

"""Multi-level clustering of heterogeneous metadata records.

Clusters large record corpora at five similarity levels (100/80/60/40/20)
using minhash band keys for candidate grouping and a compression-based
similarity for validation, builds a cluster hierarchy through artificial
summary records, and selects per-provider metadata fields for the level-80
pass with a genetic algorithm.
"""

__version__ = "0.1.0"

from .config import EngineConfig, GAConfig, LEVELS  # noqa: E402
from .records import FieldMask, Record, ingest, serialize_for_compression, tokenize  # noqa: E402
from .clusterer import Cluster, LevelResult, cluster_level  # noqa: E402
from .hierarchy import HierarchyRun, make_artificial_record, run_hierarchy  # noqa: E402
from .similarity import Compression, SimilarityContext  # noqa: E402

__all__ = [
    "EngineConfig",
    "GAConfig",
    "LEVELS",
    "FieldMask",
    "Record",
    "ingest",
    "tokenize",
    "serialize_for_compression",
    "Cluster",
    "LevelResult",
    "cluster_level",
    "HierarchyRun",
    "make_artificial_record",
    "run_hierarchy",
    "Compression",
    "SimilarityContext",
]

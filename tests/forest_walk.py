"""A walk of a run's forest, independent of the chain rule the engine checks
runs with (``hierarchy.verify_run``): the tests apply it to runs to see that
the forest refines and conserves the originals."""

from typing import Mapping, Sequence

from metacluster.errors import IntegrityError
from metacluster.hierarchy import HierarchyRun, chain_results


def expand(
    cluster_id: str,
    forest: Mapping[str, Sequence[str]],
    original_ids: set[str],
) -> set[str]:
    """Recursive union of the cluster's children down to original record ids.

    Raises IntegrityError on a dangling child id or when two children expand
    to overlapping sets (the refinement property).
    """
    out: set[str] = set()
    for child in forest[cluster_id]:
        if child in forest:
            part = expand(child, forest, original_ids)
        elif child in original_ids:
            part = {child}
        else:
            raise IntegrityError(f"dangling child id {child!r} under {cluster_id}")
        dup = out & part
        if dup:
            raise IntegrityError(f"node {cluster_id} children overlap on {sorted(dup)[:3]}")
        out |= part
    return out


def never_clustered(run: HierarchyRun, original_ids: set[str]) -> set[str]:
    """Originals that stayed unclustered through every chain level."""
    chain = chain_results(run)
    if not chain:
        return set(original_ids)
    return {rid for rid in chain[-1].unclustered if rid in original_ids}

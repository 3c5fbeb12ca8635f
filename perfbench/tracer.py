"""Span tracer for the metacluster layers, installed from outside the program.

Each hook wraps one public name in the namespace its caller looks it up from
(a module global, or a method on its class) and records one span per call:
name, start, end, parent span and the similarity level in force.  Spans live
in compact arrays in memory and are written once, when the traced process
ends.  A few hooks also inspect arguments or results for counters that spans
cannot give (bytes handed to the compressor, repeated similarity pairs,
accepted candidates, group sizes, iterations).

A hooked name that no longer exists, or whose calls no longer have the shape
a counter reads, is recorded instead of failing, and the metrics that depend
on it are reported as absent.

``analyze`` turns a written trace into the per-layer metrics.  Self time is a
span's duration minus the union of its direct children's intervals; spans
opened on worker threads with nothing open on their own thread are children
of the innermost span open on the main thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import weakref
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LEVELS = (100, 80, 60, 40, 20)

# (module, attribute path, span name, how to read the level from the call)
# The level comes from a bound argument name, or from ``clusters.level``.
HOOKS = (
    ("metacluster.cli", "ingest_path", "records.ingest", None),
    ("metacluster.clusterer", "tokenize", "records.tokenize", None),
    ("metacluster.minhash", "SignatureComputer.signature_vector", "minhash.sign", None),
    ("metacluster.clusterer", "band_key_matrix", "minhash.band", None),
    ("metacluster.clusterer", "group_ids", "minhash.group", None),
    ("metacluster.hierarchy", "level_inputs", "clusterer.level_inputs", "level"),
    ("metacluster.ga", "level_inputs", "clusterer.level_inputs", "level"),
    ("metacluster.hierarchy", "cluster_level", "clusterer.cluster_level", "level"),
    ("metacluster.ga", "cluster_level", "clusterer.cluster_level", "level"),
    ("metacluster.clusterer", "select_heads", "clusterer.select_heads", None),
    ("metacluster.clusterer", "assign_to_heads", "clusterer.assign_to_heads", None),
    ("metacluster.clusterer", "validate_candidate", "clusterer.validate_candidate", None),
    ("metacluster.similarity", "SimilarityContext.similarity", "similarity.similarity", None),
    ("metacluster.similarity", "Compression.compressed_size", "similarity.compress", None),
    ("metacluster.hierarchy", "make_artificial_record", "hierarchy.artificial", None),
    ("metacluster.ga", "make_artificial_record", "hierarchy.artificial", None),
    ("metacluster.hierarchy", "verify_run", "hierarchy.verify", None),
    ("metacluster.ga", "fitness", "ga.fitness", "clusters"),
    ("metacluster.ga", "evolve", "ga.evolve", None),
    ("metacluster.rundir", "write_run", "rundir.write", None),
    ("metacluster.rundir", "write_rejects", "rundir.write", None),
    ("metacluster.rundir", "write_masks", "rundir.write", None),
    ("metacluster.rundir", "write_field_report", "rundir.write", None),
)


class Tracer:
    """Collects spans and counters for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_level = array("i")
        self.counters: Counter = Counter()
        self.level = 0
        self.installed: list[str] = []
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._pairs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def _open(self, name_id: int) -> tuple[list[int], int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            idx = len(self.span_name)
            self.span_name.append(name_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(parent)
            self.span_level.append(self.level)
        stack.append(idx)
        return stack, idx

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def count_max(self, key: str, value: int) -> None:
        with self._lock:
            if value > self.counters[key]:
                self.counters[key] = value

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for module_name, attr_path, span, level_from in HOOKS:
            label = f"{module_name}.{attr_path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            setattr(owner, attr, self._wrap(original, span, level_from))
            self.installed.append(label)

    def _wrap(self, fn, span: str, level_from: str | None):
        name_id = self._name_ids.setdefault(span, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(span)
        observe = _OBSERVERS.get(span)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, idx = tracer._open(name_id)
            tracer.span_start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    observe(tracer, args, result)
                except (IndexError, KeyError, TypeError, AttributeError):
                    # The call's shape changed; its metrics become absent.
                    tracer.count(f"observer_errors.{span}")
            return result

        if level_from is None:
            return traced
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def at_level(*args, **kwargs):
            saved = tracer.level
            level = _level_of(signature, level_from, args, kwargs)
            if level is not None:
                tracer.level = level
            try:
                return traced(*args, **kwargs)
            finally:
                tracer.level = saved

        return at_level

    def write(self, path: Path) -> None:
        """Write spans (binary arrays) and metadata (JSON) next to ``path``."""
        with open(path.with_suffix(".spans"), "wb") as fh:
            for arr in (self.span_name, self.span_start, self.span_end, self.span_parent, self.span_level):
                arr.tofile(fh)
        meta = {
            "names": self.names,
            "spans": len(self.span_name),
            "counters": dict(self.counters),
            "installed": self.installed,
            "absent": self.absent,
        }
        path.write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")


def _level_of(signature, level_from, args, kwargs):
    try:
        bound = signature.bind(*args, **kwargs)
        if level_from == "clusters":
            return int(bound.arguments["clusters"].level)
        return int(bound.arguments[level_from])
    except (TypeError, KeyError, AttributeError, ValueError):
        return None


def _observe_group(tracer, args, result):
    tracer.count_max("minhash.largest_group", max((len(g) for g in result), default=0))


def _observe_cluster_level(tracer, args, result):
    tracer.count("clusterer.iterations", result.iterations_used)
    tracer.count(f"clusterer.iterations.L{result.level}", result.iterations_used)


def _observe_validate(tracer, args, result):
    if result[0]:
        tracer.count("clusterer.accepted")


def _observe_similarity(tracer, args, result):
    ctx, pair = args[0], (args[1], args[2])
    with tracer._lock:
        seen = tracer._pairs.get(ctx)
        if seen is None:
            seen = tracer._pairs[ctx] = set()
        if pair in seen:
            tracer.counters[f"similarity.repeat_pairs.L{tracer.level}"] += 1
        else:
            seen.add(pair)


def _observe_compress(tracer, args, result):
    tracer.count("similarity.compress_bytes", len(args[1]))


_OBSERVERS = {
    "minhash.group": _observe_group,
    "clusterer.cluster_level": _observe_cluster_level,
    "clusterer.validate_candidate": _observe_validate,
    "similarity.similarity": _observe_similarity,
    "similarity.compress": _observe_compress,
}


# -- analysis ---------------------------------------------------------------

# Per-layer metric -> the span it is computed from.
METRIC_SOURCES = {
    "records.ingest_s": "records.ingest",
    "records.tokenize_calls": "records.tokenize",
    "records.tokenize_s": "records.tokenize",
    "minhash.sign_calls": "minhash.sign",
    "minhash.sign_s": "minhash.sign",
    "minhash.band_s": "minhash.band",
    "minhash.group_calls": "minhash.group",
    "minhash.group_s": "minhash.group",
    "minhash.largest_group": "minhash.group",
    "clusterer.cluster_level_s": "clusterer.cluster_level",
    "clusterer.iterations": "clusterer.cluster_level",
    "clusterer.groups_processed": "clusterer.select_heads",
    "clusterer.candidates_validated": "clusterer.validate_candidate",
    "clusterer.accept_ratio": "clusterer.validate_candidate",
    "similarity.sim_calls": "similarity.similarity",
    "similarity.repeat_pair_share": "similarity.similarity",
    "similarity.compress_calls": "similarity.compress",
    "similarity.compress_bytes": "similarity.compress",
    "similarity.compress_s": "similarity.compress",
    "hierarchy.artificial_records": "hierarchy.artificial",
    "hierarchy.artificial_s": "hierarchy.artificial",
    "hierarchy.verify_s": "hierarchy.verify",
    "ga.evaluations": "ga.fitness",
    "ga.fitness_s": "ga.fitness",
    "ga.evolve_s": "ga.evolve",
    "rundir.write_s": "rundir.write",
}

#: Metrics also reported per level, as ``<metric>.L<level>``.
PER_LEVEL = (
    "minhash.sign_calls",
    "clusterer.cluster_level_s",
    "clusterer.iterations",
    "clusterer.groups_processed",
    "similarity.sim_calls",
    "similarity.repeat_pair_share",
    "similarity.compress_calls",
)


def metric_names() -> list[str]:
    names = []
    for metric in METRIC_SOURCES:
        names.append(metric)
        if metric in PER_LEVEL:
            names.extend(f"{metric}.L{level}" for level in LEVELS)
    return names


def _load(path: Path):
    meta = json.loads(path.read_text(encoding="utf-8"))
    n = meta["spans"]
    raw = path.with_suffix(".spans").read_bytes()
    layout = (("name", "i4"), ("start", "f8"), ("end", "f8"), ("parent", "i8"), ("level", "i4"))
    arrays, offset = {}, 0
    for key, dtype in layout:
        arrays[key] = np.frombuffer(raw, dtype=dtype, count=n, offset=offset)
        offset += n * np.dtype(dtype).itemsize
    return meta, arrays


def _self_times(arrays, parent_ids):
    """Self time of each span in ``parent_ids``: duration minus the union of
    its direct children's intervals (children may overlap across threads)."""
    parent, start, end = arrays["parent"], arrays["start"], arrays["end"]
    wanted = np.isin(parent, parent_ids)
    child_idx = np.nonzero(wanted)[0]
    order = np.lexsort((start[child_idx], parent[child_idx]))
    covered: dict[int, float] = {}
    current, lo, hi, total = None, 0.0, 0.0, 0.0
    for i in child_idx[order]:
        p = int(parent[i])
        if p != current:
            if current is not None:
                covered[current] = total + (hi - lo)
            current, lo, hi, total = p, start[i], end[i], 0.0
        elif start[i] > hi:
            total += hi - lo
            lo, hi = start[i], end[i]
        else:
            hi = max(hi, end[i])
    if current is not None:
        covered[current] = total + (hi - lo)
    return {int(p): (end[p] - start[p]) - covered.get(int(p), 0.0) for p in parent_ids}


def analyze(path: Path) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from a written trace, and the metrics that are absent."""
    meta, arrays = _load(path)
    names = meta["names"]
    counters = meta["counters"]
    present = {span for label, span in _labels().items() if label in meta["installed"]}
    present -= {key.partition(".")[2] for key in counters if key.startswith("observer_errors.")}
    absent = {metric for metric, span in METRIC_SOURCES.items() if span not in present}

    name_arr, level_arr = arrays["name"], arrays["level"]
    duration = arrays["end"] - arrays["start"]

    def select(span, level=None):
        if span not in names:
            return np.zeros(len(name_arr), dtype=bool)
        mask = name_arr == names.index(span)
        if level is not None:
            mask &= level_arr == level
        return mask

    def self_time(span, level=None):
        ids = np.nonzero(select(span, level))[0]
        return float(sum(_self_times(arrays, ids).values())) if len(ids) else 0.0

    def outermost(span):
        # Calls nested in a call of the same span count once.
        mask = select(span)
        parents = arrays["parent"]
        nested = np.zeros_like(mask)
        has_parent = parents >= 0
        nested[has_parent] = mask[parents[has_parent]]
        return float(duration[mask & ~nested].sum())

    def calls(span, level=None):
        return int(select(span, level).sum())

    def share(num, den):
        return num / den if den else 0.0

    def repeat_share(level=None):
        if level is None:
            repeats = sum(v for k, v in counters.items() if k.startswith("similarity.repeat_pairs."))
        else:
            repeats = counters.get(f"similarity.repeat_pairs.L{level}", 0)
        return share(repeats, calls("similarity.similarity", level))

    def per_level(metric, level=None):
        if metric == "minhash.sign_calls":
            return calls("minhash.sign", level)
        if metric == "clusterer.cluster_level_s":
            return self_time("clusterer.cluster_level", level)
        if metric == "clusterer.iterations":
            key = "clusterer.iterations" + (f".L{level}" if level is not None else "")
            return counters.get(key, 0)
        if metric == "clusterer.groups_processed":
            return calls("clusterer.select_heads", level)
        if metric == "similarity.sim_calls":
            return calls("similarity.similarity", level)
        if metric == "similarity.repeat_pair_share":
            return repeat_share(level)
        return calls("similarity.compress", level)

    validated = calls("clusterer.validate_candidate")
    totals = {
        "records.ingest_s": outermost("records.ingest"),
        "records.tokenize_calls": calls("records.tokenize"),
        "records.tokenize_s": outermost("records.tokenize"),
        "minhash.sign_s": outermost("minhash.sign"),
        "minhash.band_s": outermost("minhash.band"),
        "minhash.group_calls": calls("minhash.group"),
        "minhash.group_s": outermost("minhash.group"),
        "minhash.largest_group": counters.get("minhash.largest_group", 0),
        "clusterer.candidates_validated": validated,
        "clusterer.accept_ratio": share(counters.get("clusterer.accepted", 0), validated),
        "similarity.compress_bytes": counters.get("similarity.compress_bytes", 0),
        "similarity.compress_s": outermost("similarity.compress"),
        "hierarchy.artificial_records": calls("hierarchy.artificial"),
        "hierarchy.artificial_s": outermost("hierarchy.artificial"),
        "hierarchy.verify_s": outermost("hierarchy.verify"),
        "ga.evaluations": calls("ga.fitness"),
        "ga.fitness_s": self_time("ga.fitness"),
        "ga.evolve_s": outermost("ga.evolve"),
        "rundir.write_s": outermost("rundir.write"),
    }
    metrics: dict[str, float] = {}
    for metric in METRIC_SOURCES:
        if metric in PER_LEVEL:
            metrics[metric] = per_level(metric)
            for level in LEVELS:
                metrics[f"{metric}.L{level}"] = per_level(metric, level)
        else:
            metrics[metric] = totals[metric]
    absent_names = [name for name in metric_names() if base_metric(name) in absent]
    for name in absent_names:
        metrics.pop(name)
    return metrics, absent_names


def metric_unit(name: str) -> str:
    base = base_metric(name)
    if base.endswith("_s"):
        return "s"
    if base.endswith(("_share", "_ratio")):
        return "share"
    if base.endswith("_bytes"):
        return "bytes"
    return "count"


def base_metric(name: str) -> str:
    base, _, level = name.rpartition(".L")
    return base if base and level.isdigit() else name


def _labels() -> dict[str, str]:
    return {f"{module}.{attr}": span for module, attr, span, _ in HOOKS}

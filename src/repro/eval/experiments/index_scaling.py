"""A7 — descriptor index scaling: exact linear scan, scalar vs batch.

The edge cache's vector lookups sit on the latency-critical path of
every recognition request, and the poster's "simple" implementation is a
linear scan.  This experiment fills the index to increasing occupancy
and measures (a) real wall-clock query time of the per-query and
batched (`query_batch`) paths, (b) the simulated cost model the edge
charges, and (c) the speedup over the pre-optimization implementation
(`_LegacyLinearScan`), which is what BENCH json files track as the
before/after trajectory.  :func:`run_tier_scaling` then compares
per-kind linear scans with the fused multi-kind core at 10^5-10^6
entries.
"""

from __future__ import annotations

import dataclasses
import gc
import time
import typing

import numpy as np

from repro.core.descriptors import VectorDescriptor
from repro.core.distance import get_metric
from repro.core.index import FusedLinearCore, LinearIndex
from repro.sim.rng import RngStreams
from repro.vision.features import EmbeddingSpace

DEFAULT_SIZES = (100, 1_000, 5_000, 10_000, 20_000)
DEFAULT_TIER_SIZES = (100_000, 1_000_000)
DEFAULT_TIMING_REPS = 3


class _LegacyLinearScan:
    """The seed implementation's query path, kept as the speedup baseline.

    Rebuilds the scan matrix with ``np.stack`` after any mutation and
    recomputes every row norm inside the metric on every query — exactly
    what :class:`LinearIndex` did before contiguous storage, cached
    norms, and the batch API.  Only used for before/after reporting.
    """

    def __init__(self, metric: str = "cosine"):
        self._metric = get_metric(metric)
        self._vectors: dict[int, np.ndarray] = {}
        self._matrix: np.ndarray | None = None
        self._ids: list[int] = []

    def insert(self, entry_id: int, descriptor: VectorDescriptor) -> None:
        self._vectors[entry_id] = descriptor.vector.astype(np.float64)
        self._matrix = None

    def query(self, descriptor: VectorDescriptor,
              threshold: float) -> tuple[int, float] | None:
        if not self._vectors:
            return None
        if self._matrix is None:
            self._ids = list(self._vectors)
            self._matrix = np.stack([self._vectors[i] for i in self._ids])
        vec = descriptor.vector.astype(np.float64)
        distances = self._metric(self._matrix, vec)
        best = int(np.argmin(distances))
        best_distance = float(distances[best])
        if best_distance <= threshold:
            return self._ids[best], best_distance
        return None


@dataclasses.dataclass(frozen=True)
class IndexRow:
    """One occupancy level."""

    n_entries: int
    linear_wall_us: float
    linear_batch_us: float
    legacy_linear_us: float
    linear_model_us: float

    @property
    def batch_speedup(self) -> float:
        """Throughput gain of the batched path over the seed's scan."""
        return self.legacy_linear_us / self.linear_batch_us


def _check_decisions(got, want, threshold: float, eps: float = 1e-9) -> None:
    """Assert two result lists made the same match decisions,
    ignoring queries that sit within ``eps`` of the threshold."""
    for q, (a, b) in enumerate(zip(got, want)):
        margin = min(abs(d[1] - threshold) for d in (a, b) if d is not None
                     ) if (a is not None or b is not None) else np.inf
        if margin <= eps:
            continue
        assert (a is None) == (b is None) and (
            a is None or a[0] == b[0]), (
            f"query {q}: decisions diverge ({a} vs {b})")


def _fill(index, vectors: np.ndarray) -> None:
    for entry_id, vec in enumerate(vectors):
        index.insert(entry_id,
                     VectorDescriptor(kind="recognition", vector=vec))


def run_index_scaling(sizes: typing.Sequence[int] = DEFAULT_SIZES,
                      dim: int = 128, n_queries: int = 50,
                      threshold: float = 0.15,
                      seed: int = 0) -> list[IndexRow]:
    """Measure the seed scan and both query paths at each occupancy."""
    rng = RngStreams(seed)
    space = EmbeddingSpace(dim=dim, n_classes=max(sizes), seed=seed)
    rows = []
    for n_entries in sizes:
        # One stored observation per class; queries probe a random subset
        # of the same classes from a nearby viewpoint (true matches exist).
        stored = np.stack([
            space.observe(cls, 0.0, noise_key=cls).vector
            for cls in range(n_entries)])
        query_classes = rng.stream(f"queries.{n_entries}").integers(
            0, n_entries, size=n_queries)
        queries = [VectorDescriptor(
            kind="recognition",
            vector=space.observe(int(cls), 0.4,
                                 noise_key=10_000_000 + int(cls)).vector)
            for cls in query_classes]

        legacy = _LegacyLinearScan()
        linear = LinearIndex()
        _fill(legacy, stored)
        _fill(linear, stored)

        start = time.perf_counter()
        legacy_results = [legacy.query(q, threshold) for q in queries]
        legacy_wall = (time.perf_counter() - start) / n_queries

        start = time.perf_counter()
        linear_results = [linear.query(q, threshold) for q in queries]
        linear_wall = (time.perf_counter() - start) / n_queries

        start = time.perf_counter()
        linear_batch_results = linear.query_batch(queries, threshold)
        linear_batch_wall = (time.perf_counter() - start) / n_queries

        # The optimized paths must agree with the seed path's decisions.
        # Cross-implementation comparisons skip queries whose best
        # distance sits within float wobble of the threshold — different
        # arithmetic pipelines may legitimately disagree there.
        _check_decisions(linear_results, legacy_results, threshold)
        _check_decisions(linear_batch_results, linear_results, threshold)

        rows.append(IndexRow(
            n_entries=n_entries,
            linear_wall_us=linear_wall * 1e6,
            linear_batch_us=linear_batch_wall * 1e6,
            legacy_linear_us=legacy_wall * 1e6,
            linear_model_us=linear.lookup_cost_s() * 1e6))
    return rows


@dataclasses.dataclass(frozen=True)
class TierRow:
    """One occupancy level of the per-kind vs fused comparison.

    The workload mirrors a metro aggregation cache: one dominant vector
    kind (recognition descriptors, 95% of rows) plus a thin secondary
    kind sharing the same dimension, probed by near-duplicate queries.
    ``perkind_us`` answers the burst with one :class:`LinearIndex` per
    kind; ``fused_us`` with the :class:`FusedLinearCore` the cache
    builds.  Both store float32.  Timings are the minimum over
    ``timing_reps`` interleaved passes; ``*_spread`` is that pass set's
    (max - min) / min.  ``memory_mb`` is the allocated store bytes of
    the per-kind indexes, each filled in one burst (capacity equals
    occupancy).
    """

    n_entries: int
    perkind_us: float
    fused_us: float
    perkind_spread: float
    fused_spread: float
    memory_mb: float
    fused_recall: float

    @property
    def fused_speedup(self) -> float:
        """Fused batch throughput over per-kind linear scans."""
        return self.perkind_us / self.fused_us


def _time_interleaved(thunks: dict[str, typing.Callable[[], object]],
                      reps: int) -> dict[str, list[float]]:
    """Wall time of each thunk in each of ``reps`` round-robin passes.

    Interleaving the tiers (AB AB ...) instead of timing each one in a
    block means a load spike or thermal dip hits every tier, not
    whichever one happened to be running.
    """
    gc.collect()
    walls: dict[str, list[float]] = {name: [] for name in thunks}
    for _ in range(reps):
        for name, fn in thunks.items():
            start = time.perf_counter()
            fn()
            walls[name].append(time.perf_counter() - start)
    return walls


def _spread(samples: list[float]) -> float:
    return (max(samples) - min(samples)) / min(samples)


def run_tier_scaling(sizes: typing.Sequence[int] = DEFAULT_TIER_SIZES,
                     dim: int = 128, n_queries: int = 200,
                     threshold: float = 0.05, aux_every: int = 20,
                     noise: float = 0.02, seed: int = 0,
                     timing_reps: int = DEFAULT_TIMING_REPS
                     ) -> list[TierRow]:
    """Measure per-kind and fused exact scans at 10^5-10^6 occupancy.

    Population: ``n`` unit vectors, every ``aux_every``-th row tagged as
    a secondary kind sharing the dimension (the realistic shape — the
    recognition namespace dominates a deployed cache).  Queries are
    near-duplicates of stored rows (``noise`` perturbation, well inside
    ``threshold``), so exact search always matches.  Tiers:

    * per-kind ``LinearIndex`` — one scan per kind, the timing and
      recall baseline;
    * ``FusedLinearCore`` — both kinds in one store, a mixed burst
      answered with one matmul per queried kind segment.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for n_entries in sizes:
        population = rng.standard_normal((n_entries, dim),
                                         dtype=np.float32)
        population /= np.linalg.norm(population, axis=1, keepdims=True)
        is_aux = np.arange(n_entries) % aux_every == aux_every - 1
        descriptors = [
            VectorDescriptor(kind="aux" if is_aux[i] else "recognition",
                             vector=population[i])
            for i in range(n_entries)]
        items = list(enumerate(descriptors))
        rec_items = [it for it in items if it[1].kind == "recognition"]
        aux_items = [it for it in items if it[1].kind == "aux"]

        probe_rows = rng.integers(0, n_entries, size=n_queries)
        jitter = rng.standard_normal((n_queries, dim),
                                     dtype=np.float32) * noise
        queries = [
            VectorDescriptor(kind=descriptors[probe_rows[q]].kind,
                             vector=population[probe_rows[q]] + jitter[q])
            for q in range(n_queries)]
        kinds = [q.kind for q in queries]
        thresholds = [threshold] * n_queries
        rec_queries = [q for q in queries if q.kind == "recognition"]
        aux_queries = [q for q in queries if q.kind == "aux"]

        # Build both tiers up front, then time them interleaved so the
        # comparison shares environmental conditions.
        perkind_rec = LinearIndex()
        perkind_rec.insert_batch(rec_items)
        perkind_aux = LinearIndex()
        perkind_aux.insert_batch(aux_items)

        fused = FusedLinearCore()
        fused.view("aux").insert_batch(aux_items)
        fused.view("recognition").insert_batch(rec_items)

        walls = _time_interleaved({
            "perkind": lambda: (
                perkind_rec.query_batch(rec_queries, threshold),
                perkind_aux.query_batch(aux_queries, threshold)),
            "fused": lambda: fused.query_multi(kinds, queries,
                                               thresholds),
        }, timing_reps)

        rec_truth = iter(perkind_rec.query_batch(rec_queries, threshold))
        aux_truth = iter(perkind_aux.query_batch(aux_queries, threshold))
        truth = [next(rec_truth) if kind == "recognition"
                 else next(aux_truth) for kind in kinds]
        fused_results = fused.query_multi(kinds, queries, thresholds)
        matched = [(a, b) for a, b in zip(truth, fused_results)
                   if a is not None]
        recall = (sum(1 for a, b in matched
                      if b is not None and b[0] == a[0]) / len(matched)
                  if matched else float("nan"))

        rows.append(TierRow(
            n_entries=n_entries,
            perkind_us=min(walls["perkind"]) / n_queries * 1e6,
            fused_us=min(walls["fused"]) / n_queries * 1e6,
            perkind_spread=_spread(walls["perkind"]),
            fused_spread=_spread(walls["fused"]),
            memory_mb=(perkind_rec.memory_bytes()
                       + perkind_aux.memory_bytes()) / 1e6,
            fused_recall=recall))
    return rows

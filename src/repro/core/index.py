"""Descriptor indexes: how the edge finds "a result close enough".

Two lookup paths behind one interface:

* :class:`ExactIndex` — hash table for :class:`HashDescriptor` keys
  (3D models, panoramas).  O(1) lookups.
* :class:`FusedLinearCore` — exact nearest-neighbour scan over every
  vector kind of one dimension, kept in one kind-clustered store.  Each
  kind sees a :class:`_FusedKindView`; cost grows linearly with that
  kind's occupancy.  This is the only vector index the cache builds.

:class:`LinearIndex` is the same exact scan over a single kind.  It is
the reference the fused core is checked and benchmarked against.

Storage layout
==============
Vector indexes keep their descriptors in a :class:`_VectorStore`: one
contiguous, preallocated matrix plus a parallel array of cached
Euclidean row norms.  Capacity grows by amortized doubling (never per
insert); removal swap-compacts the last row into the freed slot, so the
live rows are always the dense prefix ``matrix[:n]`` and every query is
one contiguous BLAS pass with no masking.  Cosine queries reuse the
cached norms instead of re-running ``np.linalg.norm`` over the store.

The store is float32.  Client descriptors are float32 already
(:class:`~repro.core.descriptors.VectorDescriptor` stores float32
vectors), so storage is value-exact and all query arithmetic runs in
float32.  Batch and sequential answers may differ by float32 gemm-order
wobble (~1e-6), so the boundary re-answer margin
:data:`_DECISION_EPS` is 1e-5.

Batch API contract
==================
``query_batch(descriptors, threshold)`` answers a burst of same-kind
lookups in a single vectorized pass and returns one ``(entry_id,
distance) | None`` per descriptor, **in input order**, with the same
match decisions the equivalent sequence of ``query`` calls would make
(``query`` itself is implemented as a batch of one, so both paths share
one arithmetic pipeline).  An empty input returns an empty list.  The
:class:`LinearIndex` form is one all-pairs BLAS call; the fused core
answers a mixed-kind burst with one matmul per queried kind segment
(:meth:`FusedLinearCore.query_multi`).

Lookup pricing
==============
Each index also *prices* its lookups so the edge node can charge
simulated time proportional to the real data-structure work — the cache
is not free, and the miss-overhead bars of Figure 2 include it.
``lookup_cost_s()`` is a stateless *a-priori* estimate at current
occupancy (it does **not** depend on what the previous query happened
to touch), while ``last_query_cost_s`` records the realized cost of the
most recent query atomically with that query.

Affinity sketches
=================
For cache-affinity peer offload the edges need to answer "how likely is
*that* neighbour to hit this request?" without shipping whole caches
around.  :class:`AffinitySketch` is the compact, incrementally
maintained structure that makes this possible: every vector inserted
into (or dropped from) an :class:`~repro.core.cache.ICCache` is folded
down to the shared :data:`SKETCH_DIM`-dimensional input-sketch space and
hashed to a :data:`SKETCH_BITS`-bit random-hyperplane signature; the
sketch keeps a multiset of live signatures.  ``summary()`` snapshots
that multiset into a :class:`SketchSummary` — a few hundred bytes —
which edges gossip to their backhaul neighbours;
``SketchSummary.expected_hit`` then estimates hit probability as the
fraction of a peer's entries within a small Hamming radius of the query
signature.  The hyperplanes are a deterministic function of
``(seed, dim, bits)``, so every edge (and every client-side sketch)
agrees on bucket boundaries without any coordination.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

import numpy as np

from repro.core.descriptors import Descriptor, HashDescriptor, VectorDescriptor
from repro.core.distance import get_metric, get_metric_batch

#: Cheap input descriptor: dimension and client-side extraction cost.  A
#: perceptual hash / color-layout sketch, not a DNN backbone pass (the
#: layer cache and the affinity balancer share this space).
SKETCH_DIM = 32
SKETCH_COST_S = 0.004
#: Signature width of the affinity sketch.  10 bits / 1024 buckets keeps
#: same-content observations within Hamming radius 2 of each other ~96%
#: of the time while unrelated content lands that close < 5% of the time
#: (measured on the synthetic embedding geometry).
SKETCH_BITS = 10
#: Hamming radius ``SketchSummary.expected_hit`` integrates over.
SKETCH_RADIUS = 2
_SKETCH_SEED = 29


def input_sketch(vector: np.ndarray, dim: int = SKETCH_DIM) -> np.ndarray:
    """Project a full observation vector to the cheap input sketch.

    Deterministic fixed projection (averaging blocks of coordinates), so
    any two extractors agree; normalized for cosine matching.
    """
    full = np.asarray(vector, dtype=np.float64)
    if full.ndim != 1 or full.size < dim:
        raise ValueError(f"need a 1-D vector of at least {dim} elements")
    usable = (full.size // dim) * dim
    sketch = full[:usable].reshape(dim, -1).mean(axis=1)
    norm = np.linalg.norm(sketch)
    if norm == 0:
        raise ValueError("degenerate all-zero sketch")
    return sketch / norm


def _sketch_space(vector: np.ndarray) -> np.ndarray:
    """Fold any 1-D vector into the shared sketch space (never raises).

    Vectors already in sketch space pass through; longer ones are
    block-averaged like :func:`input_sketch` (normalization is skipped —
    hyperplane signs are scale-invariant); shorter ones are zero-padded.
    """
    vec = np.asarray(vector, dtype=np.float64).ravel()
    if vec.size == SKETCH_DIM:
        return vec
    if vec.size < SKETCH_DIM:
        padded = np.zeros(SKETCH_DIM, dtype=np.float64)
        padded[:vec.size] = vec
        return padded
    usable = (vec.size // SKETCH_DIM) * SKETCH_DIM
    return vec[:usable].reshape(SKETCH_DIM, -1).mean(axis=1)


@dataclasses.dataclass(frozen=True)
class SketchSummary:
    """A gossipable snapshot of one kind's :class:`AffinitySketch`.

    Attributes:
        n: Live entries behind the snapshot.
        counts: Signature -> live-entry count (only non-zero buckets).
        n_bits: Signature width the counts were taken under.
    """

    n: int
    counts: dict[int, int]
    n_bits: int = SKETCH_BITS

    @property
    def size_bytes(self) -> int:
        """Wire size: header plus (signature, count) pairs."""
        return 16 + 12 * len(self.counts)

    def expected_hit(self, signature: int,
                     radius: int = SKETCH_RADIUS) -> float:
        """Fraction of entries within ``radius`` bit flips of ``signature``.

        The affinity balancer's hit-probability estimate: content whose
        sketch lands in (or next to) a populated bucket is likely to
        match a cached descriptor under the recognition threshold.
        Cost grows as C(n_bits, radius) bucket probes — fine for the
        default radius, deliberate for anything larger.
        """
        if self.n <= 0:
            return 0.0
        mass = 0
        for r in range(min(radius, self.n_bits) + 1):
            for bits in itertools.combinations(range(self.n_bits), r):
                flipped = signature
                for b in bits:
                    flipped ^= (1 << b)
                mass += self.counts.get(flipped, 0)
        return min(1.0, mass / self.n)


class AffinitySketch:
    """Incrementally maintained signature multiset of one vector kind.

    Folds every vector through :func:`_sketch_space` and a fixed set of
    :data:`SKETCH_BITS` random hyperplanes (deterministic from the
    module seed, so all parties agree), keeping a count of live entries
    per signature.  ``add``/``remove`` are O(dim); ``summary()``
    snapshots the multiset for gossip.
    """

    def __init__(self, n_bits: int = SKETCH_BITS):
        if not 1 <= n_bits <= 62:
            raise ValueError("n_bits must be in [1, 62]")
        self.n_bits = n_bits
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            [_SKETCH_SEED, SKETCH_DIM, n_bits])))
        self._planes = rng.normal(size=(n_bits, SKETCH_DIM))
        self._weights = (1 << np.arange(n_bits - 1, -1, -1, dtype=np.int64))
        self._counts: dict[int, int] = {}
        self.n = 0

    def signature(self, vector: np.ndarray) -> int:
        """The bucket key of ``vector`` (any 1-D float vector)."""
        bits = (self._planes @ _sketch_space(vector)) > 0
        return int(bits @ self._weights)

    def add(self, vector: np.ndarray) -> None:
        sig = self.signature(vector)
        self._counts[sig] = self._counts.get(sig, 0) + 1
        self.n += 1

    def remove(self, vector: np.ndarray) -> None:
        sig = self.signature(vector)
        left = self._counts.get(sig, 0) - 1
        if left > 0:
            self._counts[sig] = left
        else:
            self._counts.pop(sig, None)
        self.n = max(0, self.n - 1)

    def summary(self) -> SketchSummary:
        """A frozen snapshot for gossip (counts are copied)."""
        return SketchSummary(n=self.n, counts=dict(self._counts),
                             n_bits=self.n_bits)

    def __len__(self) -> int:
        return self.n


class IndexEntryExists(ValueError):
    """The entry id is already present in the index."""


#: Decision-stability margin for batch-vs-sequential re-answers: far
#: wider than float32 BLAS summation-order wobble (~1e-6), far narrower
#: than any real match margin.
_DECISION_EPS = 1e-5


class _VectorStore:
    """Contiguous dense vector storage with cached per-row norms.

    Rows live in the dense prefix ``matrix[:n]``.  Inserts append;
    capacity doubles when full (amortized O(dim) per insert).  Removes
    swap the last live row into the freed slot (O(dim), order not
    preserved).  ``norms[:n]`` always mirrors ``matrix[:n]``.  Each row
    carries an int32 *tag* (default 0) that survives swap-compaction —
    the fused multi-kind index stores its kind code there.  The matrix,
    norms and all query arithmetic are float32.
    """

    MIN_CAPACITY = 64

    def __init__(self):
        self._matrix: np.ndarray | None = None  # (capacity, dim)
        self._norms: np.ndarray | None = None   # (capacity,)
        self._tags: np.ndarray | None = None    # (capacity,) int32
        self._row_ids: list[int] = []           # row -> entry_id
        self._row_of: dict[int, int] = {}       # entry_id -> row
        self.dim: int | None = None

    def __len__(self) -> int:
        return len(self._row_ids)

    def __contains__(self, entry_id: int) -> bool:
        return entry_id in self._row_of

    @property
    def matrix(self) -> np.ndarray:
        """Dense (n, dim) view of the live rows."""
        return self._matrix[:len(self._row_ids)]

    @property
    def norms(self) -> np.ndarray:
        """Cached Euclidean norms of the live rows; (n,) view."""
        return self._norms[:len(self._row_ids)]

    @property
    def tags(self) -> np.ndarray:
        """Per-row int32 tags of the live rows; (n,) view."""
        return self._tags[:len(self._row_ids)]

    def id_at(self, row: int) -> int:
        return self._row_ids[row]

    def rows_for(self, entry_ids: typing.Sequence[int]) -> np.ndarray:
        return np.fromiter((self._row_of[i] for i in entry_ids),
                           dtype=np.intp, count=len(entry_ids))

    def distances(self, metric_batch, queries: np.ndarray,
                  lo: int = 0, hi: int | None = None) -> np.ndarray:
        """(Q, hi - lo) distances of a query block against rows [lo, hi).

        Defaults cover every live row.  The restriction is a view, not a
        gather: callers that keep related rows contiguous (the fused
        core's kind segments) pay flops only for the rows they ask for.
        """
        if hi is None:
            hi = len(self._row_ids)
        return metric_batch(self._matrix[lo:hi], queries,
                            row_norms=self._norms[lo:hi])

    def dots(self, queries: np.ndarray,
             lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Raw (Q, hi - lo) inner products against rows [lo, hi)."""
        if hi is None:
            hi = len(self._row_ids)
        return queries @ self._matrix[lo:hi].T

    def swap_rows(self, i: int, j: int) -> None:
        """Swap two live rows in place (vectors, norms, tags, ids)."""
        if i == j:
            return
        self._matrix[[i, j]] = self._matrix[[j, i]]
        self._norms[[i, j]] = self._norms[[j, i]]
        self._tags[[i, j]] = self._tags[[j, i]]
        id_i, id_j = self._row_ids[i], self._row_ids[j]
        self._row_ids[i], self._row_ids[j] = id_j, id_i
        self._row_of[id_i] = j
        self._row_of[id_j] = i

    def memory_bytes(self) -> int:
        """Allocated array bytes (matrix + norms + tags)."""
        if self._matrix is None:
            return 0
        return (self._matrix.nbytes + self._norms.nbytes
                + self._tags.nbytes)

    def _allocate(self, capacity: int, dim: int) -> None:
        self.dim = dim
        self._matrix = np.empty((capacity, dim), dtype=np.float32)
        self._norms = np.empty(capacity, dtype=np.float32)
        self._tags = np.zeros(capacity, dtype=np.int32)

    def _grow(self, capacity: int) -> None:
        n = len(self._row_ids)
        grown = np.empty((capacity, self.dim), dtype=np.float32)
        grown[:n] = self._matrix[:n]
        self._matrix = grown
        grown_norms = np.empty(capacity, dtype=np.float32)
        grown_norms[:n] = self._norms[:n]
        self._norms = grown_norms
        grown_tags = np.zeros(capacity, dtype=np.int32)
        grown_tags[:n] = self._tags[:n]
        self._tags = grown_tags

    def add(self, entry_id: int, vec: np.ndarray, tag: int = 0) -> None:
        if self._matrix is None:
            self._allocate(max(self.MIN_CAPACITY, 1), vec.shape[0])
        n = len(self._row_ids)
        if n == self._matrix.shape[0]:
            self._grow(2 * n)
        self._matrix[n] = vec
        self._norms[n] = np.linalg.norm(self._matrix[n])
        self._tags[n] = tag
        self._row_ids.append(entry_id)
        self._row_of[entry_id] = n

    def add_batch(self, entry_ids: typing.Sequence[int],
                  matrix: np.ndarray, tag: int = 0) -> None:
        """Append many rows at once: one copy, at most one growth.

        ``matrix`` is (k, dim) and row j belongs to ``entry_ids[j]``.
        Capacity still grows by doubling, but at most once per burst
        instead of (potentially) several times across k inserts.
        """
        k = len(entry_ids)
        if k == 0:
            return
        if self._matrix is None:
            self._allocate(max(self.MIN_CAPACITY, k), matrix.shape[1])
        n = len(self._row_ids)
        if n + k > self._matrix.shape[0]:
            capacity = self._matrix.shape[0]
            while capacity < n + k:
                capacity *= 2
            self._grow(capacity)
        self._matrix[n:n + k] = matrix
        self._tags[n:n + k] = tag
        for j, entry_id in enumerate(entry_ids):
            # Per-row norms on purpose: an axis-1 reduction rounds
            # differently than the BLAS norm add() uses, and cached
            # norms feed simulated match decisions — batch and scalar
            # inserts must stay bit-identical.
            self._norms[n + j] = np.linalg.norm(self._matrix[n + j])
            self._row_ids.append(entry_id)
            self._row_of[entry_id] = n + j

    def remove(self, entry_id: int) -> None:
        row = self._row_of.pop(entry_id)
        last = len(self._row_ids) - 1
        last_id = self._row_ids.pop()
        if row != last:
            self._matrix[row] = self._matrix[last]
            self._norms[row] = self._norms[last]
            self._tags[row] = self._tags[last]
            self._row_ids[row] = last_id
            self._row_of[last_id] = row


class DescriptorIndex:
    """Interface shared by all index types."""

    #: Realized cost of the most recent query (mean per-descriptor cost
    #: for a batch), recorded atomically by query()/query_batch().
    last_query_cost_s: float | None = None

    def insert(self, entry_id: int, descriptor: Descriptor) -> None:
        raise NotImplementedError

    def insert_batch(self, items: typing.Sequence[
            tuple[int, Descriptor]]) -> None:
        """Insert many ``(entry_id, descriptor)`` pairs at once.

        Equivalent to inserting them one by one, but atomic — a
        validation failure leaves the index untouched — and vectorized
        where the index can amortize work across the burst: the vector
        indexes append the whole batch to their store in one copy.
        """
        done: list[int] = []
        try:
            for entry_id, descriptor in items:
                self.insert(entry_id, descriptor)
                done.append(entry_id)
        except Exception:
            for entry_id in reversed(done):
                self.remove(entry_id)
            raise

    def remove(self, entry_id: int) -> None:
        raise NotImplementedError

    def query(self, descriptor: Descriptor,
              threshold: float) -> tuple[int, float] | None:
        """Best match within ``threshold`` as ``(entry_id, distance)``."""
        raise NotImplementedError

    def query_batch(self, descriptors: typing.Sequence[Descriptor],
                    threshold: float) -> list[tuple[int, float] | None]:
        """Answer many lookups at once; results in input order.

        Equivalent to ``[self.query(d, threshold) for d in descriptors]``
        but vectorized where the index supports it.
        """
        return [self.query(d, threshold) for d in descriptors]

    def lookup_cost_s(self) -> float:
        """Simulated seconds one query is expected to cost right now.

        A stateless estimate at current occupancy — it never depends on
        what the previous query touched (see ``last_query_cost_s`` for
        the realized figure).
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class ExactIndex(DescriptorIndex):
    """Hash-digest table; distance is 0.0 on match."""

    #: Fixed per-lookup cost: one hash probe plus bookkeeping.
    PROBE_COST_S = 2e-5

    def __init__(self):
        #: Live entry ids per digest, oldest first.
        self._by_digest: dict[str, list[int]] = {}
        self._by_entry: dict[int, str] = {}
        self.last_query_cost_s: float | None = None

    def insert(self, entry_id: int, descriptor: Descriptor) -> None:
        if not isinstance(descriptor, HashDescriptor):
            raise TypeError("ExactIndex stores HashDescriptor keys")
        if entry_id in self._by_entry:
            raise IndexEntryExists(f"entry {entry_id} already indexed")
        # Last write wins for duplicate digests: queries answer the newest
        # live entry, and removing it falls back to the next newest.
        self._by_digest.setdefault(descriptor.digest, []).append(entry_id)
        self._by_entry[entry_id] = descriptor.digest

    def remove(self, entry_id: int) -> None:
        digest = self._by_entry.pop(entry_id, None)
        if digest is None:
            raise KeyError(f"entry {entry_id} not in index")
        ids = self._by_digest[digest]
        ids.remove(entry_id)
        if not ids:
            del self._by_digest[digest]

    def query(self, descriptor: Descriptor,
              threshold: float) -> tuple[int, float] | None:
        if not isinstance(descriptor, HashDescriptor):
            raise TypeError("ExactIndex queries need HashDescriptor keys")
        self.last_query_cost_s = self.PROBE_COST_S
        ids = self._by_digest.get(descriptor.digest)
        if ids is None:
            return None
        return ids[-1], 0.0

    def lookup_cost_s(self) -> float:
        return self.PROBE_COST_S

    def __len__(self) -> int:
        return len(self._by_entry)


class LinearIndex(DescriptorIndex):
    """Exact nearest-neighbour by brute-force vectorized scan.

    Vectors live in a shared :class:`_VectorStore` (contiguous matrix,
    amortized-doubling growth, swap-compacted removal, cached row norms),
    so queries never rebuild storage and cosine lookups skip the
    whole-store norm pass.  ``query`` is a batch of one; ``query_batch``
    answers Q lookups with a single (Q, N) BLAS call.
    """

    #: Cost model: fixed overhead + per-stored-vector scan cost.  The
    #: per-vector figure corresponds to a 128-d fused multiply-add pass.
    BASE_COST_S = 5e-5
    PER_VECTOR_COST_S = 2.5e-7

    def __init__(self, metric: str = "cosine"):
        self.metric_name = metric
        self._metric = get_metric(metric)
        self._metric_batch = get_metric_batch(metric)
        self._store = _VectorStore()
        self.last_query_cost_s: float | None = None

    def insert(self, entry_id: int, descriptor: Descriptor) -> None:
        vec = self._validate(descriptor)
        if entry_id in self._store:
            raise IndexEntryExists(f"entry {entry_id} already indexed")
        self._store.add(entry_id, vec)

    def insert_batch(self, items: typing.Sequence[
            tuple[int, Descriptor]]) -> None:
        """Insert a burst in one validated store append."""
        ids, vecs = self._validate_batch(items)
        if not ids:
            return
        self._store.add_batch(ids, np.stack(vecs))

    def _validate_batch(self, items) -> tuple[list[int], list[np.ndarray]]:
        ids: list[int] = []
        vecs: list[np.ndarray] = []
        seen: set[int] = set()
        for entry_id, descriptor in items:
            if entry_id in self._store or entry_id in seen:
                raise IndexEntryExists(f"entry {entry_id} already indexed")
            seen.add(entry_id)
            ids.append(entry_id)
            vecs.append(self._validate(descriptor))
        return ids, vecs

    def remove(self, entry_id: int) -> None:
        if entry_id not in self._store:
            raise KeyError(f"entry {entry_id} not in index")
        self._store.remove(entry_id)

    def query(self, descriptor: Descriptor,
              threshold: float) -> tuple[int, float] | None:
        return self.query_batch([descriptor], threshold)[0]

    def query_batch(self, descriptors: typing.Sequence[Descriptor],
                    threshold: float) -> list[tuple[int, float] | None]:
        vecs = [self._validate(d, for_query=True) for d in descriptors]
        if not vecs:
            return []
        self.last_query_cost_s = self.lookup_cost_s()
        if len(self._store) == 0:
            return [None] * len(vecs)
        queries = np.stack(vecs)
        distances = self._store.distances(self._metric_batch, queries)
        best = np.argmin(distances, axis=1)
        best_distance = distances[np.arange(len(vecs)), best]
        if distances.shape[1] > 1:
            runner_up = np.partition(distances, 1, axis=1)[:, 1]
        else:
            runner_up = np.full(len(vecs), np.inf)
        results: list[tuple[int, float] | None] = []
        for q, row in enumerate(best):
            d = float(best_distance[q])
            if len(vecs) > 1 and (
                    abs(d - threshold) <= _DECISION_EPS
                    or runner_up[q] - d <= _DECISION_EPS):
                # Boundary case: a one-query gemm and a Q-query gemm may
                # round differently (summation order), which could flip
                # an exact tie or a threshold-edge decision.  Re-answer
                # through the batch-of-one path — the same arithmetic a
                # sequential query() uses — so batch and sequential
                # decisions stay element-wise identical.
                results.append(self.query_batch([descriptors[q]],
                                                threshold)[0])
                continue
            if d <= threshold:
                results.append((self._store.id_at(int(row)), d))
            else:
                results.append(None)
        return results

    def lookup_cost_s(self) -> float:
        return self.BASE_COST_S + self.PER_VECTOR_COST_S * len(self._store)

    def memory_bytes(self) -> int:
        """Allocated storage bytes (the store's arrays)."""
        return self._store.memory_bytes()

    def __len__(self) -> int:
        return len(self._store)

    def _validate(self, descriptor: Descriptor,
                  for_query: bool = False) -> np.ndarray:
        if not isinstance(descriptor, VectorDescriptor):
            raise TypeError("LinearIndex stores VectorDescriptor keys")
        vec = np.asarray(descriptor.vector, dtype=np.float32)
        if self._store.dim is not None and vec.shape[0] != self._store.dim:
            raise ValueError(
                f"dimension mismatch: index is {self._store.dim}-d, "
                f"descriptor is {vec.shape[0]}-d")
        return vec


class FusedLinearCore:
    """One shared linear store for every vector kind of one dimension.

    The per-kind :class:`LinearIndex` layout answers a mixed-kind burst
    with one matmul *per kind*; at small per-kind occupancies the gemm
    setup dominates.  The fused core keeps all kinds' vectors in one
    :class:`_VectorStore` (the per-row int32 tag is the kind code),
    *clustered by kind*: each kind's rows form one contiguous segment,
    segments ordered by kind-code creation.  A burst spanning kinds
    stacks each kind's queries and runs one contiguous-view matmul per
    queried segment — the same flops a dedicated per-kind index would
    pay, with none of the per-call dispatch or the gather a
    tag-scattered layout would need.  Inserts keep the clustering by
    rotating later segments one row (O(later kinds) row swaps, O(dim)
    each); removes rotate them back.

    Kinds surface as :class:`_FusedKindView` facades that implement the
    full :class:`DescriptorIndex` interface, so the cache's bookkeeping
    (per-kind stats, rematch-after-expiry, cost charging) is unchanged;
    views price lookups at *per-kind* occupancy, exactly as a dedicated
    LinearIndex would, so simulated time is independent of fusion.  For
    a single-kind store the fused arithmetic degenerates to the
    dedicated LinearIndex arithmetic (same matrix, same BLAS calls).
    """

    def __init__(self, metric: str = "cosine"):
        self.metric_name = metric
        self._metric = get_metric(metric)
        self._metric_batch = get_metric_batch(metric)
        self._store = _VectorStore()
        self._codes: dict[str, int] = {}
        self._views: dict[str, _FusedKindView] = {}
        self._counts: dict[int, int] = {}     # code -> live rows
        self._owner: dict[int, int] = {}      # entry_id -> code
        #: Stacked (cross-kind) matmuls answered; the fusion win metric.
        self.fused_batches = 0

    def view(self, kind: str) -> "_FusedKindView":
        """The DescriptorIndex facade for one kind (created on demand)."""
        if kind not in self._views:
            code = len(self._codes)
            self._codes[kind] = code
            self._counts[code] = 0
            self._views[kind] = _FusedKindView(self, kind, code)
        return self._views[kind]

    def kind_len(self, code: int) -> int:
        return self._counts.get(code, 0)

    def _segment(self, code: int) -> tuple[int, int]:
        """``[lo, hi)`` row range of ``code``'s contiguous segment.

        Codes are assigned densely in creation order, so boundaries are
        prefix sums of the per-code counts.
        """
        lo = 0
        for c in range(code):
            lo += self._counts.get(c, 0)
        return lo, lo + self._counts.get(code, 0)

    def _later_codes(self, code: int) -> list[int]:
        """Codes after ``code`` whose segments are non-empty, in order."""
        return [c for c in range(code + 1, len(self._codes))
                if self._counts.get(c, 0) > 0]

    def _clusterize(self, row: int, code: int) -> None:
        """Move the appended row at ``row`` to the end of its segment.

        Chain-swaps with each later segment's first row (highest code
        first): every later segment rotates by one row but stays
        contiguous, and the new row lands right after its own kind's
        rows.  The caller increments ``_counts[code]`` afterwards.
        """
        for later in reversed(self._later_codes(code)):
            lo, _ = self._segment(later)
            self._store.swap_rows(row, lo)
            row = lo

    def _insert(self, code: int, entry_id: int,
                descriptor: Descriptor) -> None:
        vec = self._validate(descriptor)
        if entry_id in self._store:
            raise IndexEntryExists(f"entry {entry_id} already indexed")
        self._store.add(entry_id, vec, tag=code)
        self._clusterize(len(self._store) - 1, code)
        self._counts[code] += 1
        self._owner[entry_id] = code

    def _insert_batch(self, code: int, items: typing.Sequence[
            tuple[int, Descriptor]]) -> None:
        ids: list[int] = []
        vecs: list[np.ndarray] = []
        seen: set[int] = set()
        for entry_id, descriptor in items:
            if entry_id in self._store or entry_id in seen:
                raise IndexEntryExists(f"entry {entry_id} already indexed")
            seen.add(entry_id)
            ids.append(entry_id)
            vecs.append(self._validate(descriptor))
        if not ids:
            return
        appended_at = len(self._store)
        self._store.add_batch(ids, np.stack(vecs), tag=code)
        for j, entry_id in enumerate(ids):
            # Row j's swaps only touch positions <= appended_at + j, so
            # rows j+1.. sit untouched at the tail until their turn —
            # the final layout matches len(ids) scalar inserts exactly.
            self._clusterize(appended_at + j, code)
            self._counts[code] += 1
            self._owner[entry_id] = code

    def _remove(self, code: int, entry_id: int) -> None:
        if self._owner.get(entry_id) != code:
            raise KeyError(f"entry {entry_id} not in index")
        _, hi = self._segment(code)
        pos = int(self._store.rows_for([entry_id])[0])
        # Swap the doomed row to its segment's end, then through each
        # later segment's end until it is the global last row; later
        # segments rotate back by one and the store's swap-compact
        # remove then pops it without displacing anything.
        self._store.swap_rows(pos, hi - 1)
        pos = hi - 1
        for later in self._later_codes(code):
            _, lhi = self._segment(later)
            self._store.swap_rows(pos, lhi - 1)
            pos = lhi - 1
        self._store.remove(entry_id)
        del self._owner[entry_id]
        self._counts[code] -= 1

    def query_multi(self, kinds: typing.Sequence[str],
                    descriptors: typing.Sequence[Descriptor],
                    thresholds: typing.Sequence[float]
                    ) -> list[tuple[int, float] | None]:
        """Answer a mixed-kind burst, one segment matmul per kind.

        ``kinds[q]`` scopes query q's answer to that kind's rows;
        ``thresholds[q]`` is its match threshold.  Each queried kind's
        stacked queries hit only that kind's contiguous row segment —
        the flops of a dedicated per-kind index, without its per-call
        overhead or any column gather.  Results in input order,
        decision-identical to per-kind sequential queries.
        """
        vecs = [self._validate(d) for d in descriptors]
        if not vecs:
            return []
        if len(self._store) == 0:
            return [None] * len(vecs)
        if len(vecs) > 1:
            self.fused_batches += 1
        # Multi-query cosine bursts take the pruned score-space path;
        # everything else (single queries — including boundary
        # re-answers — and other metrics) runs the full distance kernel.
        fast = len(vecs) > 1 and self.metric_name == "cosine"
        results: list[tuple[int, float] | None] = [None] * len(vecs)
        by_kind: dict[str, list[int]] = {}
        for q, kind in enumerate(kinds):
            by_kind.setdefault(kind, []).append(q)
        for kind, qrows in by_kind.items():
            code = self._codes.get(kind)
            if code is None or self._counts.get(code, 0) == 0:
                continue  # no rows of this kind: results stay None
            lo, hi = self._segment(code)
            queries = np.stack([vecs[q] for q in qrows])
            if fast:
                best, best_distance, runner_up = self._cosine_topk(
                    queries, lo, hi)
            else:
                sub = self._store.distances(self._metric_batch, queries,
                                            lo, hi)
                best = np.argmin(sub, axis=1)
                best_distance = sub[np.arange(len(qrows)), best]
                if sub.shape[1] > 1:
                    runner_up = np.partition(sub, 1, axis=1)[:, 1]
                else:
                    runner_up = np.full(len(qrows), np.inf)
            for i, q in enumerate(qrows):
                d = float(best_distance[i])
                threshold = thresholds[q]
                if len(vecs) > 1 and (
                        abs(d - threshold) <= _DECISION_EPS
                        or runner_up[i] - d <= _DECISION_EPS):
                    # Same boundary rule as LinearIndex.query_batch:
                    # near a tie or the threshold edge, re-answer
                    # through the batch-of-one path so stacked and
                    # sequential decisions stay element-wise identical.
                    # The pruned path leans on this too: any candidate
                    # pair it could mis-order differs by at most a
                    # rounding error, far inside the eps band.
                    results[q] = self.query_multi(
                        [kind], [descriptors[q]], [threshold])[0]
                    continue
                if d <= threshold:
                    results[q] = (self._store.id_at(lo + int(best[i])), d)
        return results

    def _cosine_topk(self, queries: np.ndarray, lo: int, hi: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best/runner-up cosine distances over rows [lo, hi), pruned.

        The full kernel spends most of its wall time streaming the
        (Q, n) block through normalization, clip, and subtract passes.
        For *selection* those passes are redundant: for a fixed query,
        cosine distance is monotone non-increasing in the norm-scaled
        inner product, so one raw gemm plus a single scaling pass ranks
        every row.  The exact kernel arithmetic — same operation order,
        same dtype, same degenerate-norm handling as
        :func:`~repro.core.distance.cosine_distance_batch` — then runs
        on just the two selected candidates per query, so the distances
        returned are bit-identical to the full kernel's.  Score space
        may mis-order candidates separated by at most a rounding error
        (it divides in a different order, and clipped ties collapse);
        such pairs land within the caller's eps re-answer band, never
        in a direct decision.

        Returns ``(best_col, best_distance, runner_up_distance)`` with
        columns relative to ``lo``.
        """
        store = self._store
        dots = store.dots(queries, lo, hi)
        row_norms = store.norms[lo:hi]
        query_norms = np.linalg.norm(queries, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = dots / row_norms[None, :]
        degenerate_r = row_norms == 0.0
        if degenerate_r.any():
            scores[:, degenerate_r] = -np.inf
        rows = np.arange(len(queries))
        best = np.argmax(scores, axis=1)
        if scores.shape[1] > 1:
            scores[rows, best] = -np.inf
            second = np.argmax(scores, axis=1)
        else:
            second = None

        def exact(cols: np.ndarray) -> np.ndarray:
            # Per-element replica of cosine_distance_batch: divide by
            # the query norm, then the row norm, force degenerate pairs
            # to maximum distance, clip, subtract — in that order.
            with np.errstate(divide="ignore", invalid="ignore"):
                cos = dots[rows, cols] / query_norms
                cos = cos / row_norms[cols]
            cos[query_norms == 0.0] = -1.0
            cos[row_norms[cols] == 0.0] = -1.0
            np.clip(cos, -1.0, 1.0, out=cos)
            np.subtract(1.0, cos, out=cos)
            return cos

        best_distance = exact(best)
        if second is None:
            runner_up = np.full(len(queries), np.inf)
        else:
            runner_up = exact(second)
        return best, best_distance, runner_up

    def memory_bytes(self) -> int:
        """Allocated storage bytes of the shared store."""
        return self._store.memory_bytes()

    def __len__(self) -> int:
        return len(self._store)

    def _validate(self, descriptor: Descriptor) -> np.ndarray:
        if not isinstance(descriptor, VectorDescriptor):
            raise TypeError("FusedLinearCore stores VectorDescriptor keys")
        vec = np.asarray(descriptor.vector, dtype=np.float32)
        if self._store.dim is not None and vec.shape[0] != self._store.dim:
            raise ValueError(
                f"dimension mismatch: index is {self._store.dim}-d, "
                f"descriptor is {vec.shape[0]}-d")
        return vec


class _FusedKindView(DescriptorIndex):
    """One kind's :class:`DescriptorIndex` facade over a fused core.

    Mutations and queries delegate to the shared
    :class:`FusedLinearCore`, scoped to this view's kind code; pricing
    reports per-kind occupancy so the simulated lookup cost matches a
    dedicated :class:`LinearIndex` of the same kind exactly.
    """

    def __init__(self, core: FusedLinearCore, kind: str, code: int):
        self._core = core
        self.kind = kind
        self._code = code
        self.metric_name = core.metric_name
        self.last_query_cost_s: float | None = None

    def insert(self, entry_id: int, descriptor: Descriptor) -> None:
        self._core._insert(self._code, entry_id, descriptor)

    def insert_batch(self, items: typing.Sequence[
            tuple[int, Descriptor]]) -> None:
        self._core._insert_batch(self._code, items)

    def remove(self, entry_id: int) -> None:
        self._core._remove(self._code, entry_id)

    def query(self, descriptor: Descriptor,
              threshold: float) -> tuple[int, float] | None:
        return self.query_batch([descriptor], threshold)[0]

    def query_batch(self, descriptors: typing.Sequence[Descriptor],
                    threshold: float) -> list[tuple[int, float] | None]:
        results = self._core.query_multi(
            [self.kind] * len(descriptors), descriptors,
            [threshold] * len(descriptors))
        self.last_query_cost_s = self.lookup_cost_s()
        return results

    def lookup_cost_s(self) -> float:
        return (LinearIndex.BASE_COST_S
                + LinearIndex.PER_VECTOR_COST_S * len(self))

    def memory_bytes(self) -> int:
        """Bytes of the *shared* core store (not a per-kind share)."""
        return self._core.memory_bytes()

    def __len__(self) -> int:
        return self._core.kind_len(self._code)

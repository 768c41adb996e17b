"""Property-based tests: the exact vector index agrees with brute force."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.descriptors import VectorDescriptor
from repro.core.distance import pairwise
from repro.core.index import LinearIndex

DIM = 8

finite_vector = st.lists(
    st.floats(min_value=-10, max_value=10,
              allow_nan=False, allow_infinity=False),
    min_size=DIM, max_size=DIM).filter(
        lambda v: float(np.linalg.norm(v)) > 1e-6)


def vd(values):
    return VectorDescriptor("r", np.asarray(values, dtype=np.float32))


@given(stored=st.lists(finite_vector, min_size=1, max_size=20),
       query=finite_vector,
       threshold=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=80, deadline=None)
def test_linear_index_matches_brute_force(stored, query, threshold):
    index = LinearIndex()
    for i, vec in enumerate(stored):
        index.insert(i, vd(vec))
    got = index.query(vd(query), threshold)

    # float32 storage: brute-force reference must use the same precision.
    stored32 = [np.asarray(v, dtype=np.float32) for v in stored]
    query32 = np.asarray(query, dtype=np.float32)
    distances = [pairwise("cosine", v, query32) for v in stored32]
    best = int(np.argmin(distances))
    eps = 1e-6
    if distances[best] <= threshold - eps:
        assert got is not None
        assert abs(got[1] - distances[best]) < 1e-5
    elif distances[best] > threshold + eps:
        assert got is None


@given(stored=st.lists(finite_vector, min_size=2, max_size=15),
       removals=st.data())
@settings(max_examples=50, deadline=None)
def test_insert_remove_consistency(stored, removals):
    """After removals, removed ids never surface; survivors still do."""
    index = LinearIndex()
    for i, vec in enumerate(stored):
        index.insert(i, vd(vec))
    to_remove = removals.draw(st.sets(
        st.integers(min_value=0, max_value=len(stored) - 1),
        max_size=len(stored)))
    for i in to_remove:
        index.remove(i)
    assert len(index) == len(stored) - len(to_remove)
    for i, vec in enumerate(stored):
        hit = index.query(vd(vec), threshold=1e-9)
        if i in to_remove:
            assert hit is None or hit[0] != i
        # Survivors are found unless a duplicate vector shadows them.


@given(stored=st.lists(finite_vector, min_size=1, max_size=20),
       queries=st.lists(finite_vector, min_size=0, max_size=10),
       threshold=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=80, deadline=None)
def test_linear_query_batch_identical_to_sequential(stored, queries,
                                                    threshold):
    """Batched answers match the sequential path element-wise."""
    index = LinearIndex()
    for i, vec in enumerate(stored):
        index.insert(i, vd(vec))
    probes = [vd(q) for q in queries]
    batch = index.query_batch(probes, threshold)
    sequential = [index.query(p, threshold) for p in probes]
    assert len(batch) == len(sequential)
    for got, want in zip(batch, sequential):
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0]
            # Decisions are exact; reported distances wobble within the
            # float32 gemm margin (~1e-7).
            assert abs(got[1] - want[1]) < 1e-5


@given(stored=st.lists(finite_vector, min_size=1, max_size=15),
       queries=st.lists(finite_vector, min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_cache_lookup_batch_identical_to_sequential(stored, queries):
    """Two identical caches, one batched and one sequential, stay
    indistinguishable: same hits, same stats, same recency effects."""
    from repro.core.cache import ICCache

    batched = ICCache(capacity_bytes=1_000_000, default_threshold=0.3)
    sequential = ICCache(capacity_bytes=1_000_000, default_threshold=0.3)
    for cache in (batched, sequential):
        for i, vec in enumerate(stored):
            cache.insert(vd(vec), result=i, size_bytes=8)
    probes = [vd(q) for q in queries]
    got = batched.lookup_batch(probes, now=1.0)
    want = [sequential.lookup(p, now=1.0) for p in probes]
    assert [e and e.entry_id for e in got] == \
        [e and e.entry_id for e in want]
    assert batched.stats == sequential.stats


"""Unit tests for repro.core.index."""

import numpy as np
import pytest

from repro.core.descriptors import HashDescriptor, VectorDescriptor
from repro.core.index import (
    ExactIndex,
    FusedLinearCore,
    IndexEntryExists,
    LinearIndex,
)


def vec(kind, values):
    return VectorDescriptor(kind, np.asarray(values, dtype=np.float32))


class TestExactIndex:
    def test_insert_query_remove(self):
        index = ExactIndex()
        d = HashDescriptor("m", "aa11")
        index.insert(1, d)
        assert index.query(d, threshold=0.0) == (1, 0.0)
        index.remove(1)
        assert index.query(d, threshold=0.0) is None
        assert len(index) == 0

    def test_duplicate_entry_id_rejected(self):
        index = ExactIndex()
        index.insert(1, HashDescriptor("m", "aa"))
        with pytest.raises(IndexEntryExists):
            index.insert(1, HashDescriptor("m", "bb"))

    def test_duplicate_digest_last_wins(self):
        index = ExactIndex()
        d = HashDescriptor("m", "cc")
        index.insert(1, d)
        index.insert(2, d)
        assert index.query(d, 0.0) == (2, 0.0)
        # Removing the superseded entry must not disturb the winner.
        index.remove(1)
        assert index.query(d, 0.0) == (2, 0.0)

    def test_removing_newest_duplicate_falls_back_to_older(self):
        index = ExactIndex()
        d = HashDescriptor("m", "dd")
        for entry_id in (1, 2, 3):
            index.insert(entry_id, d)
        index.remove(3)
        assert index.query(d, 0.0) == (2, 0.0)
        index.remove(1)
        assert index.query(d, 0.0) == (2, 0.0)
        index.remove(2)
        assert index.query(d, 0.0) is None

    def test_type_checked(self):
        index = ExactIndex()
        with pytest.raises(TypeError):
            index.insert(1, vec("m", [1.0]))

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            ExactIndex().remove(5)

    def test_constant_lookup_cost(self):
        index = ExactIndex()
        cost_empty = index.lookup_cost_s()
        for i in range(100):
            index.insert(i, HashDescriptor("m", f"{i:x}"))
        assert index.lookup_cost_s() == cost_empty


class TestLinearIndex:
    def test_nearest_within_threshold(self):
        index = LinearIndex()
        index.insert(1, vec("r", [1, 0, 0]))
        index.insert(2, vec("r", [0, 1, 0]))
        hit = index.query(vec("r", [0.9, 0.1, 0]), threshold=0.2)
        assert hit is not None and hit[0] == 1

    def test_miss_outside_threshold(self):
        index = LinearIndex()
        index.insert(1, vec("r", [1, 0, 0]))
        assert index.query(vec("r", [0, 1, 0]), threshold=0.5) is None

    def test_returns_best_not_first(self):
        index = LinearIndex()
        index.insert(1, vec("r", [0.7, 0.7, 0]))
        index.insert(2, vec("r", [1, 0, 0]))
        hit = index.query(vec("r", [0.99, 0.05, 0]), threshold=1.0)
        assert hit[0] == 2

    def test_empty_query(self):
        assert LinearIndex().query(vec("r", [1, 0]), 1.0) is None

    def test_dimension_mismatch(self):
        index = LinearIndex()
        index.insert(1, vec("r", [1, 0, 0]))
        with pytest.raises(ValueError):
            index.insert(2, vec("r", [1, 0]))
        with pytest.raises(ValueError):
            index.query(vec("r", [1, 0]), 1.0)

    def test_remove_rebuilds_scan(self):
        index = LinearIndex()
        index.insert(1, vec("r", [1, 0]))
        index.insert(2, vec("r", [0, 1]))
        index.query(vec("r", [1, 0]), 1.0)  # builds the matrix
        index.remove(1)
        hit = index.query(vec("r", [1, 0]), threshold=2.0)
        assert hit[0] == 2

    def test_cost_grows_with_occupancy(self):
        index = LinearIndex()
        empty_cost = index.lookup_cost_s()
        for i in range(1000):
            index.insert(i, vec("r", [i, 1.0]))
        assert index.lookup_cost_s() > empty_cost


class TestQueryBatch:
    """query_batch must agree element-wise with sequential query calls."""

    def _fill(self, index, vectors):
        for i, v in enumerate(vectors):
            index.insert(i, vec("r", v))

    def test_empty_batch(self):
        assert LinearIndex().query_batch([], 0.5) == []
        assert ExactIndex().query_batch([], 0.5) == []

    def test_batch_on_empty_index(self):
        probes = [vec("r", [1, 0]), vec("r", [0, 1])]
        assert LinearIndex().query_batch(probes, 2.0) == [None, None]

    def test_linear_batch_matches_sequential(self):
        rng = np.random.default_rng(11)
        population = rng.normal(size=(60, 16))
        index = LinearIndex()
        self._fill(index, population)
        probes = [vec("r", population[i] + rng.normal(0, 0.05, 16))
                  for i in range(20)]
        probes += [vec("r", rng.normal(size=16)) for _ in range(10)]
        batch = index.query_batch(probes, threshold=0.05)
        sequential = [index.query(p, threshold=0.05) for p in probes]
        assert len(batch) == len(sequential)
        for got, want in zip(batch, sequential):
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want[0]
                # Match decisions agree exactly; distances from a (Q, N)
                # and a (1, N) float32 gemm wobble by ~1e-7.
                assert got[1] == pytest.approx(want[1], abs=1e-5)

    def test_exact_batch_uses_sequential_fallback(self):
        index = ExactIndex()
        index.insert(1, HashDescriptor("m", "aa"))
        got = index.query_batch(
            [HashDescriptor("m", "aa"), HashDescriptor("m", "bb")], 0.0)
        assert got == [(1, 0.0), None]


class TestContiguousStore:
    """Amortized growth and swap-compacted removal, via the public API."""

    def test_growth_beyond_initial_capacity(self):
        index = LinearIndex()
        rng = np.random.default_rng(5)
        population = rng.normal(size=(300, 8))
        for i, v in enumerate(population):
            index.insert(i, vec("r", v))
        assert len(index) == 300
        # Every stored vector is still retrievable post-doubling, within
        # the float32 self-match distance floor (~1e-7).
        for i in (0, 63, 64, 150, 299):
            hit = index.query(vec("r", population[i]), threshold=1e-5)
            assert hit is not None and hit[1] <= 1e-5

    def test_remove_reuses_slots(self):
        index = LinearIndex()
        rng = np.random.default_rng(6)
        population = rng.normal(size=(100, 8))
        for i, v in enumerate(population):
            index.insert(i, vec("r", v))
        for i in range(0, 100, 2):
            index.remove(i)
        assert len(index) == 50
        fresh = rng.normal(size=(50, 8))
        for i, v in enumerate(fresh):
            index.insert(1000 + i, vec("r", v))
        assert len(index) == 100
        for i in range(1, 100, 2):  # odd survivors still found
            hit = index.query(vec("r", population[i]), threshold=1e-5)
            assert hit is not None
        for i, v in enumerate(fresh):  # and so are the reinserts
            hit = index.query(vec("r", v), threshold=1e-5)
            assert hit is not None


class TestMemoryFootprint:
    """The store really is float32-sized — a silent regression to
    8-byte storage doubles edge memory and must fail CI."""

    def test_store_bytes_are_float32(self):
        capacity, dim = 512, 64
        index = LinearIndex()
        rng = np.random.default_rng(11)
        index.insert_batch([(i, VectorDescriptor("r", rng.normal(size=dim)))
                            for i in range(capacity)])
        # A one-burst fill allocates exactly ``capacity`` rows: float32
        # matrix and norms, plus the int32 tag column.
        assert index.memory_bytes() == (capacity * (dim + 1) * 4
                                        + capacity * 4)


class TestFusedSegments:
    """The fused core keeps each kind's rows in one contiguous segment."""

    DIM = 8

    def _assert_clustered(self, core):
        tags = core._store.tags
        boundary = 0
        for kind, code in sorted(core._codes.items(), key=lambda kv: kv[1]):
            count = core._counts[code]
            segment = tags[boundary:boundary + count]
            assert (segment == code).all(), (
                f"kind {kind} segment not contiguous: {tags.tolist()}")
            assert core._segment(code) == (boundary, boundary + count)
            boundary += count
        assert boundary == len(core._store)

    def test_interleaved_churn_keeps_segments_contiguous(self):
        rng = np.random.default_rng(5)
        core = FusedLinearCore()
        views = {k: core.view(k) for k in ("a", "b", "c")}
        entry = 0
        inserted = []
        for round_no in range(6):
            for kind in ("a", "b", "c", "b", "a"):
                views[kind].insert(
                    entry, vec(kind, rng.normal(size=self.DIM)))
                inserted.append((kind, entry))
                entry += 1
                self._assert_clustered(core)
            # A mid-stream batch lands like the same scalar inserts.
            batch = [(entry + j,
                      vec("b", rng.normal(size=self.DIM)))
                     for j in range(3)]
            views["b"].insert_batch(batch)
            inserted.extend(("b", eid) for eid, _ in batch)
            entry += 3
            self._assert_clustered(core)
            # Remove from the middle of an early segment: later
            # segments rotate back and stay contiguous.
            kind, eid = inserted.pop(rng.integers(len(inserted)))
            views[kind].remove(eid)
            self._assert_clustered(core)
        for kind in ("a", "b", "c"):
            assert core.kind_len(core._codes[kind]) == sum(
                1 for k, _ in inserted if k == kind)

    def test_queries_stay_scoped_after_churn(self):
        rng = np.random.default_rng(7)
        core = FusedLinearCore()
        targets = {}
        for code_kind in ("a", "b", "c"):
            view = core.view(code_kind)
            for j in range(20):
                eid = ord(code_kind) * 1000 + j
                v = rng.normal(size=self.DIM)
                view.insert(eid, vec(code_kind, v))
                targets[(code_kind, j)] = (eid, v)
        core._remove(core._codes["a"], targets[("a", 3)][0])
        core._remove(core._codes["b"], targets[("b", 0)][0])
        for (kind, j), (eid, v) in targets.items():
            if (kind, j) in (("a", 3), ("b", 0)):
                continue
            got = core.view(kind).query(vec(kind, v), threshold=1e-4)
            assert got is not None and got[0] == eid

    def test_multi_query_matches_dedicated_per_kind_indexes(self):
        """Pruned fused answers == dedicated LinearIndex answers."""
        rng = np.random.default_rng(11)
        core = FusedLinearCore()
        dedicated = {k: LinearIndex() for k in ("x", "y")}
        for offset, kind in ((0, "x"), (1000, "y")):
            view = core.view(kind)
            for j in range(150):
                v = rng.normal(size=self.DIM)
                if j % 37 == 0:
                    v = np.zeros(self.DIM)  # degenerate rows too
                view.insert(offset + j, vec(kind, v))
                dedicated[kind].insert(offset + j, vec(kind, v))
        kinds, probes = [], []
        for j in range(64):
            kind = "x" if j % 3 else "y"
            base = rng.normal(size=self.DIM)
            if j % 17 == 0:
                base = np.zeros(self.DIM)  # degenerate queries too
            kinds.append(kind)
            probes.append(vec(kind, base))
        fused = core.query_multi(kinds, probes, [0.6] * len(probes))
        for kind in ("x", "y"):
            qrows = [q for q, k in enumerate(kinds) if k == kind]
            expect = dedicated[kind].query_batch(
                [probes[q] for q in qrows], threshold=0.6)
            assert [fused[q] for q in qrows] == expect

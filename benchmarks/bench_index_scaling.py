"""A7 — descriptor index scaling: exact linear scan, scalar vs batch.

Vector lookups sit on every recognition request's critical path; this
bench measures real wall-clock query times of the exact scan as the
cache fills — per-query and batched — and records the before/after
speedup over the seed implementation in ``BENCH_index_scaling.json``.

The second half scales the cache to metro-aggregation occupancy
(10^5-10^6 entries) and compares one float32 LinearIndex per kind with
the fused float32 core the cache builds — wall time, its spread over
the interleaved passes, allocated memory, and the fused core's recall.
"""

from benchkit import emit, emit_json, provenance

from repro.eval.experiments.index_scaling import (
    DEFAULT_TIMING_REPS,
    run_index_scaling,
    run_tier_scaling,
)
from repro.eval.tables import format_table

SMOKE_KWARGS = {"sizes": (100, 1_000), "n_queries": 10}
TIER_SMOKE_KWARGS = {"sizes": (2_000, 8_000), "n_queries": 16,
                     "timing_reps": 1}


def test_index_scaling(benchmark, smoke):
    kwargs = SMOKE_KWARGS if smoke else {}
    tier_kwargs = TIER_SMOKE_KWARGS if smoke else {}

    def run_both():
        return run_index_scaling(**kwargs), run_tier_scaling(**tier_kwargs)

    rows, tiers = benchmark.pedantic(run_both, rounds=1, iterations=1)

    table = [[r.n_entries, f"{r.legacy_linear_us:.0f}",
              f"{r.linear_wall_us:.0f}", f"{r.linear_batch_us:.1f}",
              f"{r.batch_speedup:.0f}x"] for r in rows]
    emit(format_table(
        ["entries", "seed us/q", "linear us/q", "batch us/q", "speedup"],
        table, title="A7 — descriptor index scaling (wall clock)"))

    tier_table = [[t.n_entries, f"{t.perkind_us:.0f}",
                   f"{t.fused_us:.0f}", f"{t.fused_speedup:.1f}x",
                   f"{t.memory_mb:.0f}"]
                  for t in tiers]
    emit(format_table(
        ["entries", "per-kind us/q", "fused us/q", "fused speedup", "MB"],
        tier_table, title="A7b — per-kind vs fused scan at scale"))

    # Shape assertions (hold at any size, smoke included).
    sizes = [r.n_entries for r in rows]
    assert sizes == sorted(sizes) and len(sizes) >= 2
    for row in rows:
        for field in (row.linear_wall_us, row.linear_batch_us,
                      row.legacy_linear_us):
            assert field > 0.0

    tier_sizes = [t.n_entries for t in tiers]
    assert tier_sizes == sorted(tier_sizes) and len(tier_sizes) >= 2
    for t in tiers:
        # The fused core answers exactly what the per-kind scans do.
        assert t.fused_recall == 1.0
        for field in (t.perkind_us, t.fused_us, t.memory_mb):
            assert field > 0.0

    if smoke:
        return

    small, large = rows[0], rows[-1]
    by_n = {r.n_entries: r for r in rows}
    # Linear scan cost grows with occupancy.
    assert large.linear_wall_us > small.linear_wall_us
    # The batched path beats the seed's per-query scan by >= 5x at 10k
    # entries.
    assert by_n[10_000].batch_speedup >= 5.0
    assert tiers[0].n_entries >= 100_000

    benchmark.extra_info["batch_speedup_10k"] = by_n[10_000].batch_speedup
    benchmark.extra_info["fused_speedup_100k"] = tiers[0].fused_speedup

    emit_json("index_scaling", {
        "provenance": provenance(timing_reps=DEFAULT_TIMING_REPS),
        "workload": {"n_queries": 50, "dim": 128, "metric": "cosine"},
        "rows": [{
            "entries": r.n_entries,
            "baseline_us_per_query": r.legacy_linear_us,
            "linear_us_per_query": r.linear_wall_us,
            "linear_batch_us_per_query": r.linear_batch_us,
            "baseline_ops_per_sec": 1e6 / r.legacy_linear_us,
            "linear_batch_ops_per_sec": 1e6 / r.linear_batch_us,
            "speedup_vs_baseline": r.batch_speedup,
        } for r in rows],
        "tier_workload": {"n_queries": 200, "dim": 128,
                          "metric": "cosine", "threshold": 0.05,
                          "aux_kind_share": 0.05},
        "tier_rows": [{
            "entries": t.n_entries,
            "perkind_us_per_query": t.perkind_us,
            "fused_us_per_query": t.fused_us,
            "perkind_us_spread": t.perkind_spread,
            "fused_us_spread": t.fused_spread,
            "fused_speedup_vs_perkind": t.fused_speedup,
            "memory_mb": t.memory_mb,
            "fused_recall": t.fused_recall,
        } for t in tiers],
    })

#!/usr/bin/env python3
"""Schema guards for the committed BENCH_*.json result files.

Each guard loads one file from ``benchmarks/`` and asserts that the
fields its claim rests on are present and well-formed, so a full bench
run that drops a field or breaks a claim cannot land silently.

Usage:  python tools/check_bench.py
Exit status 1 when any guard fails.
"""

from __future__ import annotations

import json
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def check_city_scale(data: dict) -> None:
    """Events/sec fields present and positive."""
    for section, keys in {
        "replay": ("legacy_events_per_sec", "live_events_per_sec",
                   "speedup"),
        "city": ("events_per_sec", "wall_s_per_sim_hour",
                 "peak_rss_mb"),
    }.items():
        for key in keys:
            value = data[section][key]
            assert isinstance(value, (int, float)) and value > 0, (
                f"{section}.{key} = {value!r}")


def check_federation_market(data: dict) -> None:
    """Regime rows well-formed; paid peering beats the cloud."""
    rows = {row["regime"]: row for row in data["rows"]}
    assert {"free", "paid", "over_budget", "denied"} <= set(rows), \
        sorted(rows)
    for regime, row in rows.items():
        for key in ("requests", "served", "hit_ratio", "p99_ms",
                    "credits_spent", "credits_earned",
                    "transactions", "balance_sum"):
            assert isinstance(row[key], (int, float)), \
                f"{regime}.{key} = {row[key]!r}"
        assert abs(row["balance_sum"]) < 1e-9, regime
    assert rows["paid"]["p99_ms"] < rows["denied"]["p99_ms"]
    assert rows["paid"]["credits_spent"] > 0
    assert rows["denied"]["credits_spent"] == 0


def check_index_scaling(data: dict) -> None:
    """Tier rows: per-kind and fused timings, exact fused recall, and
    float32 storage only (no float64/int8 tier fields)."""
    assert data["tier_rows"], "no tier rows"
    for row in data["tier_rows"]:
        entries = row["entries"]
        for key in ("perkind_us_per_query", "fused_us_per_query",
                    "memory_mb"):
            value = row[key]
            assert isinstance(value, (int, float)) and value > 0, (
                f"{entries}.{key} = {value!r}")
        assert row["fused_recall"] == 1.0, entries
        stale = [key for key in row
                 if key.startswith(("float64_", "int8_"))]
        assert not stale, f"{entries}: removed-tier fields {stale}"
    for key in ("commit", "python", "numpy", "nproc", "timing_reps"):
        assert key in data["provenance"], f"provenance.{key} missing"


def check_real_backend(data: dict) -> None:
    """Wall-clock rows well-formed across the three backends."""
    rows = {row["backend"]: row for row in data["rows"]}
    assert {"sim", "real_inline", "real_process"} <= set(rows), \
        sorted(rows)
    for backend, row in rows.items():
        for key in ("requests", "wall_s", "requests_per_sec",
                    "hit_ratio", "mean_latency_ms", "accuracy"):
            assert isinstance(row[key], (int, float)), \
                f"{backend}.{key} = {row[key]!r}"
        assert row["requests_per_sec"] > 0, backend
        assert row["accuracy"] == 1.0, backend
    # Every backend completed the identical trace, and the real
    # deployments paid real wall-clock latency.
    assert len({row["requests"] for row in rows.values()}) == 1
    assert rows["real_process"]["wall_s"] > rows["sim"]["wall_s"]


GUARDS = {
    "BENCH_city_scale.json": check_city_scale,
    "BENCH_federation_market.json": check_federation_market,
    "BENCH_index_scaling.json": check_index_scaling,
    "BENCH_real_backend.json": check_real_backend,
}


def main() -> int:
    if not __debug__:
        sys.exit("check_bench.py is built on assert; run it without -O")
    failed = 0
    for name, guard in GUARDS.items():
        try:
            guard(json.loads((BENCH_DIR / name).read_text()))
        except (AssertionError, KeyError, OSError, ValueError) as exc:
            print(f"{name}: FAILED ({type(exc).__name__}: {exc})")
            failed += 1
        else:
            print(f"{name} schema OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

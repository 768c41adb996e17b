"""Tests for the experiment modules (small parameterizations).

These run the actual figure/ablation code paths with reduced sizes and
assert the *shape* claims each experiment exists to demonstrate — the
same assertions the full-size benchmarks make.
"""

import pytest

from repro.eval.experiments.eviction import run_eviction
from repro.eval.experiments.fig2a import run_fig2a
from repro.eval.experiments.fig2b import run_fig2b
from repro.eval.experiments.index_scaling import run_index_scaling
from repro.eval.experiments.layers import run_layer_cache
from repro.eval.experiments.panorama_exp import run_panorama
from repro.eval.experiments.privacy_exp import run_privacy
from repro.eval.experiments.sharing import run_sharing
from repro.eval.experiments.speculative import run_speculative
from repro.eval.experiments.thresholds import run_threshold_sweep


class TestFig2a:
    def test_constrained_pair_shape(self):
        result = run_fig2a(pairs=((90, 9), (400, 40)), repeats=1)
        low, high = result.rows
        # Hit wins clearly at the constrained pair...
        assert low.hit_ms < low.origin_ms
        assert low.reduction_pct > 40
        # ...and Origin latencies fall as bandwidth grows.
        assert high.origin_ms < low.origin_ms
        # Miss never undercuts Origin by more than noise.
        assert low.miss_ms >= low.origin_ms * 0.98

    def test_headline_number_ballpark(self):
        result = run_fig2a(repeats=1)
        assert 45 <= result.max_reduction_pct <= 65  # paper: 52.28

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            run_fig2a(repeats=0)


class TestFig2b:
    def test_shape(self):
        result = run_fig2b(sizes_kb=(231, 15053))
        small, large = result.rows
        for row in result.rows:
            assert row.hit_ms < row.origin_ms
            assert row.miss_ms >= row.origin_ms * 0.99
        # Reduction grows with model size; headline near the paper's.
        assert large.reduction_pct > small.reduction_pct
        assert 70 <= result.max_reduction_pct <= 85  # paper: 75.86

    def test_origin_scale_matches_paper_axis(self):
        result = run_fig2b(sizes_kb=(15053,))
        assert 5000 <= result.rows[0].origin_ms <= 8000  # ~6 s bar

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_fig2b(sizes_kb=())


class TestAblations:
    def test_threshold_tradeoff(self):
        rows = run_threshold_sweep(thresholds=(0.005, 0.1, 0.7),
                                   n_users=4, duration_s=60)
        tight, mid, loose = rows
        assert tight.hit_ratio < mid.hit_ratio <= loose.hit_ratio
        assert loose.accuracy < tight.accuracy

    def test_sharing_grows_with_users(self):
        rows = run_sharing(user_counts=(1, 8), requests_per_user=6)
        solo, crowd = rows
        assert crowd.hit_ratio > solo.hit_ratio
        assert crowd.reduction_pct > solo.reduction_pct

    def test_eviction_smarter_policies_win(self):
        rows = run_eviction(policies=("lru", "lfu"),
                            capacity_fracs=(0.1,),
                            n_models=50, n_requests=120)
        by_policy = {r.policy: r for r in rows}
        # Under Zipf skew, frequency-aware beats pure recency (or ties).
        assert by_policy["lfu"].hit_ratio >= by_policy["lru"].hit_ratio

    def test_layer_cache_degrades_gracefully(self):
        rows = run_layer_cache(deltas=(0.0, 2.0, 4.0), repeats=6)
        near, mid, far = rows
        assert near.layered_saved_pct > 90
        assert near.layered_saved_pct >= mid.layered_saved_pct \
            >= far.layered_saved_pct
        # The layered cache saves something where coarse saves ~nothing.
        assert mid.layered_saved_pct > mid.coarse_saved_pct - 100

    def test_privacy_tradeoff(self):
        rows = run_privacy(n_pairs=40)
        by_name = {r.mechanism: r for r in rows}
        assert by_name["none"].leakage == pytest.approx(1.0)
        # Sketches: fewer bits leak less.
        assert (by_name["sketch(64)"].leakage
                < by_name["sketch(1024)"].leakage)
        # Utility mostly survives at moderate settings.
        assert by_name["sketch(256)"].hit_recall > 0.9

    def test_panorama_sharing(self):
        rows = run_panorama(viewer_counts=(1, 4), segments=8)
        solo, crowd = rows
        assert crowd.hit_ratio > solo.hit_ratio
        assert crowd.backhaul_mb < crowd.origin_backhaul_mb

    def test_index_scaling(self):
        rows = run_index_scaling(sizes=(100, 2000), n_queries=10)
        small, large = rows
        # Linear scan cost grows with occupancy.
        assert large.linear_wall_us > small.linear_wall_us

    def test_speculative_saves_miss_latency(self):
        rows = run_speculative(pairs=((100, 10),))
        row = rows[0]
        assert row.miss_ms_speculative < row.miss_ms_sequential
        assert row.wasted_mb_per_hit > 0

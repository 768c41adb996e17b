"""The benchmark's four workloads, their metrics and correctness checks.

Three workloads drive the discrete-event simulator (``metro``, ``city``,
``catalog``); ``real`` drives the real socket backend.  Each takes the
run's seed and hands it to ``CoICConfig(seed=...)``; the program gets
only the generated spec (and, on ``real``, the generated trace).

A sim workload runs in *episodes*: build the deployment, drive it for a
fixed simulated duration, summarise.  The first ``episodes`` episodes
use distinct sub-seeds ``seed * episodes + j`` and are pooled into the
simulated statistics, which are therefore a pure function of the seed.
Further episodes repeat those sub-seeds while the run has time left;
they add host-time samples and must reproduce their first run exactly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import heapq
import resource
import statistics
import time
import typing

import numpy as np

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.metrics import OUTCOME_ERROR, OUTCOME_HIT, OUTCOME_SHED
from repro.core.scenario import (
    ClientSpec,
    EdgeSpec,
    MobilitySpec,
    ScenarioSpec,
    WarmupSpec,
)
from repro.core.tasks import KIND_RECOGNITION
from repro.eval.experiments.city_scale import city_spec
from repro.eval.experiments.mobility_exp import drive_scenario

from perfbench.tracing import (
    PIPELINE_STAGES,
    Tracer,
    instrument_real,
    instrument_sim,
    time_pipelines,
)

#: Outcomes that count as a failed request.
FAILED_OUTCOMES = (OUTCOME_ERROR, OUTCOME_SHED)

#: Requests beyond the reported tail latency (see :func:`tail_s`).
TAIL_SAMPLES = 10

#: Seconds :func:`reference_work` takes on the nominal host.  Sim
#: workloads report host time in nominal-host seconds (see
#: :class:`HostClock`).
REFERENCE_S = 0.004

#: Reference timings per driven episode: the drive runs in this many
#: slices of simulated time, each preceded by one timing.
CLOCK_SLICES = 30

#: Reference timings between consecutive deployment builds.
SETUP_REFERENCES = 5


# -- workload definitions -----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SimWorkload:
    """A simulated scenario driven by closed-loop clients.

    Attributes:
        name: Workload name.
        duration_s: Simulated seconds per episode.
        think_s: Client think time between requests.
        episodes: Sub-seeds pooled into the simulated statistics.
        setup_repeats: Deployments built per untraced episode, each a
            ``setup_s`` sample (the last one is driven).
        params: Workload parameters, for the run's provenance.
        build: ``seed -> (spec, config)``.
    """

    name: str
    duration_s: float
    think_s: float
    episodes: int
    setup_repeats: int
    params: dict
    build: typing.Callable[[int], tuple[ScenarioSpec, CoICConfig]]


@dataclasses.dataclass(frozen=True)
class RealWorkload:
    """The real backend replaying a generated trace.

    Attributes:
        name: Workload name.
        requests_per_client: Trace length per client.
        params: Workload parameters, for the run's provenance.
    """

    name: str
    requests_per_client: int
    params: dict

    def build(self, seed: int):
        """``(spec, config, items)`` for ``seed``: one edge, two clients,
        the A10 geometry (40 classes, 8 warm, 1080p, 1 Gb/s backhaul)."""
        from repro.backend.loadgen import build_workload

        config = CoICConfig(seed=seed)
        config.recognition.n_classes = 40
        config.recognition.resolution = "1080p"
        config.network.backhaul_mbps = 1000.0
        spec = ScenarioSpec(
            edges=(EdgeSpec(name="edge0", clients=(
                ClientSpec(name="m0_0"), ClientSpec(name="m0_1"))),),
            warmup=WarmupSpec(classes=tuple(range(8))))
        return spec, config, build_workload(spec, config,
                                            self.requests_per_client)


def metro(tiny: bool = False) -> SimWorkload:
    """4 federated edges x 4 mobile clients: the golden-digest shape."""
    duration = 30.0 if tiny else 600.0

    def build(seed: int):
        mobility = MobilitySpec(n_places=16, mean_dwell_s=8.0,
                                duration_s=duration, handoff_latency_s=0.05)
        spec = ScenarioSpec.metro(n_edges=4, clients_per_edge=4,
                                  federate=True, mobility=mobility)
        return spec, CoICConfig(seed=seed)

    return SimWorkload(
        name="metro", duration_s=duration, think_s=0.5,
        episodes=1 if tiny else 3, setup_repeats=15,
        params={"spec": "ScenarioSpec.metro", "n_edges": 4,
                "clients_per_edge": 4, "federate": True, "n_places": 16,
                "mean_dwell_s": 8.0, "handoff_latency_s": 0.05},
        build=build)


def city(tiny: bool = False) -> SimWorkload:
    """A grid city with a gravity surge and diurnal backhaul, GC on."""
    n_edges, per_edge, duration = (4, 5, 60.0) if tiny else (25, 40, 300.0)

    def build(seed: int):
        return (city_spec(n_edges, per_edge, duration, mean_dwell_s=600.0),
                CoICConfig(seed=seed))

    return SimWorkload(
        name="city", duration_s=duration, think_s=30.0, episodes=1,
        setup_repeats=15,
        params={"spec": "city_spec", "n_edges": n_edges,
                "clients_per_edge": per_edge, "mean_dwell_s": 600.0,
                "gc": "on"},
        build=build)


def catalog(tiny: bool = False) -> SimWorkload:
    """2 federated edges, a whole catalogue warm on edge0, edge1 cold."""
    n_classes, duration = (500, 30.0) if tiny else (20000, 300.0)

    def build(seed: int):
        config = CoICConfig(seed=seed)
        config.recognition.n_classes = n_classes
        spec = dataclasses.replace(
            ScenarioSpec.federated(n_edges=2, clients_per_edge=4),
            warmup=WarmupSpec(classes=tuple(range(n_classes)),
                              edges=("edge0",)))
        return spec, config

    return SimWorkload(
        name="catalog", duration_s=duration, think_s=0.5, episodes=1,
        setup_repeats=1,
        params={"spec": "ScenarioSpec.federated", "n_edges": 2,
                "clients_per_edge": 4, "n_classes": n_classes,
                "warm_edge": "edge0"},
        build=build)


def real(tiny: bool = False) -> RealWorkload:
    """1 edge, 2 closed-loop clients with no think time, real sockets."""
    per_client = 4 if tiny else 500
    return RealWorkload(
        name="real", requests_per_client=per_client,
        params={"mode": "process", "n_edges": 1, "clients": 2,
                "requests_per_client": per_client, "n_classes": 40,
                "warm_classes": 8, "resolution": "1080p",
                "backhaul_mbps": 1000.0, "think_s": 0.0})


WORKLOADS = {"metro": metro, "city": city, "catalog": catalog, "real": real}


def params_of(workload) -> dict:
    """Every parameter that shapes a workload's runs, for provenance."""
    params = dict(workload.params)
    if isinstance(workload, SimWorkload):
        params.update(sim_duration_s=workload.duration_s,
                      think_s=workload.think_s,
                      pooled_episodes=workload.episodes)
    return params


# -- shared helpers -----------------------------------------------------------


def reference_work() -> None:
    """A fixed CPU task that shares no code with the program.

    Heap and dict churn plus small matrix products, the mix of
    interpreter and BLAS work the simulator does.  It must never change:
    host times measured against different references do not compare.
    """
    heap: list = []
    for i in range(3000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
    table = {}
    while heap:
        key, value = heapq.heappop(heap)
        table[key & 1023] = (value, key)
    matrix = np.arange(2000.0).reshape(20, 100)
    for _ in range(10):
        matrix = matrix @ np.eye(100) * 0.5


class HostClock:
    """Host seconds converted to nominal-host seconds.

    A shared host's speed drifts: on the 2-vCPU VM this benchmark was
    built on, the same episode's wall time ranged over 1.5x within
    minutes.  Timing :func:`reference_work` before every slice of work
    and scaling each slice by ``REFERENCE_S / reference time`` cancels
    most of that drift.  The reference shares no code with the program,
    so a change to the program cannot move it.
    """

    def __init__(self):
        self.references: list[float] = []
        self.walls: list[float] = []

    def reference(self, repeats: int = 1) -> None:
        """Time :func:`reference_work` ``repeats`` times."""
        for _ in range(repeats):
            started = time.perf_counter()
            reference_work()
            self.references.append(time.perf_counter() - started)

    def timed(self, work: typing.Callable[[], object]) -> None:
        """Time the reference, then ``work``."""
        self.reference()
        started = time.perf_counter()
        work()
        self.walls.append(time.perf_counter() - started)

    def nominal_s(self) -> float:
        """Nominal seconds of all timed work (references smoothed over
        their two neighbours on each side)."""
        refs = self.references
        return sum(wall * REFERENCE_S
                   / statistics.median(refs[max(0, i - 2):i + 3])
                   for i, wall in enumerate(self.walls))


def timed_builds(build: typing.Callable[[], ClusterDeployment],
                 repeats: int) -> tuple[list, list, ClusterDeployment]:
    """Build ``repeats`` deployments; returns the host and nominal-host
    seconds of each build, and the last deployment.

    Each build is scaled by the median of the :data:`SETUP_REFERENCES`
    reference timings just before it and those just after it.  The
    drive's references came too late for a build and, on ``city``, ran
    beside a large heap: scaled by them, ``city``'s set-up spread 0.27
    over ten seeds.
    """
    clock, n = HostClock(), SETUP_REFERENCES
    clock.reference(n)
    for _ in range(repeats):
        deployment = None
        gc.collect()
        started = time.perf_counter()
        deployment = build()
        clock.walls.append(time.perf_counter() - started)
        clock.reference(n)
    refs = clock.references
    nominal = [wall * REFERENCE_S
               / statistics.median(refs[i * n:(i + 2) * n])
               for i, wall in enumerate(clock.walls)]
    return clock.walls, nominal, deployment


def tail_s(latencies: np.ndarray) -> float:
    """Mean latency of the :data:`TAIL_SAMPLES` slowest requests.

    The expected latency beyond the highest percentile that has ten
    samples beyond it (p99 at 1000 requests, p99.9 at 10^4).  A mean,
    not an order statistic: simulated latencies sit on discrete queueing
    levels, and a single order statistic lands on the same level for
    every seed.
    """
    n = len(latencies)
    if n <= TAIL_SAMPLES:
        return float(np.mean(latencies))
    return float(np.mean(np.partition(latencies, n - TAIL_SAMPLES)
                         [n - TAIL_SAMPLES:]))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1e3  # Linux reports kilobytes


def _gc_totals() -> tuple[int, int]:
    stats = gc.get_stats()
    return (sum(s["collections"] for s in stats),
            sum(s["collected"] for s in stats))


def _latency_metrics(latencies: np.ndarray, outcomes: dict,
                     correct: int) -> dict:
    requests = len(latencies)
    failed = sum(outcomes.get(o, 0) for o in FAILED_OUTCOMES)
    return {
        "mean_ms": float(np.mean(latencies)) * 1e3,
        "tail_ms": tail_s(latencies) * 1e3,
        "hit_ratio": outcomes.get(OUTCOME_HIT, 0) / requests,
        "accuracy": correct / requests,
        "ok_ratio": 1.0 - failed / requests,
    }


def sample_stats(values: typing.Sequence[float]) -> dict:
    """Sample count, median and p99 of one timing's samples."""
    return {"n": len(values), "median": statistics.median(values),
            "p99": float(np.percentile(values, 99))}


# -- sim episodes -------------------------------------------------------------


@dataclasses.dataclass
class Episode:
    """One built-and-driven deployment (sim) or replayed trace (real)."""

    seed: int
    #: Set-up seconds of every deployment built, the driven one last.
    setup_samples: list
    wall_s: float
    latencies_s: np.ndarray
    outcomes: dict
    correct: int
    #: Counters the per-layer metrics read (sim: federation, handoffs,
    #: shaper, coarse lookups, GC; real: edge counters, GC).
    layer: dict
    issued: int = 0
    clients: int = 0
    #: Sim, untraced: set-up and drive time in nominal-host seconds.
    nominal_setup_s: list = dataclasses.field(default_factory=list)
    nominal_wall_s: float = 0.0
    events: int = 0
    records: int = 0
    violations: list = dataclasses.field(default_factory=list)

    @property
    def requests(self) -> int:
        return len(self.latencies_s)

    @property
    def setup_s(self) -> float:
        return self.setup_samples[-1]

    @property
    def total_s(self) -> float:
        return self.setup_s + self.wall_s

    def fingerprint(self) -> dict:
        """Every simulated statistic the determinism check compares."""
        lat = self.latencies_s
        return {
            "requests": self.requests,
            "outcomes": dict(sorted(self.outcomes.items())),
            "p50_ms": float(np.percentile(lat, 50)) * 1e3,
            "p99_ms": float(np.percentile(lat, 99)) * 1e3,
            "hit_ratio": self.outcomes.get(OUTCOME_HIT, 0) / self.requests,
            "events_per_req": self.events / self.requests,
            "latency_sha256": hashlib.sha256(
                np.ascontiguousarray(lat, dtype=np.float64).tobytes()
            ).hexdigest(),
        }


def run_sim_episode(workload: SimWorkload, seed: int,
                    tracer: Tracer | None = None) -> Episode:
    """Build and drive one deployment; trace it when ``tracer`` is given."""
    spec, config = workload.build(seed)

    def build() -> ClusterDeployment:
        return ClusterDeployment(spec, config=config)

    if tracer is None:
        setup_samples, nominal_setup_s, deployment = timed_builds(
            build, workload.setup_repeats)
    gc.collect()
    instrumented = (instrument_sim(tracer) if tracer is not None
                    else contextlib.nullcontext())
    with instrumented:
        if tracer is not None:
            started = time.perf_counter()
            with tracer.span("cluster.build"):
                deployment = build()
            setup_samples = [time.perf_counter() - started]

        issued = [0]
        make_task = deployment.recognition_task

        def counted_task(*args, **kwargs):
            issued[0] += 1
            return make_task(*args, **kwargs)

        deployment.recognition_task = counted_task
        if tracer is not None:
            time_pipelines(deployment, tracer)
            run_for = deployment.run_for

            def traced_run_for(duration_s):
                with tracer.span("sim.kernel"):
                    run_for(duration_s)

            deployment.run_for = traced_run_for

            def count_event(_when, _priority, _event):
                tracer.counts["kernel.events"] += 1

            deployment.env.set_trace(count_event)
        else:
            clock = HostClock()
            deployment.run_for = _sliced_run_for(deployment.env, clock)
        gc_before = _gc_totals()
        started = time.perf_counter()
        drive_scenario(deployment, duration_s=workload.duration_s,
                       request_interval_s=workload.think_s)
        wall_s = time.perf_counter() - started
        gc_after = _gc_totals()

    recorder = deployment.recorder
    records = recorder.select(task_kind=KIND_RECOGNITION)
    edges = deployment.edges
    episode = Episode(
        seed=seed, setup_samples=setup_samples, wall_s=wall_s,
        latencies_s=np.array([r.end_s - r.start_s for r in records]),
        outcomes=recorder.outcome_counts(task_kind=KIND_RECOGNITION),
        correct=sum(1 for r in records if r.correct),
        layer={
            "peer_probes": sum(getattr(e, "peer_probes", 0) for e in edges),
            "peer_hits": sum(getattr(e, "peer_hits", 0) for e in edges),
            "coarse_lookups": sum(e.coarse_lookups for e in edges),
            "coarse_hits": sum(e.coarse_hits for e in edges),
            "handoffs": len(deployment.handoff_log),
            "rate_changes": len(deployment.shaper.changes),
            "gc_collections": gc_after[0] - gc_before[0],
            "gc_collected": gc_after[1] - gc_before[1],
        },
        issued=issued[0], clients=len(deployment.all_clients),
        events=deployment.env.events_processed,
        records=len(recorder.records))
    if tracer is None:
        episode.wall_s = sum(clock.walls)
        episode.nominal_wall_s = clock.nominal_s()
        episode.nominal_setup_s = nominal_setup_s
    episode.violations = check_sim_episode(episode)
    if tracer is not None and tracer.counts["kernel.events"] != episode.events:
        episode.violations.append(
            f"trace hook saw {tracer.counts['kernel.events']} events, "
            f"the kernel counted {episode.events}")
    return episode


def _failed(episode: Episode) -> int:
    return sum(episode.outcomes.get(o, 0) for o in FAILED_OUTCOMES)


def _sliced_run_for(env, clock: HostClock):
    """``run_for`` that drives in :data:`CLOCK_SLICES` timed slices.

    The kernel processes the same events in the same order whether
    ``run`` is called once or once per slice; the determinism check
    compares sliced and unsliced episodes.
    """

    def run_for(duration_s: float) -> None:
        start = env.now
        end = start + duration_s
        for k in range(1, CLOCK_SLICES + 1):
            until = end if k == CLOCK_SLICES else min(
                end, start + k * duration_s / CLOCK_SLICES)
            clock.timed(lambda: env.run(until=until))

    return run_for


def check_sim_episode(episode: Episode) -> list[str]:
    """Correctness violations of one sim episode (empty when correct)."""
    out = []
    requests = episode.requests
    if requests == 0:
        return [f"seed {episode.seed}: no request completed"]
    if episode.correct != requests:
        out.append(f"seed {episode.seed}: accuracy "
                   f"{episode.correct}/{requests} < 1.0")
    if episode.outcomes.get(OUTCOME_ERROR, 0):
        out.append(f"seed {episode.seed}: "
                   f"{episode.outcomes[OUTCOME_ERROR]} error outcomes")
    completed = sum(episode.outcomes.values())
    if completed != requests or completed != episode.records:
        out.append(f"seed {episode.seed}: outcome counts sum to "
                   f"{completed}, {requests} recognition records, "
                   f"{episode.records} records")
    # Closed loop: at the cut-off each client has at most one request
    # still in flight, so issued - completed is in [0, clients].
    in_flight = episode.issued - completed
    if not 0 <= in_flight <= episode.clients:
        out.append(f"seed {episode.seed}: {episode.issued} requests issued "
                   f"but {completed} completed with {episode.clients} "
                   f"clients")
    return out


def check_determinism(fingerprints: typing.Sequence[tuple[int, dict]]
                      ) -> list[str]:
    """Violations where two runs of one seed disagree on any statistic."""
    first: dict[int, dict] = {}
    out = []
    for seed, fingerprint in fingerprints:
        seen = first.setdefault(seed, fingerprint)
        if seen != fingerprint:
            diff = sorted(k for k in fingerprint
                          if fingerprint[k] != seen.get(k))
            out.append(f"seed {seed}: simulated statistics differ between "
                       f"runs ({', '.join(diff)})")
    return out


def run_sim(workload: SimWorkload, seed: int, seconds: float) -> dict:
    """End-to-end run: pooled simulated statistics, host-time medians."""
    deadline = time.perf_counter() + seconds
    seeds = [seed * workload.episodes + j for j in range(workload.episodes)]
    episodes, durations = [], []
    while len(episodes) < len(seeds) or (
            time.perf_counter() + statistics.median(durations) <= deadline):
        started = time.perf_counter()
        episodes.append(run_sim_episode(
            workload, seeds[len(episodes) % len(seeds)]))
        durations.append(time.perf_counter() - started)
    pooled = episodes[:len(seeds)]
    outcomes: dict[str, int] = {}
    for ep in pooled:
        for outcome, n in ep.outcomes.items():
            outcomes[outcome] = outcomes.get(outcome, 0) + n
    latencies = np.concatenate([ep.latencies_s for ep in pooled])
    setup = [s for ep in episodes for s in ep.setup_samples]
    rates = [ep.requests / ep.wall_s for ep in episodes]
    # Sub-seeds differ in work, and repeats need not cover them equally:
    # take each sub-seed's median drive time, then pool.
    walls = {s: statistics.median(ep.nominal_wall_s for ep in episodes
                                  if ep.seed == s) for s in seeds}
    metrics = {
        "setup_s": statistics.median(
            s for ep in episodes for s in ep.nominal_setup_s),
        "req_per_s": len(latencies) / sum(walls.values()),
        "peak_rss_mb": peak_rss_mb(),
        **_latency_metrics(latencies, outcomes,
                           sum(ep.correct for ep in pooled)),
    }
    violations = [v for ep in episodes for v in ep.violations]
    fingerprints = [(ep.seed, ep.fingerprint()) for ep in episodes]
    violations += check_determinism(fingerprints)
    return {
        "metrics": metrics,
        "attempted": sum(ep.issued for ep in episodes),
        "failed": sum(_failed(ep) for ep in episodes),
        "violations": violations,
        "fingerprints": dict(fingerprints),
        "samples": {"setup_s": sample_stats(setup),
                    "req_per_s": sample_stats(rates),
                    "nominal_req_per_s": sample_stats(
                        [ep.requests / ep.nominal_wall_s
                         for ep in episodes]),
                    "episodes": [[ep.seed, ep.requests, ep.setup_s,
                                  ep.wall_s, ep.nominal_wall_s]
                                 for ep in episodes],
                    "latency_ms": {
                        "n": len(latencies),
                        "median": float(np.median(latencies)) * 1e3,
                        "p99": float(np.percentile(latencies, 99)) * 1e3,
                        "tail": tail_s(latencies) * 1e3}},
    }


# -- traced runs --------------------------------------------------------------

#: Per-layer metrics of layers only one backend has; the other backend
#: reports them as 0 (no calls, no time).
SIM_ONLY_LAYER_METRICS = (
    "kernel.events_per_req", "kernel.us_per_event", "kernel.events_per_s",
    *(f"pipeline.{stage}.{what}" for stage in PIPELINE_STAGES
      for what in ("self_us_per_req", "runs")),
    "federation.probes", "federation.peer_hit_ratio",
    "net.transfers_per_req", "net.transfer.us", "net.route.us",
    "net.shaper.rate_changes", "cluster.handoffs", "cluster.handoff.us")
REAL_ONLY_LAYER_METRICS = (
    "backend.cloud_wait_ms", "backend.protocol.encode_us",
    "backend.protocol.decode_us", "backend.protocol.bytes_per_frame",
    "backend.edge.lookup_us", "backend.hit_rtt_us")


def _per_call_us(tracer: Tracer, name: str, calls: float) -> float:
    return tracer.self_s[name] / calls * 1e6 if calls else 0.0


def _trace_totals(plain: Episode, traced: Episode, tracer: Tracer) -> dict:
    named = sum(tracer.layer_self_s().values())
    return {
        "trace.overhead_ratio": (traced.total_s - plain.total_s)
        / plain.total_s,
        "trace.unattributed_ratio": (traced.total_s - named)
        / traced.total_s,
    }


def _common_layers(tracer: Tracer) -> dict:
    counts, calls = tracer.counts, tracer.calls
    queries = counts["cache.queries"]
    return {
        "cache.lookup.us_per_query": _per_call_us(tracer, "cache.lookup",
                                                  queries),
        "cache.lookup.queries_per_batch": (queries / calls["cache.lookup"]
                                           if calls["cache.lookup"] else 0.0),
        "cache.entries_mean": (counts["cache.entries_seen"] / queries
                               if queries else 0.0),
        "cache.insert.us": _per_call_us(tracer, "cache.insert",
                                        counts["cache.insert_rows"]),
        "cache.insert.calls": calls["cache.insert"],
        "features.observe.us": _per_call_us(
            tracer, "features.observe", calls["features.observe"]),
        "features.observe.calls": calls["features.observe"],
        "metrics.record.us": _per_call_us(tracer, "metrics.record",
                                          calls["metrics.record"]),
    }


def sim_layer_metrics(plain: Episode, traced: Episode,
                      tracer: Tracer) -> dict:
    """Per-layer metrics of one (untraced, traced) pair of a sim seed."""
    requests, counts = plain.requests, tracer.counts
    layer = plain.layer
    metrics = {
        **dict.fromkeys(REAL_ONLY_LAYER_METRICS, 0),
        "kernel.events_per_req": plain.events / requests,
        "kernel.us_per_event": _per_call_us(tracer, "sim.kernel",
                                            plain.events),
        "kernel.events_per_s": plain.events / plain.wall_s,
        "cache.local_hit_ratio": (layer["coarse_hits"]
                                  / layer["coarse_lookups"]
                                  if layer["coarse_lookups"] else 0.0),
        "federation.probes": layer["peer_probes"],
        "federation.peer_hit_ratio": (layer["peer_hits"]
                                      / layer["peer_probes"]
                                      if layer["peer_probes"] else 0.0),
        "net.transfers_per_req": counts["net.transfers"] / requests,
        "net.transfer.us": _per_call_us(tracer, "net.transfer",
                                        counts["net.transfers"]),
        "net.route.us": _per_call_us(tracer, "net.route",
                                     tracer.calls["net.route"]),
        "net.shaper.rate_changes": layer["rate_changes"],
        "cluster.handoffs": layer["handoffs"],
        "cluster.handoff.us": _per_call_us(
            tracer, "cluster.handoff", counts["cluster.handoff_calls"]),
        "gc.collections": layer["gc_collections"],
        "gc.collected_per_req": layer["gc_collected"] / requests,
        **_common_layers(tracer),
        **_trace_totals(plain, traced, tracer),
    }
    for stage in PIPELINE_STAGES:
        metrics[f"pipeline.{stage}.self_us_per_req"] = (
            tracer.self_s[f"pipeline.{stage}"] / requests * 1e6)
        metrics[f"pipeline.{stage}.runs"] = counts[f"pipeline.{stage}.runs"]
    return metrics


def _run_pairs(seconds: float, run_pair) -> dict:
    """Alternate untraced and traced episodes while time remains.

    ``run_pair(tracer) -> (plain, traced, layer_metrics)``; each metric is
    reported as its median over the pairs, and the self-time breakdown
    comes from the last traced episode.
    """
    deadline = time.perf_counter() + seconds
    rows, durations, episodes = [], [], []
    while not durations or (time.perf_counter()
                            + statistics.median(durations) <= deadline):
        started = time.perf_counter()
        tracer = Tracer()
        plain, traced, row = run_pair(tracer)
        rows.append(row)
        episodes += [plain, traced]
        durations.append(time.perf_counter() - started)
    traced_s = episodes[-1].total_s
    breakdown = {name: {"self_s": s, "share": s / traced_s,
                        "calls": tracer.calls[name]}
                 for name, s in sorted(tracer.self_s.items(),
                                       key=lambda kv: -kv[1])}
    return {
        "metrics": {name: statistics.median(row[name] for row in rows)
                    for name in rows[0]},
        "attempted": sum(ep.issued for ep in episodes),
        "failed": sum(_failed(ep) for ep in episodes),
        "violations": [v for ep in episodes for v in ep.violations],
        "fingerprints": {}, "tracer": tracer,
        "breakdown": {"traced_wall_s": traced_s, "spans": tracer.n_spans,
                      "self_time": breakdown},
        "samples": {"pairs": len(rows)},
    }


def trace_sim(workload: SimWorkload, seed: int, seconds: float) -> dict:
    """Traced run: per-layer metrics, overhead and unattributed time."""
    sub_seed = seed * workload.episodes
    fingerprints = []

    def pair(tracer):
        plain = run_sim_episode(workload, sub_seed)
        traced = run_sim_episode(workload, sub_seed, tracer)
        fingerprints.extend([(sub_seed, plain.fingerprint()),
                             (sub_seed, traced.fingerprint())])
        return plain, traced, sim_layer_metrics(plain, traced, tracer)

    result = _run_pairs(seconds, pair)
    result["violations"] += check_determinism(fingerprints)
    result["fingerprints"] = dict(fingerprints)
    return result


# -- real backend -------------------------------------------------------------


def run_real_episode(workload: RealWorkload, seed: int, mode: str,
                     tracer: Tracer | None = None,
                     items: list | None = None) -> Episode:
    """Replay the seed's trace (or ``items``) on the real backend."""
    from repro.backend.runner import run_real_scenario

    spec, config, trace = workload.build(seed)
    items = trace if items is None else items
    gc.collect()
    instrumented = (instrument_real(tracer) if tracer is not None
                    else contextlib.nullcontext())
    gc_before = _gc_totals()
    started = time.monotonic()
    with instrumented:
        result = run_real_scenario(spec, config=config, items=items,
                                   mode=mode)
    # Record timestamps are the event loop's clock, time.monotonic().
    records = result.recorder.records
    setup_s = min(r.start_s for r in records) - started
    gc_after = _gc_totals()
    counters = result.edge_counters[0] if result.edge_counters else {}
    episode = Episode(
        seed=seed, setup_samples=[setup_s], wall_s=result.wall_s,
        latencies_s=np.array([r.end_s - r.start_s for r in records]),
        outcomes=result.recorder.outcome_counts(),
        correct=sum(1 for r in records if r.correct),
        layer={"served": counters.get("served", 0),
               "edge_hits": counters.get("hits", 0),
               "gc_collections": gc_after[0] - gc_before[0],
               "gc_collected": gc_after[1] - gc_before[1],
               "miss_latencies_s": [r.end_s - r.start_s for r in records
                                    if r.outcome == "miss"],
               "hit_latencies_s": [r.end_s - r.start_s for r in records
                                   if r.outcome == OUTCOME_HIT]},
        issued=len(items), clients=len({i.client for i in items}),
        records=len(records))
    episode.violations = check_real_episode(records, items)
    return episode


def check_real_episode(records, items) -> list[str]:
    """Every trace item recorded exactly once, with a label."""
    out = []
    expected: dict[str, int] = {}
    for item in items:
        expected[item.client] = expected.get(item.client, 0) + 1
    got: dict[str, int] = {}
    for record in records:
        got[record.user] = got.get(record.user, 0) + 1
    if got != expected:
        out.append(f"records per client {got} != trace items per client "
                   f"{expected}")
    unlabeled = sum(1 for r in records if "label" not in r.detail)
    if unlabeled:
        out.append(f"{unlabeled} records carry no label")
    return out


#: Fewest set-up samples a ``real`` run takes; probes fill the rest of
#: the run's time on top.
REAL_SETUP_SAMPLES = 9


def run_real(workload: RealWorkload, seed: int, seconds: float) -> dict:
    """End-to-end run over spawned edge and cloud processes."""
    deadline = time.perf_counter() + seconds
    episodes, durations = [], []
    while not durations or (time.perf_counter()
                            + statistics.median(durations) <= deadline):
        started = time.perf_counter()
        episodes.append(run_real_episode(workload, seed, "process"))
        durations.append(time.perf_counter() - started)
    setup = [ep.setup_s for ep in episodes]
    _, _, items = workload.build(seed)
    probe = [next(i for i in items if i.client == c)
             for c in dict.fromkeys(i.client for i in items)]
    probes, probe_s = [], []
    while len(setup) < REAL_SETUP_SAMPLES or (
            time.perf_counter() + statistics.median(probe_s) <= deadline):
        # Set-up samples only: spawn, warm, serve one request per client.
        started = time.perf_counter()
        probes.append(run_real_episode(workload, seed, "process",
                                       items=probe))
        probe_s.append(time.perf_counter() - started)
        setup.append(probes[-1].setup_s)
    rates = [ep.requests / ep.wall_s for ep in episodes]
    per_episode = [_latency_metrics(ep.latencies_s, ep.outcomes, ep.correct)
                   for ep in episodes]
    # Host seconds, unscaled.  Spawning and warming processes does not
    # follow the reference task: scaling by it doubled set-up's spread.
    # Throughput is bound by the cloud shim's sleeps.
    metrics = {
        "setup_s": statistics.median(setup),
        "req_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mb(),
        **{name: statistics.median(m[name] for m in per_episode)
           for name in per_episode[0]},
    }
    runs = episodes + probes
    return {
        "metrics": metrics,
        "attempted": sum(ep.issued for ep in runs),
        "failed": sum(_failed(ep) for ep in runs),
        "violations": [v for ep in runs for v in ep.violations],
        "fingerprints": {},
        "samples": {"setup_s": sample_stats(setup),
                    "req_per_s": sample_stats(rates),
                    "latency_ms": {
                        "n": [ep.requests for ep in episodes],
                        "median": [float(np.median(ep.latencies_s)) * 1e3
                                   for ep in episodes],
                        "p99": [float(np.percentile(ep.latencies_s, 99))
                                * 1e3 for ep in episodes],
                        "tail": [m["tail_ms"] for m in per_episode]}},
    }


def real_layer_metrics(workload: RealWorkload, seed: int, plain: Episode,
                       traced: Episode, tracer: Tracer) -> dict:
    """Per-layer metrics of one (untraced, traced) inline pair."""
    from repro.backend.cloud_server import cloud_latency_s
    from repro.backend.runner import build_cloud_payload

    _, config, items = workload.build(seed)
    shim = build_cloud_payload(config)["shim"]
    cloud_s = cloud_latency_s(shim, items[0].input_bytes)
    misses = plain.layer["miss_latencies_s"]
    hits = plain.layer["hit_latencies_s"]
    calls = tracer.calls
    encodes = calls["backend.protocol.encode"]
    metrics = dict.fromkeys(SIM_ONLY_LAYER_METRICS, 0)
    metrics.update({
        "cache.local_hit_ratio": (plain.layer["edge_hits"]
                                  / plain.layer["served"]
                                  if plain.layer["served"] else 0.0),
        "gc.collections": plain.layer["gc_collections"],
        "gc.collected_per_req": plain.layer["gc_collected"] / plain.requests,
        "backend.cloud_wait_ms": (statistics.mean(misses) - cloud_s) * 1e3
        if misses else 0.0,
        "backend.protocol.encode_us": _per_call_us(
            tracer, "backend.protocol.encode", encodes),
        "backend.protocol.decode_us": _per_call_us(
            tracer, "backend.protocol.decode",
            calls["backend.protocol.decode"]),
        "backend.protocol.bytes_per_frame": (
            tracer.counts["backend.frame_bytes"] / encodes
            if encodes else 0.0),
        "backend.edge.lookup_us": _per_call_us(tracer, "cache.lookup",
                                               calls["cache.lookup"]),
        "backend.hit_rtt_us": statistics.median(hits) * 1e6 if hits else 0.0,
        **_common_layers(tracer),
        **_trace_totals(plain, traced, tracer),
    })
    return metrics


def trace_real(workload: RealWorkload, seed: int, seconds: float) -> dict:
    """Traced run: both episodes inline, so one process holds every call."""

    def pair(tracer):
        plain = run_real_episode(workload, seed, "inline")
        traced = run_real_episode(workload, seed, "inline", tracer)
        return plain, traced, real_layer_metrics(workload, seed, plain,
                                                 traced, tracer)

    return _run_pairs(seconds, pair)


def run(name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """One benchmark run of workload ``name``; see :mod:`perfbench.run`."""
    workload = WORKLOADS[name](tiny)
    if isinstance(workload, RealWorkload):
        runner = trace_real if trace else run_real
    else:
        runner = trace_sim if trace else run_sim
    result = runner(workload, seed, seconds)
    result["params"] = params_of(workload)
    return result

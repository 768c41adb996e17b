"""Span tracing for the benchmark's traced runs.

The program under test has no spans of its own yet, so the traced run
records them from the outside: :func:`instrument_sim` and
:func:`instrument_real` wrap the public entry points of each layer
(and the two generator trampolines that drive simulated work) for the
duration of one episode, then put every original back.

A span is ``(name, start, end, parent, request)``.  Spans nest by host
call stack: the run is single-threaded, so whatever span is open when a
wrapped call starts is its parent.  A layer's self time is its spans'
duration minus the part covered by child spans, so the self times of
all spans partition the traced wall time exactly; what no named layer
claims is the unattributed remainder.

Spans are kept in flat in-memory columns and written once, at the end
of the run, by :meth:`Tracer.save`.
"""

from __future__ import annotations

import array
import collections
import contextlib
import time
import typing

import numpy as np

#: Span names that belong to no layer.  ``sim.process`` is one resume
#: of a simulation process: the glue code between layers (clients, RPC
#: plumbing, edge dispatch) that runs there is what the unattributed
#: remainder measures.
UNNAMED_SPANS = ("sim.process",)

#: The pipeline's default stage chain, in order.
PIPELINE_STAGES = ("admit", "classify", "lookup", "resolve", "respond")


class Tracer:
    """In-memory span recorder with per-name self-time totals."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self._name = array.array("H")
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("i")
        self._request = array.array("i")
        self._stack: list[list] = []
        #: Self seconds per span name.
        self.self_s: collections.Counter = collections.Counter()
        #: Outermost calls per span name (a span nested directly in a
        #: span of the same name is part of the same call).
        self.calls: collections.Counter = collections.Counter()
        #: Free-form counters the wrappers keep (rows, queries, bytes).
        self.counts: collections.Counter = collections.Counter()

    def name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def enter(self, ident: int, request: int = -1) -> list:
        """Open a span; returns the token :meth:`exit` takes."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if request < 0 and parent is not None:
            request = parent[4]
        index = len(self._start)
        self._name.append(ident)
        self._end.append(0.0)
        self._parent.append(parent[3] if parent is not None else -1)
        self._request.append(request)
        frame = [ident, 0.0, 0.0, index, request, parent]
        stack.append(frame)
        frame[1] = now = time.perf_counter()
        self._start.append(now)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:  # pragma: no cover - wrapper bug guard
            raise RuntimeError("span stack out of order")
        self._end[frame[3]] = end
        duration = end - frame[1]
        name = self.names[frame[0]]
        self.self_s[name] += duration - frame[2]
        parent = frame[5]
        if parent is not None:
            parent[2] += duration
        if parent is None or parent[0] != frame[0]:
            self.calls[name] += 1

    @contextlib.contextmanager
    def span(self, name: str, request: int = -1):
        frame = self.enter(self.name_id(name), request)
        try:
            yield
        finally:
            self.exit(frame)

    @property
    def n_spans(self) -> int:
        return len(self._start)

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds of every named layer (glue spans excluded)."""
        return {name: s for name, s in self.self_s.items()
                if name not in UNNAMED_SPANS}

    def save(self, path) -> None:
        """Write every span as columns of one ``.npz`` file."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self._name, dtype=np.uint16),
                 start=np.frombuffer(self._start, dtype=np.float64),
                 end=np.frombuffer(self._end, dtype=np.float64),
                 parent=np.frombuffer(self._parent, dtype=np.int32),
                 request=np.frombuffer(self._request, dtype=np.int32))


# -- wrappers -----------------------------------------------------------------


def traced_call(tracer: Tracer, name: str, fn: typing.Callable,
                before: typing.Callable | None = None,
                after: typing.Callable | None = None) -> typing.Callable:
    """``fn`` inside a span; ``before(args)``/``after(result)`` count."""
    ident = tracer.name_id(name)
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        frame = enter(ident)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_(frame)
        if after is not None:
            after(result)
        return result

    return wrapper


def traced_steps(tracer: Tracer, ident: int, gen: typing.Generator,
                 request: int = -1):
    """Delegate to ``gen``, timing only the steps that run its code.

    Host time counts while the wrapped generator is being stepped, never
    while it is suspended waiting on the simulation.  Values, thrown
    exceptions and the return value pass through unchanged, so the
    wrapper is invisible to the kernel driving it.
    """
    enter, exit_ = tracer.enter, tracer.exit
    value = None
    error: BaseException | None = None
    while True:
        frame = enter(ident, request)
        try:
            if error is None:
                target = gen.send(value)
            else:
                target = gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            exit_(frame)
        try:
            value = yield target
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into gen
            value, error = None, exc


def _request_of(ctx) -> int:
    frame = getattr(ctx.task, "frame", None)
    return int(frame.capture_id) if frame is not None else -1


@contextlib.contextmanager
def _patched(patches: list[tuple[object, str, object]]):
    """Set ``owner.attr = value`` for each patch; restore on exit."""
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _common_patches(tracer: Tracer) -> list:
    """Cache, feature-extraction and metrics-recording wrappers."""
    from repro.core.cache import ICCache
    from repro.core.metrics import MetricsRecorder
    from repro.vision.features import EmbeddingSpace

    counts = tracer.counts

    def one_query(args):
        counts["cache.queries"] += 1
        counts["cache.entries_seen"] += len(args[0])

    def batch_query(args):
        counts["cache.queries"] += len(args[1])
        counts["cache.entries_seen"] += len(args[0]) * len(args[1])

    def one_row(args):
        counts["cache.insert_rows"] += 1

    def batch_rows(args):
        counts["cache.insert_rows"] += len(args[1])

    return [
        (ICCache, "lookup", traced_call(
            tracer, "cache.lookup", ICCache.lookup, before=one_query)),
        (ICCache, "lookup_batch", traced_call(
            tracer, "cache.lookup", ICCache.lookup_batch,
            before=batch_query)),
        (ICCache, "insert", traced_call(
            tracer, "cache.insert", ICCache.insert, before=one_row)),
        (ICCache, "insert_batch", traced_call(
            tracer, "cache.insert", ICCache.insert_batch,
            before=batch_rows)),
        (EmbeddingSpace, "observe", traced_call(
            tracer, "features.observe", EmbeddingSpace.observe)),
        (MetricsRecorder, "record", traced_call(
            tracer, "metrics.record", MetricsRecorder.record)),
    ]


class TimedStage:
    """A pipeline stage that times its inner stage's generator steps."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.name = inner.name
        self._tracer = tracer
        self._ident = tracer.name_id(f"pipeline.{inner.name}")

    def run(self, edge, ctx):
        self._tracer.counts[f"pipeline.{self.name}.runs"] += 1
        return traced_steps(self._tracer, self._ident,
                            self.inner.run(edge, ctx), _request_of(ctx))


def time_pipelines(deployment, tracer: Tracer) -> None:
    """Swap every edge's stages for timing delegates (one deployment)."""
    for edge in deployment.edges:
        pipeline = edge.pipeline
        for stage in list(pipeline.stages):
            pipeline = pipeline.replace(stage.name,
                                        TimedStage(stage, tracer))
        edge.pipeline = pipeline


@contextlib.contextmanager
def instrument_sim(tracer: Tracer):
    """Trace the simulated layers while the block runs.

    Wraps, at class level: process resumption (``sim.process``), cache
    lookups and inserts, feature extraction, link transfers and their
    transfer processes, routing, handoffs and metric recording.  Install
    before the deployment is built — processes bind their resume
    callback at creation — and call :func:`time_pipelines` on it.
    """
    from repro.core.cluster import ClusterDeployment
    from repro.net.link import Link
    from repro.net.topology import Topology
    from repro.sim.process import Process

    counts = tracer.counts
    process_id = tracer.name_id("sim.process")
    transfer_id = tracer.name_id("net.transfer")
    handoff_id = tracer.name_id("cluster.handoff")
    enter, exit_ = tracer.enter, tracer.exit
    resume = Process._resume
    transfer_proc = Link._transfer_proc
    handoff = ClusterDeployment.handoff

    def traced_resume(self, event):
        frame = enter(process_id)
        try:
            resume(self, event)
        finally:
            exit_(frame)

    def traced_transfer_proc(self, message, done):
        return traced_steps(tracer, transfer_id,
                            transfer_proc(self, message, done))

    def traced_handoff(self, client, new_edge, latency_s=None):
        counts["cluster.handoff_calls"] += 1
        return traced_steps(tracer, handoff_id,
                            handoff(self, client, new_edge, latency_s))

    def one_transfer(args):
        counts["net.transfers"] += 1

    patches = [
        *_common_patches(tracer),
        (Process, "_resume", traced_resume),
        (Link, "transfer", traced_call(tracer, "net.transfer",
                                       Link.transfer, before=one_transfer)),
        (Link, "_transfer_proc", traced_transfer_proc),
        (Topology, "shortest_path", traced_call(
            tracer, "net.route", Topology.shortest_path)),
        (Topology, "path_links", traced_call(
            tracer, "net.route", Topology.path_links)),
        (ClusterDeployment, "handoff", traced_handoff),
    ]
    with _patched(patches):
        yield


@contextlib.contextmanager
def instrument_real(tracer: Tracer):
    """Trace the real backend's layers (inline mode) while the block runs.

    Wraps frame encoding and decoding, the edge's cache lookups and
    inserts, feature extraction and metric recording.
    """
    from repro.backend import protocol

    counts = tracer.counts

    def frame_bytes(frame):
        counts["backend.frame_bytes"] += len(frame)

    patches = [
        *_common_patches(tracer),
        (protocol, "encode_frame", traced_call(
            tracer, "backend.protocol.encode", protocol.encode_frame,
            after=frame_bytes)),
        (protocol, "decode_body", traced_call(
            tracer, "backend.protocol.decode", protocol.decode_body)),
    ]
    with _patched(patches):
        yield

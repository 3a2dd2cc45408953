"""In-memory spans and counters recorded around calls into the program.

Nothing here edits the program: :func:`install` replaces attributes on the
program's classes and modules with wrappers and ``Patches.undo`` puts the
originals back.  With tracing off (``Tracer(enabled=False)``) only the seams
that feed a deterministic count are wrapped, and those wrappers bump a
counter without reading the clock; with tracing on every seam also records a
span ``(name, start, end, parent, thread, ctx)``.  ``ctx`` is the navigation
or job the span belongs to; spans of one navigation share it, also across
threads.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median


class Tracer:
    """Span and counter store shared by every wrapper of one run."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.counts: Counter = Counter()
        #: (name, start, end, parent index or -1, thread ident, ctx)
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # ----------------------------------------------------------- context
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def context(self, ctx: str):
        """Attribute spans opened on this thread to navigation/job ``ctx``."""
        previous = getattr(self._local, "ctx", None)
        self._local.ctx = ctx
        try:
            yield
        finally:
            self._local.ctx = previous

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (
                name,
                start,
                end,
                parent,
                threading.get_ident(),
                getattr(self._local, "ctx", None),
            )

    def write(self, path) -> None:
        """Write the spans out, one JSON object a line."""
        with open(path, "w") as fh:
            for name, start, end, parent, thread, ctx in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "thread": thread,
                            "ctx": ctx,
                        }
                    )
                    + "\n"
                )


# --------------------------------------------------------------- wrappers
class Patches:
    """Attribute replacements that :meth:`undo` reverts, last first."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def wrap(
    patches: Patches,
    tracer: Tracer,
    owner,
    attr: str,
    name: str,
    *,
    counted: bool = False,
    on_call=None,
    ctx_of=None,
) -> None:
    """Wrap ``owner.attr`` with a span called ``name``.

    ``counted`` counts every call under ``name``; ``on_call(tracer, args,
    kwargs, result)`` records further counts from the call.  A seam with
    neither is left alone when tracing is off.  ``ctx_of(args, kwargs)``
    names the navigation/job the call (and everything under it) belongs to.
    """
    if not tracer.enabled and not counted and on_call is None:
        return
    original = owner.__dict__[attr]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if counted:
            tracer.count(name)
        if ctx_of is not None:
            with tracer.context(ctx_of(args, kwargs)), tracer.span(name):
                result = original(*args, **kwargs)
        else:
            with tracer.span(name):
                result = original(*args, **kwargs)
        if on_call is not None:
            on_call(tracer, args, kwargs, result)
        return result

    patches.set(owner, attr, wrapper)


# ---------------------------------------------------------------- seams
def _count_predict(tracer, args, kwargs, result) -> None:
    tracer.count("estimator.predicted_configs", len(args[1]))


def _count_lookup(tracer, args, kwargs, result) -> None:
    tracer.count("hardware.looked_up", int(result.size))
    tracer.count("hardware.hits", int(result.sum()))


def _count_store_load(tracer, args, kwargs, result) -> None:
    if result is not None:
        tracer.count("runtime.store_hits")


def install(tracer: Tracer) -> Patches:
    """Wrap the program's layer seams; returns the patches to undo."""
    from repro.autograd.tensor import Tensor
    from repro.estimator.graybox import GrayBoxEstimator
    from repro.explorer import navigator
    from repro.explorer.decision import DecisionMaker
    from repro.explorer.dfs import DFSExplorer
    from repro.graphs.csr import CSRGraph
    from repro.hardware.cache import DeviceCache
    from repro.nn import graphconv
    from repro.nn.models import GNN
    from repro.nn.optim import Adam
    from repro.runtime import parallel, profiler
    from repro.runtime.backend import RuntimeBackend
    from repro.runtime.kernels.base import SpmmKernel
    from repro.sampling import biased, cluster, layerwise, neighbor, saint
    from repro.serving.scheduler import SharedProfilingService
    from repro.serving.server import NavigationServer
    from repro.serving.transport import client as transport_client
    from repro.serving.transport.server import NavigationHTTPServer
    from repro.serving.types import JobResult

    p = Patches()

    def w(owner, attr, name, **kw):
        wrap(p, tracer, owner, attr, name, **kw)

    # training stack (one ground-truth run = runtime.gt_run)
    w(parallel, "profile_one", "runtime.gt_run", counted=True)
    w(RuntimeBackend, "train", "runtime.train", counted=True)
    w(RuntimeBackend, "run_epoch", "runtime.epoch")
    for module, cls in (
        (neighbor, "NeighborSampler"),
        (layerwise, "LayerSampler"),
        (saint, "SaintSampler"),
        (cluster, "ClusterSampler"),
        (biased, "BiasedNeighborSampler"),
    ):
        w(getattr(module, cls), "sample", "sampling.sample", counted=True)
    w(CSRGraph, "induced_subgraph", "graphs.induced_subgraph")
    w(graphconv, "normalized_adjacency", "nn.normalize", counted=True)
    w(GNN, "forward", "nn.forward")
    w(SpmmKernel, "_timed_matmul", "kernels.spmm")
    w(Tensor, "backward", "autograd.backward")
    w(Adam, "step", "nn.optimizer")
    w(DeviceCache, "lookup", "hardware.cache", on_call=_count_lookup)
    w(DeviceCache, "update", "hardware.cache")
    w(RuntimeBackend, "_charge_batch", "hardware.charge")
    w(RuntimeBackend, "evaluate", "runtime.evaluate")
    w(parallel.ResultStore, "save", "runtime.store_save", counted=True)
    w(parallel.ResultStore, "load", "runtime.store_load", on_call=_count_store_load)

    # navigation phases
    w(navigator, "profile_configs", "runtime.step2")
    w(SharedProfilingService, "profile", "runtime.step2")
    w(navigator, "profile_graph", "graphs.profile")
    w(profiler, "profile_graph", "graphs.profile")
    w(GrayBoxEstimator, "fit", "estimator.fit")
    w(GrayBoxEstimator, "predict", "estimator.predict", counted=True, on_call=_count_predict)
    w(DFSExplorer, "explore", "explorer.dfs")
    w(DFSExplorer, "_optimistic_perf", "explorer.prune_check", counted=True)
    w(DecisionMaker, "__init__", "explorer.decide")
    w(DecisionMaker, "choose_all", "explorer.decide")
    w(navigator.GNNavigator, "apply", "runtime.apply")

    # serving and transport; server-side work is attributed to its job
    w(
        NavigationServer,
        "_run",
        "serving.service",
        ctx_of=lambda args, kwargs: args[1].job_id,
    )
    w(
        NavigationHTTPServer,
        "_poll_result",
        "transport.poll_result",
        ctx_of=lambda args, kwargs: args[1],
    )
    w(JobResult, "to_dict", "transport.encode")
    if tracer.enabled:
        p.set(
            JobResult,
            "from_dict",
            _classmethod_span(tracer, JobResult, "from_dict", "transport.decode"),
        )
    client = transport_client.RemoteNavigationClient
    w(client, "submit", "transport.submit")
    w(client, "_call", "transport.request", counted=True)

    # result_bytes: what the client's json.loads reads during result()
    read = threading.local()

    class _Json:
        dumps = staticmethod(json.dumps)

        @staticmethod
        def loads(text, *args, **kwargs):
            read.n = getattr(read, "n", 0) + len(text)
            return json.loads(text, *args, **kwargs)

    original_result = client.__dict__["result"]

    @functools.wraps(original_result)
    def result(*args, **kwargs):
        read.n = 0
        with tracer.span("transport.result"):
            out = original_result(*args, **kwargs)
        tracer.count("transport.result_bytes", read.n)
        return out

    p.set(transport_client, "json", _Json)
    p.set(client, "result", result)
    return p


def _classmethod_span(tracer: Tracer, cls, attr: str, name: str):
    original = cls.__dict__[attr].__func__

    @functools.wraps(original)
    def wrapper(klass, *args, **kwargs):
        with tracer.span(name):
            return original(klass, *args, **kwargs)

    return classmethod(wrapper)


# --------------------------------------------------------------- analysis
def analyse(spans: list[tuple], roots: set[str], aliases: dict) -> dict:
    """Self and inclusive time per span name, per-root residuals.

    A span's self time is its duration minus its children's.  A root span
    (one of ``roots``) stands for one navigation or job; its residual is the
    part of its interval that no other span of the same ctx covers.
    ``aliases`` maps server-side job ids to the client's ctx of that job.
    """
    children = defaultdict(float)
    for name, start, end, parent, _thread, _ctx in spans:
        if parent >= 0:
            children[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    incl: dict[str, list[float]] = defaultdict(list)
    under_gt: list[float] = []
    for index, (name, start, end, parent, _thread, _ctx) in enumerate(spans):
        self_s[name] += end - start - children[index]
        incl[name].append(end - start)
        if name == "runtime.epoch" and _has_ancestor(spans, parent, "runtime.gt_run"):
            under_gt.append(end - start)
    by_ctx = defaultdict(list)
    for name, start, end, _parent, _thread, ctx in spans:
        by_ctx[aliases.get(ctx, ctx)].append((name, start, end))
    residuals = []
    for ctx_spans in by_ctx.values():
        for name, start, end in ctx_spans:
            if name not in roots:
                continue
            covered = _union(
                (max(s, start), min(e, end))
                for n, s, e in ctx_spans
                if n not in roots and s < end and e > start
            )
            residuals.append(end - start - covered)
    return {
        "self": dict(self_s),
        "incl": dict(incl),
        "gt_epochs": under_gt,
        "residuals": residuals,
    }


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _union(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def med(values) -> float:
    return float(median(values)) if values else 0.0

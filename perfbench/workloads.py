"""The benchmark's three workloads.

All three navigate reddit2 + sage on platform rtx4090 with ``epochs=2`` and
``budget=8``.  The workload seed is the task seed (``TaskSpec.seed``: the
train/val/test split, model initialisation and sampling stream); the
navigation seed keeps the navigator's default, as ``repro navigate`` does.
The navigation seed picks which 8 configurations Step 2 trains, which moves
a cold navigation's cost by up to 1.4x and its peak memory by 20%, so
varying it would measure the sample rather than the code.  Each workload
has a ``setup`` (untimed, reported as ``setup_s``), a ``round`` (the timed
unit of work) and a ``teardown``.  A run makes ``--seconds //
round_seconds`` rounds, at least one: ``round_seconds`` is a round's
nominal length on a 2-vCPU host.  The count depends on ``--seconds`` only,
never on how fast the host is, so a run's work, counts and peak memory are
fixed (the server keeps every job's result, so its memory grows with jobs).  A round
returns a :class:`Round`: one wall-clock sample per navigation or job, the
pass/fail tally of the correctness checks, and the deterministic values the
exact-repeat check compares between rounds and runs.
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field

from repro.config.settings import TaskSpec
from repro.config.templates import TEMPLATES
from repro.explorer.constraints import RuntimeConstraint
from repro.explorer.navigator import GNNavigator
from repro.serving.events import GAP_PHASE
from repro.serving.server import NavigationServer
from repro.serving.transport.client import RemoteNavigationClient
from repro.serving.transport.server import NavigationHTTPServer
from repro.serving.types import TERMINAL_STATES, JobStatus, NavigationRequest

BUDGET = 8
PRIORITIES = ("balance", "ex_tm", "ex_ma", "ex_ta")
#: navigate-constrained: 3 constraints x 2 priorities, priorities rotating
CONSTRAINTS = (
    RuntimeConstraint(max_time_s=0.030),
    RuntimeConstraint(max_memory_bytes=8 * 2**20),
    RuntimeConstraint(min_accuracy=0.60),
)
#: the explorer's final feasibility filter admits candidates whose
#: prediction is within this relative slack of a bound (repro.explorer.dfs)
FILTER_SLACK = 0.25


@dataclass
class Round:
    walls: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: values that must repeat exactly for the same code and seed
    det: dict = field(default_factory=dict)
    #: further per-round inputs of the per-layer metrics
    extra: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"check failed: {what}", file=sys.stderr)


def _explorer_det(det: dict, exploration) -> None:
    for key, value in (
        ("explorer.visited_leaves", exploration.visited_leaves),
        ("explorer.pruned_subtrees", exploration.pruned_subtrees),
        ("explorer.evaluated", exploration.evaluated),
    ):
        det[key] = det.get(key, 0) + value


class Workload:
    name = ""
    round_seconds = 20

    def __init__(self, seed: int, workdir) -> None:
        self.task = TaskSpec(
            dataset="reddit2", arch="sage", platform="rtx4090", epochs=2, seed=seed
        )
        self.workdir = workdir
        self.rounds_run = 0

    def store(self) -> str:
        """A fresh, explicit temporary profiling store under the run's
        work directory (removed with it)."""
        return tempfile.mkdtemp(prefix="store-", dir=self.workdir)

    def setup(self) -> None:
        pass

    def finish(self, tracer) -> Round:
        """Checks made once after the timed rounds (untimed)."""
        return Round()

    def teardown(self) -> None:
        pass


class NavigateCold(Workload):
    """Full navigations (Steps 1-3 with apply), each on an empty store.

    A round makes two identical navigations: one takes about 20 s, and the
    host's speed drifts by up to 10% over such spans, so the median of two
    is steadier than one.  Both must produce the same deterministic values.
    """

    name = "navigate-cold"
    round_seconds = 40
    navigations = 2

    def round(self, tracer) -> Round:
        out = Round()
        quality = None
        for i in range(self.navigations):
            out.attempted += 1
            try:
                navigation, exploration = self.navigate(tracer, f"nav-{self.rounds_run}-{i}", out)
            except Exception:  # noqa: BLE001 - a failed navigation is counted
                traceback.print_exc()
                out.fail("navigation raised")
                continue
            if quality is not None and navigation != quality:
                out.fail(f"navigations of one round differ: {navigation} vs {quality}")
            quality = navigation
            _explorer_det(out.det, exploration)
        out.det.update(quality or {})
        self.rounds_run += 1
        return out

    def navigate(self, tracer, ctx: str, out: Round):
        """One navigation: its guideline quality and exploration result."""
        store = self.store()
        try:
            with tracer.context(ctx), tracer.span("bench.navigate"):
                start = time.perf_counter()
                nav = GNNavigator(self.task, profile_budget=BUDGET, cache_dir=store)
                report = nav.explore(priorities=["balance"])
                guideline = report.guidelines["balance"]
                perf = nav.apply(guideline)
                out.walls.append(time.perf_counter() - start)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        measured = (perf.time_s, perf.memory.total, perf.accuracy)
        if not all(math.isfinite(v) for v in measured):
            out.fail(f"measured Perf is not finite: {measured}")
        pyg = TEMPLATES["pyg"].canonical()
        pyg_time = next(r.time_s for r in nav.records if r.config == pyg)
        quality = {
            "chosen_config": guideline.config.describe(),
            "chosen_speedup": pyg_time / perf.time_s,
            "chosen_mem_mib": perf.memory.total / 2**20,
            "chosen_acc": perf.accuracy,
            "pred_err_time": abs(guideline.predicted.time_s - perf.time_s) / perf.time_s,
            "pred_err_acc": abs(guideline.predicted.accuracy - perf.accuracy) / perf.accuracy,
        }
        return quality, report.exploration

    def check_counts(self, counts, out: Round) -> None:
        expected = 13 * self.navigations
        if counts["runtime.gt_run"] != expected:
            out.fail(
                f"{counts['runtime.gt_run']} training runs in Step 2, expected "
                f"{expected} (8 + 5 templates a navigation)"
            )


class NavigateConstrained(Workload):
    """Six constrained navigations (no apply) on a store filled in set-up."""

    name = "navigate-constrained"
    profile_epochs = 2

    def navigator(self) -> GNNavigator:
        return GNNavigator(
            self.task,
            profile_budget=BUDGET,
            profile_epochs=self.profile_epochs,
            cache_dir=self.cache_dir,
        )

    def setup(self) -> None:
        self.cache_dir = self.store()
        self.navigator().fit_estimator()  # Step 2 fills the store

    def round(self, tracer) -> Round:
        out = Round()
        for i in range(2 * len(CONSTRAINTS)):
            constraint = CONSTRAINTS[i // 2]
            priority = PRIORITIES[i % len(PRIORITIES)]
            ctx = f"nav-{self.rounds_run}-{i}"
            out.attempted += 1
            try:
                with tracer.context(ctx), tracer.span("bench.navigate"):
                    start = time.perf_counter()
                    report = self.navigator().explore(
                        constraint=constraint, priorities=[priority]
                    )
                    out.walls.append(time.perf_counter() - start)
            except Exception:  # noqa: BLE001 - a failed navigation is counted
                traceback.print_exc()
                out.fail(f"navigation {constraint.describe()} / {priority} raised")
                continue
            predicted = report.guidelines[priority].predicted
            if not constraint.satisfied_by(predicted, slack=FILTER_SLACK):
                out.fail(f"guideline {predicted} violates {constraint.describe()}")
            # Within the slack is the explorer's contract; how many
            # guidelines meet the bound itself is measured, not checked.
            strict = int(constraint.satisfied_by(predicted))
            out.det["explorer.strict_feasible"] = out.det.get("explorer.strict_feasible", 0) + strict
            _explorer_det(out.det, report.exploration)
        self.rounds_run += 1
        return out

    def check_counts(self, counts, out: Round) -> None:
        if counts["runtime.gt_run"] or counts["runtime.train"]:
            out.fail("constrained navigations executed training runs")


class ServeHTTP(Workload):
    """Two tenants in a closed loop of served jobs over HTTP."""

    name = "serve-http"
    round_seconds = 10
    tenants = 2
    jobs_per_tenant = 6

    def request(self, priority: str, tenant: str) -> NavigationRequest:
        return NavigationRequest(
            task=self.task,
            priorities=(priority,),
            budget=BUDGET,
            tenant=tenant,
            tag=tenant,
        )

    def setup(self) -> None:
        self.cache_dir = self.store()
        self.server = NavigationServer(workers=2, cache_dir=self.cache_dir)
        self.http = NavigationHTTPServer(self.server, host="127.0.0.1", port=0)
        self.http.start()
        fill = RemoteNavigationClient(self.http.url, tenant="fill")
        fill.navigate(self.request("balance", "fill"))
        self.executed = self.server.stats.executed
        self.served: dict[str, object] = {}

    def _tenant(self, tracer, index: int, out: Round, lock) -> None:
        tenant = f"tenant-{index}"
        client = RemoteNavigationClient(self.http.url, tenant=tenant)
        for k in range(self.jobs_per_tenant):
            priority = PRIORITIES[(index + k) % len(PRIORITIES)]
            ctx = f"job-{self.rounds_run}-{index}-{k}"
            with tracer.context(ctx), tracer.span("bench.job"):
                start = time.perf_counter()
                try:
                    handle = client.submit(self.request(priority, tenant))
                    with tracer.span("transport.events"):
                        events = list(handle.watch())
                    result = handle.result()
                except Exception:  # noqa: BLE001 - a failed job is counted
                    traceback.print_exc()
                    with lock:
                        out.attempted += 1
                        out.fail(f"{ctx} raised")
                    continue
                wall = time.perf_counter() - start
            with lock:
                out.attempted += 1
                out.walls.append(wall)
                out.extra.setdefault("jobs", []).append((ctx, handle.job_id, events))
                _explorer_det(out.det, result.report.exploration)
                self.served.setdefault(priority, result.guidelines[priority])

    def round(self, tracer) -> Round:
        out = Round()
        lock = threading.Lock()
        events_dropped = self.server.metrics.counter("events_dropped")
        stats = self.server.stats
        hits_before = stats.cache_hits
        threads = [
            threading.Thread(target=self._tenant, args=(tracer, i, out, lock))
            for i in range(self.tenants)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        self.rounds_run += 1
        queue_wait, service, events_per_job = [], [], []
        aliases = {}
        for ctx, job_id, events in out.extra.pop("jobs", []):
            aliases[job_id] = ctx
            snap = self.server.snapshot(job_id)
            if snap.status is not JobStatus.DONE:
                out.fail(f"{ctx} ended {snap.status.value}")
            if not events or JobStatus(events[-1].status) not in TERMINAL_STATES:
                out.fail(f"{ctx} event stream does not end terminal")
            if any(e.phase == GAP_PHASE for e in events):
                out.fail(f"{ctx} event stream has a gap marker")
            queue_wait.append(snap.started_at - snap.submitted_at)
            service.append(snap.finished_at - snap.started_at)
            events_per_job.append(len(events))
        if self.server.stats.executed != self.executed:
            out.fail("training runs happened after set-up")
        out.extra.update(
            {
                "aliases": aliases,
                "jobs_per_s": len(out.walls) / elapsed,
                "queue_wait": queue_wait,
                "service": service,
                "events_per_job": events_per_job,
                "events_dropped": self.server.metrics.counter("events_dropped") - events_dropped,
                "cache_hits": stats.cache_hits - hits_before,
            }
        )
        return out

    def check_counts(self, counts, out: Round) -> None:
        if counts["runtime.gt_run"] or counts["runtime.train"]:
            out.fail("served jobs executed training runs after set-up")

    def finish(self, tracer) -> Round:
        """One served guideline must equal an in-process explore of its
        request, which must run no training either."""
        out = Round(attempted=1)
        if not self.served:
            out.fail("no served guideline to compare")
            return out
        trained = tracer.counts["runtime.train"]
        priority, served = next(iter(self.served.items()))
        nav = GNNavigator(
            self.task,
            profile_budget=BUDGET,
            profile_epochs=NavigationRequest(task=self.task).profile_epochs,
            cache_dir=self.cache_dir,
        )
        local = nav.explore(priorities=[priority]).guidelines[priority]
        if (local.config, local.predicted, local.score) != (
            served.config,
            served.predicted,
            served.score,
        ):
            out.fail(f"served guideline {served} != in-process {local}")
        if tracer.counts["runtime.train"] != trained:
            out.fail("the in-process explore executed training runs")
        return out

    def teardown(self) -> None:
        if getattr(self, "http", None) is not None:
            self.http.stop()
        if getattr(self, "server", None) is not None:
            self.server.stop()


WORKLOADS = {w.name: w for w in (NavigateCold, NavigateConstrained, ServeHTTP)}

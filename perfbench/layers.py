"""Per-layer metrics of one traced round.

Times are self times (a span's duration minus its children's) summed over
the round and divided by its navigations or jobs, except the phase times
``runtime.gt_run_s``/``runtime.gt_epoch_s`` (median inclusive duration),
``runtime.step2_s``/``runtime.apply_s`` (inclusive, per navigation) and
``transport.submit_s``/``transport.result_s`` (median inclusive duration).
Counts are per navigation or job.  A layer the workload does not reach
reads 0.
"""

from __future__ import annotations

from collections import Counter
from statistics import fmean

from tracing import analyse, med

#: spans that stand for one whole navigation or job
ROOTS = {"bench.navigate", "bench.job"}

#: self-time metrics: metric name -> span name
SELF_TIMES = {
    "sampling.sample_s": "sampling.sample",
    "graphs.induced_subgraph_s": "graphs.induced_subgraph",
    "nn.normalize_s": "nn.normalize",
    "nn.forward_s": "nn.forward",
    "kernels.spmm_s": "kernels.spmm",
    "autograd.backward_s": "autograd.backward",
    "nn.optimizer_s": "nn.optimizer",
    "hardware.cache_s": "hardware.cache",
    "hardware.charge_s": "hardware.charge",
    "runtime.evaluate_s": "runtime.evaluate",
    "runtime.store_save_s": "runtime.store_save",
    "runtime.store_load_s": "runtime.store_load",
    "estimator.fit_s": "estimator.fit",
    "estimator.predict_s": "estimator.predict",
    "explorer.dfs_self_s": "explorer.dfs",
    "explorer.decide_s": "explorer.decide",
    "graphs.profile_s": "graphs.profile",
    "transport.encode_s": "transport.encode",
    "transport.decode_s": "transport.decode",
}

#: per-navigation counts: metric name -> counter name
COUNTS = {
    "runtime.gt_runs": "runtime.gt_run",
    "sampling.sample_calls": "sampling.sample",
    "nn.normalize_calls": "nn.normalize",
    "kernels.spmm_calls": "kernels.spmm_calls",
    "runtime.store_saves": "runtime.store_save",
    "runtime.store_hits": "runtime.store_hits",
    "estimator.predict_calls": "estimator.predict",
    "explorer.prune_checks": "explorer.prune_check",
    "explorer.pruned_subtrees": "explorer.pruned_subtrees",
    "explorer.visited_leaves": "explorer.visited_leaves",
    "explorer.evaluated": "explorer.evaluated",
    "transport.result_bytes": "transport.result_bytes",
    "transport.requests_per_job": "transport.request",
}

QUALITY = ("chosen_speedup", "chosen_mem_mib", "chosen_acc", "pred_err_time", "pred_err_acc")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, traced, untraced, failed_frac: float) -> dict[str, float]:
    """Every per-layer metric from the traced round (``untraced`` is the
    same round with tracing off, the base of ``trace_overhead``)."""
    found = analyse(tracer.spans, ROOTS, traced.extra.get("aliases", {}))
    n = max(len(traced.walls), 1)
    counts = Counter({**traced.extra["counts"], **traced.det})
    extra = traced.extra

    def incl(name: str) -> list[float]:
        return found["incl"].get(name, [])

    values = {
        metric: found["self"].get(span, 0.0) / n for metric, span in SELF_TIMES.items()
    }
    values.update({metric: counts[key] / n for metric, key in COUNTS.items()})
    values.update(
        {
            "runtime.gt_run_s": med(incl("runtime.gt_run")),
            "runtime.gt_epoch_s": med(found["gt_epochs"]),
            "runtime.step2_s": sum(incl("runtime.step2")) / n,
            "runtime.apply_s": sum(incl("runtime.apply")) / n,
            "hardware.hit_rate": counts["hardware.hit_rate"],
            "estimator.configs_per_predict": _ratio(
                counts["estimator.predicted_configs"], counts["estimator.predict"]
            ),
            "explorer.prune_yield": _ratio(
                counts["explorer.pruned_subtrees"], counts["explorer.prune_check"]
            ),
            "explorer.strict_feasible_frac": counts["explorer.strict_feasible"] / n,
            "explorer.unique_leaf_ratio": _ratio(
                counts["explorer.evaluated"], counts["explorer.visited_leaves"]
            ),
            "serving.queue_wait_s": med(extra.get("queue_wait", [])),
            "serving.service_s": med(extra.get("service", [])),
            "serving.jobs_per_s": extra.get("jobs_per_s", 0.0),
            "serving.events_per_job": fmean(extra.get("events_per_job", [0])),
            "serving.events_dropped": extra.get("events_dropped", 0),
            "transport.submit_s": med(incl("transport.submit")),
            "transport.result_s": med(incl("transport.result")),
            "runtime.memory_hits": (
                extra.get("cache_hits", 0) - counts["runtime.store_hits"]
            )
            / n
            if "cache_hits" in extra
            else 0.0,
            "trace.residual_s": fmean(found["residuals"] or [0.0]),
            "trace_overhead": traced.extra["wall"] / untraced.extra["wall"],
            "failed_frac": failed_frac,
        }
    )
    values.update({name: traced.det.get(name, 0.0) for name in QUALITY})
    return values

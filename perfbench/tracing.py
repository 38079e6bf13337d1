"""Traced mode: spans around the calls into each tqst module, recorded from
outside the package.

The wrappers replace module attributes, so they see both the CLI's calls and
the modules' calls to each other (``simulator`` calling ``expectation``,
``metrics`` calling ``validate_density``, ``mle`` calling ``minimize``).
Spans stay in memory; :meth:`Tracer.dump` writes them out at the end.

A span's name is ``<layer>.<operation>``; its layer is the part before the
dot.  Self time is a span's duration minus its child spans', so the self
times of all spans of one invocation add up to that invocation's root span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "invocation", "attrs")

    def __init__(self, name, start, parent, invocation):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.invocation = invocation
        self.attrs = None

    def as_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "invocation": self.invocation, "attrs": self.attrs}


class Tracer:
    """Single-threaded span recorder with patchable module attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.invocation = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.invocation))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """``fn`` inside a span; ``after(result, args, kwargs)`` returns span attributes."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                self.spans[index].attrs = after(result, args, kwargs)
            return result
        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def install(self, tqst) -> None:
        """Wrap every cross-module call `tqst run` makes."""
        core, metrics, mle = tqst.core, tqst.metrics, tqst.mle
        simulator, settings, threshold = tqst.simulator, tqst.settings, tqst.threshold

        self.patch(simulator, "w_state", "simulator.state")
        self.patch(simulator, "apply_depolarizing", "simulator.state")
        self.patch(simulator, "sample_counts", "simulator.sample_counts")
        self.patch(simulator, "expectation", "core.expectation")

        self.patch(threshold, "diagonal_plan", "threshold.diagonal_plan")
        self.patch(threshold, "select_offdiagonal", "threshold.select", _plan_attrs)
        self.patch(threshold, "projector_for", "projectors.projector_for")
        self.patch(threshold, "estimate_threshold", "threshold.estimate")
        for io in ("write_diagonal_csv", "read_diagonal_csv", "write_plan_csv"):
            self.patch(threshold, io, "threshold.io")

        self.patch(settings, "settings_for_plan", "settings.settings_for_plan")
        self.patch(settings, "write_settings_csv", "settings.io")

        self.patch(mle, "reconstruct", "mle.reconstruct",
                   lambda result, args, kwargs: {"records": len(args[0])})
        self.patch(mle, "product_ket", "core.product_ket")
        self.patch(mle, "write_counts_csv", "mle.io")
        self.patch(mle, "write_diagnostics", "mle.io")
        original_minimize = mle.minimize
        self._saved.append((mle, "minimize", original_minimize))

        def minimize(fun, x0, *args, **kwargs):
            return original_minimize(self.wrap("mle.evaluate", fun), x0, *args, **kwargs)

        mle.minimize = self.wrap("mle.minimize", minimize, _optimizer_attrs)

        self.patch(core, "save_density", "core.save_density",
                   lambda result, args, kwargs: {"bytes": Path(args[0]).stat().st_size})
        self.patch(metrics, "validate_density", "core.validate_density")
        for fn in ("root_fidelity", "fidelity", "trace_distance", "purity",
                   "numerical_rank", "fidelity_bound"):
            self.patch(metrics, fn, f"metrics.{fn}")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([s.as_dict(i) for i, s in enumerate(self.spans)]))


def _plan_attrs(plan, args, kwargs):
    diag = args[0]
    p = diag.counts
    dim = p.size
    # select_offdiagonal scans j > i for every i with a nonzero count
    scanned = sum(dim - 1 - i for i in range(dim) if p[i] != 0)
    kept = len(plan.offdiagonal_pairs())
    return {"pairs_kept": kept, "pairs_scanned": scanned}


def _optimizer_attrs(res, args, kwargs):
    return {"nit": int(res.nit), "nfev": int(res.nfev), "params": int(res.x.size),
            "status": int(res.status), "message": str(res.message)}


#: Per-layer metric -> the end-to-end metric and workload it should move.
#: Names and units are in BENCHMARK.json.
SHOULD_MOVE = {
    "cli.self_s": "run_s on all workloads (should stay small)",
    "core.save_density_s": "run_s and peak_rss_mib on w10_noisy_lowrank",
    "core.rho_json_mib": "run_s and peak_rss_mib on w10_noisy_lowrank",
    "core.validate_density_calls": "run_s and peak_rss_mib on w10_noisy_lowrank",
    "core.validate_density_s": "run_s and peak_rss_mib on w10_noisy_lowrank",
    "core.product_ket_calls": "run_s on w6_conventional",
    "core.product_ket_s": "run_s on w6_conventional",
    "core.expectation_calls": "run_s on w6_conventional",
    "core.expectation_s": "run_s on w6_conventional",
    "projectors.projector_for_calls": "run_s on w6_conventional",
    "projectors.projector_for_s": "run_s on w6_conventional",
    "threshold.select_s": "run_s on w6_conventional",
    "threshold.pairs_kept": "run_s on w6_conventional",
    "threshold.keep_ratio": "run_s on w6_conventional",
    "threshold.estimate_s": "setup_s and run_s on w10_noisy_lowrank",
    "threshold.io_s": "setup_s and run_s on w10_noisy_lowrank",
    "simulator.sample_s": "run_s on w6_conventional",
    "simulator.state_s": "run_s on w6_conventional; peak_rss_mib on w10_noisy_lowrank",
    "mle.nit": "run_s on w6_conventional and w10_noisy_lowrank",
    "mle.nfev": "run_s on w6_conventional and w10_noisy_lowrank",
    "mle.optimizer_s": "run_s on w6_conventional and w10_noisy_lowrank",
    "mle.reconstruct_s": "run_s on w10_noisy_lowrank and w6_conventional",
    "mle.prepare_s": "run_s on w10_noisy_lowrank and w6_conventional",
    "mle.eval_s": "run_s on w10_noisy_lowrank and w6_conventional",
    "mle.eval_ms": "run_s on w10_noisy_lowrank and w6_conventional",
    "mle.records": "run_s on w10_noisy_lowrank and w6_conventional",
    "mle.params": "run_s on w10_noisy_lowrank and w6_conventional",
    "mle.io_s": "run_s on w10_noisy_lowrank and w6_conventional",
    "metrics.report_s": "run_s and peak_rss_mib on w10_noisy_lowrank; none at n=6",
    "metrics.root_fidelity_calls": "run_s on w10_noisy_lowrank; none at n=6",
    "metrics.root_fidelity_s": "run_s on w10_noisy_lowrank; none at n=6",
    "metrics.numerical_rank_calls": "run_s on w10_noisy_lowrank; none at n=6",
    "metrics.numerical_rank_s": "run_s on w10_noisy_lowrank; none at n=6",
    "metrics.trace_distance_s": "run_s on w10_noisy_lowrank; none at n=6",
    "metrics.bound_s": "run_s on w10_noisy_lowrank; none at n=6",
    "settings.settings_for_plan_s": "run_s on w6_conventional",
    "settings.io_s": "run_s on w6_conventional",
}
LAYERS = ("core", "projectors", "threshold", "simulator", "mle", "metrics", "settings")
SHOULD_MOVE.update({f"{layer}.self_s": "traced run_s: the self times add up to it"
                    for layer in LAYERS})
SHOULD_MOVE["trace.run_s"] = "traced run_s, the sum of every layer's self time and cli.self_s"
SHOULD_MOVE["trace.overhead_s"] = "traced run_s minus untraced run_s of the same seeds"


def invocation_metrics(spans: list[Span], root: int) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one invocation, whose root span is ``spans[root]``,
    and the optimizer's stop status and message, which are recorded but not
    compared."""
    mine = [i for i in range(root, len(spans)) if spans[i].invocation == spans[root].invocation]
    child_time = defaultdict(float)
    for i in mine:
        parent = spans[i].parent
        if parent is not None:
            child_time[parent] += spans[i].end - spans[i].start

    total = defaultdict(float)   # inclusive seconds, by span name
    own = defaultdict(float)     # self seconds, by span name
    calls = defaultdict(int)
    attrs = defaultdict(dict)
    layer_self = defaultdict(float)
    layer_total = defaultdict(float)  # outermost spans of each layer
    for i in mine:
        span = spans[i]
        duration = span.end - span.start
        calls[span.name] += 1
        own[span.name] += duration - child_time[i]
        total[span.name] += duration
        attrs[span.name].update(span.attrs or {})
        layer = span.name.split(".", 1)[0]
        layer_self[layer] += duration - child_time[i]
        if span.parent is None or spans[span.parent].name.split(".", 1)[0] != layer:
            layer_total[layer] += duration

    optimizer = attrs["mle.minimize"]
    nfev = optimizer.get("nfev", 0)
    plan = attrs["threshold.select"]
    scanned = plan.get("pairs_scanned", 0)
    run = spans[root].end - spans[root].start
    m = {
        "cli.self_s": layer_self["cli"],
        "core.save_density_s": total["core.save_density"],
        "core.rho_json_mib": attrs["core.save_density"].get("bytes", 0) / 2**20,
        "core.validate_density_calls": calls["core.validate_density"],
        "core.validate_density_s": total["core.validate_density"],
        "core.product_ket_calls": calls["core.product_ket"],
        "core.product_ket_s": total["core.product_ket"],
        "core.expectation_calls": calls["core.expectation"],
        "core.expectation_s": total["core.expectation"],
        "projectors.projector_for_calls": calls["projectors.projector_for"],
        "projectors.projector_for_s": total["projectors.projector_for"],
        "threshold.select_s": own["threshold.select"],
        "threshold.pairs_kept": plan.get("pairs_kept", 0),
        "threshold.keep_ratio": plan.get("pairs_kept", 0) / scanned if scanned else 0.0,
        "threshold.estimate_s": total["threshold.estimate"],
        "threshold.io_s": total["threshold.io"],
        "simulator.sample_s": own["simulator.sample_counts"],
        "simulator.state_s": total["simulator.state"],
        "mle.nit": optimizer.get("nit", 0),
        "mle.nfev": nfev,
        "mle.optimizer_s": own["mle.minimize"],
        "mle.reconstruct_s": total["mle.reconstruct"],
        "mle.prepare_s": total["mle.reconstruct"] - total["mle.minimize"],
        "mle.eval_s": total["mle.evaluate"],
        "mle.eval_ms": 1000.0 * total["mle.evaluate"] / nfev if nfev else 0.0,
        "mle.records": attrs["mle.reconstruct"].get("records", 0),
        "mle.params": optimizer.get("params", 0),
        "mle.io_s": total["mle.io"],
        "metrics.report_s": layer_total["metrics"],
        "metrics.root_fidelity_calls": calls["metrics.root_fidelity"],
        "metrics.root_fidelity_s": total["metrics.root_fidelity"],
        "metrics.numerical_rank_calls": calls["metrics.numerical_rank"],
        "metrics.numerical_rank_s": total["metrics.numerical_rank"],
        "metrics.trace_distance_s": total["metrics.trace_distance"],
        "metrics.bound_s": total["metrics.fidelity_bound"],
        "settings.settings_for_plan_s": total["settings.settings_for_plan"],
        "settings.io_s": total["settings.io"],
        "trace.run_s": run,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m, {"optimizer_status": optimizer.get("status"),
               "optimizer_message": optimizer.get("message")}

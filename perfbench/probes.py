"""Per-layer probes: wrap the program's public functions in spans.

Nothing in the program changes.  :func:`install` replaces each probed
function with a wrapper that records a span (and, where the layer has
one, a count), patched *where it is looked up*: module-level functions
in every ``repro.*`` module that holds a reference to them, methods on
their class.  The patches last for the life of the (forked) process.
:func:`layer_metrics` then turns the spans and counts of one traced
iteration into the ``per_layer`` metrics of BENCHMARK.json.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import resource
import sys
from collections import Counter
from typing import Callable, Dict, List

from spans import Span, Tracer, coverage, self_times, union_length

#: The 13 pipeline stages, in the graph's insertion order.
STAGES = ("dataset", "baseline", "pruned", "operand_stats", "power_table",
          "power_selection", "timing_table", "delay_selection",
          "voltage_scaling", "power_measurement", "report",
          "accel_schedule", "accel_eval")

#: Module-level functions: (module, attribute, span name).
FUNCTIONS = (
    ("repro.nn.autograd", "conv2d", "nn.conv2d_fwd"),
    ("repro.nn.autograd", "matmul", "nn.matmul_fwd"),
    ("repro.nn.autograd", "project_ste", "nn.project_ste"),
    ("repro.data.datasets", "load_dataset", "data.load"),
    ("repro.netlist.mac", "build_mac_unit", "hw.build_mac"),
    ("repro.sim.compiled", "run_program_words", "sim.run_words"),
    ("repro.sim.dynamic_timing", "dynamic_bus_arrivals",
     "sim.stream_arrivals"),
    ("repro.systolic.mapping", "schedule_matmul", "systolic.schedule"),
    ("repro.experiments.sweep", "point_cache_key", "core.key"),
)

#: Methods: (module, class, attribute, span name).
METHODS = (
    ("repro.nn.trainer", "Trainer", "evaluate", "nn.evaluate"),
    ("repro.nn.autograd", "Tensor", "backward", "nn.backward"),
    ("repro.core.stages", "StageGraph", "key", "core.key"),
    ("repro.systolic.array", "SystolicArray", "run_layer",
     "systolic.run_layer"),
    ("repro.systolic.energy", "ArrayPowerModel", "layer_power",
     "systolic.layer_power"),
    ("repro.experiments.runner", "ExperimentContext", "__init__",
     "experiments.context"),
    ("repro.service.jobs", "JobManager", "_run_job", "service.run"),
) + tuple(
    ("repro.service.store", "JobStore", name, "service.journal")
    for name in ("create_job", "mark_running", "finish_job",
                 "set_precached", "record_retry_wave", "record_row",
                 "record_failure", "claim_next", "renew_lease",
                 "release_lease", "drop_lease"))


#: Modules imported before patching (see :meth:`Probes.install`).
PRELOAD = ("repro", "repro.core.pipeline", "repro.experiments.sweep",
           "repro.service.jobs", "repro.timing.profile")


class Probes:
    """Installed wrappers plus the spans and counts they record."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: Counter = Counter()
        self.fit_peak_rss_kb = 0
        #: Outcome cell of the stage lookup in progress (per context).
        self._stage_cell: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench-stage-cell", default=None)

    # -- patching (for the life of the process) -------------------------
    def _patch_function(self, module: str, name: str, wrapper) -> None:
        original = getattr(importlib.import_module(module), name)
        wrapped = wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and getattr(mod, name, None) is original:
                setattr(mod, name, wrapped)

    def _patch_method(self, module: str, cls: str, name: str,
                      wrapper) -> None:
        owner = getattr(importlib.import_module(module), cls)
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(wrapper(raw.__func__)))
        else:
            setattr(owner, name, wrapper(raw))

    def spanned(self, span: str) -> Callable:
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[span + "_calls"] += 1
                with self.tracer.span(span):
                    return fn(*args, **kwargs)
            return wrapper
        return wrap

    def install(self) -> "Probes":
        # Import every module that may hold a reference to a probed
        # function, so the module scan in _patch_function finds them.
        for module in PRELOAD:
            importlib.import_module(module)
        for module, name, span in FUNCTIONS:
            self._patch_function(module, name, self.spanned(span))
        for module, cls, name, span in METHODS:
            self._patch_method(module, cls, name, self.spanned(span))
        self._patch_method("repro.nn.trainer", "Trainer", "fit",
                           self._wrap_fit)
        for cls in ("SGD", "Adam"):
            self._patch_method("repro.nn.optim", cls, "step",
                               self._wrap_counter("nn.optim_steps"))
        self._patch_method("repro.power.characterization",
                           "WeightPowerCharacterizer", "characterize",
                           self._wrap_power)
        self._patch_method("repro.timing.profile", "WeightTimingTable",
                           "characterize", self._wrap_timing)
        self._patch_method("repro.core.stages", "StageRunner", "get",
                           self._wrap_stage)
        self._patch_method("repro.core.artifacts", "LocalDirStorage",
                           "read", self._wrap_read)
        self._patch_method("repro.core.artifacts", "LocalDirStorage",
                           "write", self._wrap_write)
        self._patch_method("repro.core.artifacts", "ArtifactStore",
                           "get_or_compute", self._wrap_lookup)
        self._patch_function("repro.core.power_selection",
                             "power_threshold_search",
                             self._wrap_search("core.power_search"))
        self._patch_function("repro.core.delay_selection",
                             "delay_threshold_search",
                             self._wrap_search("core.delay_search"))
        return self

    # -- wrappers with counts ------------------------------------------
    def _wrap_counter(self, counter: str):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[counter] += 1
                return fn(*args, **kwargs)
            return wrapper
        return wrap

    def _wrap_fit(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["nn.fit_calls"] += 1
            try:
                with self.tracer.span("nn.fit"):
                    return fn(*args, **kwargs)
            finally:
                self.fit_peak_rss_kb = max(
                    self.fit_peak_rss_kb,
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return wrapper

    def _wrap_power(self, fn):
        @functools.wraps(fn)
        def wrapper(characterizer, weights=None, *args, **kwargs):
            if weights is not None and not hasattr(weights, "__len__"):
                weights = tuple(weights)
            n_weights = 255 if weights is None else len(weights)
            self.counts["power.samples"] += (n_weights
                                             * characterizer.n_samples)
            with self.tracer.span("power.characterize"):
                return fn(characterizer, weights, *args, **kwargs)
        return wrapper

    def _wrap_timing(self, fn):
        @functools.wraps(fn)
        def wrapper(cls, profiler, weights=None, *args, **kwargs):
            if weights is not None and not hasattr(weights, "__len__"):
                weights = tuple(weights)
            n_weights = 255 if weights is None else len(weights)
            per_weight = kwargs.get("n_transitions") or (1 << 16)
            self.counts["timing.transitions"] += n_weights * per_weight
            with self.tracer.span("timing.characterize"):
                return fn(cls, profiler, weights, *args, **kwargs)
        return wrapper

    def _wrap_search(self, span: str):
        def wrap(fn):
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                retrain = bound.arguments["retrain"]

                def counted(model):
                    self.counts[span + "_retrains"] += 1
                    return retrain(model)

                bound.arguments["retrain"] = counted
                with self.tracer.span(span):
                    return fn(*bound.args, **bound.kwargs)
            return wrapper
        return wrap

    def _wrap_read(self, fn):
        @functools.wraps(fn)
        def wrapper(storage, key):
            with self.tracer.span("artifacts.read"):
                data = fn(storage, key)
            self.counts["artifacts.read_bytes"] += len(data)
            return data
        return wrapper

    def _wrap_write(self, fn):
        @functools.wraps(fn)
        def wrapper(storage, key, data):
            self.counts["artifacts.write_bytes"] += len(data)
            with self.tracer.span("artifacts.write"):
                return fn(storage, key, data)
        return wrapper

    def _wrap_stage(self, fn):
        @functools.wraps(fn)
        def wrapper(runner, name, *args, **kwargs):
            cell = {"computed": None}
            token = self._stage_cell.set(cell)
            try:
                with self.tracer.span(f"stage.{name}"):
                    return fn(runner, name, *args, **kwargs)
            finally:
                self._stage_cell.reset(token)
                self.counts["stage.computed" if cell["computed"]
                            else "stage.served"] += 1
        return wrapper

    def _wrap_lookup(self, fn):
        @functools.wraps(fn)
        def wrapper(store, key, compute, *args, **kwargs):
            cell = self._stage_cell.get()
            computed = []

            def tracked():
                computed.append(True)
                return compute()

            disk_before = store.disk_hits
            value = fn(store, key, tracked, *args, **kwargs)
            if computed:
                self.counts["artifacts.misses"] += 1
            else:
                self.counts["artifacts.hits"] += 1
                if store.disk_hits > disk_before:
                    self.counts["artifacts.disk_hits"] += 1
            if cell is not None and cell["computed"] is None:
                cell["computed"] = bool(computed)
            return value
        return wrapper


def layer_metrics(spans: List[Span], counts: Counter,
                  fit_peak_rss_kb: int, start: float, end: float,
                  extra: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration.

    Times are the union of the named spans' intervals (so recursion and
    nesting are not counted twice); stage times are self times within
    the stage layer.  ``extra`` supplies values measured outside the
    spans (the service's queue waits and cached points).
    """
    by_name: Dict[str, List] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append((span.start, span.end))

    def total(name: str) -> float:
        return union_length(by_name.get(name, ()))

    def rate(count: str, name: str) -> float:
        seconds = total(name)
        return counts[count] / seconds if seconds > 0 else 0.0

    stage_self: Dict[str, float] = dict.fromkeys(STAGES, 0.0)
    by_id = {span.span_id: span for span in spans}
    for span_id, seconds in self_times(
            spans, keep=lambda s: s.layer == "stage").items():
        stage = by_id[span_id].name.split(".", 1)[1]
        stage_self[stage] = stage_self.get(stage, 0.0) + seconds

    hits, misses = counts["artifacts.hits"], counts["artifacts.misses"]
    metrics: Dict[str, float] = {
        "nn.fit_s": total("nn.fit"),
        "nn.fit_calls": counts["nn.fit_calls"],
        "nn.optim_steps": counts["nn.optim_steps"],
        "nn.evaluate_s": total("nn.evaluate"),
        "nn.conv2d_fwd_s": total("nn.conv2d_fwd"),
        "nn.matmul_fwd_s": total("nn.matmul_fwd"),
        "nn.project_ste_s": total("nn.project_ste"),
        "nn.backward_s": total("nn.backward"),
        "nn.fit_peak_rss_mb": fit_peak_rss_kb / 1024.0,
    }
    metrics.update({f"stage.{name}_s": stage_self[name]
                    for name in STAGES})
    metrics.update({
        "stage.computed": counts["stage.computed"],
        "stage.served": counts["stage.served"],
        "core.key_s": total("core.key"),
        "core.power_search_retrains":
            counts["core.power_search_retrains"],
        "core.delay_search_retrains":
            counts["core.delay_search_retrains"],
        "artifacts.hits": hits,
        "artifacts.misses": misses,
        "artifacts.disk_hits": counts["artifacts.disk_hits"],
        "artifacts.hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "artifacts.read_s": total("artifacts.read"),
        "artifacts.read_bytes": counts["artifacts.read_bytes"],
        "artifacts.write_s": total("artifacts.write"),
        "artifacts.write_bytes": counts["artifacts.write_bytes"],
        "data.load_s": total("data.load"),
        "data.load_calls": counts["data.load_calls"],
        "hw.build_mac_s": total("hw.build_mac"),
        "hw.build_mac_calls": counts["hw.build_mac_calls"],
        "power.characterize_s": total("power.characterize"),
        "power.samples_per_s": rate("power.samples",
                                    "power.characterize"),
        "timing.characterize_s": total("timing.characterize"),
        "timing.transitions_per_s": rate("timing.transitions",
                                         "timing.characterize"),
        "sim.run_words_s": total("sim.run_words"),
        "sim.run_words_calls": counts["sim.run_words_calls"],
        "sim.stream_arrivals_s": total("sim.stream_arrivals"),
        "systolic.run_layer_s": total("systolic.run_layer"),
        "systolic.layer_power_s": total("systolic.layer_power"),
        "systolic.layer_power_calls": counts["systolic.layer_power_calls"],
        "systolic.schedule_s": total("systolic.schedule"),
        "experiments.context_s": total("experiments.context"),
        "experiments.context_calls": counts["experiments.context_calls"],
        "service.queue_wait_s": 0.0,
        "service.run_s": total("service.run"),
        "service.journal_s": total("service.journal"),
        "service.journal_writes": counts["service.journal_calls"],
        "service.points_cached": 0,
        "trace.coverage": coverage(spans, start, end),
    })
    metrics.update(extra)
    return metrics

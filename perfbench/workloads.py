"""The benchmark's three workloads: inputs, one iteration, output checks.

Each workload has

* ``setup(seed, out_dir, tiny)`` -- builds the workload's inputs under
  ``out_dir`` (run in a fresh interpreter; its wall time is setup_s);
* ``iterate(seed, cache, tiny)`` -- the measured fresh phase of one
  iteration, on a private copy of the inputs' artifact cache;
* ``resubmit(seed, cache, tiny, reference)`` -- the re-submission phase:
  requests the program must serve wholly from the cache the fresh phase
  filled (the service workload re-submits inside ``iterate`` instead).

Each phase returns its latencies plus digests and per-operation failure
records from the output checks (see :class:`Workload`).

Everything is built through the program's public API, with the
workload seed as ``PipelineConfig.seed``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: Re-submissions per fresh job (table1/characterize): enough samples
#: for a tail with ten samples beyond it.
RESUBMITS = 40


# ----------------------------------------------------------------------
# digests and failure bookkeeping
# ----------------------------------------------------------------------
def _feed(h, value: Any) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"nd{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _feed(h, getattr(value, f.name))
    elif isinstance(value, dict):
        for key in sorted(value, key=str):
            h.update(repr(key).encode())
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"seq{len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, (str, int, float, bool, np.generic)) \
            or value is None:
        h.update(repr(value).encode())
    elif isinstance(value, np.random.Generator):
        _feed(h, value.bit_generator.state)
    elif hasattr(value, "__dict__"):
        h.update(type(value).__name__.encode())
        _feed(h, vars(value))
    else:
        # Not repr: the default one embeds the object's address.
        h.update(pickle.dumps(value))


def digest(value: Any) -> str:
    """Content digest: bit-exact for arrays, ``repr`` for floats."""
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()[:32]


class Ledger:
    """Operations attempted and the reasons any of them failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def op(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))


def _rerequest(config, cache: Path, stage: str, reference: str,
               view: Callable[[Any], Any] = lambda artifact: artifact
               ) -> Dict[str, Any]:
    """The re-submission phase: ``RESUBMITS`` requests of one stage by
    new pruners on the filled cache, each checked against the digest
    of the fresh result."""
    from repro import PowerPruner

    ledger = Ledger()
    latencies = []
    for _ in range(RESUBMITS):
        t0 = time.perf_counter()
        pruner = PowerPruner(config, cache_dir=cache)
        artifact = pruner.runner().get(stage)
        latencies.append(time.perf_counter() - t0)
        problems = []
        if pruner.store.misses:
            problems.append(f"re-request of {stage} recomputed "
                            f"{pruner.store.misses} stage(s)")
        if digest(view(artifact)) != reference:
            problems.append(f"re-requested {stage} differs from the fresh "
                            "result")
        ledger.op(problems)
    return {"resubmit": latencies, "ledger": ledger}


# ----------------------------------------------------------------------
# table1-resnet20-cold
# ----------------------------------------------------------------------
def _table1_config(seed: int, tiny: bool):
    from repro.experiments.config import NETWORK_SPECS, pipeline_config

    config = pipeline_config(NETWORK_SPECS[1], "smoke", seed=seed)
    # Every seed retrains at all 4 power and 4 delay thresholds: an
    # accuracy budget larger than any possible drop pins the amount of
    # work, which otherwise depends on where the seed's accuracy dips.
    changes = dict(n_train=256, n_test=100, power_max_drop=1.0,
                   delay_max_drop_fraction=1.0)
    if tiny:
        changes.update(n_train=32, n_test=32, baseline_epochs=1,
                       char_weight_step=64, char_samples=64,
                       timing_transitions=256, n_restarts=1)
    return dataclasses.replace(config, **changes)


def _table1_setup(seed: int, out_dir: Path, tiny: bool) -> None:
    # The row itself starts cold, so set-up is loading the program
    # (imported by the config) and an empty cache directory.
    _table1_config(seed, tiny)
    (out_dir / "cache").mkdir(parents=True)


def _report_problems(pruner, report) -> List[str]:
    """Paper invariants of one Table I row."""
    problems = []
    if not report.reduction_std > 0:
        problems.append(f"Std-HW reduction {report.reduction_std:.3f}% "
                        "is not positive")
    if not report.reduction_opt > 0:
        problems.append(f"Opt-HW reduction {report.reduction_opt:.3f}% "
                        "is not positive")
    if not (report.power_opt_prop_vs.total_uw
            < report.power_opt_orig.total_uw):
        problems.append("opt_prop_vs is not below opt_orig")
    selection = pruner.runner().get("delay_selection")
    characterized = set(int(w) for w in pruner.config.char_weights())
    weights = set(int(w) for w in selection["weights"])
    if not weights <= characterized:
        problems.append(f"selected weights {sorted(weights - characterized)}"
                        " were never characterized")
    if 0 not in weights:
        problems.append("selected weights do not contain 0")
    if selection["activations"] is not None:
        acts = set(int(a) for a in selection["activations"])
        if not acts <= set(range(-128, 128)):
            problems.append("selected activations leave the 8-bit range")
        if 0 not in acts:
            problems.append("selected activations do not contain 0")
    return problems


def _table1_iterate(seed: int, cache: Path, tiny: bool) -> Dict[str, Any]:
    from repro import PowerPruner

    config = _table1_config(seed, tiny)
    ledger = Ledger()
    t0 = time.perf_counter()
    pruner = PowerPruner(config, cache_dir=cache)
    report = pruner.run()
    fresh = [time.perf_counter() - t0]
    reference = digest(report.as_dict())
    ledger.op(_report_problems(pruner, report))
    return {"fresh": fresh, "digest": reference, "reference": reference,
            "ledger": ledger}


def _table1_resubmit(seed: int, cache: Path, tiny: bool,
                     reference: str) -> Dict[str, Any]:
    # Re-request the row itself, as a cached table1 sweep point is
    # served: one artifact, whose size does not depend on the seed.
    return _rerequest(_table1_config(seed, tiny), cache, "report",
                      reference, view=lambda report: report.as_dict())


# ----------------------------------------------------------------------
# characterize-full
# ----------------------------------------------------------------------
#: Seeds with committed reference digests; the workload seed is taken
#: modulo this, so every run can be checked bit for bit.
REFERENCE_SEEDS = 32
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def _char_config(seed: int, tiny: bool):
    from repro.experiments.config import NETWORK_SPECS, pipeline_config

    config = pipeline_config(NETWORK_SPECS[0], "smoke",
                             seed=seed % REFERENCE_SEEDS)
    changes = dict(char_weight_step=1, char_samples=10000,
                   timing_transitions=8000)
    if tiny:
        changes.update(n_train=32, n_test=32, baseline_epochs=1,
                       char_weight_step=32, char_samples=128,
                       timing_transitions=256)
    return dataclasses.replace(config, **changes)


def _char_setup(seed: int, out_dir: Path, tiny: bool) -> None:
    from repro import PowerPruner

    config = _char_config(seed, tiny)
    PowerPruner(config, cache_dir=out_dir / "cache").runner().get(
        "operand_stats")


def _char_iterate(seed: int, cache: Path, tiny: bool) -> Dict[str, Any]:
    from repro import PowerPruner

    config = _char_config(seed, tiny)
    ledger = Ledger()
    stats = PowerPruner(config, cache_dir=cache).runner().get(
        "operand_stats")
    t0 = time.perf_counter()
    pruner = PowerPruner(config, cache_dir=cache)
    power = pruner.runner().get("power_table")
    timing = pruner.ops.characterize_timing([int(w) for w in power.weights])
    fresh = [time.perf_counter() - t0]
    digests = {"stats": digest(stats), "power_table": digest(power),
               "timing_table": digest(timing)}
    problems = []
    if len(power.weights) != len(config.char_weights()):
        problems.append(f"power table has {len(power.weights)} weights")
    if not tiny:
        problems += _reference_problems(config.seed, digests)
    ledger.op(problems)
    return {"fresh": fresh,
            "digest": digests["power_table"] + digests["timing_table"],
            "reference": digests["power_table"], "ledger": ledger}


def _char_resubmit(seed: int, cache: Path, tiny: bool,
                   reference: str) -> Dict[str, Any]:
    # The power table is a pipeline stage, so the program serves a
    # re-request from its artifact store; the all-weights timing table
    # is not one, so it has no cached path to re-request.
    return _rerequest(_char_config(seed, tiny), cache, "power_table",
                      reference)


def _reference_problems(seed: int, digests: Dict[str, str]) -> List[str]:
    references = json.loads(DIGESTS.read_text()) if DIGESTS.exists() \
        else {}
    expected = references.get(str(seed))
    if expected is None:
        return [f"no committed reference digests for seed {seed}"]
    if expected["stats"] != digests["stats"]:
        return [f"operand statistics of seed {seed} changed (training or "
                "data numerics moved); regenerate digests.json with "
                "perfbench/run.py --regen-digests"]
    return [f"{name} digest {digests[name]} != committed "
            f"{expected[name]}" for name in ("power_table", "timing_table")
            if digests[name] != expected[name]]


# ----------------------------------------------------------------------
# service-design-space
# ----------------------------------------------------------------------
ARRAY_SHAPES = ("8x8", "16x16", "32x32", "64x64", "16x64", "64x16",
                "32x128", "128x32")
#: Fresh jobs per iteration, one per distinct ``stream_batch``.
SERVICE_JOBS = 8


def _service_config(seed: int):
    """The prefix a smoke ``accel`` job reads.  The service only knows
    the named scales, so even the tiny pass trains the smoke prefix."""
    from repro.experiments.config import NETWORK_SPECS, pipeline_config

    return pipeline_config(NETWORK_SPECS[0], "smoke", seed=seed)


def _service_setup(seed: int, out_dir: Path, tiny: bool) -> None:
    from repro import PowerPruner

    runner = PowerPruner(_service_config(seed),
                         cache_dir=out_dir / "cache").runner()
    for stage in ("pruned", "power_table", "voltage_scaling"):
        runner.get(stage)


def _job_body(seed: int, stream_batch: int, tiny: bool) -> Dict[str, Any]:
    return {"experiment": "accel", "networks": ["lenet5"],
            "seeds": [seed], "scale": "smoke",
            "array_shapes": list(ARRAY_SHAPES[:2] if tiny
                                 else ARRAY_SHAPES),
            "hw_variants": ["standard", "optimized"],
            "stream_batch": stream_batch}


def _rows_problems(rows: List[Dict[str, Any]]) -> List[str]:
    power = {row["accel"]: row["power_mw"] for row in rows}
    problems = []
    for label, standard in power.items():
        if "/standard" in label:
            optimized = power.get(label.replace("/standard", "/optimized"))
            if optimized is None:
                problems.append(f"{label} has no optimized counterpart")
            elif not optimized <= standard:
                problems.append(f"{label}: optimized {optimized:.4f} mW > "
                                f"standard {standard:.4f} mW")
    return problems


def _service_iterate(seed: int, cache: Path, tiny: bool) -> Dict[str, Any]:
    from repro.service.jobs import JobManager

    ledger = Ledger()
    fresh, resubmits, waits, cached_points, row_digests = [], [], [], 0, []
    manager = JobManager(cache_dir=str(cache), jobs=1, char_jobs=1)
    try:
        for stream_batch in range(1, (2 if tiny else SERVICE_JOBS) + 1):
            body = _job_body(seed, stream_batch, tiny)
            results = []
            for latencies in (fresh, resubmits):
                t0 = time.perf_counter()
                job_id = manager.submit_mapping(body)["job_id"]
                manager.wait(job_id)
                latencies.append(time.perf_counter() - t0)
                status = manager.status(job_id)
                results.append((status, manager.result(job_id)))
                waits.append(status["started_at"] - status["created_at"])
                cached_points += status["points"]["cached"]
            (status, result), (re_status, re_result) = results
            problems = []
            if status["state"] != "done":
                problems.append(f"job ended {status['state']}")
            problems += _rows_problems(result.get("rows", []))
            ledger.op(problems)
            row_digests.append(digest(result.get("rows")))
            problems = []
            if re_status["state"] != "done":
                problems.append(f"re-submission ended {re_status['state']}")
            rows = result.get("rows", [])
            re_rows = re_result.get("rows", [])
            if not re_rows or not all(row["cached"] for row in re_rows):
                problems.append("re-submission was not served from cache")
            strip = [{k: v for k, v in row.items() if k != "cached"}
                     for row in rows]
            re_strip = [{k: v for k, v in row.items() if k != "cached"}
                        for row in re_rows]
            if strip != re_strip:
                problems.append("re-submitted rows differ from fresh rows")
            ledger.op(problems)
    finally:
        manager.shutdown()
    return {"fresh": fresh, "resubmit": resubmits,
            "digest": digest(row_digests), "ledger": ledger,
            "service": {"service.queue_wait_s": float(sum(waits)),
                        "service.points_cached": cached_points}}


@dataclasses.dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path, bool], None]
    #: The fresh phase: returns its job latencies (``fresh``), the
    #: ``digest`` of its output and, with a re-submission phase, the
    #: ``reference`` digest that phase must reproduce.
    iterate: Callable[[int, Path, bool], Dict[str, Any]]
    #: The re-submission phase, run in a new process on the cache the
    #: fresh phase filled; ``None`` when ``iterate`` re-submits itself.
    resubmit: Optional[Callable[[int, Path, bool, str],
                                Dict[str, Any]]] = None


WORKLOADS = {
    "table1-resnet20-cold": Workload(_table1_setup, _table1_iterate,
                                     _table1_resubmit),
    "characterize-full": Workload(_char_setup, _char_iterate,
                                  _char_resubmit),
    "service-design-space": Workload(_service_setup, _service_iterate),
}


def reference_digests(seed: int, work_dir: Path) -> Dict[str, str]:
    """Digests of the characterize-full outputs of one reference seed
    (``run.py --regen-digests`` writes them to digests.json)."""
    from repro import PowerPruner

    _char_setup(seed, work_dir, tiny=False)
    pruner = PowerPruner(_char_config(seed, tiny=False),
                         cache_dir=work_dir / "cache")
    runner = pruner.runner()
    power = runner.get("power_table")
    timing = pruner.ops.characterize_timing([int(w) for w in power.weights])
    return {"stats": digest(runner.get("operand_stats")),
            "power_table": digest(power), "timing_table": digest(timing)}

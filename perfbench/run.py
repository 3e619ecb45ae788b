"""End-to-end, layer-by-layer benchmark of the PowerPruning reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1-resnet20-cold --seed 0 \\
        --seconds 25 --trace 0

One run:

1. sets up ``SETUP_REPEATS`` times, each in a fresh interpreter that
   loads the program and builds the workload's inputs from ``--seed``
   (``setup_s`` is the median wall time);
2. with ``--trace 0`` runs measured iterations for ``--seconds``
   (at least one; see :func:`measure_for`) on private copies of the
   inputs, so every iteration starts from the same state; each phase of an iteration (fresh jobs,
   then re-submissions) runs in its own forked child, so its peak RSS
   is its own; with ``--trace 1`` runs one untraced and one traced
   iteration and reports the per-layer metrics of the latter;
3. checks every iteration's outputs and prints the environment, one
   line per metric with its unit and sample count, and, as the last
   line, ``{"correct", "attempted", "failed", "metrics"}``.

The exit code is 0 only when every output check passed.  The load comes
from one process: one client, ``jobs=1``, ``char_jobs=1`` and one BLAS
thread.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import pickle
import platform
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
#: Every run must end within this many seconds of its start.
RUN_BUDGET_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail(samples: Sequence[float], beyond: int = 10
         ) -> Tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` of the highest
    nearest-rank percentile that has at least ``beyond`` samples above
    it.  With ``beyond`` or fewer samples no such percentile exists and
    the maximum is returned (with 0 samples beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = n - beyond if n > beyond else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def check_metric_names(names: Sequence[str]) -> None:
    bad = [name for name in names if not METRIC_NAME.match(name)]
    if bad or len(set(names)) != len(names):
        raise ValueError(f"bad or duplicate metric names: {bad or names}")


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def run_in_child(fn: Callable[[], Any], timeout: float) -> Any:
    """Run ``fn`` in a forked child and return its (pickled) result.

    Forking shares the already imported program with the child; it is
    safe because the harness process itself starts no threads.  The
    child never returns into the caller's frames: it always ends in
    ``os._exit``.  A child that outlives ``timeout`` is killed; either
    way it is reaped before this returns.
    """
    if threading.active_count() != 1:
        raise RuntimeError("refusing to fork a process that has threads")
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        try:
            os.close(read_fd)
            try:
                payload = ("ok", fn())
            except Exception:
                payload = ("error", traceback.format_exc())
            with os.fdopen(write_fd, "wb") as handle:
                handle.write(pickle.dumps(payload))
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks: List[bytes] = []
    deadline = time.monotonic() + timeout
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                os.kill(pid, signal.SIGKILL)
                raise TimeoutError(f"iteration exceeded {timeout:.0f} s")
            ready, _, _ = select.select([read_fd], [], [], remaining)
            if ready:
                chunk = os.read(read_fd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(read_fd)
        os.waitpid(pid, 0)
    if not chunks:
        raise RuntimeError("iteration process died without a result")
    status, value = pickle.loads(b"".join(chunks))
    if status != "ok":
        raise RuntimeError(f"iteration raised:\n{value}")
    return value


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "numba": importlib.util.find_spec("numba") is not None,
        "fastapi": importlib.util.find_spec("fastapi") is not None,
    }


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def timed_setups(args, work_dir: Path) -> Tuple[List[float], Path]:
    """Set up ``SETUP_REPEATS`` times in fresh interpreters; returns the
    wall times and the input directory of the last set-up."""
    times = []
    for index in range(1 if args.tiny else SETUP_REPEATS):
        out = work_dir / f"setup-{index}"
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--setup-only", "--workload", args.workload,
                   "--seed", str(args.seed), "--out", str(out)]
        if args.tiny:
            command.append("--tiny")
        t0 = time.perf_counter()
        # Wait for EOF on the child's stdout rather than with
        # ``subprocess.run(timeout=...)``, whose wait polls in steps of
        # up to 50 ms and so quantizes a sub-second set-up time.
        with subprocess.Popen(command, cwd=ROOT,
                              stdout=subprocess.PIPE) as proc:
            if not select.select([proc.stdout], [], [], 120)[0]:
                proc.kill()
                raise TimeoutError("set-up exceeded 120 s")
            proc.stdout.read()
            code = proc.wait()
        times.append(time.perf_counter() - t0)
        if code:
            raise subprocess.CalledProcessError(code, command)
        if index:
            shutil.rmtree(work_dir / f"setup-{index - 1}")
    return times, out


def phase(args, run: Callable[[], Dict[str, Any]],
          traced: bool) -> Dict[str, Any]:
    """One measured phase of an iteration (runs inside a forked child)."""
    probes = None
    if traced:
        from probes import Probes
        from spans import Tracer

        probes = Probes(Tracer(f"{args.workload}-seed{args.seed}")).install()
    cpu0 = os.times()
    t0 = time.perf_counter()
    out = run()
    t1 = time.perf_counter()
    cpu1 = os.times()
    ledger = out.pop("ledger")
    out.update(
        start=t0, end=t1,
        cpu=(cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=ledger.attempted, failures=ledger.failures)
    if probes is not None:
        out.update(spans=probes.tracer.spans, counts=dict(probes.counts),
                   fit_peak_rss_kb=probes.fit_peak_rss_kb)
    return out


def measure(args, workload, started: float) -> Dict[str, Any]:
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK_ROOT, prefix="run-"))
    try:
        setup_times, input_dir = timed_setups(args, work_dir)

        def child(run, traced: bool) -> Dict[str, Any]:
            budget = RUN_BUDGET_S - (time.perf_counter() - started)
            return run_in_child(lambda: phase(args, run, traced),
                                timeout=max(1.0, budget))

        def iteration(traced: bool) -> Dict[str, Any]:
            """The fresh phase, then (where the workload has one) the
            re-submission phase in a new process on the same cache, so
            re-submissions do not inherit the fresh phase's heap."""
            private = Path(tempfile.mkdtemp(dir=work_dir, prefix="iter-"))
            cache = private / "cache"
            shutil.copytree(input_dir / "cache", cache)
            phases = [child(lambda: workload.iterate(
                args.seed, cache, args.tiny), traced)]
            if workload.resubmit is not None:
                reference = phases[0]["reference"]
                phases.append(child(lambda: workload.resubmit(
                    args.seed, cache, args.tiny, reference), traced))
            shutil.rmtree(private)
            return merge_phases(args, phases, traced)

        if args.trace:
            iterations = [iteration(False), iteration(True)]
        else:
            iterations = measure_for(args.seconds, started,
                                     lambda: iteration(False))
        return {"setup": setup_times, "iterations": iterations}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure_for(seconds: float, started: float,
                iterate: Callable[[], Dict[str, Any]]
                ) -> List[Dict[str, Any]]:
    """Iterations for ``seconds``: at least one, then another while one
    more, at the mean pace so far, ends within ``seconds`` (and within
    the run's budget).  Every metric is a median per iteration or per
    job, so the count may follow the program's speed."""
    t0 = time.perf_counter()
    iterations = [iterate()]
    while True:
        now = time.perf_counter()
        pace = (now - t0) / len(iterations)
        if (now - t0 + pace > seconds
                or now - started + 2 * pace > RUN_BUDGET_S):
            return iterations
        iterations.append(iterate())


def merge_phases(args, phases: List[Dict[str, Any]],
                 traced: bool) -> Dict[str, Any]:
    """One iteration's record from its phases' records."""
    out = {
        "fresh": phases[0]["fresh"],
        "resubmit": [x for ph in phases for x in ph.get("resubmit", ())],
        "digest": phases[0]["digest"],
        "wall": sum(ph["end"] - ph["start"] for ph in phases),
        "cpu": sum(ph["cpu"] for ph in phases),
        "peak_rss_mb": max(ph["peak_rss_mb"] for ph in phases),
        "attempted": sum(ph["attempted"] for ph in phases),
        "failures": [f for ph in phases for f in ph["failures"]],
    }
    if traced:
        from probes import layer_metrics
        from spans import Tracer, coverage

        # Coverage is of the phases' own time, not of the gap between
        # the two processes.
        covered = sum(coverage(ph["spans"], ph["start"], ph["end"])
                      * (ph["end"] - ph["start"]) for ph in phases)
        extra = dict(phases[0].get("service", {}))
        extra["trace.coverage"] = covered / out["wall"]
        # Span ids restart in every process: shift each phase's ids.
        tracer = Tracer(f"{args.workload}-seed{args.seed}")
        counts: Counter = Counter()
        offset = 0
        for ph in phases:
            for span in ph["spans"]:
                span.span_id += offset
                if span.parent is not None:
                    span.parent += offset
                tracer.spans.append(span)
            offset = max((s.span_id for s in tracer.spans), default=0)
            counts.update(ph["counts"])
        out["layers"] = layer_metrics(
            tracer.spans, counts,
            max(ph["fit_peak_rss_kb"] for ph in phases),
            phases[0]["start"], phases[-1]["end"], extra)
        tracer.write_jsonl(WORK_ROOT / f"trace-{args.workload}.jsonl")
    return out


def latency_values(prefix: str, samples: Sequence[float], what: str
                   ) -> Dict[str, Tuple[float, str]]:
    """``<prefix>p50_s`` and ``<prefix>tail_s`` with their sample counts."""
    value, percentile, beyond = tail(samples)
    return {
        f"{prefix}p50_s": (statistics.median(samples),
                           f"median of {len(samples)} {what}"),
        f"{prefix}tail_s": (value, f"p{percentile:.1f} of {len(samples)} "
                            f"{what}, {beyond} beyond"),
    }


def summarize(args, spec: Dict[str, Any], result: Dict[str, Any]
              ) -> Tuple[Dict[str, Any], List[str]]:
    """The final JSON object and the human-readable metric lines."""
    iterations = result["iterations"]
    failures = [f for it in iterations for f in it["failures"]]
    attempted = sum(it["attempted"] for it in iterations)
    # Same seed, same code: every iteration must produce the same output.
    for it in iterations[1:]:
        attempted += 1
        if it["digest"] != iterations[0]["digest"]:
            failures.append("iteration output differs from the first "
                            "iteration's")
    lines = [f"workload {args.workload} seed {args.seed} trace "
             f"{args.trace} iterations {len(iterations)}"]
    fresh = [x for it in iterations for x in it["fresh"]]
    resubmit = [x for it in iterations for x in it["resubmit"]]
    if args.trace:
        traced = iterations[1]
        values = {name: (value, "1 traced iteration")
                  for name, value in traced["layers"].items()}
        values["proc.cpu_s"] = (iterations[0]["cpu"],
                                "1 untraced iteration")
        values["trace.overhead_s"] = (
            traced["wall"] - iterations[0]["wall"],
            "traced wall - untraced wall")
        values.update(latency_values("artifacts.resubmit_",
                                     traced["resubmit"], "re-submissions"))
        wanted = spec["per_layer"]
    else:
        n = len(iterations)
        values = {
            "setup_s": (statistics.median(result["setup"]),
                        f"median of {len(result['setup'])} set-ups"),
            "wall_s": (statistics.median(it["wall"] for it in iterations),
                       f"median of {n} iterations"),
            "peak_rss_mb": (
                statistics.median(it["peak_rss_mb"] for it in iterations),
                f"median of {n} iterations"),
            **latency_values("job_", fresh, "fresh jobs"),
        }
        # Reported, not gated (see perfbench/README.md): the job tail is
        # a low percentile of few jobs, and re-submissions take
        # milliseconds, where run-to-run noise reaches a factor of 2-3.
        info = {"job_tail_s": values.pop("job_tail_s")}
        info.update(latency_values("resubmit_", resubmit,
                                   "re-submissions"))
        lines += [f"info {name} = {value:.6g} s ({samples})"
                  for name, (value, samples) in info.items()]
        wanted = spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value, samples = values[entry["name"]]
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{entry['name']} is not finite")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        lines.append(f"metric {entry['name']} = {value:.6g} "
                     f"{entry['unit']} ({samples})")
    lines.append(f"metric failed_frac = {len(failures) / attempted:.6g} "
                 f"({len(failures)} of {attempted} operations)")
    lines += [f"FAILED: {failure}" for failure in failures]
    summary = {"correct": not failures, "attempted": attempted,
               "failed": len(failures), "metrics": metrics}
    return summary, lines


def regen_digests() -> int:
    from workloads import DIGESTS, REFERENCE_SEEDS, reference_digests

    WORK_ROOT.mkdir(exist_ok=True)
    digests = {}
    for seed in range(REFERENCE_SEEDS):
        work_dir = Path(tempfile.mkdtemp(dir=WORK_ROOT, prefix="regen-"))
        try:
            digests[str(seed)] = reference_digests(seed, work_dir)
        finally:
            shutil.rmtree(work_dir)
        print(f"seed {seed}: {digests[str(seed)]}", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="characterize-full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (harness self-test only)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--regen-digests", action="store_true",
                        help="rewrite perfbench/digests.json (after a "
                        "declared change of the characterization outputs)")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: program sources not found under {ROOT}/src",
              file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload].setup(args.seed, Path(args.out), args.tiny)
        return 0
    if args.regen_digests:
        return regen_digests()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metric_names([m["name"] for m in spec["end_to_end"]
                        + spec["per_layer"]])
    import repro  # noqa: F401 - imported once, inherited by every child

    result = measure(args, WORKLOADS[args.workload], started)
    summary, lines = summarize(args, spec, result)
    print("env " + json.dumps(environment(), sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

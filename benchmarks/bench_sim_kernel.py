"""Benchmark the gate-simulation kernel against its reference oracles.

Times the workload shapes every experiment bottoms out in, on the
default MAC unit:

* **power-shaped** — one stacked before/after evaluation of the full
  MAC plus per-net toggle-rate extraction (the Sec. III-A per-weight
  power characterization inner loop): the per-gate reference walk of
  ``tests/oracles/sim.py`` vs the packed level-program kernel;
* **DTA-shaped** — per-transition arrival-time propagation through the
  multiplier with a frozen weight (the Sec. III-B per-weight dynamic
  timing analysis inner loop): the per-net reference walk vs the
  streaming ``dynamic_bus_arrivals`` with the profiler's reused
  scratch buffers.  The streaming DTA propagates only the call's live
  nets (switching gates that reach the product bus), and the record
  gives their count.  A second stimulus draws a random weight per
  sample, so nearly every net switches and only the product bus's
  fanin cone prunes: it shows the kernel does not slow down when
  little can be skipped;
* **characterization-table-shaped** — the full 255-weight power table,
  frozen pre-batching per-weight loop vs the one-launch weight-batched
  path (the per-weight loop over the current sampler is timed too),
  plus the timing table with one weight per DTA launch vs automatic
  grouping.

Every pair is asserted bit-for-bit equal before anything is timed.
The shape results go to ``BENCH_sim_kernel.json`` and the table
results to ``BENCH_char_batch.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_sim_kernel.py
    PYTHONPATH=src python benchmarks/bench_sim_kernel.py --quick

Floors, asserted in both modes (``--quick`` only shrinks the batches
for CI smoke): the kernel beats the reference by >= 5x on the power
shape and >= 3x on both DTA stimuli, and the one-launch power table
beats the frozen pre-batching loop by >= 3x.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "tests"))

from repro.cells import default_library  # noqa: E402
from repro.netlist import build_mac_unit  # noqa: E402
from repro.power.binning import (  # noqa: E402
    BinnedTransitions,
    PartialSumBinner,
)
from repro.power.characterization import (  # noqa: E402
    WeightPowerCharacterizer,
)
from repro.power.transitions import TransitionDistribution  # noqa: E402
from repro.sim.dynamic_timing import (  # noqa: E402
    STREAM_WINDOW_SAMPLES,
    _live_plan,
    dynamic_bus_arrivals,
)
from repro.sim.logic import (  # noqa: E402
    WORD_DTYPE,
    bus_inputs,
    evaluate_words,
)
from repro.sim.switching import (  # noqa: E402
    paired_toggle_rates,
    paired_toggle_rates_words,
)
from repro.timing.profile import (  # noqa: E402
    WeightDelayProfiler,
    WeightTimingTable,
)

from oracles.characterization import (  # noqa: E402
    dynamic_energies_fj,
    pre_batching_energies_fj,
)
from oracles.sim import (  # noqa: E402
    dynamic_arrival_times_reference,
    evaluate_reference,
)

#: Kernel-vs-reference floors on the power and DTA shapes.
POWER_SPEEDUP_FLOOR = 5.0
DTA_SPEEDUP_FLOOR = 3.0
#: One-launch characterization floor: the full-table megabatch path
#: must beat the frozen pre-batching per-weight loop by at least this
#: much, serially.
CHAR_SPEEDUP_FLOOR = 3.0


def _best_of(fn, repeats: int) -> float:
    """Best wall time of ``repeats`` runs (least-noise estimator)."""
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _power_feed(n_samples: int, seed: int = 0):
    """A stacked before/after stimulus batch for the full MAC."""
    rng = np.random.default_rng(seed)
    feed = bus_inputs("act", rng.integers(-128, 128, 2 * n_samples), 8)
    feed.update(bus_inputs("w", np.full(2 * n_samples, -105), 8))
    feed.update(bus_inputs(
        "psum", rng.integers(-(1 << 21), 1 << 21, 2 * n_samples), 22))
    return feed


def bench_power_shape(mac, n_samples: int, repeats: int) -> dict:
    """Stacked evaluation + toggle rates: reference vs kernel."""
    packed = mac.full.packed()
    packed.program  # built outside the timed region, as in the pipeline
    feed = _power_feed(n_samples)

    def reference():
        return paired_toggle_rates(evaluate_reference(packed, feed))

    def kernel():
        return paired_toggle_rates_words(
            evaluate_words(packed, feed, pair_halves=True))

    np.testing.assert_array_equal(reference(), kernel())
    reference_s = _best_of(reference, repeats)
    kernel_s = _best_of(kernel, repeats)
    return {
        "n_samples": n_samples,
        "reference_s": reference_s,
        "kernel_s": kernel_s,
        "kernel_samples_per_s": 2 * n_samples / kernel_s,
        "speedup": reference_s / kernel_s,
        "bitwise_equal": True,
    }


def _live_net_count(packed, before, after, nets) -> int:
    """Nets the streaming DTA propagates for this stimulus."""
    stacked = {name: np.concatenate([before[name], after[name]])
               for name in before}
    before_words, after_words = evaluate_words(
        packed, stacked, pair_halves=True).halves()
    rows, __, __ = _live_plan(
        packed, (before_words ^ after_words).any(axis=1), nets)
    return int(rows.size)


def bench_dta_shape(mac, library, n_transitions: int, repeats: int,
                    random_weights: bool = False) -> dict:
    """Product-bus arrival times: reference walk vs streaming DTA.

    The weight is frozen at -105, as in per-weight timing
    characterization, or drawn per sample with ``random_weights``.
    The streaming side reuses one word matrix and one arrival slab
    across calls, exactly as
    :class:`~repro.timing.profile.WeightDelayProfiler` does across its
    chunks and weights.
    """
    packed = mac.multiplier.packed()
    packed.program
    rng = np.random.default_rng(1)
    weights = rng.integers(-128, 128, n_transitions) if random_weights \
        else np.full(n_transitions, -105)
    weight_bus = bus_inputs("w", weights, 8)
    before = bus_inputs("act", rng.integers(-128, 128, n_transitions), 8)
    before.update(weight_bus)
    after = bus_inputs("act", rng.integers(-128, 128, n_transitions), 8)
    after.update(weight_bus)
    nets = np.asarray(
        mac.multiplier.output_bus("product", mac.product_bits),
        dtype=np.int64)
    words_buf = np.zeros(
        (len(packed), 2 * ((n_transitions + 63) // 64)), dtype=WORD_DTYPE)
    slab_buf = np.zeros(
        (len(packed), min(STREAM_WINDOW_SAMPLES, n_transitions)))

    def reference():
        arrivals, __ = dynamic_arrival_times_reference(
            packed, library, before, after)
        return arrivals[nets]

    def kernel():
        return dynamic_bus_arrivals(
            packed, library, before, after, nets, words_out=words_buf,
            arrivals_out=slab_buf)

    np.testing.assert_array_equal(reference(), kernel())
    reference_s = _best_of(reference, repeats)
    kernel_s = _best_of(kernel, repeats)
    return {
        "n_transitions": n_transitions,
        "weights": "random per sample" if random_weights else -105,
        "n_nets": len(packed),
        "live_nets": _live_net_count(packed, before, after, nets),
        "reference_s": reference_s,
        "kernel_s": kernel_s,
        "kernel_transitions_per_s": n_transitions / kernel_s,
        "speedup": reference_s / kernel_s,
        "bitwise_equal": True,
    }


def _build_characterizer(n_samples: int) -> WeightPowerCharacterizer:
    """Paper-shaped smoke characterization setup (50 psum bins)."""
    rng = np.random.default_rng(0)
    stream = rng.integers(-(1 << 18), 1 << 18, 6000)
    binner = PartialSumBinner(n_bins=50).fit(stream, rng=rng)
    return WeightPowerCharacterizer(
        build_mac_unit(), default_library(),
        TransitionDistribution.diagonal(256),
        BinnedTransitions.from_stream(binner, stream),
        n_samples=n_samples,
    )


def bench_char_table(n_samples: int, n_transitions: int,
                     repeats: int) -> dict:
    """Full characterization tables: per-weight loops vs one launch."""
    char = _build_characterizer(n_samples)
    weights = list(range(-127, 128))
    seed = 2023

    baseline = pre_batching_energies_fj(char, weights, seed)
    np.testing.assert_array_equal(
        dynamic_energies_fj(char, weights, seed), baseline)
    np.testing.assert_array_equal(
        char.dynamic_energies_fj_batched(weights, seed), baseline)

    loop_s = _best_of(
        lambda: pre_batching_energies_fj(char, weights, seed), repeats)
    oracle_s = _best_of(
        lambda: dynamic_energies_fj(char, weights, seed), repeats)
    batched_s = _best_of(
        lambda: char.dynamic_energies_fj_batched(weights, seed),
        repeats)

    profiler = WeightDelayProfiler(char.mac, char.library)
    timing_weights = list(range(-127, 128, 4))

    def timing_loop():
        return WeightTimingTable.characterize(
            profiler, timing_weights, n_transitions=n_transitions,
            seed=seed, batch_weights=1)

    def timing_batched():
        return WeightTimingTable.characterize(
            profiler, timing_weights, n_transitions=n_transitions,
            seed=seed)

    loop_table = timing_loop()
    batched_table = timing_batched()
    np.testing.assert_array_equal(loop_table.max_delay_ps,
                                  batched_table.max_delay_ps)
    np.testing.assert_array_equal(loop_table.combo_weight,
                                  batched_table.combo_weight)
    np.testing.assert_array_equal(loop_table.combo_delay_ps,
                                  batched_table.combo_delay_ps)
    assert loop_table.time_scale == batched_table.time_scale

    timing_loop_s = _best_of(timing_loop, repeats)
    timing_batched_s = _best_of(timing_batched, repeats)

    return {
        "power": {
            "n_weights": len(weights),
            "n_samples": n_samples,
            "per_weight_loop_s": loop_s,
            "per_weight_oracle_s": oracle_s,
            "one_launch_s": batched_s,
            "weights_per_s": len(weights) / batched_s,
            "speedup_one_launch": loop_s / batched_s,
            "speedup_vs_oracle": oracle_s / batched_s,
            "bitwise_equal": True,
        },
        "timing": {
            "n_weights": len(timing_weights),
            "n_transitions": n_transitions,
            "per_weight_loop_s": timing_loop_s,
            "one_launch_s": timing_batched_s,
            "speedup_one_launch": timing_loop_s / timing_batched_s,
            "bitwise_equal": True,
        },
    }


def run(quick: bool, json_path: Path, repeats: int,
        char_json_path: Path = Path("BENCH_char_batch.json")) -> dict:
    mac = build_mac_unit()
    library = default_library()
    n_power = 2000 if quick else 10000
    n_dta = 1024 if quick else 8192
    n_char = 800 if quick else 1500
    n_char_transitions = 200 if quick else 400

    platform_block = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
    full_stats = mac.full.packed().program.stats()
    mult_stats = mac.multiplier.packed().program.stats()
    print(f"MAC netlist: {full_stats['n_gates']} gates / "
          f"{full_stats['n_nets']} nets, {full_stats['n_levels']} "
          f"levels")

    power = bench_power_shape(mac, n_power, repeats)
    print(f"power-shaped ({n_power} stacked pairs): "
          f"reference {power['reference_s'] * 1e3:8.1f} ms | "
          f"kernel {power['kernel_s'] * 1e3:7.1f} ms "
          f"({power['speedup']:.1f}x)")

    dta = bench_dta_shape(mac, library, n_dta, repeats)
    dta_random = bench_dta_shape(mac, library, n_dta, repeats,
                                 random_weights=True)
    for label, shape in (("weight -105", dta),
                         ("random weights", dta_random)):
        print(f"DTA-shaped   ({n_dta} transitions, {label}): "
              f"reference {shape['reference_s'] * 1e3:8.1f} ms | "
              f"streaming {shape['kernel_s'] * 1e3:7.1f} ms "
              f"({shape['speedup']:.1f}x; {shape['live_nets']} of "
              f"{shape['n_nets']} nets live)")

    char = bench_char_table(n_char, n_char_transitions, repeats)
    char_power = char["power"]
    char_timing = char["timing"]
    print(f"char-table power  ({char_power['n_weights']} weights x "
          f"{n_char} samples): pre-batching loop "
          f"{char_power['per_weight_loop_s'] * 1e3:8.1f} ms | "
          f"per-weight oracle "
          f"{char_power['per_weight_oracle_s'] * 1e3:7.1f} ms | "
          f"one-launch {char_power['one_launch_s'] * 1e3:7.1f} ms "
          f"({char_power['speedup_one_launch']:.1f}x)")
    print(f"char-table timing ({char_timing['n_weights']} weights x "
          f"{n_char_transitions} transitions): one weight per launch "
          f"{char_timing['per_weight_loop_s'] * 1e3:8.1f} ms | "
          f"grouped {char_timing['one_launch_s'] * 1e3:7.1f} ms "
          f"({char_timing['speedup_one_launch']:.1f}x)")

    char_payload = {
        "benchmark": "char_batch",
        "quick": quick,
        "repeats": repeats,
        "platform": platform_block,
        "power_table": char_power,
        "timing_table": char_timing,
        "floors": {"power_speedup": CHAR_SPEEDUP_FLOOR},
    }
    char_json_path.write_text(json.dumps(char_payload, indent=2) + "\n")
    print(f"char-batch results written to {char_json_path}")

    payload = {
        "benchmark": "sim_kernel",
        "quick": quick,
        "repeats": repeats,
        "platform": platform_block,
        "program": {"mac_full": full_stats, "multiplier": mult_stats},
        "power_characterization_shape": power,
        "dta_shape": dta,
        "dta_shape_random_weights": dta_random,
        "floors": {"power_speedup": POWER_SPEEDUP_FLOOR,
                   "dta_speedup": DTA_SPEEDUP_FLOOR},
    }
    json_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"results written to {json_path}")

    failures = []
    if power["speedup"] < POWER_SPEEDUP_FLOOR:
        failures.append(
            f"power-shape speedup {power['speedup']:.2f}x below the "
            f"{POWER_SPEEDUP_FLOOR:g}x floor")
    for label, shape in (("DTA-shape", dta),
                         ("random-weight DTA-shape", dta_random)):
        if shape["speedup"] < DTA_SPEEDUP_FLOOR:
            failures.append(
                f"{label} speedup {shape['speedup']:.2f}x below the "
                f"{DTA_SPEEDUP_FLOOR:g}x floor")
    if char_power["speedup_one_launch"] < CHAR_SPEEDUP_FLOOR:
        failures.append(
            f"one-launch characterization speedup "
            f"{char_power['speedup_one_launch']:.2f}x below the "
            f"{CHAR_SPEEDUP_FLOOR:g}x floor")
    if failures:
        raise SystemExit("FAIL: " + "; ".join(failures))
    print("OK: all speedup floors met")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the gate-simulation kernel against its "
                    "reference oracles on the default MAC")
    parser.add_argument("--quick", action="store_true",
                        help="small batches for CI smoke (same "
                             "floors)")
    parser.add_argument("--json", type=Path,
                        default=Path("BENCH_sim_kernel.json"),
                        metavar="FILE",
                        help="output path for the machine-readable "
                             "results (default: %(default)s)")
    parser.add_argument("--char-json", type=Path,
                        default=Path("BENCH_char_batch.json"),
                        metavar="FILE",
                        help="output path for the characterization-"
                             "table results (default: %(default)s)")
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="timing repeats; best-of-N is reported "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)
    run(args.quick, args.json, max(1, args.repeats),
        char_json_path=args.char_json)
    return 0


if __name__ == "__main__":
    sys.exit(main())

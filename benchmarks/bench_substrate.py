"""Microbenchmarks of the simulation substrate itself.

These exercise the throughput-critical inner loops (vectorized logic
simulation, dynamic timing, the systolic matmul) with real
pytest-benchmark statistics — useful when optimizing the engines.
"""

import numpy as np
import pytest

from repro.cells import default_library
from repro.netlist import build_mac_unit
from repro.sim.dynamic_timing import dynamic_bus_arrivals
from repro.sim.logic import bus_inputs, evaluate
from repro.systolic import SystolicArray

MAC = build_mac_unit()
LIB = default_library()
BATCH = 4096


def _mac_inputs(seed):
    rng = np.random.default_rng(seed)
    feed = bus_inputs("act", rng.integers(-128, 128, BATCH), 8)
    feed.update(bus_inputs("w", rng.integers(-128, 128, BATCH), 8))
    feed.update(bus_inputs("psum", rng.integers(-(1 << 21), 1 << 21,
                                                BATCH), 22))
    return feed


def test_logic_sim_throughput(benchmark):
    """Batched Boolean evaluation of the full MAC netlist."""
    feed = _mac_inputs(0)
    packed = MAC.full.packed()
    benchmark(evaluate, packed, feed)


def test_dynamic_timing_throughput(benchmark):
    """Arrival-time propagation through the multiplier, product bus
    retained."""
    rng = np.random.default_rng(1)
    before = bus_inputs("act", rng.integers(-128, 128, BATCH), 8)
    before.update(bus_inputs("w", np.full(BATCH, -105), 8))
    after = bus_inputs("act", rng.integers(-128, 128, BATCH), 8)
    after.update(bus_inputs("w", np.full(BATCH, -105), 8))
    packed = MAC.multiplier.packed()
    nets = MAC.multiplier.output_bus("product", MAC.product_bits)
    benchmark(dynamic_bus_arrivals, packed, LIB, before, after, nets)


def test_systolic_layer_throughput(benchmark):
    """Functional tiled matmul of a mid-size conv layer."""
    rng = np.random.default_rng(2)
    weights = rng.integers(-127, 128, (150, 32))
    acts = rng.integers(-128, 128, (150, 1024))
    array = SystolicArray()
    out = benchmark(array.run_layer, weights, acts)
    np.testing.assert_array_equal(out, weights.T @ acts)

"""Cross-module integration tests and method-level invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cells import default_library
from repro.netlist import build_mac_unit
from repro.power.characterization import WeightPowerTable
from repro.sim.logic import bus_inputs
from repro.sim.static_timing import static_max_delay
from repro.systolic import (
    OPTIMIZED_HW,
    STANDARD_HW,
    ArrayPowerModel,
    MacPowerParams,
    SystolicConfig,
    schedule_matmul,
)
from repro.timing import DelaySelector, WeightDelayProfiler, \
    WeightTimingTable

from oracles.sim import dynamic_arrival_times, dynamic_delays


@pytest.fixture(scope="module")
def mac():
    return build_mac_unit()


@pytest.fixture(scope="module")
def lib():
    return default_library()


class TestTimingComposition:
    """The paper's Fig. 5 split analysis vs ground truth."""

    def test_composition_upper_bounds_full_mac_dta(self, mac, lib):
        """Mult-DTA + adder-STA must never be optimistic.

        The composition replaces the adder's per-transition delay with
        its static worst case, so for any transition the composed delay
        must be at least the true full-MAC dynamic delay.
        """
        profiler = WeightDelayProfiler(mac, lib)
        rng = np.random.default_rng(0)
        n = 400
        act_from = rng.integers(-128, 128, n)
        act_to = rng.integers(-128, 128, n)
        psum = rng.integers(-(1 << 21), 1 << 21, n)

        for weight in (-105, 7, 64):
            composed = profiler.delays(weight, act_from, act_to)
            before = bus_inputs("act", act_from, 8)
            before.update(bus_inputs("w", np.full(n, weight), 8))
            before.update(bus_inputs("psum", psum, 22))
            after = bus_inputs("act", act_to, 8)
            after.update(bus_inputs("w", np.full(n, weight), 8))
            after.update(bus_inputs("psum", psum, 22))
            true_delay = dynamic_delays(mac.full, lib, before, after)
            assert (composed >= true_delay - 1e-9).all()

    def test_composition_below_full_sta(self, mac, lib):
        """Per-weight dynamic delays never exceed the static bound."""
        profiler = WeightDelayProfiler(mac, lib)
        sta = static_max_delay(mac.full, lib)
        rng = np.random.default_rng(1)
        act_from = rng.integers(-128, 128, 500)
        act_to = rng.integers(-128, 128, 500)
        for weight in (-105, 127, 3):
            delays = profiler.delays(weight, act_from, act_to)
            assert delays.max() <= sta + profiler.model.psum_path_ps

    def test_product_stability_for_fixed_point_weights(self, mac, lib):
        """Weight 1 keeps the product equal to the activation: only the
        low product byte can switch, bounding its delay."""
        rng = np.random.default_rng(2)
        act_from = rng.integers(-128, 128, 300)
        act_to = rng.integers(-128, 128, 300)
        before = bus_inputs("act", act_from, 8)
        before.update(bus_inputs("w", np.ones(300, dtype=np.int64), 8))
        after = bus_inputs("act", act_to, 8)
        after.update(bus_inputs("w", np.ones(300, dtype=np.int64), 8))
        arrivals, toggled = dynamic_arrival_times(
            mac.multiplier, lib, before, after)
        nets = mac.multiplier.output_bus("product", 16)
        # product = sign-extended activation: bits 8..15 only follow the
        # sign bit; when both activations have the same sign they are
        # stable.
        same_sign = (act_from < 0) == (act_to < 0)
        high_bits = np.asarray(nets[8:])
        assert not toggled[high_bits][:, same_sign].any()


class TestSelectionInvariants:
    @pytest.fixture(scope="class")
    def table(self, request):
        mac_unit = build_mac_unit()
        library = default_library()
        profiler = WeightDelayProfiler(mac_unit, library)
        act_from, act_to = profiler.all_transitions()
        rng = np.random.default_rng(3)
        chosen = rng.choice(act_from.size, 3000, replace=False)
        return WeightTimingTable.characterize(
            profiler, weights=[-105, -33, -2, 0, 5, 64, 105],
            transitions=(act_from[chosen], act_to[chosen]),
            floor_ps=90.0)

    def test_no_surviving_combo_exceeds_threshold(self, table):
        selector = DelaySelector(table, n_restarts=4)
        for threshold in (170.0, 150.0, 130.0):
            result = selector.select(threshold)
            cw, cf, ct, cd = table.combos_for(result.weights.tolist())
            acts = set(result.activations.tolist())
            alive = np.array([f in acts and t in acts
                              for f, t in zip(cf, ct)])
            if alive.any():
                assert cd[alive].max() <= threshold + 1e-9

    def test_monotone_threshold_monotone_delay(self, table):
        selector = DelaySelector(table, n_restarts=4)
        delays = [selector.select(t).max_delay_ps
                  for t in (170.0, 150.0, 130.0)]
        assert delays == sorted(delays, reverse=True)

    def test_more_restarts_never_worse(self, table):
        few = DelaySelector(table, n_restarts=1).select(140.0)
        many = DelaySelector(table, n_restarts=10).select(140.0)
        assert (many.n_weights + many.n_activations
                >= few.n_weights + few.n_activations)


def _linear_table():
    weights = np.arange(-127, 128)
    dynamic = 200.0 + 4.0 * np.abs(weights)
    dynamic[127] = 30.0
    return WeightPowerTable(
        weights=weights, power_uw=dynamic + 12.0, dynamic_uw=dynamic,
        leakage_uw=12.0, clock_period_ps=180.0)


class TestPowerModelInvariants:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 100), st.integers(1, 100), st.integers(1, 500),
           st.integers(0, 2 ** 31 - 1))
    def test_optimized_never_above_standard(self, k, n, m, seed):
        rng = np.random.default_rng(seed)
        weights = rng.integers(-127, 128, (k, n))
        config = SystolicConfig()
        model = ArrayPowerModel(config,
                                MacPowerParams(table=_linear_table()))
        schedule = schedule_matmul(k, n, m, config)
        std = model.layer_power(schedule, weights, STANDARD_HW)
        opt = model.layer_power(schedule, weights, OPTIMIZED_HW)
        assert opt.total_uw <= std.total_uw + 1e-6

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1),
           st.floats(min_value=0.55, max_value=0.79))
    def test_voltage_scaling_monotone(self, seed, vdd):
        rng = np.random.default_rng(seed)
        weights = rng.integers(-127, 128, (64, 32))
        config = SystolicConfig()
        model = ArrayPowerModel(config,
                                MacPowerParams(table=_linear_table()))
        schedule = schedule_matmul(64, 32, 200, config)
        nominal = model.layer_power(schedule, weights, OPTIMIZED_HW)
        scaled = model.layer_power(schedule, weights, OPTIMIZED_HW,
                                   vdd=vdd)
        assert scaled.total_uw < nominal.total_uw

    def test_sparser_weights_cheaper_on_optimized(self):
        config = SystolicConfig()
        model = ArrayPowerModel(config,
                                MacPowerParams(table=_linear_table()))
        schedule = schedule_matmul(64, 32, 200, config)
        rng = np.random.default_rng(5)
        weights = rng.integers(1, 128, (64, 32))
        previous = None
        for sparsity in (0.0, 0.3, 0.6, 0.9):
            sparse = weights.copy()
            mask = rng.random(weights.shape) < sparsity
            sparse[mask] = 0
            power = model.layer_power(schedule, sparse, OPTIMIZED_HW)
            if previous is not None:
                assert power.dynamic_uw <= previous + 1e-6
            previous = power.dynamic_uw

    def test_cheap_weight_restriction_reduces_power(self):
        """Restricting a workload to power-selected values cuts power —
        the method's core premise, end to end through the array model."""
        table = _linear_table()
        config = SystolicConfig()
        model = ArrayPowerModel(config, MacPowerParams(table=table))
        schedule = schedule_matmul(64, 32, 200, config)
        rng = np.random.default_rng(6)
        weights = rng.integers(-127, 128, (64, 32))

        allowed = table.select_below(500.0)
        from repro.nn.restrict import WeightRestriction

        restricted = WeightRestriction(allowed)(weights)
        free_power = model.layer_power(schedule, weights, STANDARD_HW)
        restricted_power = model.layer_power(schedule, restricted,
                                             STANDARD_HW)
        assert restricted_power.dynamic_uw < free_power.dynamic_uw

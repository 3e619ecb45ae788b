"""Property tests for the bit-packed simulation and timing kernels.

The production kernels must be *bit-for-bit* equal to the reference
per-gate and per-net walks in :mod:`oracles.sim` on every netlist and
every batch size — that equivalence is what lets the pipeline run them
with zero golden-file regeneration and zero stage-version bumps.
Hypothesis drives random DAGs (all gate types, shared constants, random
fanins) and random batch sizes, including the awkward non-multiple-of-64
ones where packed-word padding bugs would live.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cells import default_library
from repro.netlist import NetlistBuilder, build_mac_unit
from repro.netlist.gates import GateType, SOURCE_TYPES
from repro.sim import logic as logic_mod
from repro.sim.dynamic_timing import dynamic_bus_arrivals
from repro.sim.logic import (
    bus_inputs,
    evaluate,
    evaluate_words,
    pack_bits,
    popcount_words,
    unpack_bits,
)
from repro.sim.switching import (
    paired_toggle_rates,
    paired_toggle_rates_words,
)

from oracles.sim import (
    dynamic_arrival_times,
    dynamic_arrival_times_reference,
    evaluate_reference,
    static_arrival_times_reference,
    time_to_outputs_reference,
)

#: Batch sizes hostile to 64-bit word packing.
AWKWARD_BATCHES = (1, 3, 63, 64, 65, 127, 128, 129, 200)

_CELL_TYPES = tuple(t for t in GateType if t not in SOURCE_TYPES)


@st.composite
def random_netlists(draw):
    """A random topologically ordered DAG over all gate types."""
    builder = NetlistBuilder("random")
    n_inputs = draw(st.integers(1, 6))
    nets = [builder.netlist.add_input(f"in[{i}]")
            for i in range(n_inputs)]
    if draw(st.booleans()):
        nets.append(builder.const(False))
    if draw(st.booleans()):
        nets.append(builder.const(True))
    n_gates = draw(st.integers(1, 40))
    for __ in range(n_gates):
        gtype = draw(st.sampled_from(_CELL_TYPES))
        fanins = [nets[draw(st.integers(0, len(nets) - 1))]
                  for __ in range(
                      {GateType.INV: 1, GateType.BUF: 1,
                       GateType.MUX2: 3}.get(gtype, 2))]
        nets.append(builder.netlist.add_gate(gtype, *fanins))
    builder.netlist.mark_output("y", nets[-1])
    builder.netlist.mark_output("z", nets[len(nets) // 2])
    return builder.build()


def _random_feed(netlist, batch, seed):
    rng = np.random.default_rng(seed)
    return {name: rng.random(batch) < 0.5
            for name in netlist.input_names}


class TestKernelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(netlist=random_netlists(), batch=st.integers(1, 200),
           seed=st.integers(0, 2**32 - 1))
    def test_all_kernels_bit_identical(self, netlist, batch, seed):
        feed = _random_feed(netlist, batch, seed)
        np.testing.assert_array_equal(evaluate_reference(netlist, feed),
                                      evaluate(netlist, feed))

    @settings(max_examples=30, deadline=None)
    @given(netlist=random_netlists(), half=st.integers(1, 130),
           seed=st.integers(0, 2**32 - 1))
    def test_paired_words_match_reference(self, netlist, half, seed):
        """Word-aligned halves reproduce the stacked boolean layout."""
        feed = _random_feed(netlist, 2 * half, seed)
        reference = evaluate_reference(netlist, feed)
        paired = evaluate_words(netlist, feed, pair_halves=True)
        assert paired.half_batch == half
        np.testing.assert_array_equal(reference, paired.unpack())
        np.testing.assert_array_equal(
            paired_toggle_rates(reference),
            paired_toggle_rates_words(paired))

    @pytest.mark.parametrize("batch", AWKWARD_BATCHES)
    def test_mac_multiplier_awkward_batches(self, batch):
        mac = build_mac_unit()
        rng = np.random.default_rng(batch)
        feed = bus_inputs("act", rng.integers(-128, 128, batch), 8)
        feed.update(bus_inputs("w", rng.integers(-128, 128, batch), 8))
        reference = evaluate_reference(mac.multiplier, feed)
        np.testing.assert_array_equal(
            reference, evaluate(mac.multiplier, feed))

    @pytest.mark.parametrize("kernel", ["packed", "levelized"])
    def test_mux_and_const_corners(self, kernel):
        """MUX2 select polarity and shared constants survive packing,
        in the flat word layout of the level program (``levelized``)
        and in the word-aligned before/after halves (``packed``)."""
        builder = NetlistBuilder()
        sel = builder.netlist.add_input("sel")
        a = builder.netlist.add_input("a")
        zero = builder.const(False)
        one = builder.const(True)
        builder.netlist.mark_output("m", builder.mux2(sel, a, one))
        builder.netlist.mark_output("n", builder.mux2(a, zero, sel))
        builder.netlist.mark_output("z", zero)
        builder.netlist.mark_output("o", one)
        netlist = builder.build()
        feed = {"sel": np.array([False, False, True, True] * 17),
                "a": np.array([False, True, False, True] * 17)}
        if kernel == "packed":
            values = evaluate_words(netlist, feed, pair_halves=True).unpack()
        else:
            values = evaluate(netlist, feed)
        np.testing.assert_array_equal(evaluate_reference(netlist, feed),
                                      values)

    def test_missing_input_message_matches_reference(self):
        builder = NetlistBuilder()
        builder.netlist.add_input("a")
        builder.netlist.add_input("b")
        for evaluator in (evaluate, evaluate_reference):
            with pytest.raises(ValueError, match="missing"):
                evaluator(builder.build(), {"a": True})

    def test_odd_stacked_batch_rejected(self):
        builder = NetlistBuilder()
        builder.netlist.add_input("a")
        with pytest.raises(ValueError, match="before/after"):
            evaluate_words(builder.build(), {"a": np.zeros(3, bool)},
                           pair_halves=True)

    def test_packed_netlist_survives_pickling(self):
        """Workers receive packed views with a warm cached schedule."""
        packed = build_mac_unit().multiplier.packed()
        packed.schedule  # build + cache
        clone = pickle.loads(pickle.dumps(packed))
        rng = np.random.default_rng(7)
        feed = bus_inputs("act", rng.integers(-128, 128, 65), 8)
        feed.update(bus_inputs("w", rng.integers(-128, 128, 65), 8))
        np.testing.assert_array_equal(
            evaluate(packed, feed), evaluate(clone, feed))


class TestPackingPrimitives:
    @settings(max_examples=40, deadline=None)
    @given(batch=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_pack_unpack_roundtrip(self, batch, seed):
        rng = np.random.default_rng(seed)
        bits = rng.random((5, batch)) < 0.5
        words = pack_bits(bits)
        assert words.shape == (5, -(-batch // 64))
        np.testing.assert_array_equal(unpack_bits(words, batch), bits)

    def test_pack_pads_tail_with_zeros(self):
        words = pack_bits(np.ones((1, 3), dtype=bool))
        assert int(words[0, 0]) == 0b111

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_popcount_fallback_matches_native(self, raw):
        words = np.asarray(raw, dtype=np.uint64).reshape(1, -1)
        expected = sum(int(w).bit_count() for w in raw)
        assert logic_mod._popcount_lookup(words)[0] == expected
        if hasattr(np, "bitwise_count"):
            assert logic_mod._popcount_native(words)[0] == expected

    def test_popcount_batch_masks_garbage_padding(self):
        """Inverting gates set padding bits; ``batch=`` masks them."""
        builder = NetlistBuilder()
        a = builder.netlist.add_input("a")
        builder.netlist.mark_output("y", builder.inv(a))
        netlist = builder.build()
        batch = 10  # 54 garbage tail bits in the INV row
        values = evaluate_words(netlist, {"a": np.zeros(batch, bool)})
        inv_row = values.words[1:2]
        assert popcount_words(inv_row)[0] > batch  # raw counts lie
        assert popcount_words(inv_row, batch=batch)[0] == batch

    @pytest.mark.parametrize("pair_halves", [False, True])
    def test_read_output_bus_accepts_packed_values(self, pair_halves):
        from repro.sim.logic import read_output_bus

        mac = build_mac_unit()
        rng = np.random.default_rng(21)
        batch = 130
        acts = rng.integers(-128, 128, batch)
        weights = rng.integers(-128, 128, batch)
        feed = bus_inputs("act", acts, 8)
        feed.update(bus_inputs("w", weights, 8))
        values = evaluate_words(mac.multiplier, feed,
                                pair_halves=pair_halves)
        products = read_output_bus(mac.multiplier, values, "product", 16)
        np.testing.assert_array_equal(products, acts * weights)

    def test_popcount_words_uses_active_impl(self, monkeypatch):
        calls = []

        def spy(words):
            calls.append(words.shape)
            return logic_mod._popcount_lookup(words)

        monkeypatch.setattr(logic_mod, "_popcount_impl", spy)
        words = pack_bits(np.ones((2, 70), dtype=bool))
        np.testing.assert_array_equal(popcount_words(words), [70, 70])
        assert calls

    def test_paired_rates_with_lookup_fallback(self, monkeypatch):
        """The whole toggle-rate path is popcount-impl independent."""
        monkeypatch.setattr(logic_mod, "_popcount_impl",
                            logic_mod._popcount_lookup)
        mac = build_mac_unit()
        rng = np.random.default_rng(11)
        n = 333
        feed = bus_inputs("act", rng.integers(-128, 128, 2 * n), 8)
        feed.update(bus_inputs("w", np.full(2 * n, -105), 8))
        feed.update(bus_inputs(
            "psum", rng.integers(-(1 << 21), 1 << 21, 2 * n), 22))
        reference = paired_toggle_rates(evaluate_reference(mac.full, feed))
        packed = paired_toggle_rates_words(
            evaluate_words(mac.full, feed, pair_halves=True))
        np.testing.assert_array_equal(reference, packed)


class TestLevelSchedule:
    @settings(max_examples=40, deadline=None)
    @given(netlist=random_netlists())
    def test_schedule_invariants(self, netlist):
        packed = netlist.packed()
        schedule = packed.schedule
        scheduled = np.concatenate(
            [g.dst for g in schedule.groups]) if schedule.groups \
            else np.array([], dtype=np.int32)
        # Every gate appears exactly once; no source is scheduled.
        gates = [net for net, __, __ in netlist.iter_gates()]
        assert sorted(scheduled.tolist()) == gates
        # Dependencies resolve strictly earlier.
        for group in schedule.groups:
            for fanins, live in ((group.f0, group.n_fanins >= 1),
                                 (group.f1, group.n_fanins >= 2),
                                 (group.f2, group.n_fanins >= 3)):
                if live:
                    assert (schedule.levels[fanins]
                            < schedule.levels[group.dst]).all()

    @settings(max_examples=40, deadline=None)
    @given(netlist=random_netlists())
    def test_fanin_groups_cover_same_gates(self, netlist):
        schedule = netlist.packed().schedule
        by_type = sorted(np.concatenate(
            [g.dst for g in schedule.groups]).tolist())
        by_arity = sorted(np.concatenate(
            [g.dst for g in schedule.fanin_groups]).tolist())
        assert by_type == by_arity
        assert all(g.gtype == -1 for g in schedule.fanin_groups)

    def test_stats_shape(self):
        stats = build_mac_unit().full.packed().schedule.stats()
        assert stats["n_gates"] == build_mac_unit().full.num_gates
        assert stats["n_levels"] > 2
        assert stats["n_groups"] >= stats["n_levels"] - 1


class TestDynamicTimingKernel:
    @settings(max_examples=40, deadline=None)
    @given(netlist=random_netlists(), batch=st.integers(1, 130),
           seed=st.integers(0, 2**32 - 1))
    def test_fused_dta_matches_reference(self, netlist, batch, seed):
        """The streaming engine (every net retained) and the dense
        oracle engine both reproduce the per-net reference walk."""
        library = default_library()
        before = _random_feed(netlist, batch, seed)
        after = _random_feed(netlist, batch, seed + 1)
        ref_arrivals, ref_toggled = dynamic_arrival_times_reference(
            netlist, library, before, after)
        nets = np.arange(ref_arrivals.shape[0], dtype=np.int64)
        np.testing.assert_array_equal(
            ref_arrivals,
            dynamic_bus_arrivals(netlist, library, before, after, nets))
        arrivals, toggled = dynamic_arrival_times(
            netlist, library, before, after)
        np.testing.assert_array_equal(ref_toggled, toggled)
        np.testing.assert_array_equal(ref_arrivals, arrivals)

    def test_fused_dta_multiplier_with_out_buffer(self):
        mac = build_mac_unit()
        library = default_library()
        rng = np.random.default_rng(3)
        n = 129
        weight_bus = bus_inputs("w", np.full(n, -105), 8)
        before = bus_inputs("act", rng.integers(-128, 128, n), 8)
        before.update(weight_bus)
        after = bus_inputs("act", rng.integers(-128, 128, n), 8)
        after.update(weight_bus)
        packed = mac.multiplier.packed()
        ref_arrivals, __ = dynamic_arrival_times_reference(
            packed, library, before, after)
        nets = np.arange(len(packed), dtype=np.int64)
        buf = np.full((len(packed), n), np.nan)  # poisoned
        arrivals = dynamic_bus_arrivals(packed, library, before, after,
                                        nets, arrivals_out=buf)
        np.testing.assert_array_equal(ref_arrivals, arrivals)

    def test_out_buffer_validated(self):
        mac = build_mac_unit()
        feed = bus_inputs("act", np.array([1]), 8)
        feed.update(bus_inputs("w", np.array([2]), 8))
        with pytest.raises(ValueError, match="C-contiguous"):
            evaluate_words(mac.multiplier, feed,
                           words_out=np.zeros((3, 1), dtype=np.uint64))

    def test_profiler_chunking_reuses_buffer_bit_for_bit(self):
        """Chunked profiling (buffer reuse + tail chunk) is exact."""
        from repro.timing.profile import WeightDelayProfiler

        mac = build_mac_unit()
        library = default_library()
        rng = np.random.default_rng(5)
        act_from = rng.integers(-128, 128, 230)
        act_to = rng.integers(-128, 128, 230)
        chunked = WeightDelayProfiler(mac, library, chunk=64)
        whole = WeightDelayProfiler(mac, library, chunk=4096)
        np.testing.assert_array_equal(
            chunked.delays(-105, act_from, act_to),
            whole.delays(-105, act_from, act_to))

    def test_profiler_reuses_one_buffer_at_8000_transitions(
            self, monkeypatch):
        """Chunks shorter than ``chunk`` (8000 of 8192, and a
        two-weight group) get prefix views of the same scratch, and
        the delays equal a bufferless run bit for bit."""
        from repro.timing import profile

        mac = build_mac_unit()
        library = default_library()
        profiler = profile.WeightDelayProfiler(mac, library)
        real = profile.dynamic_bus_arrivals
        handed = []

        def spy(*args, **kwargs):
            handed.append((kwargs["words_out"], kwargs["arrivals_out"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(profile, "dynamic_bus_arrivals", spy)
        rng = np.random.default_rng(11)
        nets = mac.multiplier.output_bus("product", mac.product_bits)
        runs = [np.full(8000, w) for w in (-105, 0, 64)]
        runs.append(np.repeat([3, -77], 2000))
        for weights in runs:
            act_from = rng.integers(-128, 128, weights.size)
            act_to = rng.integers(-128, 128, weights.size)
            got = profiler.delays_batched(weights, act_from, act_to)
            before, after = (bus_inputs("act", acts, 8)
                             for acts in (act_from, act_to))
            for feed in (before, after):
                feed.update(bus_inputs("w", weights, 8))
            want = profiler.model.compose(real(
                mac.multiplier, library, before, after, nets))
            np.testing.assert_array_equal(got, want)
        assert len(handed) == len(runs)
        for words, arrivals in handed:
            assert np.shares_memory(words, profiler._words_buf)
            assert np.shares_memory(arrivals, profiler._arrivals_buf)

    def test_profiler_pickles_without_buffer(self):
        from repro.timing.profile import WeightDelayProfiler

        mac = build_mac_unit()
        profiler = WeightDelayProfiler(mac, default_library(), chunk=32)
        profiler.delays(-3, np.arange(40), np.arange(40) - 7)
        assert profiler._arrivals_buf is not None
        clone = pickle.loads(pickle.dumps(profiler))
        assert clone._arrivals_buf is None
        np.testing.assert_array_equal(
            clone.delays(-3, np.arange(40), np.arange(40) - 7),
            profiler.delays(-3, np.arange(40), np.arange(40) - 7))


class TestStaticTimingEquivalence:
    """The level-by-level static-timing passes must be bit-for-bit
    equal to the per-net reference walks on every netlist — that equivalence is
    what let them land with zero golden regeneration and zero stage
    version bumps."""

    @settings(max_examples=60, deadline=None)
    @given(netlist=random_netlists())
    def test_static_arrival_times_bit_identical(self, netlist):
        from repro.sim.static_timing import static_arrival_times

        library = default_library()
        np.testing.assert_array_equal(
            static_arrival_times_reference(netlist, library),
            static_arrival_times(netlist, library))

    @settings(max_examples=60, deadline=None)
    @given(netlist=random_netlists())
    def test_time_to_outputs_bit_identical(self, netlist):
        """Includes the -inf (output-unreachable) nets the random DAGs
        produce in abundance."""
        from repro.sim.static_timing import time_to_outputs

        library = default_library()
        reference = time_to_outputs_reference(netlist, library)
        np.testing.assert_array_equal(reference,
                                      time_to_outputs(netlist, library))

    @pytest.mark.parametrize("block", ["full", "multiplier", "adder"])
    def test_mac_blocks_bit_identical(self, block):
        from repro.sim.static_timing import (
            static_arrival_times,
            time_to_outputs,
        )

        netlist = getattr(build_mac_unit(), block)
        library = default_library()
        np.testing.assert_array_equal(
            static_arrival_times_reference(netlist, library),
            static_arrival_times(netlist, library))
        np.testing.assert_array_equal(
            time_to_outputs_reference(netlist, library),
            time_to_outputs(netlist, library))

    def test_source_only_netlist(self):
        """No gates at all: arrivals all zero, only outputs reach."""
        from repro.sim.static_timing import (
            static_arrival_times,
            time_to_outputs,
        )

        builder = NetlistBuilder("sources")
        builder.netlist.add_input("a")
        b = builder.netlist.add_input("b")
        builder.netlist.mark_output("y", b)
        netlist = builder.build()
        library = default_library()
        np.testing.assert_array_equal(
            static_arrival_times(netlist, library), [0.0, 0.0])
        np.testing.assert_array_equal(
            time_to_outputs(netlist, library), [-np.inf, 0.0])

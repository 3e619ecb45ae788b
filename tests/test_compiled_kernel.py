"""Equivalence suite for the level-program kernel.

The production kernel (:mod:`repro.sim.program` +
:mod:`repro.sim.compiled`) must be *bit-for-bit* equal to the per-gate
reference walk in :mod:`oracles.sim` on every netlist and every batch
size, and the streaming dynamic timing analysis must match the per-net
reference DTA.  That equivalence is what lets the pipeline run the
kernel with zero golden-file regeneration and zero stage-version bumps.
"""

import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cells import default_library
from repro.netlist import NetlistBuilder, build_mac_unit
from repro.netlist.gates import GateType, SOURCE_TYPES
from repro.sim.dynamic_timing import _live_plan, dynamic_bus_arrivals
from repro.sim.logic import (
    WORD_BITS,
    bus_inputs,
    evaluate,
    evaluate_words,
    evaluate_words_batched,
    pack_bits,
    popcount_words,
)

from oracles.sim import dynamic_arrival_times_reference, evaluate_reference

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


def _mult_feed(batch, seed=0, pair_halves=False):
    rng = np.random.default_rng(seed)
    feed = bus_inputs("act", rng.integers(-128, 128, batch), 8)
    weights = np.full(batch, -105) if pair_halves \
        else rng.integers(-128, 128, batch)
    feed.update(bus_inputs("w", weights, 8))
    return feed


class TestCompiledEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(netlist=random_netlists(), batch=st.integers(1, 200),
           seed=st.integers(0, 2**32 - 1))
    def test_compiled_matches_reference_and_packed(self, netlist,
                                                   batch, seed):
        feed = _random_feed(netlist, batch, seed)
        reference = evaluate_reference(netlist, feed)
        np.testing.assert_array_equal(reference, evaluate(netlist, feed))
        # Word-level: every valid bit of every packed word matches the
        # packed reference (padding bits are free to differ).
        words = evaluate_words(netlist, feed).words.copy()
        tail = batch % WORD_BITS
        if tail:
            words[:, -1] &= np.uint64((1 << tail) - 1)
        np.testing.assert_array_equal(words, pack_bits(reference))

    @pytest.mark.parametrize("batch", AWKWARD_BATCHES)
    def test_mac_multiplier_awkward_batches(self, batch):
        mac = build_mac_unit()
        feed = _mult_feed(batch, seed=batch)
        np.testing.assert_array_equal(
            evaluate_reference(mac.multiplier, feed),
            evaluate(mac.multiplier, feed))

    def test_mux_and_const_corners(self):
        """MUX2 select polarity and shared constants survive the
        XOR-select identity and the level reordering."""
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
        np.testing.assert_array_equal(evaluate_reference(netlist, feed),
                                      evaluate(netlist, feed))

    def test_batched_segments_match_packed(self):
        """The one-launch characterization layout (paired megabatch,
        per-segment frozen weight) matches standalone packed
        evaluations of each segment, toggle counts included."""
        mac = build_mac_unit()
        rng = np.random.default_rng(9)
        n_segments, half = 5, 100
        weights = rng.integers(-128, 128, (n_segments, 1))
        acts = rng.integers(-128, 128, 2 * half)
        psums = rng.integers(-(1 << 21), 1 << 21, 2 * half)
        feed = bus_inputs("act", acts, 8)
        feed.update(bus_inputs("w", weights, 8))
        feed.update(bus_inputs("psum", psums, 22))
        batched = evaluate_words_batched(
            mac.full, feed, n_segments=n_segments, batch=2 * half,
            pair_halves=True)
        counts = batched.paired_toggle_counts()
        for k in range(n_segments):
            solo_feed = bus_inputs("act", acts, 8)
            solo_feed.update(bus_inputs("w", weights[k, 0], 8))
            solo_feed.update(bus_inputs("psum", psums, 22))
            solo = evaluate_words(mac.full, solo_feed, pair_halves=True)
            np.testing.assert_array_equal(batched.segment(k).words,
                                          solo.words)
            before, after = solo.halves()
            np.testing.assert_array_equal(counts[k],
                                          popcount_words(before ^ after))

    def test_words_out_reuse_is_exact(self):
        """A poisoned reused buffer (dirty CONST/padding rows) cannot
        leak into the compiled evaluation."""
        mac = build_mac_unit()
        packed = mac.multiplier.packed()
        feed = _mult_feed(130, seed=2)
        fresh = evaluate_words(packed, feed)
        buf = np.full_like(fresh.words, ~np.uint64(0))  # all-ones poison
        reused = evaluate_words(packed, feed, words_out=buf)
        assert reused.words is buf
        np.testing.assert_array_equal(fresh.words, reused.words)

    def test_program_pickles_warm(self):
        """Workers receive packed views with the program already built."""
        packed = build_mac_unit().multiplier.packed()
        packed.schedule
        program = packed.program
        clone = pickle.loads(pickle.dumps(packed))
        assert clone._program is not None  # no rebuild in the worker
        np.testing.assert_array_equal(program.dst, clone.program.dst)
        feed = _mult_feed(65, seed=7)
        np.testing.assert_array_equal(evaluate(packed, feed),
                                      evaluate(clone, feed))


class TestLevelProgram:
    @settings(max_examples=40, deadline=None)
    @given(netlist=random_netlists())
    def test_program_invariants(self, netlist):
        packed = netlist.packed()
        schedule = packed.schedule
        program = packed.program
        # Every scheduled gate appears exactly once, sources never.
        gates = [net for net, __, __ in netlist.iter_gates()]
        assert sorted(program.dst.tolist()) == gates
        assert program.n_gates == len(gates)
        levels = schedule.levels
        for start, stop, mux_start, g0, g1, has_inv, runs \
                in program.level_plan:
            dst = program.dst[start:stop]
            # Level-major: one level per plan entry, deps strictly
            # earlier (the reordering freedom the executor relies on).
            assert np.unique(levels[dst]).size == 1
            for src, live in (
                    (program.src0[start:stop],
                     program.arity[start:stop] >= 1),
                    (program.src1[start:stop],
                     program.arity[start:stop] >= 2),
                    (program.src2[start:stop],
                     program.arity[start:stop] >= 3)):
                assert (levels[src[live]] < levels[dst[live]]).all()
            # MUX2 is exactly the tail run.
            ops = program.ops[start:stop]
            assert (ops[mux_start - start:] == GateType.MUX2).all()
            assert not (ops[:mux_start - start] == GateType.MUX2).any()
            # Invert mask is all-ones exactly on the inverting types.
            inverting = np.isin(ops, (GateType.NAND2, GateType.NOR2,
                                      GateType.XNOR2, GateType.INV))
            np.testing.assert_array_equal(
                program.inv_mask[start:stop] == ~np.uint64(0), inverting)
            assert has_inv == bool(inverting.any())
            # The merged gather is [src0 | src1_safe | mux src2].
            n = stop - start
            gather = program.gather_idx[g0:g1]
            assert g1 - g0 == 2 * n + (stop - mux_start)
            np.testing.assert_array_equal(gather[:n],
                                          program.src0[start:stop])
            np.testing.assert_array_equal(
                gather[n:2 * n], program.src1_safe[start:stop])
            np.testing.assert_array_equal(
                gather[2 * n:], program.src2[mux_start:stop])
            # Binop runs tile exactly the two-input non-MUX gates, with
            # the right ufunc family.
            families = {0: (GateType.AND2, GateType.NAND2),
                        1: (GateType.OR2, GateType.NOR2),
                        2: (GateType.XOR2, GateType.XNOR2)}
            covered = np.zeros(n, dtype=bool)
            for family, r0, r1 in runs:
                assert not covered[r0:r1].any()
                covered[r0:r1] = True
                assert np.isin(ops[r0:r1], families[family]).all()
            assert (covered == np.isin(ops, sum(families.values(), ())))\
                .all()

    def test_stats_shape(self):
        program = build_mac_unit().multiplier.packed().program
        assert program.n_gates > 0
        stats = program.stats()
        assert stats["n_gates"] == program.n_gates
        assert stats["n_levels"] == program.n_levels > 2
        assert stats["n_binop_runs"] > 0

    def test_source_only_netlist(self):
        builder = NetlistBuilder("sources")
        builder.netlist.add_input("a")
        b = builder.netlist.add_input("b")
        builder.netlist.mark_output("y", b)
        packed = builder.build().packed()
        program = packed.program
        assert program.n_gates == 0
        assert program.level_plan == ()
        feed = {"a": np.ones(70, bool), "b": np.zeros(70, bool)}
        np.testing.assert_array_equal(evaluate_reference(packed, feed),
                                      evaluate(packed, feed))


class TestStreamingDTA:
    @settings(max_examples=40, deadline=None)
    @given(netlist=random_netlists(), batch=st.integers(1, 130),
           seed=st.integers(0, 2**32 - 1))
    def test_streaming_matches_reference(self, netlist, batch, seed):
        library = default_library()
        before = _random_feed(netlist, batch, seed)
        after = _random_feed(netlist, batch, seed + 1)
        ref_arrivals, __ = dynamic_arrival_times_reference(
            netlist, library, before, after)
        nets = np.arange(ref_arrivals.shape[0], dtype=np.int64)
        np.testing.assert_array_equal(
            ref_arrivals,
            dynamic_bus_arrivals(netlist, library, before, after, nets))

    def _mult_transition(self, n, seed=3):
        mac = build_mac_unit()
        rng = np.random.default_rng(seed)
        weight_bus = bus_inputs("w", np.full(n, -105), 8)
        before = bus_inputs("act", rng.integers(-128, 128, n), 8)
        before.update(weight_bus)
        after = bus_inputs("act", rng.integers(-128, 128, n), 8)
        after.update(weight_bus)
        nets = np.asarray(
            mac.multiplier.output_bus("product", mac.product_bits),
            dtype=np.int64)
        return mac.multiplier.packed(), before, after, nets

    @pytest.mark.parametrize("batch", (63, 64, 129, 200))
    def test_windowing_is_invisible(self, batch):
        """Slab boundaries (and a tail window) cannot perturb a bit."""
        library = default_library()
        packed, before, after, nets = self._mult_transition(batch)
        whole = dynamic_bus_arrivals(packed, library, before, after,
                                     nets)
        windowed = dynamic_bus_arrivals(packed, library, before, after,
                                        nets, window=64)
        np.testing.assert_array_equal(whole, windowed)
        ref_arrivals, __ = dynamic_arrival_times_reference(
            packed, library, before, after)
        np.testing.assert_array_equal(whole, ref_arrivals[nets])

    def test_arrivals_out_reuse_is_exact(self):
        library = default_library()
        packed, before, after, nets = self._mult_transition(190)
        fresh = dynamic_bus_arrivals(packed, library, before, after,
                                     nets, window=128)
        buf = np.full((len(packed), 128), np.nan)  # poisoned
        reused = dynamic_bus_arrivals(packed, library, before, after,
                                      nets, window=128,
                                      arrivals_out=buf)
        np.testing.assert_array_equal(fresh, reused)

    def test_window_and_buffer_validation(self):
        library = default_library()
        packed, before, after, nets = self._mult_transition(70)
        with pytest.raises(ValueError, match="multiple of 64"):
            dynamic_bus_arrivals(packed, library, before, after, nets,
                                 window=100)
        with pytest.raises(ValueError, match="arrivals_out"):
            dynamic_bus_arrivals(packed, library, before, after, nets,
                                 window=64,
                                 arrivals_out=np.zeros((3, 64)))

    def test_profiler_is_kernel_independent(self):
        """The full profiler path (chunking, buffer reuse, compose)
        reproduces the reference DTA whatever chunk boundaries the
        kernel sees."""
        from repro.timing.profile import WeightDelayProfiler

        mac = build_mac_unit()
        library = default_library()
        rng = np.random.default_rng(5)
        act_from = rng.integers(-128, 128, 230)
        act_to = rng.integers(-128, 128, 230)
        profiler = WeightDelayProfiler(mac, library, chunk=64)
        weight_bus = bus_inputs("w", np.full(230, -105), 8)
        before = bus_inputs("act", act_from, 8)
        before.update(weight_bus)
        after = bus_inputs("act", act_to, 8)
        after.update(weight_bus)
        ref_arrivals, __ = dynamic_arrival_times_reference(
            mac.multiplier, library, before, after)
        nets = mac.multiplier.output_bus("product", mac.product_bits)
        np.testing.assert_array_equal(
            profiler.delays(-105, act_from, act_to),
            profiler.model.compose(ref_arrivals[nets]))


@functools.lru_cache(maxsize=None)
def _multiplier():
    """The default MAC's multiplier and its product-bus nets."""
    mac = build_mac_unit()
    packed = mac.multiplier.packed()
    product = np.asarray(
        mac.multiplier.output_bus("product", mac.product_bits),
        dtype=np.int64)
    return packed, product


def _frozen_weight_transition(weights, seed):
    """Activation transitions under a per-sample frozen weight bus."""
    rng = np.random.default_rng(seed)
    weight_bus = bus_inputs("w", np.asarray(weights), 8)
    before = bus_inputs("act", rng.integers(-128, 128, len(weights)), 8)
    before.update(weight_bus)
    after = bus_inputs("act", rng.integers(-128, 128, len(weights)), 8)
    after.update(weight_bus)
    return before, after


def _requested_nets(packed, product, kind):
    if kind == "product":
        return product
    if kind == "all":
        return np.arange(len(packed), dtype=np.int64)
    # Product bits mixed with primary inputs of both buses and the
    # first gates, in a scrambled order with a repeat.
    names = packed.netlist.input_names
    inputs = [names["act[0]"], names["w[7]"], names["act[5]"]]
    first_gates = np.flatnonzero(packed.schedule.levels == 1)[:3]
    return np.concatenate([product[::-3], inputs, first_gates,
                           product[:2]]).astype(np.int64)


#: Frozen weight values, with weight 0 (whose product never switches)
#: drawn often.
_WEIGHT_VALUES = st.integers(-128, 127) | st.just(0)


class TestLiveNetDTA:
    """The streaming DTA propagates only the call's live nets; every
    requested row still matches the per-net reference walk."""

    @settings(max_examples=30, deadline=None)
    @given(first=_WEIGHT_VALUES, second=_WEIGHT_VALUES,
           batch=st.integers(1, 300),
           split=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
           window=st.sampled_from((64, 128, 2048)),
           kind=st.sampled_from(("product", "all", "mixed")))
    def test_frozen_weights_match_reference(self, first, second, batch,
                                            split, seed, window, kind):
        """One weight or a chunk mixing two, any window tail, and
        requested nets that include sources and silent nets."""
        library = default_library()
        packed, product = _multiplier()
        n_first = int(round(split * batch))
        weights = [first] * n_first + [second] * (batch - n_first)
        before, after = _frozen_weight_transition(weights, seed)
        nets = _requested_nets(packed, product, kind)
        ref_arrivals, ref_toggled = dynamic_arrival_times_reference(
            packed, library, before, after)
        got = dynamic_bus_arrivals(packed, library, before, after, nets,
                                   window=window)
        np.testing.assert_array_equal(got, ref_arrivals[nets])
        silent = ~ref_toggled[nets].any(axis=1) \
            | (packed.schedule.levels[nets] == 0)
        assert not got[silent].any()

    def test_weight_zero_keeps_the_product_bus_silent(self):
        library = default_library()
        packed, product = _multiplier()
        before, after = _frozen_weight_transition([0] * 200, seed=4)
        got = dynamic_bus_arrivals(packed, library, before, after,
                                   product)
        assert got.shape == (product.size, 200)
        assert not got.any()

    def test_plan_skips_silent_and_unobserved_nets(self):
        """A frozen weight leaves much of the multiplier still; the
        plan must drop those nets (the point of the live-net DTA)."""
        packed, product = _multiplier()
        sizes = {}
        for weight in (0, -105, 127):
            before, after = _frozen_weight_transition([weight] * 512, 9)
            stacked = {name: np.concatenate([before[name], after[name]])
                       for name in before}
            values = evaluate_words(packed, stacked, batch=1024,
                                    pair_halves=True)
            b_words, a_words = values.halves()
            switching = (b_words ^ a_words).any(axis=1)
            rows, row_of, steps = _live_plan(packed, switching, product)
            assert set(rows.tolist()) <= set(
                np.flatnonzero(switching).tolist())
            assert np.array_equal(row_of[rows], np.arange(rows.size))
            assert sum(hi - lo for lo, hi, __ in steps) == rows.size
            for lo, __, fanins in steps:
                # Every row is written before a later step reads it.
                assert all((fanin < lo).all() for fanin in fanins)
            sizes[weight] = rows.size
        assert sizes[0] < 20
        assert max(sizes.values()) < 0.8 * len(packed)

    def test_poisoned_buffer_reused_across_live_sets(self):
        """One NaN-poisoned slab serves calls whose live sets differ;
        no stale row of an earlier call can leak into a later one."""
        library = default_library()
        packed, product = _multiplier()
        nets = _requested_nets(packed, product, "mixed")
        buf = np.full((len(packed), 128), np.nan)
        words = np.full((len(packed), 2 * 3), ~np.uint64(0))
        for k, weights in enumerate(([127] * 190, [0] * 190,
                                     [-105] * 95 + [1] * 95, [-1] * 190)):
            before, after = _frozen_weight_transition(weights, seed=k)
            ref_arrivals, __ = dynamic_arrival_times_reference(
                packed, library, before, after)
            got = dynamic_bus_arrivals(packed, library, before, after,
                                       nets, window=128, words_out=words,
                                       arrivals_out=buf)
            np.testing.assert_array_equal(got, ref_arrivals[nets])

    @settings(max_examples=40, deadline=None)
    @given(netlist=random_netlists(), batch=st.integers(1, 130),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_random_netlists_with_held_inputs(self, netlist, batch, seed,
                                              data):
        """Inputs held constant across the transition silence whole
        cones; every net still matches the reference."""
        library = default_library()
        before = _random_feed(netlist, batch, seed)
        after = _random_feed(netlist, batch, seed + 1)
        for name in netlist.input_names:
            if data.draw(st.booleans(), label=f"hold {name}"):
                after[name] = before[name]
        ref_arrivals, __ = dynamic_arrival_times_reference(
            netlist, library, before, after)
        nets = np.arange(ref_arrivals.shape[0], dtype=np.int64)
        np.testing.assert_array_equal(
            ref_arrivals,
            dynamic_bus_arrivals(netlist, library, before, after, nets))
        outputs = np.asarray(list(netlist.output_names.values()),
                             dtype=np.int64)
        np.testing.assert_array_equal(
            ref_arrivals[outputs],
            dynamic_bus_arrivals(netlist, library, before, after,
                                 outputs, window=64))

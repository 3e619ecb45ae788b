"""Dynamic timing analysis: per-transition arrival-time propagation.

For a two-pattern input transition, a net carries a *switching event* when
its logic value differs between the two patterns.  The event's arrival
time is the gate delay plus the latest arrival among the fanins that
switched — exactly the path-sensitization view of Modelsim-style dynamic
simulation the paper uses to time the multiplier per weight value
(Sec. III-B, Fig. 5).  Nets that do not switch have no event and therefore
do not constrain timing.

Everything is vectorized over the batch of transitions, and the engine
leans on the same kernel machinery as :mod:`repro.sim.logic`:

* the before/after patterns are evaluated as **one** stacked, bit-packed
  pass over the netlist (half the passes of the naive two-evaluation
  approach), and the toggle matrix falls out of a word-wise XOR of the
  two halves;
* only **live** nets are propagated: gates that switch at least once
  in the call and feed a requested net through other such gates.  With
  the weight bus frozen, as in per-weight timing characterization,
  about half of the multiplier's nets never switch (weight 0 leaves
  all but a handful still), and some never reach the product bus;
* arrival times cannot be bit-packed (they are floats), but the per-net
  + per-fanin Python loops fuse into per-level vectorized max-reductions
  over the live gates, grouped by level and live-fanin count — a
  plan built once per call from the
  :class:`~repro.netlist.gates.LevelSchedule`;
* the batch streams through a compact ``(live_nets, window)`` slab (a
  prefix of the caller's reusable ``(nets, window)`` buffer) and only
  the requested rows (the product bus, in the hot path) are kept, so
  the dense per-net arrival matrix is never built.

The result is bit-for-bit identical to the per-net reference walk in
``tests/oracles/sim.py``: float max is exact and associative, a net
that is not live has arrival exactly 0 wherever it is read (and
arrivals are >= 0, so leaving it out of a max changes nothing), and
the adds happen in the same order per net.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple, Union

import numpy as np

from repro.netlist.gates import Netlist, PackedNetlist
from repro.sim.logic import _infer_batch, evaluate_words, unpack_bits

#: Streaming-DTA window, in samples.  Must be a multiple of 64 so every
#: window boundary is word-aligned in the packed XOR matrix.  2048 samples keeps the per-window arrival slab
#: of a MAC-sized netlist (~1k nets x 2k float64 ~= 16 MB) inside the
#: cache-friendly range while amortizing the per-window level walk.
STREAM_WINDOW_SAMPLES = 2048


def _packed(netlist: Union[Netlist, PackedNetlist]) -> PackedNetlist:
    return netlist if isinstance(netlist, PackedNetlist) else netlist.packed()


def _stacked_inputs(packed: PackedNetlist,
                    inputs_before: Mapping[str, np.ndarray],
                    inputs_after: Mapping[str, np.ndarray],
                    ) -> Tuple[Mapping[str, np.ndarray], int]:
    """One ``[before..., after...]`` feed from the two assignments."""
    names = packed.netlist.input_names
    missing = (set(names) - set(inputs_before)) \
        | (set(names) - set(inputs_after))
    if missing:
        raise ValueError(f"missing values for inputs: {sorted(missing)}")
    batch = _infer_batch(inputs_before, None)
    if batch == 1:
        batch = _infer_batch(inputs_after, None)
    stacked = {}
    for name in names:
        before = np.broadcast_to(
            np.asarray(inputs_before[name], dtype=bool), (batch,))
        after = np.broadcast_to(
            np.asarray(inputs_after[name], dtype=bool), (batch,))
        stacked[name] = np.concatenate([before, after])
    return stacked, batch


def _live_plan(packed: PackedNetlist, switching: np.ndarray,
               nets: np.ndarray) -> Tuple[np.ndarray, np.ndarray, list]:
    """Compact propagation plan over the nets that can carry an event.

    A net is *live* when it is a gate, switches at least once in the
    call, and reaches a requested net through live gates only.  Every
    other net has arrival exactly 0 wherever a live gate reads it: a
    source carries no delay and a gate that never switches has no
    event.  Arrivals are >= 0, so dropping such a fanin from a max is
    bit-exact, and a gate whose fanins are all dropped arrives at
    ``delay * toggled``.

    Returns:
        ``(rows, row_of, steps)``.  ``rows`` lists the live nets in slab
        order (level-major, so every row is written before a later row
        reads it) and ``row_of`` maps a net to its slab row (-1 when not
        live).  Each step ``(start, stop, fanins)`` computes slab rows
        ``start:stop`` from the slab rows in ``fanins`` (0 to 3 index
        arrays, one per live fanin slot).
    """
    schedule = packed.schedule
    switching = switching & (schedule.levels > 0)
    # Backward closure from the requested nets through switching gates.
    # The trailing False entry answers the -1 of an unused fanin slot.
    live = np.zeros(len(packed) + 1, dtype=bool)
    live[nets] = switching[nets]
    for group in reversed(schedule.fanin_groups):
        sel = live[group.dst]
        if sel.any():
            picked = np.concatenate([
                fanin[sel] for fanin in
                (group.f0, group.f1, group.f2)[:group.n_fanins]])
            live[picked] = switching[picked]

    gates = np.flatnonzero(live[:-1])
    fanins = np.stack([packed.fanin0[gates], packed.fanin1[gates],
                       packed.fanin2[gates]], axis=1)
    fanin_live = live[fanins]
    counts = fanin_live.sum(axis=1)
    # Slab order: level-major, then live-fanin count, so each step is
    # one contiguous run of rows that reads only earlier levels.
    key = schedule.levels[gates].astype(np.int64) * 4 + counts
    order = np.argsort(key, kind="stable")
    rows, key, counts = gates[order], key[order], counts[order]
    row_of = np.full(len(packed) + 1, -1, dtype=np.int64)
    row_of[rows] = np.arange(rows.size)
    # Each gate's live fanins move to the front, in slot order.
    slots = np.argsort(~fanin_live[order], axis=1, kind="stable")
    fanin_rows = np.ascontiguousarray(row_of[np.take_along_axis(
        fanins[order], slots, axis=1)].T)
    bounds = (np.flatnonzero(np.diff(key)) + 1).tolist()
    steps = [(lo, hi, tuple(fanin_rows[j, lo:hi]
                            for j in range(int(counts[lo]))))
             for lo, hi in zip([0] + bounds, bounds + [rows.size])
             if lo < hi]
    return rows, row_of[:-1], steps


def dynamic_bus_arrivals(netlist: Union[Netlist, PackedNetlist], library,
                         inputs_before: Mapping[str, np.ndarray],
                         inputs_after: Mapping[str, np.ndarray],
                         nets: np.ndarray,
                         window: Optional[int] = None,
                         words_out: Optional[np.ndarray] = None,
                         arrivals_out: Optional[np.ndarray] = None,
                         ) -> np.ndarray:
    """Streaming DTA: arrival times of ``nets`` only.

    Propagates arrivals of the call's live nets (see :func:`_live_plan`)
    level by level over ``window``-sample slabs and *retains* only the
    requested rows (product bits / output bus) per slab, so the dense
    ``(all_nets, batch)`` arrival matrix never exists.

    Args:
        netlist: Circuit to analyze.
        library: Cell library supplying gate delays.
        inputs_before / inputs_after: The transition's two assignments.
        nets: Net indices whose arrival rows to return.
        window: Slab width in samples (multiple of 64); defaults to
            :data:`STREAM_WINDOW_SAMPLES`.
        words_out: Optional reusable word matrix for the stacked value
            evaluation (see :func:`evaluate_words`).
        arrivals_out: Optional reusable C-contiguous ``float64`` buffer
            of shape ``(all_nets, min(window, batch))`` for the
            propagation; its contents need not be initialized.

    Returns:
        ``float64`` arrivals of shape ``(len(nets), batch)``:
        ``out[k, sample]`` is the event arrival time in ps at net
        ``nets[k]`` (0 where that net does not switch, and on rows of
        sources).
    """
    packed = _packed(netlist)
    if window is None:
        window = STREAM_WINDOW_SAMPLES
    if window <= 0 or window % 64:
        raise ValueError(
            f"window must be a positive multiple of 64, got {window}")
    stacked, batch = _stacked_inputs(packed, inputs_before, inputs_after)
    slab = min(window, batch)
    if arrivals_out is not None and (
            arrivals_out.shape != (len(packed), slab)
            or arrivals_out.dtype != np.float64
            or not arrivals_out.flags.c_contiguous):
        raise ValueError(
            f"arrivals_out must be a C-contiguous float64 array of "
            f"shape ({len(packed)}, {slab})")

    values = evaluate_words(packed, stacked, batch=2 * batch,
                            pair_halves=True, words_out=words_out)
    before_words, after_words = values.halves()
    xor_words = before_words ^ after_words
    nets = np.ascontiguousarray(nets, dtype=np.int64)
    rows, row_of, steps = _live_plan(packed, xor_words.any(axis=1), nets)
    live_xor = xor_words[rows]
    delays = packed.gate_delays(library)[rows][:, None]
    out_rows = row_of[nets]
    kept = out_rows >= 0
    out_rows = out_rows[kept]
    out = np.empty((nets.size, batch), dtype=np.float64)
    out[~kept] = 0.0

    # The compact slab is a C-contiguous prefix of the caller's buffer
    # (``len(rows) <= len(packed)``); every row is written before it is
    # read, so a dirty buffer needs no clearing.
    if arrivals_out is None:
        flat = np.empty(rows.size * slab, dtype=np.float64)
    else:
        flat = arrivals_out.reshape(-1)
    for start in range(0, batch, window):
        stop = min(start + window, batch)
        n = stop - start
        # Window starts are word-aligned (window % 64 == 0), so the
        # toggle slab unpacks straight from the XOR word columns.
        toggled = unpack_bits(
            live_xor[:, start // 64:(stop + 63) // 64], n)
        arrivals = flat[:rows.size * n].reshape(rows.size, n)
        for lo, hi, fanins in steps:
            # Sample columns are independent, so windowing cannot
            # perturb any value.  The boolean mask-multiply is
            # bit-identical to ``np.where(toggled, latest, 0.0)``:
            # arrivals are finite and non-negative, so ``x * True == x``
            # and ``x * False == 0.0`` exactly.
            latest = arrivals[lo:hi]
            if not fanins:
                np.multiply(toggled[lo:hi], delays[lo:hi], out=latest)
                continue
            np.take(arrivals, fanins[0], axis=0, out=latest)
            for fanin in fanins[1:]:
                np.maximum(latest, arrivals[fanin], out=latest)
            latest += delays[lo:hi]
            latest *= toggled[lo:hi]
        out[kept, start:stop] = arrivals[out_rows]
    return out

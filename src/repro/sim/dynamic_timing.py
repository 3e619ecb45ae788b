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
* arrival times cannot be bit-packed (they are floats), but the per-net
  + per-fanin Python loops fuse into per-level vectorized max-reductions
  over the :class:`~repro.netlist.gates.LevelSchedule` — ~depth x
  gate-type batched ops instead of ~N x fanin Python iterations;
* the batch streams through a reused ``(nets, window)`` slab and only
  the requested rows (the product bus, in the hot path) are kept, so
  the dense per-net arrival matrix is never built.

The result is bit-for-bit identical to the per-net reference walk in
``tests/oracles/sim.py``: float max is exact and associative, and the
adds happen in the same order per net.
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


def _propagate_window(packed: PackedNetlist, delays: np.ndarray,
                      arrivals: np.ndarray,
                      toggled: np.ndarray) -> None:
    """One level-by-level arrival propagation over a sample window.

    Sample columns are independent, so windowing the batch cannot
    perturb any value.
    """
    for group in packed.schedule.fanin_groups:
        # Latest switching-fanin arrival, fused across the whole group:
        # gather each fanin's arrival rows and max-reduce in place.
        latest = arrivals[group.f0]
        if group.n_fanins >= 2:
            np.maximum(latest, arrivals[group.f1], out=latest)
        if group.n_fanins >= 3:
            np.maximum(latest, arrivals[group.f2], out=latest)
        latest += delays[group.dst][:, None]
        # Only nets that actually switch carry an event; their event
        # lags the latest switching fanin by the gate delay.  The
        # boolean mask-multiply is bit-identical to
        # ``np.where(toggled, latest, 0.0)`` — arrivals are finite and
        # non-negative, so ``x * True == x`` and ``x * False == 0.0``
        # exactly — and avoids np.where's much slower select pass.
        latest *= toggled[group.dst]
        arrivals[group.dst] = latest


def dynamic_bus_arrivals(netlist: Union[Netlist, PackedNetlist], library,
                         inputs_before: Mapping[str, np.ndarray],
                         inputs_after: Mapping[str, np.ndarray],
                         nets: np.ndarray,
                         window: Optional[int] = None,
                         words_out: Optional[np.ndarray] = None,
                         arrivals_out: Optional[np.ndarray] = None,
                         ) -> np.ndarray:
    """Streaming DTA: arrival times of ``nets`` only.

    Propagates arrivals level by level over ``window``-sample slabs of
    a reused ``(all_nets, window)`` buffer and *retains* only the
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
            propagation.

    Returns:
        ``float64`` arrivals of shape ``(len(nets), batch)``:
        ``out[k, sample]`` is the event arrival time in ps at net
        ``nets[k]`` (0 where that net does not switch).
    """
    packed = _packed(netlist)
    stacked, batch = _stacked_inputs(packed, inputs_before, inputs_after)
    values = evaluate_words(packed, stacked, batch=2 * batch,
                            pair_halves=True, words_out=words_out)
    before_words, after_words = values.halves()
    xor_words = before_words ^ after_words
    delays = packed.gate_delays(library)
    nets = np.ascontiguousarray(nets, dtype=np.int64)
    out = np.empty((nets.size, batch), dtype=np.float64)

    if window is None:
        window = STREAM_WINDOW_SAMPLES
    if window <= 0 or window % 64:
        raise ValueError(
            f"window must be a positive multiple of 64, got {window}")
    slab = min(window, batch)
    if arrivals_out is None:
        arrivals = np.zeros((len(packed), slab), dtype=np.float64)
    else:
        if arrivals_out.shape != (len(packed), slab) \
                or arrivals_out.dtype != np.float64 \
                or not arrivals_out.flags.c_contiguous:
            raise ValueError(
                f"arrivals_out must be a C-contiguous float64 array of "
                f"shape ({len(packed)}, {slab})")
        arrivals = arrivals_out
        # Source rows are never scheduled; clear them once so a dirty
        # buffer cannot leak into the propagation (gate rows are fully
        # overwritten per slab).
        arrivals[packed.schedule.levels == 0] = 0.0

    for start in range(0, batch, window):
        stop = min(start + window, batch)
        n = stop - start
        # Window starts are word-aligned (window % 64 == 0), so the
        # toggle slab unpacks straight from the XOR word columns.
        toggled = unpack_bits(
            xor_words[:, start // 64:(stop + 63) // 64], n)
        slab_view = arrivals[:, :n]
        _propagate_window(packed, delays, slab_view, toggled)
        out[:, start:stop] = slab_view[nets]
    return out

"""Reference gate-level simulation and timing walks.

* :func:`evaluate_reference` — one Python iteration per gate, applying
  its function to a whole boolean batch (the spec of
  :func:`repro.sim.logic.evaluate`).
* :func:`dynamic_arrival_times_reference` — two reference evaluations
  plus a per-net arrival walk (the spec of
  :func:`repro.sim.dynamic_timing.dynamic_bus_arrivals`).
* :func:`dynamic_arrival_times` — the dense DTA engine: one stacked
  packed evaluation and a level-by-level propagation that keeps the
  full ``(nets, batch)`` arrival matrix, plus :func:`dynamic_delays`
  on top of it.
* :func:`static_arrival_times_reference` /
  :func:`time_to_outputs_reference` — per-net walks (the specs of
  :mod:`repro.sim.static_timing`).
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple, Union

import numpy as np

from repro.netlist.gates import GateType, Netlist, PackedNetlist
from repro.sim.dynamic_timing import _stacked_inputs
from repro.sim.logic import _infer_batch, evaluate_words, unpack_bits


def _packed(netlist: Union[Netlist, PackedNetlist]) -> PackedNetlist:
    return netlist if isinstance(netlist, PackedNetlist) else netlist.packed()


def evaluate_reference(netlist: Union[Netlist, PackedNetlist],
                       inputs: Mapping[str, np.ndarray],
                       batch: Optional[int] = None) -> np.ndarray:
    """Boolean ``values[net, sample]``, one gate at a time."""
    packed = _packed(netlist)
    names = packed.netlist.input_names
    batch = _infer_batch(inputs, batch)

    missing = set(names) - set(inputs)
    if missing:
        raise ValueError(f"missing values for inputs: {sorted(missing)}")

    values = np.empty((len(packed), batch), dtype=bool)
    for name, net in names.items():
        arr = np.asarray(inputs[name], dtype=bool)
        values[net] = np.broadcast_to(arr, (batch,))

    types = packed.types
    f0, f1, f2 = packed.fanin0, packed.fanin1, packed.fanin2
    for net in range(len(packed)):
        gtype = types[net]
        if gtype == GateType.INPUT:
            continue
        if gtype == GateType.CONST0:
            values[net] = False
        elif gtype == GateType.CONST1:
            values[net] = True
        elif gtype == GateType.INV:
            np.logical_not(values[f0[net]], out=values[net])
        elif gtype == GateType.BUF:
            values[net] = values[f0[net]]
        elif gtype == GateType.AND2:
            np.logical_and(values[f0[net]], values[f1[net]],
                           out=values[net])
        elif gtype == GateType.OR2:
            np.logical_or(values[f0[net]], values[f1[net]],
                          out=values[net])
        elif gtype == GateType.NAND2:
            np.logical_and(values[f0[net]], values[f1[net]],
                           out=values[net])
            np.logical_not(values[net], out=values[net])
        elif gtype == GateType.NOR2:
            np.logical_or(values[f0[net]], values[f1[net]],
                          out=values[net])
            np.logical_not(values[net], out=values[net])
        elif gtype == GateType.XOR2:
            np.logical_xor(values[f0[net]], values[f1[net]],
                           out=values[net])
        elif gtype == GateType.XNOR2:
            np.logical_xor(values[f0[net]], values[f1[net]],
                           out=values[net])
            np.logical_not(values[net], out=values[net])
        elif gtype == GateType.MUX2:
            # Default to fanin1, overwrite the selected samples with
            # fanin2.
            out = values[net]
            np.copyto(out, values[f1[net]])
            np.copyto(out, values[f2[net]], where=values[f0[net]])
        else:
            raise AssertionError(f"unhandled gate type {gtype}")
    return values


def dynamic_arrival_times_reference(
        netlist: Union[Netlist, PackedNetlist], library,
        inputs_before: Mapping[str, np.ndarray],
        inputs_after: Mapping[str, np.ndarray],
        ) -> Tuple[np.ndarray, np.ndarray]:
    """``(arrivals, toggled)`` per net and transition, net by net."""
    packed = _packed(netlist)
    before = evaluate_reference(packed, inputs_before)
    after = evaluate_reference(packed, inputs_after)
    toggled = before != after
    delays = packed.gate_delays(library)

    batch = before.shape[1]
    arrivals = np.zeros((len(packed), batch), dtype=np.float64)
    f0, f1, f2 = packed.fanin0, packed.fanin1, packed.fanin2
    types = packed.types
    for net in range(len(packed)):
        if types[net] in (GateType.INPUT, GateType.CONST0, GateType.CONST1):
            continue
        latest = np.zeros(batch, dtype=np.float64)
        for fanin in (f0[net], f1[net], f2[net]):
            if fanin >= 0:
                np.maximum(latest, arrivals[fanin], out=latest)
        arrivals[net] = np.where(toggled[net], latest + delays[net], 0.0)
    return arrivals, toggled


def dynamic_arrival_times(netlist: Union[Netlist, PackedNetlist], library,
                          inputs_before: Mapping[str, np.ndarray],
                          inputs_after: Mapping[str, np.ndarray],
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Dense DTA: ``(arrivals, toggled)`` for every net at once.

    ``arrivals[net, sample]`` is the event arrival time in ps (0 for
    non-switching nets) and ``toggled[net, sample]`` flags whether the
    net switched at all.
    """
    packed = _packed(netlist)
    stacked, batch = _stacked_inputs(packed, inputs_before, inputs_after)
    values = evaluate_words(packed, stacked, batch=2 * batch,
                            pair_halves=True)
    before_words, after_words = values.halves()
    toggled = unpack_bits(before_words ^ after_words, batch)
    delays = packed.gate_delays(library)

    arrivals = np.zeros((len(packed), batch), dtype=np.float64)
    for group in packed.schedule.fanin_groups:
        latest = arrivals[group.f0]
        if group.n_fanins >= 2:
            np.maximum(latest, arrivals[group.f1], out=latest)
        if group.n_fanins >= 3:
            np.maximum(latest, arrivals[group.f2], out=latest)
        latest += delays[group.dst][:, None]
        latest *= toggled[group.dst]
        arrivals[group.dst] = latest
    return arrivals, toggled


def dynamic_delays(netlist: Union[Netlist, PackedNetlist], library,
                   inputs_before: Mapping[str, np.ndarray],
                   inputs_after: Mapping[str, np.ndarray]) -> np.ndarray:
    """Per-transition sensitized delay to the primary outputs.

    The latest switching event on any primary output; transitions that
    leave all outputs stable have delay 0.
    """
    packed = _packed(netlist)
    arrivals, __ = dynamic_arrival_times(packed, library, inputs_before,
                                         inputs_after)
    outputs = list(packed.netlist.output_names.values())
    if not outputs:
        raise ValueError("netlist has no outputs to time")
    return arrivals[outputs].max(axis=0)


def static_arrival_times_reference(
        netlist: Union[Netlist, PackedNetlist], library) -> np.ndarray:
    """Worst-case arrival time (ps) at every net, net by net."""
    packed = _packed(netlist)
    delays = packed.gate_delays(library)
    arrivals = np.zeros(len(packed), dtype=np.float64)
    f0, f1, f2 = packed.fanin0, packed.fanin1, packed.fanin2
    for net in range(len(packed)):
        if delays[net] == 0.0 and f0[net] < 0:
            continue  # source node
        worst = 0.0
        for fanin in (f0[net], f1[net], f2[net]):
            if fanin >= 0 and arrivals[fanin] > worst:
                worst = arrivals[fanin]
        arrivals[net] = worst + delays[net]
    return arrivals


def time_to_outputs_reference(
        netlist: Union[Netlist, PackedNetlist], library) -> np.ndarray:
    """Longest remaining delay (ps) to any output, net by net in
    reverse topological order."""
    packed = _packed(netlist)
    delays = packed.gate_delays(library)
    remaining = np.full(len(packed), -np.inf, dtype=np.float64)
    for net in packed.netlist.output_names.values():
        remaining[net] = max(remaining[net], 0.0)
    f0, f1, f2 = packed.fanin0, packed.fanin1, packed.fanin2
    # Relax fanins through each gate: reaching this gate's output costs
    # the gate's own delay.
    for net in range(len(packed) - 1, -1, -1):
        if remaining[net] == -np.inf:
            continue
        through = remaining[net] + delays[net]
        for fanin in (f0[net], f1[net], f2[net]):
            if fanin >= 0 and through > remaining[fanin]:
                remaining[fanin] = through
    return remaining

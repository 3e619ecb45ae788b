"""Per-weight power characterization loops.

Both loops run one packed evaluation per weight value; they are the
specs of
:meth:`repro.power.characterization.WeightPowerCharacterizer.dynamic_energies_fj_batched`,
which stacks many weights into one launch.

* :func:`dynamic_energies_fj` — the per-weight loop over the current
  stimulus sampler, with the frozen weight bus spliced in as per-wire
  scalars.
* :func:`pre_batching_energies_fj` — the characterization as it was
  before weight batching and sampler rewrites, frozen: ``rng.choice``
  stimulus sampling plus a dense per-weight weight bus.  Its RNG
  consumption defined the golden tables, and it is the baseline of the
  one-launch speedup floor in ``benchmarks/bench_sim_kernel.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.power.characterization import (
    WeightPowerCharacterizer,
    weight_seed_sequence,
)
from repro.power.transitions import code_to_value
from repro.sim.logic import bus_inputs, evaluate_words
from repro.sim.switching import paired_toggle_rates_words


def _energy_fj(char: WeightPowerCharacterizer, feed) -> float:
    values = evaluate_words(char._packed, feed, pair_halves=True)
    rates = paired_toggle_rates_words(values)
    return float(np.dot(rates, char._energies))


def dynamic_energy_fj(char: WeightPowerCharacterizer, weight: int,
                      rng: np.random.Generator) -> float:
    """Mean switching energy per cycle for one frozen weight value."""
    acts, psums = char._sample_stimulus(rng)
    feed = bus_inputs("act", acts, char.mac.act_bits)
    feed.update(bus_inputs("w", np.int64(weight), char.mac.weight_bits))
    feed.update(bus_inputs("psum", psums, char.mac.psum_bits))
    return _energy_fj(char, feed)


def dynamic_energies_fj(char: WeightPowerCharacterizer,
                        weights: Sequence[int], seed: int) -> np.ndarray:
    """Raw per-weight switching energies, one weight at a time, each
    from its own ``(seed, weight)`` child RNG."""
    return np.array([
        dynamic_energy_fj(
            char, int(w),
            np.random.default_rng(weight_seed_sequence(seed, int(w))))
        for w in weights
    ])


def pre_batching_energies_fj(char: WeightPowerCharacterizer,
                             weights: Sequence[int],
                             seed: int) -> np.ndarray:
    """The pre-batching per-weight characterization, frozen."""
    n = char.n_samples
    act = char.act_transitions
    bt = char.psum_transitions
    dist = bt.distribution
    energies = []
    for weight in weights:
        rng = np.random.default_rng(
            weight_seed_sequence(seed, int(weight)))
        drawn = rng.choice(act.matrix.size, size=n, p=act.matrix.ravel())
        acts = code_to_value(
            np.concatenate([drawn // act.n_codes, drawn % act.n_codes]),
            char.mac.act_bits)
        drawn = rng.choice(dist.matrix.size, size=n,
                           p=dist.matrix.ravel())
        halves = []
        for bin_ids in (drawn // dist.n_codes, drawn % dist.n_codes):
            out = np.empty(n, dtype=np.int64)
            for b in range(bt.binner.n_bins):
                mask = bin_ids == b
                count = int(mask.sum())
                if count:
                    out[mask] = rng.choice(bt.binner._exemplars[b],
                                           size=count)
            halves.append(out)
        psums = np.concatenate(halves)

        feed = bus_inputs("act", acts, char.mac.act_bits)
        feed.update(bus_inputs(
            "w", np.full(2 * n, int(weight), dtype=np.int64),
            char.mac.weight_bits))
        feed.update(bus_inputs("psum", psums, char.mac.psum_bits))
        energies.append(_energy_fj(char, feed))
    return np.array(energies)

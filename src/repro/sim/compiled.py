"""The level-program executor: the one gate-simulation kernel.

Executes a :class:`~repro.sim.program.LevelProgram` (the flattened
opcode-array form of the level schedule, see :mod:`repro.sim.program`)
over the packed ``uint64`` word matrix.  Per *level*, one merged
fancy-index load pulls every operand word (``[src0|src1|mux src2]``),
at most three in-place binary ufunc calls cover the AND/OR/XOR families
(the program orders inverting twins adjacent), one broadcast XOR with
the per-gate ``inv_mask`` applies every complement, and one scatter
writes the level back — no per-group Python dispatch (MUX2 uses the
XOR-select identity ``p ^ (sel & (p ^ q))`` entirely inside the
gathered block).

Every packed evaluation in :mod:`repro.sim.logic` (and so the power
and timing characterizations) runs through :func:`run_program_words`.
Its executable specification — the per-gate interpreted walk — lives
with the equivalence tests in ``tests/oracles/sim.py``.
"""

from __future__ import annotations

import numpy as np

from repro.sim.program import LevelProgram

#: Binary ufunc family table, indexed by the program's run family ids.
_BINOP_UFUNCS = (np.bitwise_and, np.bitwise_or, np.bitwise_xor)


def run_program_words(program: LevelProgram, words: np.ndarray) -> None:
    """Execute the level program over packed words, in place.

    Per level (all slice arithmetic precomputed as plain ints in
    ``program.level_plan``): one merged fancy-index gather loads every
    operand word, each binary family is one in-place ufunc call on its
    contiguous run, one broadcast XOR with ``inv_mask`` complements the
    NAND/NOR/XNOR/INV results (BUF rides along with a zero mask), the
    MUX2 tail evaluates ``p ^ (sel & (p ^ q))`` inside the gathered
    block, and one scatter writes the level's outputs back.

    Padding bits beyond the batch may take arbitrary values: they are
    dropped on unpack and cancel in paired toggle extraction, where
    both halves compute the same function of identical padding.
    """
    dst = program.dst
    gather_idx = program.gather_idx
    inv_mask = program.inv_mask
    for (start, stop, mux_start, g_start, g_stop,
         has_invert, binop_runs) in program.level_plan:
        n = stop - start
        block = words[gather_idx[g_start:g_stop]]
        a = block[:n]
        b = block[n:2 * n]
        for (family, r0, r1) in binop_runs:
            _BINOP_UFUNCS[family](a[r0:r1], b[r0:r1], out=a[r0:r1])
        if has_invert:
            a ^= inv_mask[start:stop, None]
        if mux_start < stop:
            # out = p ^ (sel & (p ^ q)) — p if sel==0 else q — with
            # sel in a's tail, p in b's tail, q in the gathered c
            # block; computed in place, then folded into ``a`` so the
            # level needs a single scatter.
            m = mux_start - start
            c = block[2 * n:]
            bm = b[m:]
            np.bitwise_xor(c, bm, out=c)
            np.bitwise_and(c, a[m:], out=c)
            np.bitwise_xor(c, bm, out=c)
            a[m:] = c
        words[dst[start:stop]] = a

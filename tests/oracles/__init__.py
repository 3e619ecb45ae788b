"""Executable specifications the production simulators are tested against.

Each oracle is the plain, slow formulation of something ``src/repro``
computes with a fast kernel: per-gate and per-net walks for logic
evaluation and timing (:mod:`oracles.sim`) and the per-weight power
characterization loop (:mod:`oracles.characterization`).  The
equivalence suites and ``benchmarks/bench_sim_kernel.py`` assert the
production paths reproduce them bit for bit.
"""

"""Executable specifications the production simulators are tested against.

Each oracle is the plain, slow formulation of something ``src/repro``
computes with a fast kernel: per-gate and per-net walks for logic
evaluation and timing (:mod:`oracles.sim`), the per-weight power
characterization loop (:mod:`oracles.characterization`) and the
per-tile systolic array power model (:mod:`oracles.systolic`).  The
equivalence suites, ``benchmarks/bench_sim_kernel.py`` and
``benchmarks/bench_accel.py`` assert the production paths reproduce
them (bit for bit, or to float rounding where the summation order
differs).
"""

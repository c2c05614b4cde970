"""Scope-aware static analysis + runtime RNG tripwire.

The simulator's core claim — that SP/SA/Omni energy and latency differences
emerge reproducibly from middleware behaviour — rests on bit-for-bit
determinism.  This package enforces the invariants that determinism silently
assumes, two ways:

- **statically**: ``python -m repro.analysis src/repro`` runs one serial
  pass over the tree — per-file scope/symbol tables
  (:mod:`repro.analysis.scopes`), lightweight type/dataflow inference
  (:mod:`repro.analysis.dataflow`), and the rule pass
  (:mod:`repro.analysis.visitor`) on top, joined by the whole-program pass
  (:mod:`repro.analysis.project`) — covering the DET determinism rules
  (global RNG use, wall-clock reads, ``hash()``-derived seeds, unsorted set
  iteration, ...), SIM sim-time hygiene, FRK fork/pickle safety in the
  parallel runner, SHD sharded-engine invariants and VEC numpy bit-parity,
  exiting nonzero on any finding not waived in the checked-in baseline;
- **at runtime**: :mod:`repro.analysis.tripwire` monkeypatches the
  module-level ``random`` (and ``numpy.random``) entry points to raise, so a
  driver that touches global RNG state fails its cell loudly instead of
  silently degrading cross-process determinism.  The runner engine installs
  it around every cell.

This module imports nothing: the runtime engines import the tripwire
without loading the analyzer.  Import names from the submodule that
defines them.

See EXPERIMENTS.md ("Determinism invariants") for the rule catalogue and the
waiver workflow.
"""

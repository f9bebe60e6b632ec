"""Ternary logic gate classification and vector-model NMR spin simulation.

Subpackages:

- :mod:`spinlogic.ternary` -- balanced ternary truth tables and indexing
- :mod:`spinlogic.npn` -- relabelling symmetry group, orbits, Burnside count
- :mod:`spinlogic.pc` -- parameter-centric signatures and classes
- :mod:`spinlogic.spinsim` -- pulses, delays, relaxation, readout, sequence
  templates and their readout walk over a grid
- :mod:`spinlogic.search` -- quantization, experiment tables, grid search
- :mod:`spinlogic.complexlogic` -- magnitude/phase continuous logic and the
  NMR encode/decode pipeline
- :mod:`spinlogic.cli` -- command-line surface
"""

from .ternary import TernaryFunction, decode, encode, multiplication

__all__ = [
    "TernaryFunction",
    "decode",
    "encode",
    "multiplication",
]

__version__ = "0.1.0"

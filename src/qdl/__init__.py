"""Quantum state discrimination toolkit.

Submodules:
  linalg          dense Hermitian kernel (eigendecompositions, trace norms)
                  and the shared purity check
  angular         SU(2) combinatorics: recoupling and rotation matrices from
                  one tridiagonal eigensolve, multiplicities, block coefficients
  discrimination  known-state binary discrimination and Chernoff distances
  programmable    programmable discrimination machines and error margins
  learning        learning machines, estimate-and-discriminate, seeds
  reading         coherent-state quantum reading
  povmdec         decomposition of POVMs into extremal measurements
  cli             command-line interface
"""

from . import (  # noqa: F401
    angular,
    discrimination,
    learning,
    linalg,
    povmdec,
    programmable,
    reading,
)

__all__ = [
    "angular",
    "discrimination",
    "learning",
    "linalg",
    "povmdec",
    "programmable",
    "reading",
]

__version__ = "0.1.0"

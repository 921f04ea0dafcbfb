"""Exact desk-scale verification of three IMO shortlist problems.

- a2: the 2006 A2 recurrence over exact rationals, positivity checked.
- tiling: 2017 C1 rectangle tilings, checkerboard counting, parity witness;
  tilefile holds the part that c1-check runs (validator, witness, text format).
- n1: 2017 N1 orbit dynamics, cycle detection and classification.

The full battery lives in imocheck.suite; the CLI front door in imocheck.cli.
"""

__version__ = "0.1.0"

# the kernels' implementation, which the benchmark records; there is only one
BACKEND_NAME = "pure"

__all__ = ["BACKEND_NAME", "__version__"]

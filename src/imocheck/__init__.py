"""Exact desk-scale verification of three IMO shortlist problems.

- a2: the 2006 A2 recurrence over exact rationals, positivity checked.
- tiling: 2017 C1 rectangle tilings, checkerboard counting, parity witness.
- n1: 2017 N1 orbit dynamics, cycle detection and classification.

The full battery lives in imocheck.suite; the CLI front door in imocheck.cli.
"""

from .backend import BACKEND_NAME

__version__ = "0.1.0"

__all__ = ["BACKEND_NAME", "__version__"]

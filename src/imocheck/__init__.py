"""Exact desk-scale verification of three IMO shortlist problems.

- a2: the 2006 A2 recurrence over exact rationals, positivity checked.
- tiling: 2017 C1 rectangle tilings, checkerboard counting, parity witness;
  tilefile holds the part that c1-check runs (validator, witness, text format).
- n1: 2017 N1 orbit dynamics, cycle detection and classification.

The full battery lives in imocheck.suite; the CLI front door in imocheck.cli.
"""

__version__ = "0.1.0"

__all__ = ["BACKEND_NAME", "__version__"]


def __getattr__(name: str) -> str:
    """BACKEND_NAME, read from backend on first access: the package loads no kernel."""
    if name == "BACKEND_NAME":
        from .backend import BACKEND_NAME
        return BACKEND_NAME
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

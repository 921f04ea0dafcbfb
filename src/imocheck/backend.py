"""The kernels under their old names, for perfbench/tracer.py's ``backend.*`` targets.

Each kernel lives beside its callers: confirm_plus3_run and orbit_fill in
n1, enum_tilings in tiling.  The tracer rebinds every module global that is
the object it wraps, so it still counts the calls made inside n1 and tiling.
isqrt is math.isqrt, which the package reads through ``math``, so a wrapper
here sees no call.  Nothing in the package imports this module.
"""

from math import isqrt

from .n1 import confirm_plus3_run, orbit_fill
from .tiling import enum_tilings

"""korosum: exponential sums e(a * b^n / m) with exact phases, the explicit
recursive bound system with certified constants, and applications to digit
statistics of rationals and normal-number constructions.

Importing korosum pins OpenBLAS, which numpy's wheels bundle, to one thread,
so verify's dot products (korosum's only BLAS calls) do not follow the
host's CPU count.  A program that imports numpy first keeps its own BLAS
pool, and a numpy built on another BLAS keeps that library's threads.
"""

import os

# Read once, when OpenBLAS loads with numpy (first by sumeval); set, not
# defaulted, so that no caller's environment moves verify's bits.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .numtheory import PrimeSet

__version__ = "0.1.0"

__all__ = ["PrimeSet", "__version__"]

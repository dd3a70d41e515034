"""Streaming subspace estimation on the Grassmannian.

The package tracks a d-dimensional subspace of R^n from a stream of
vectors using rank-one geodesic updates with adaptive step sizes, and
ships the machinery to study its convergence: similarity metrics, a
planted data model, theoretical iteration bounds with Monte Carlo
verifiers, and a reproducible experiment harness with a CLI.  Unless
numpy is already imported or ``OPENBLAS_THREAD_TIMEOUT`` is set, importing
grouse lets numpy's idle OpenBLAS workers sleep at once instead of
spinning for about 0.1 s (``grouse._blas``).
"""

# the public names are each submodule's __all__, and only there; _blas's is empty and runs first
from ._blas import *
from .bounds import *
from .checks import *
from .core import *
from .data import *
from .harness import *
from .subspaces import *

__version__ = "0.1.0"

"""Persistency of multipartite Bell correlations.

Numerical library for symmetrized persistency of Bell correlations:
exact Dicke-state reductions and their squared-correlation violation
indicator, Mermin-type and geometric Bell inequalities with exact
classical values, anticommutation-graph monogamy bounds, entropy
asymptotics, and Monte Carlo simulation of the distributed
sign-guessing game.  The package holds only what these outputs need;
the tests' second routes (dense Dicke states and partial traces, the
sign-function family of full-correlation inequalities, dense game
states) live in ``tests/oracles.py``.

The compute modules are registered lazily: each one executes on its
first attribute access, so a caller compiles and runs only the modules
it touches.
"""

__version__ = "0.1.0"

from . import errors
from ._lazy import lazy_import as _lazy_import

qstate = _lazy_import(f"{__name__}.qstate")
dicke = _lazy_import(f"{__name__}.dicke")
bell = _lazy_import(f"{__name__}.bell")
persistency = _lazy_import(f"{__name__}.persistency")
monogamy = _lazy_import(f"{__name__}.monogamy")
qccr = _lazy_import(f"{__name__}.qccr")

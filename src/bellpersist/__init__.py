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
it touches.  The public names below resolve through their module the
same way.
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

# public names, by the module that defines them
_EXPORTS = {
    "bell": (
        "BellFunctional",
        "gbi_classical",
        "gbi_classical_by_integration",
        "gbi_qcr",
        "gbi_quantum",
        "lr_max",
        "makb",
        "makb_xy_settings",
        "quantum_value",
    ),
    "dicke": (
        "DickeMixture",
        "N0Fit",
        "SymCorrelation",
        "fit_n0_line",
        "reduced_dicke",
        "sigma_sum",
        "solve_n0",
        "sym_correlation",
        "sym_sigma",
    ),
    "errors": ("CapabilityError", "NoCrossingError"),
    "monogamy": (
        "AnticommGraph",
        "build_graph",
        "independence_number",
        "overlapping_chsh_operators",
    ),
    "persistency": (
        "PersistencyResult",
        "binary_entropy",
        "dicke_persistency",
        "gamma_crit",
        "ghz_persistency",
    ),
    "qccr": (
        "FeasibilityResult",
        "GameSpec",
        "GhzMixture",
        "SimulationResult",
        "VisibilityModel",
        "chsh_game",
        "classical_best",
        "gbi_game",
        "makb_game",
        "marginal_feasibility",
        "quantum_success",
        "simulate",
    ),
    "qstate": (
        "DenseState",
        "PauliString",
        "PlaneObservable",
        "anticommutes",
        "expectation",
        "ghz_state",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, looked up on its module, which executes if it has not yet."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))

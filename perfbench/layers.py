"""Per-layer metrics: which functions the traced run wraps, and how its
spans and the import-time report turn into numbers.

The layers are the package modules.  A span covers one call of a traced
public function; its self time is its duration minus the time of the
traced calls made inside it.
"""

from __future__ import annotations

import statistics

# public functions wrapped by trace_launch.py, per module
TRACED = {
    "cli": ("main",),
    "dicke": ("sigma_sum", "reduced_dicke", "sym_correlation", "solve_n0", "fit_n0_line"),
    "persistency": ("ghz_persistency", "gamma_crit", "dicke_persistency"),
    "bell": (
        "gbi_qcr_coefficient",
        "lr_max",
        "makb",
        "quantum_value",
        "BellFunctional.__init__",
        "BellFunctional.from_json",
        "BellFunctional.to_json",
        "BellFunctional.with_game_distribution",
        "BellFunctional.abs_total",
    ),
    "qccr": (
        "simulate",
        "gbi_game",
        "game_to_json",
        "game_from_json",
        "quantum_success",
        "classical_best",
        "marginal_feasibility",
    ),
    "qstate": ("expectation", "ghz_state", "anticommutes"),
    "monogamy": ("build_graph", "independence_number"),
}

# argument recorded with each span as the call's work, for rates
WORK_ARGUMENT = {"qccr.simulate": "trials"}

# functions whose sigma_sum calls are counted per call
SIGMA_CALLERS = ("dicke.solve_n0", "persistency.dicke_persistency")

_SELF = (
    "dicke.sigma_sum",
    "dicke.reduced_dicke",
    "dicke.sym_correlation",
    "dicke.fit_n0_line",
    "persistency.ghz_persistency",
    "persistency.gamma_crit",
    "persistency.dicke_persistency",
    "bell.gbi_qcr_coefficient",
    "bell.lr_max",
    "bell.makb",
    "bell.quantum_value",
    "bell.BellFunctional.__init__",
    "bell.BellFunctional.from_json",
    "bell.BellFunctional.to_json",
    "bell.BellFunctional.with_game_distribution",
    "bell.BellFunctional.abs_total",
    "qccr.simulate",
    "qccr.gbi_game",
    "qccr.game_to_json",
    "qccr.game_from_json",
    "qccr.quantum_success",
    "qccr.classical_best",
    "qccr.marginal_feasibility",
    "qstate.expectation",
    "qstate.ghz_state",
    "monogamy.build_graph",
    "monogamy.independence_number",
)
_CALLS = (
    "dicke.sigma_sum",
    "dicke.solve_n0",
    "persistency.ghz_persistency",
    "persistency.dicke_persistency",
    "bell.gbi_qcr_coefficient",
    "bell.lr_max",
    "qccr.simulate",
    "qstate.expectation",
)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [("cli.import_s", "s", "lower"), ("cli.import_scipy_s", "s", "lower"), ("cli.self_s", "s", "lower")]
    + [(f"{fn}.calls", "count", "lower") for fn in _CALLS]
    + [(f"{fn}.self_s", "s", "lower") for fn in _SELF]
    + [("dicke.sigma_sum.us_per_call", "us", "lower")]
    + [(f"{fn}.sigma_per_call", "count", "lower") for fn in SIGMA_CALLERS]
    + [("qccr.simulate.trials_per_s", "1/s", "higher")]
    + [(f"{module}.errors", "count", "lower") for module in TRACED]
    + [("trace.overhead_s", "s", "lower")]
)

# counts that must repeat exactly between traced passes
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit == "count")


class PassStats:
    """Span totals of one traced pass over a workload's commands."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        # calls after the first in each process, so lazy first-call set-up
        # stays out of per-call times
        self.steady_calls: dict[str, int] = {}
        self.steady_self_ns: dict[str, int] = {}
        self.work: dict[str, int] = {}
        self.sigma_under: dict[str, int] = {}
        self.errors: dict[str, int] = {module: 0 for module in TRACED}

    def add_command(self, names: list[str], spans: list[list[int]]) -> None:
        """Fold in one process's spans: [name index, start ns, end ns,
        parent span or -1, 1 if an exception escaped, work]."""
        child_ns = [0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        seen = set()
        for i, (idx, start, end, parent, err, work) in enumerate(spans):
            name = names[idx]
            own = end - start - child_ns[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            self.work[name] = self.work.get(name, 0) + work
            if name in seen:
                self.steady_calls[name] = self.steady_calls.get(name, 0) + 1
                self.steady_self_ns[name] = self.steady_self_ns.get(name, 0) + own
            seen.add(name)
            module = name.split(".", 1)[0]
            # count an exception once per module it escapes
            raised_in_module = (
                parent >= 0 and spans[parent][4] and names[spans[parent][0]].split(".", 1)[0] == module
            )
            if err and not raised_in_module:
                self.errors[module] += 1
            if name == "dicke.sigma_sum":
                callers = set()
                p = parent
                while p >= 0:
                    callers.add(names[spans[p][0]])
                    p = spans[p][3]
                for caller in callers.intersection(SIGMA_CALLERS):
                    self.sigma_under[caller] = self.sigma_under.get(caller, 0) + 1

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {"cli.self_s": self.self_ns.get("cli.main", 0) / 1e9}
        for fn in _CALLS:
            out[f"{fn}.calls"] = self.calls.get(fn, 0)
        for fn in _SELF:
            out[f"{fn}.self_s"] = self.self_ns.get(fn, 0) / 1e9
        steady = self.steady_calls.get("dicke.sigma_sum", 0)
        out["dicke.sigma_sum.us_per_call"] = (
            self.steady_self_ns["dicke.sigma_sum"] / 1e3 / steady if steady else 0.0
        )
        for fn in SIGMA_CALLERS:
            calls = self.calls.get(fn, 0)
            out[f"{fn}.sigma_per_call"] = self.sigma_under.get(fn, 0) / calls if calls else 0.0
        sim_ns = self.self_ns.get("qccr.simulate", 0)
        trials = self.work.get("qccr.simulate", 0)
        out["qccr.simulate.trials_per_s"] = trials / (sim_ns / 1e9) if sim_ns else 0.0
        for module, count in self.errors.items():
            out[f"{module}.errors"] = count
        return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Medians over traced passes; counts repeat exactly, so they come
    from the first pass."""
    return {
        key: passes[0][key] if key in EXACT else statistics.median(p[key] for p in passes)
        for key in passes[0]
    }


def parse_importtime(report: str) -> tuple[float, float]:
    """Cumulative seconds of ``import bellpersist.cli`` and of the scipy
    packages it pulls in, from ``python -X importtime`` output."""
    entries = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative), name.strip()))
    cli_us = next((us for _, us, name in entries if name == "bellpersist.cli"), None)
    if cli_us is None:
        raise ValueError("bellpersist.cli missing from the import-time report")

    def is_scipy(name: str) -> bool:
        return name == "scipy" or name.startswith("scipy.")

    # the report lists children before their parent; count each scipy
    # subtree once, at its root
    scipy_us = 0
    for i, (depth, us, name) in enumerate(entries):
        if not is_scipy(name):
            continue
        parent = next((e for e in entries[i + 1 :] if e[0] < depth), None)
        if parent is None or not is_scipy(parent[2]):
            scipy_us += us
    return cli_us / 1e6, scipy_us / 1e6

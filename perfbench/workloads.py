"""The benchmark's workloads: fixed lists of ``bellpersist`` CLI commands.

A workload turns ``--seed`` into a list of :class:`Command` objects, each
an argv for ``bellpersist`` plus the check its output must pass.  The
runner compares runs made with different seeds, so a seed changes the
inputs each command sees but never the amount of work in a pass: where a
drawn value would change the cost (a range of party or zeros counts,
the zeros count of a threshold table) the workload either splits a
fixed range at the drawn point or pairs the drawn value with its
complement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[str], None]
    # file the command writes; its bytes count as output
    output_file: str | None = None
    # every significant digit the self-test alters must fail the check
    strict: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: tuple[str, ...]
    bypasses: tuple[str, ...]
    default_seed: int
    held_out_seed: int
    build: Callable[[random.Random, Path], list[Command]]


def _dicke_sweep(rng: random.Random, work: Path) -> list[Command]:
    split = rng.randint(1, 3)
    m = rng.randint(6, 9)
    l_values = list(range(5, 17))
    # the published M = 1..4 fits, split at the drawn M
    cmds = [
        Command(
            ("dicke", "fit", "--m-range", f"{lo}:{hi}", "--l-range", "5:40"),
            checks.check_dicke_fit(list(range(lo, hi + 1)), list(range(5, 41))),
            # the M=1 residual is rounding noise
            strict=False,
        )
        for lo, hi in ((1, split), (split + 1, 4))
    ]
    # m and 15 - m: the pair costs about the same for every draw
    for zeros in (m, 15 - m):
        cmds.append(
            Command(
                ("dicke", "n0", "--m", str(zeros), "--l-range", "5:16"),
                checks.check_dicke_n0(zeros, l_values),
            )
        )
    cmds.append(
        Command(
            ("persistency", "dicke", "--n", "50:65", "--m", "3"),
            checks.check_persistency_dicke(list(range(50, 66)), 3),
        )
    )
    return cmds


def _ghz_frontier(rng: random.Random, work: Path) -> list[Command]:
    split = rng.randint(150, 350)
    a = round(rng.uniform(1.1, 3.9), 6)
    cmds = [
        Command(
            ("persistency", "ghz", "--family", "gbi", "--n", f"{lo}:{hi}"),
            checks.check_ghz("gbi", list(range(lo, hi + 1))),
        )
        for lo, hi in ((2, split), (split + 1, 400))
    ]
    cmds.append(
        Command(
            ("persistency", "ghz", "--family", "makb", "--n", "2:500"),
            checks.check_ghz("makb", list(range(2, 501))),
        )
    )
    # spans the switch from certified integers (N <= 600) to log-domain floats
    cmds.append(
        Command(
            ("persistency", "ghz", "--family", "makb", "--n", "580:2600", "--asymptotic"),
            checks.check_ghz("makb", list(range(580, 2601))),
        )
    )
    cmds.append(
        Command(
            ("gamma-crit", "--a", "sqrt2", "--a", "pi/2", "--a", repr(a)),
            checks.check_gamma_crit([2.0**0.5, 3.141592653589793 / 2.0, a]),
            # the residual's trailing digits depend on unprinted digits of gamma
            strict=False,
        )
    )
    return cmds


def _game_play(rng: random.Random, work: Path) -> list[Command]:
    games = (
        (("--type", "gbi", "--n", "3"), "gbi3x32", 3, 32, 1_000_000, ()),
        (("--type", "makb", "--n", "4", "--n-total", "6"), "makb4", 4, 2, 2_000_000, ("--jobs", "2")),
        (("--type", "chsh"), "chsh", 2, 2, 2_000_000, ()),
    )
    cmds = []
    for make_args, name, parties, settings, trials, extra in games:
        path = str(work / f"{name}.json")
        seed = rng.randrange(2**31)
        cmds.append(
            Command(
                ("qccr", "make-game", *make_args, "--output", path),
                checks.check_game_file(path, name, parties, settings),
                output_file=path,
                strict=False,
            )
        )
        cmds.append(
            Command(
                ("qccr", "simulate", "--game", path, "--trials", str(trials), "--seed", str(seed), *extra),
                checks.check_simulate(path, trials, seed),
            )
        )
    dist = "tests/data/makb3_distribution.json"
    cmds.append(
        Command(
            ("qccr", "feasibility", "--dist", dist, "--n-total", "12"),
            checks.check_all(
                checks.check_feasibility(dist, 12),
                # a certificate stays valid under some digit changes; pin the
                # one the exact simplex returns
                checks.check_bytes(
                    "k,N,feasible,witness,certificate,reason\n3,12,false,,-5;1;-1/9;0,\n",
                    "the recorded certificate",
                ),
            ),
        )
    )
    return cmds


# tests/test_cli.py::GOLDEN_COMMANDS, with paths relative to the checkout
GOLDEN_COMMANDS = {
    "gamma_crit.csv": ["gamma-crit", "--a", "sqrt2", "--a", "pi/2"],
    "gbi_constants.csv": ["gbi", "constants", "--max-n", "8"],
    "persistency_ghz_gbi.csv": ["persistency", "ghz", "--family", "gbi", "--n", "6:9"],
    "persistency_dicke_m1.csv": ["persistency", "dicke", "--n", "4:9", "--m", "1"],
    "monogamy_bound.csv": ["monogamy", "bound", "--file", "tests/data/chsh_pair_operators.txt"],
    "makb_qcr.csv": ["makb", "qcr", "--n-range", "2:5"],
    "dicke_fit_m1.csv": ["dicke", "fit", "--m-range", "1:1", "--l-range", "5:12"],
    "dicke_sigma.json": ["dicke", "sigma", "--n", "5", "--m", "1", "--l", "1", "--format", "json"],
    "qccr_simulate.csv": [
        "qccr", "simulate", "--game", "tests/data/chsh_game.json", "--trials", "50000", "--seed", "7",
    ],
    "qccr_feasibility.csv": [
        "qccr", "feasibility", "--dist", "tests/data/makb3_distribution.json", "--n-total", "4",
    ],
    "dicke_n0_m2.csv": ["dicke", "n0", "--m", "2", "--l-range", "1:8"],
    "makb_coefficients_n3.csv": ["makb", "coefficients", "--n", "3"],
    "qccr_make_game_chsh.json": ["qccr", "make-game", "--type", "chsh"],
}


def _quick_queries(rng: random.Random, work: Path) -> list[Command]:
    golden = Path("tests/golden")
    cmds = [Command(("--version",), checks.check_version())]
    for name, argv in GOLDEN_COMMANDS.items():
        try:
            expected = (golden / name).read_text(encoding="utf-8")
        except OSError:
            expected = None
        cmds.append(Command(tuple(argv), checks.check_bytes(expected, f"tests/golden/{name}")))
    return cmds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dicke-sweep",
            "Exact-rational Dicke kernel: thousands of sigma_sum calls from n0, fit and persistency scans",
            ("cli", "dicke", "persistency"),
            ("bell", "qccr", "qstate", "monogamy"),
            1,
            1001,
            _dicke_sweep,
        ),
        Workload(
            "ghz-frontier",
            "Certified integer and rational GHZ frontier scans beside the log-domain float path, N > 600",
            ("cli", "persistency", "bell"),
            ("dicke", "qccr", "qstate", "monogamy"),
            1,
            1001,
            _ghz_frontier,
        ),
        Workload(
            "game-play",
            "Game-spec JSON writes and reads of a 32768-entry functional, Monte Carlo play, the exact LP",
            ("cli", "bell", "qccr"),
            ("dicke", "persistency", "monogamy"),
            1,
            1001,
            _game_play,
        ),
        Workload(
            "quick-queries",
            "The 13 golden CLI commands plus --version: start-up and imports dominate; "
            "the seed does not apply",
            ("cli", "qstate", "monogamy", "bell"),
            (),
            1,
            1001,
            _quick_queries,
        ),
    )
}


def build(name: str, seed: int, work: Path) -> list[Command]:
    return WORKLOADS[name].build(random.Random(seed), work)

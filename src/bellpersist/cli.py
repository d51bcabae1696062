"""Command-line frontend.

Every computation is exposed as a deterministic, scriptable subcommand
emitting CSV (default) or JSON.  Identical invocations, including the
seed, produce byte-identical output.  Exit codes: 0 on success, 1 on a
computation error, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction
from typing import Sequence

from . import __version__, bell, dicke, monogamy, persistency, qccr
from .errors import CapabilityError

_SYMBOLIC = {
    "sqrt2": math.sqrt(2.0),
    "pi/2": math.pi / 2.0,
}


def _parse_scalar(token: str) -> float:
    if token in _SYMBOLIC:
        return _SYMBOLIC[token]
    try:
        return float(token)
    except ValueError:
        raise UsageError(f"cannot parse {token!r}; use a number or one of {sorted(_SYMBOLIC)}")


def _parse_range(token: str) -> list[int]:
    lo, sep, hi = token.partition(":")
    try:
        if sep:
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(lo)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse range {token!r}; use LO:HI")
    except (OverflowError, MemoryError):
        raise argparse.ArgumentTypeError(f"range {token!r} too large to hold")
    if not values:
        raise argparse.ArgumentTypeError(f"empty range {token!r}")
    return values


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _emit(args, rows: list[dict]) -> None:
    """Write nonempty ``rows`` as CSV, columns in the first row's key
    order, or as JSON."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})
        text = buf.getvalue()
    else:
        payload = {
            "version": __version__,
            "command": " ".join(filter(None, (args.command, getattr(args, "subcommand", None)))),
            "config": {
                k: v
                for k, v in sorted(vars(args).items())
                if k not in ("func", "format", "output") and v is not None
            },
            "rows": [{k: _fmt(v) for k, v in row.items()} for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write(args, text)


def _write(args, text: str) -> None:
    """Write ``text`` to ``--output`` atomically (temp file, then rename), else to stdout."""
    if not args.output:
        sys.stdout.write(text)
        return
    # mode "x" creates a new file with the permissions plain open() gives
    tmp = f"{args.output}.{os.urandom(4).hex()}.tmp"
    try:
        handle = open(tmp, "x", encoding="utf-8")
        try:
            with handle:
                handle.write(text)
            os.replace(tmp, args.output)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # name the path given, not the temp file beside it
        raise OSError(exc.errno, exc.strerror, args.output) from exc


def _cmd_gamma_crit(args) -> None:
    rows = []
    for token in args.a:
        a = _parse_scalar(token)
        gamma = persistency.gamma_crit(a)
        residual = persistency.binary_entropy(gamma) - gamma * math.log2(a)
        # repr reads back as the root; 12 digits print a root near 1 as 1
        rows.append({"a": a, "gamma_crit": repr(gamma), "residual": residual})
    _emit(args, rows)


def _cmd_dicke_table(args) -> None:
    rows = []
    for m in args.m_range:
        fit = dicke.fit_n0_line(m, args.l_range)
        rows.append(
            {
                "M": m,
                "a": fit.slope,
                "b": fit.intercept,
                "residual": fit.rms_residual,
                "fraction": 1.0 / fit.slope,
            }
        )
    _emit(args, rows)


def _cmd_dicke_n0(args) -> None:
    rows = [
        {"M": args.m, "L": l, "N0": dicke.solve_n0(args.m, l)} for l in args.l_range
    ]
    _emit(args, rows)


def _cmd_dicke_sigma(args) -> None:
    value = dicke.sigma_sum(args.n, args.m, args.l)
    rows = [
        {
            "N": args.n,
            "M": args.m,
            "L": args.l,
            "sigma": value,
            "sigma_float": float(value),
            "violation_possible": bool(value > 1),
        }
    ]
    _emit(args, rows)


def _cmd_persistency_ghz(args) -> None:
    rows = []
    for n in args.n:
        result = persistency.ghz_persistency(args.family, n)
        rows.append(
            {
                "N": n,
                "family": args.family,
                "max_traced": result.max_traced,
                "witness_M": result.witness_m,
                "margin": result.margin,
            }
        )
    _emit(args, rows)


def _cmd_persistency_dicke(args) -> None:
    rows = []
    for n in args.n:
        result = persistency.dicke_persistency(n, args.m)
        rows.append(
            {
                "N": n,
                "M": args.m,
                "max_traced": result.max_traced,
                "persistency_lower_bound": result.max_traced + 1,
                "margin": result.margin,
            }
        )
    _emit(args, rows)


def _cmd_gbi_constants(args) -> None:
    if args.max_n < 2:
        raise UsageError(f"--max-n must be at least 2, got {args.max_n}")
    rows = []
    for n in range(2, args.max_n + 1):
        c = bell.gbi_classical(n)
        try:
            qcr = bell.gbi_qcr(n)
        except OverflowError:
            raise ValueError(
                f"qcr at n = {n} exceeds the largest float; use --max-n {n - 1} or less"
            ) from None
        rows.append(
            {
                "n": n,
                "classical": c,
                "classical_float": float(c),
                "quantum": bell.gbi_quantum(n),
                "qcr": qcr,
            }
        )
    _emit(args, rows)


def _cmd_makb_qcr(args) -> None:
    rows = []
    for n in args.n_range:
        f = bell.makb(n)
        lr = bell.lr_max(f)
        quantum = bell.ghz_value(f, [bell.makb_xy_settings(n)] * n)
        rows.append({"n": n, "lr_max": lr, "quantum": quantum, "qcr": quantum / lr})
    _emit(args, rows)


def _cmd_makb_coefficients(args) -> None:
    f = bell.makb(args.n)
    rows = [
        {"settings": bell._key_string(key, f.settings_per_party), "coefficient": float(value)}
        for key, value in sorted(f.coefficients.items())
    ]
    _emit(args, rows)


def _cmd_monogamy_bound(args) -> None:
    with open(args.file, "r", encoding="utf-8") as handle:
        operators = monogamy.parse_pauli_lines(handle.read())
    graph = monogamy.build_graph(operators)
    bound = monogamy.independence_number(graph)
    rows = [
        {
            "operators": len(operators),
            "qubits": len(operators[0]),
            "edges": sum(mask.bit_count() for mask in graph.neighbor_masks) // 2,
            "bound": bound,
        }
    ]
    _emit(args, rows)


def _cmd_qccr_simulate(args) -> None:
    with open(args.game, "r", encoding="utf-8") as handle:
        game = qccr.game_from_json(handle.read())
    result = qccr.simulate(game, trials=args.trials, seed=args.seed, jobs=args.jobs)
    try:
        classical = qccr.classical_best(game)
    except CapabilityError:
        classical = ""
    rows = [
        {
            "game": result.game,
            # every subset of the register plays alike, so the column
            # lists the players 0..k-1
            "subset": "+".join(map(str, range(game.n_parties))),
            "trials": result.trials,
            "seed": result.seed,
            "success": result.success_rate,
            "stderr": result.stderr,
            "analytic": result.analytic,
            "classical_best": classical,
        }
    ]
    _emit(args, rows)


def _cmd_qccr_feasibility(args) -> None:
    with open(args.dist, "r", encoding="utf-8") as handle:
        result = qccr.marginal_feasibility(json.load(handle), args.n_total)
    rows = [
        {
            "k": result.k,
            "N": result.n_parties,
            "feasible": result.feasible,
            "witness": ";".join(_fmt(q) for q in result.witness) if result.witness else "",
            "certificate": ";".join(_fmt(y) for y in result.certificate)
            if result.certificate
            else "",
            "reason": result.reason,
        }
    ]
    _emit(args, rows)


def _cmd_qccr_make_game(args) -> None:
    # the size flags that qccr.<type>_game reads, with the CLI's defaults
    sizes = {"chsh": {}, "makb": {"n": 3, "n_total": None}, "gbi": {"n": 3, "grid": 32}}[args.type]
    for name, value in (("n", args.n), ("n_total", args.n_total), ("grid", args.grid)):
        if value is not None:
            if name not in sizes:
                raise UsageError(f"--type {args.type} does not read --{name.replace('_', '-')}")
            sizes[name] = value
    game = getattr(qccr, f"{args.type}_game")(**sizes)
    _write(args, qccr.game_to_json(game) + "\n")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line, exit 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", help="write output atomically to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bellpersist",
        description="Persistency of multipartite Bell correlations: thresholds, "
        "Dicke reductions, monogamy bounds, and game simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma-crit", help="critical preserved fraction for ratio growth a")
    p.add_argument("--a", action="append", required=True, help="growth base (number, sqrt2, pi/2)")
    _add_common(p)
    p.set_defaults(func=_cmd_gamma_crit)

    dicke_p = sub.add_parser("dicke", help="Dicke-state correlation sums and fits")
    dicke_sub = dicke_p.add_subparsers(dest="subcommand", required=True)
    p = dicke_sub.add_parser("fit", help="N0 = a L + b threshold lines per zeros count M")
    p.add_argument("--m-range", type=_parse_range, default=list(range(1, 5)))
    p.add_argument("--l-range", type=_parse_range, default=list(range(5, 41)))
    _add_common(p)
    p.set_defaults(func=_cmd_dicke_table)
    p = dicke_sub.add_parser("n0", help="threshold party counts N0(M, L)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l-range", type=_parse_range, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_dicke_n0)
    p = dicke_sub.add_parser("sigma", help="squared-correlation sum of a reduced Dicke state")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_dicke_sigma)

    pers_p = sub.add_parser("persistency", help="how many parties may be lost")
    pers_sub = pers_p.add_subparsers(dest="subcommand", required=True)
    p = pers_sub.add_parser("ghz", help="symmetrized GHZ-block mixtures")
    p.add_argument("--family", choices=("makb", "gbi"), required=True)
    p.add_argument("--n", type=_parse_range, required=True, help="party count or range LO:HI")
    # kept so that command lines passing it still parse; it selects nothing
    p.add_argument(
        "--asymptotic",
        action="store_true",
        help="accepted and ignored: every row is certified",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_persistency_ghz)
    p = pers_sub.add_parser("dicke", help="Dicke states via the correlation indicator")
    p.add_argument("--n", type=_parse_range, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_persistency_dicke)

    gbi_p = sub.add_parser("gbi", help="geometric-inequality constants")
    gbi_sub = gbi_p.add_subparsers(dest="subcommand", required=True)
    p = gbi_sub.add_parser("constants", help="exact classical values and ratios")
    p.add_argument("--max-n", type=int, default=12)
    _add_common(p)
    p.set_defaults(func=_cmd_gbi_constants)

    makb_p = sub.add_parser("makb", help="Mermin-type functionals")
    makb_sub = makb_p.add_subparsers(dest="subcommand", required=True)
    p = makb_sub.add_parser("qcr", help="quantum-to-classical ratios from exact LR maxima")
    p.add_argument("--n-range", type=_parse_range, default=list(range(2, 9)))
    _add_common(p)
    p.set_defaults(func=_cmd_makb_qcr)
    p = makb_sub.add_parser("coefficients", help="functional coefficients")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_makb_coefficients)

    mono_p = sub.add_parser("monogamy", help="anticommutation-graph bounds")
    mono_sub = mono_p.add_subparsers(dest="subcommand", required=True)
    p = mono_sub.add_parser("bound", help="squared-mean bound for a Pauli list file")
    p.add_argument("--file", required=True, help="text file, one Pauli string per line")
    _add_common(p)
    p.set_defaults(func=_cmd_monogamy_bound)

    qccr_p = sub.add_parser("qccr", help="distributed sign-guessing game")
    qccr_sub = qccr_p.add_subparsers(dest="subcommand", required=True)
    p = qccr_sub.add_parser("simulate", help="Monte Carlo play of a game spec")
    p.add_argument("--game", required=True, help="game spec JSON path")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="RNG seed recorded in the output")
    p.add_argument("--jobs", type=int, default=1, help="independently seeded streams")
    _add_common(p)
    p.set_defaults(func=_cmd_qccr_simulate)
    p = qccr_sub.add_parser("feasibility", help="exchangeable-marginal check")
    p.add_argument("--dist", required=True, help="JSON mapping settings strings to probabilities")
    p.add_argument("--n-total", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_qccr_feasibility)
    p = qccr_sub.add_parser("make-game", help="write a ready-made game spec")
    p.add_argument("--type", choices=("chsh", "makb", "gbi"), required=True)
    p.add_argument("--n", type=int, help="players, for makb and gbi (default 3)")
    p.add_argument("--n-total", type=int, help="parties holding the GHZ mixture, for makb")
    p.add_argument("--grid", type=int, help="settings per party, for gbi (default 32)")
    p.add_argument("--output", help="write the game spec atomically to this path")
    p.set_defaults(func=_cmd_qccr_make_game)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (ValueError, RuntimeError, OSError, OverflowError) as exc:
        sys.stderr.write(f"{parser.prog}: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"{parser.prog}: {str(exc) or 'out of memory'}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for the benchmark's CLI commands.

Each check takes the command's stdout (and, for commands that write a
file, reads that file) and raises :class:`CheckError` when the output is
wrong.  A failed check counts as a failed operation.

The checks recompute each answer by a route other than the one the
command took wherever the library offers one:

- Dicke thresholds are re-bracketed through ``reduced_dicke`` +
  ``sym_correlation`` with the squared sum done here, never through
  ``sigma_sum``;
- GHZ frontiers are re-decided with the integer test
  ``2^(M-1) > C(N,M)^2`` (Mermin-type) or with this module's own
  alternating-permutation count against a 50-digit pi bracket
  (geometric);
- game simulations are checked against an analytic value recomputed
  from the game file, within 5 standard errors;
- feasibility witnesses and Farkas certificates are re-verified in
  exact arithmetic.

Exact quantities (integers, rationals, floats the CLI derives from an
exact rational) must match digit for digit; floats that the CLI derives
through floating-point logarithms are compared at a relative tolerance
of 1e-9.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

import bellpersist
from bellpersist.dicke import reduced_dicke, sym_correlation


class CheckError(Exception):
    """A command's output is wrong."""


FLOAT_RTOL = 1e-9

# N0 = a L + b slopes published for M = 1..4 over L = 5..40, to 4 decimals
PUBLISHED_SLOPES = {1: 3.0000, 2: 2.5806, 3: 2.4114, 4: 2.3196}
# intercepts and rms residuals of the same fits, recorded when the
# benchmark was written; a speed-up must leave them unchanged.  The M=1
# points lie on a line, so its residual is rounding noise.
FIT_REFERENCE = {
    1: (1.0, 0.0),
    2: (2.76891773537, 0.00408743115683),
    3: (4.52987543344, 0.0129539623179),
    4: (6.33229954877, 0.0259491637761),
}

# directed 50-digit bracket around pi
_PI_DIGITS = "314159265358979323846264338327950288419716939937510"
PI_SCALE = 10 ** (len(_PI_DIGITS) - 1)
PI_LO_SCALED = int(_PI_DIGITS)


def fmt_float(value: float) -> str:
    """The CLI's float format."""
    return format(value, ".12g")


def _rows(text: str, header: list[str]) -> list[dict[str, str]]:
    reader = csv.reader(io.StringIO(text))
    lines = list(reader)
    if not lines or lines[0] != header:
        raise CheckError(f"expected header {','.join(header)}")
    rows = []
    for line in lines[1:]:
        if len(line) != len(header):
            raise CheckError(f"row {line} has {len(line)} fields, expected {len(header)}")
        rows.append(dict(zip(header, line)))
    return rows


def _single_row(text: str, header: list[str]) -> dict[str, str]:
    rows = _rows(text, header)
    if len(rows) != 1:
        raise CheckError(f"expected one row, got {len(rows)}")
    return rows[0]


def _int(token: str) -> int:
    if not token.lstrip("-").isdigit():
        raise CheckError(f"expected an integer, got {token!r}")
    return int(token)


def _float(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise CheckError(f"expected a number, got {token!r}") from None


def _fraction(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise CheckError(f"expected a rational, got {token!r}") from None


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(token: str, expected: float, what: str, rtol: float = FLOAT_RTOL) -> None:
    got = _float(token)
    _expect(
        math.isclose(got, expected, rel_tol=rtol, abs_tol=0.0),
        f"{what}: got {token}, expected {expected!r}",
    )


def _exact_float(token: str, expected: Fraction | float, what: str) -> None:
    want = fmt_float(float(expected))
    _expect(token == want, f"{what}: got {token}, expected {want}")


def _row_keys(rows, key: str, expected: list[int]) -> None:
    got = [_int(r[key]) for r in rows]
    _expect(got == expected, f"{key} column {got[:5]}... does not match the requested range")


# --- plain reference outputs ----------------------------------------------------


def check_bytes(expected: str | None, what: str):
    def check(out: str) -> None:
        _expect(expected is not None, f"{what} is missing")
        _expect(out == expected, f"output differs from {what}")

    return check


def check_version():
    return check_bytes(bellpersist.__version__ + "\n", "the package version")


def check_all(*parts):
    def check(out: str) -> None:
        for part in parts:
            part(out)

    return check


# --- Dicke thresholds -------------------------------------------------------------


@lru_cache(maxsize=None)
def readable_sigma(n_total: int, m_zeros: int, n_traced: int) -> Fraction:
    """Squared x/z correlation sum through the readable route."""
    sym = sym_correlation(reduced_dicke(n_total, m_zeros, n_traced))
    return sum((math.comb(sym.n, k) * v * v for k, v in enumerate(sym.values)), Fraction(0))


def check_dicke_fit(m_values: list[int], l_values: list[int]):
    published = l_values == list(range(5, 41))

    def check(out: str) -> None:
        rows = _rows(out, ["M", "a", "b", "residual", "fraction"])
        _row_keys(rows, "M", m_values)
        for row in rows:
            m = int(row["M"])
            a = _float(row["a"])
            _close(row["fraction"], 1.0 / a, f"fraction at M={m}", rtol=1e-11)
            if published and m in PUBLISHED_SLOPES:
                _expect(abs(a - PUBLISHED_SLOPES[m]) <= 6e-5, f"slope {a} at M={m}")
                b, resid = FIT_REFERENCE[m]
                _close(row["b"], b, f"intercept at M={m}")
                _expect(
                    math.isclose(_float(row["residual"]), resid, rel_tol=FLOAT_RTOL, abs_tol=1e-9),
                    f"residual {row['residual']} at M={m}",
                )

    return check


def check_dicke_n0(m_zeros: int, l_values: list[int]):
    """Each N0 must sit between two integers whose readable-route sums
    bracket 1, at exactly the linear interpolation of those sums."""

    def check(out: str) -> None:
        rows = _rows(out, ["M", "L", "N0"])
        _row_keys(rows, "L", l_values)
        for row in rows:
            _expect(_int(row["M"]) == m_zeros, f"M column {row['M']}")
            l = int(row["L"])
            x = _float(row["N0"])
            lo = int(x) - 1 if x == int(x) else int(math.floor(x))
            below = readable_sigma(lo, m_zeros, l) if lo > l else None
            above = readable_sigma(lo + 1, m_zeros, l)
            _expect(below is not None and below < 1 <= above, f"N0={row['N0']} at L={l} does not bracket 1")
            crossing = lo + (1 - below) / (above - below)
            _exact_float(row["N0"], crossing, f"N0 at L={l}")

    return check


def check_persistency_dicke(n_values: list[int], m_zeros: int):
    """max_traced must be an L with sum > 1 whose successor has sum <= 1."""

    def check(out: str) -> None:
        rows = _rows(out, ["N", "M", "max_traced", "persistency_lower_bound", "margin"])
        _row_keys(rows, "N", n_values)
        for row in rows:
            n = int(row["N"])
            t = _int(row["max_traced"])
            _expect(_int(row["M"]) == m_zeros, f"M column {row['M']}")
            _expect(_int(row["persistency_lower_bound"]) == t + 1, f"lower bound at N={n}")
            _expect(0 <= t <= max(n - 2, 0), f"max_traced {t} out of range at N={n}")
            if t:
                _expect(readable_sigma(n, m_zeros, t) > 1, f"sum at L={t} not above 1, N={n}")
            if t + 1 <= n - 2:
                _expect(readable_sigma(n, m_zeros, t + 1) <= 1, f"sum at L={t + 1} above 1, N={n}")
            margin_l = (t or 1) if n > 2 else 0
            _exact_float(row["margin"], readable_sigma(n, m_zeros, margin_l), f"margin at N={n}")

    return check


# --- GHZ frontiers ------------------------------------------------------------------


def makb_violates(n: int, m: int) -> bool:
    return 2 ** (m - 1) > math.comb(n, m) ** 2


@lru_cache(maxsize=None)
def alternating_permutations(n: int) -> int:
    """Number of alternating permutations of n elements, from
    2 A(k+1) = sum_j C(k, j) A(j) A(k-j) (k >= 1), A(0) = A(1) = 1."""
    if n < 2:
        return 1
    k = n - 1
    return sum(
        math.comb(k, j) * alternating_permutations(j) * alternating_permutations(k - j)
        for j in range(k + 1)
    ) // 2


def _gbi_ratio_times_pi(n: int, m: int) -> tuple[int, int]:
    """(2/pi) / C_m / C(n, m) times pi as an integer pair (num, den),
    with C_m = A(m) / m!."""
    return 2 * math.factorial(m), alternating_permutations(m) * math.comb(n, m)


def gbi_violates(n: int, m: int) -> bool:
    num, den = _gbi_ratio_times_pi(n, m)
    if num * PI_SCALE > (PI_LO_SCALED + 1) * den:
        return True
    if num * PI_SCALE < PI_LO_SCALED * den:
        return False
    raise CheckError(f"pi bracket cannot decide N={n}, M={m}")


def _log_margin(family: str, n: int, m: int) -> float:
    if family == "makb":
        return 0.5 * (m - 1) * math.log(2.0) - math.log(math.comb(n, m))
    num, den = _gbi_ratio_times_pi(n, m)
    return math.log(num) - math.log(den) - math.log(math.pi)


def check_ghz(family: str, n_values: list[int]):
    """The witness M must violate and M-1 must not.  Both families
    violate only for M >= N/2, where the condition grows with M, so that
    pair fixes the frontier."""
    violates = makb_violates if family == "makb" else gbi_violates

    def check(out: str) -> None:
        rows = _rows(out, ["N", "family", "max_traced", "witness_M", "margin"])
        _row_keys(rows, "N", n_values)
        for row in rows:
            n = int(row["N"])
            t = _int(row["max_traced"])
            m = _int(row["witness_M"])
            _expect(row["family"] == family, f"family column {row['family']}")
            if t:
                _expect(m == n - t, f"witness {m} != N - max_traced at N={n}")
                _expect(violates(n, m), f"M={m} does not violate at N={n}")
                _expect(m - 1 < 2 or not violates(n, m - 1), f"M={m - 1} also violates at N={n}")
            else:
                _expect(m == n - 1, f"witness {m} at N={n} with nothing traced")
                _expect(m < 2 or not violates(n, m), f"M={m} violates at N={n}")
            _close(row["margin"], math.exp(_log_margin(family, n, m)), f"margin at N={n}")

    return check


def _entropy(x: float) -> float:
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def check_gamma_crit(a_values: list[float]):
    """gamma must be the entropy root to the CLI's 1e-8 tolerance, and
    the residual must be H(gamma) - gamma log2(a) at the printed gamma."""

    def root(a: float) -> float:
        lo, hi = 0.5, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _entropy(mid) > mid * math.log2(a):
                lo = mid
            else:
                hi = mid
        return lo

    def check(out: str) -> None:
        rows = _rows(out, ["a", "gamma_crit", "residual"])
        _expect(len(rows) == len(a_values), f"{len(rows)} rows for {len(a_values)} bases")
        for row, a in zip(rows, a_values):
            _expect(row["a"] == fmt_float(a), f"base {row['a']}, expected {fmt_float(a)}")
            gamma = _float(row["gamma_crit"])
            _expect(abs(gamma - root(a)) <= 1e-8, f"gamma {gamma} at a={a}")
            residual = _entropy(gamma) - gamma * math.log2(a)
            _expect(
                abs(_float(row["residual"]) - residual) <= 1e-11,
                f"residual {row['residual']} at a={a}, expected {residual!r}",
            )

    return check


# --- the sign-guessing game ----------------------------------------------------------


def _parse_key(s: str) -> tuple[int, ...]:
    return tuple(int(t) for t in s.split(",")) if "," in s else tuple(int(ch) for ch in s)


def load_game(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot read game {path}: {exc}") from None


def check_game_file(path: str, name: str, n_parties: int, settings: int):
    def check(out: str) -> None:
        _expect(out == "", "make-game with --output printed to stdout")
        game = load_game(path)
        f = game["functional"]
        _expect(game["name"] == name, f"game name {game['name']}")
        _expect(f["n_parties"] == n_parties, f"{f['n_parties']} parties")
        _expect(f["settings_per_party"] == settings, f"{f['settings_per_party']} settings")
        _expect(len(game["observables"]) == n_parties, "observable count")
        _expect(f["settings_distribution"].keys() == f["coefficients"].keys(), "distribution keys")

    return check


def _analytic(game: dict) -> tuple[float, float | None]:
    """Quantum success of measure-and-broadcast play and, for two
    settings per party, the classical optimum by strategy enumeration."""
    f = game["functional"]
    n = f["n_parties"]
    state = game["state"]
    if state["kind"] == "ghz_mixture":
        v = 1.0 / math.comb(state["n_parties"], state["block_size"]) if state["block_size"] == n else 0.0
    else:
        v = float(state["v"])
    turns = [[o["turns"] for o in party] for party in game["observables"]]
    coeffs = {_parse_key(k): c for k, c in f["coefficients"].items()}
    total = sum(abs(Fraction(c)) for c in coeffs.values())
    quantum = sum(
        c * v * math.cos(sum(2.0 * math.pi * turns[i][s] for i, s in enumerate(key)))
        for key, c in coeffs.items()
    )
    classical = None
    if f["settings_per_party"] == 2:
        best = 0.0
        for strategy in range(4**n):
            answers = [((strategy >> (2 * i)) & 3) for i in range(n)]
            value = 0.0
            for key, c in coeffs.items():
                sign = 1
                for i, s in enumerate(key):
                    if (answers[i] >> s) & 1:
                        sign = -sign
                value += sign * c
            best = max(best, value)
        classical = 0.5 * (1.0 + best / float(total))
    return 0.5 * (1.0 + quantum / float(total)), classical


def check_simulate(path: str, trials: int, seed: int):
    """The success rate must be a count over ``trials`` within 5 standard
    errors of the analytic value, which is recomputed from the game file."""
    cache = {}

    def check(out: str) -> None:
        game = load_game(path)
        if "analytic" not in cache:
            cache["analytic"] = _analytic(game)
        analytic, classical = cache["analytic"]
        row = _single_row(
            out, ["game", "subset", "trials", "seed", "success", "stderr", "analytic", "classical_best"]
        )
        n = game["functional"]["n_parties"]
        _expect(row["game"] == game["name"], f"game {row['game']}")
        _expect(row["subset"] == "+".join(str(i) for i in range(n)), f"subset {row['subset']}")
        _expect(_int(row["trials"]) == trials, f"trials {row['trials']}")
        _expect(_int(row["seed"]) == seed, f"seed {row['seed']}")
        rate = _float(row["success"])
        wins = round(rate * trials)
        _expect(
            row["success"] == fmt_float(wins / trials),
            f"success {row['success']} is no count over {trials}",
        )
        rate = wins / trials
        stderr = math.sqrt(max(rate * (1.0 - rate), 1e-300) / trials)
        _expect(row["stderr"] == fmt_float(stderr), f"stderr {row['stderr']}, expected {fmt_float(stderr)}")
        _close(row["analytic"], analytic, "analytic success")
        _expect(abs(rate - analytic) <= 5 * stderr, f"success {rate} is more than 5 stderr from {analytic}")
        if classical is None:
            _expect(row["classical_best"] == "", f"classical_best {row['classical_best']}")
        else:
            _close(row["classical_best"], classical, "classical_best")

    return check


def check_feasibility(dist_path: str, n_total: int):
    """Re-verify the witness (A q = m, q >= 0) or the Farkas certificate
    (y A <= 0, y m > 0) in exact arithmetic."""

    def check(out: str) -> None:
        with open(dist_path, encoding="utf-8") as handle:
            raw = json.load(handle)
        dist = {tuple(int(ch) for ch in key): Fraction(value) for key, value in raw.items()}
        k = len(next(iter(dist)))
        marginal = [Fraction(0)] * (k + 1)
        for key, value in dist.items():
            marginal[sum(key)] = value
        a_mat = [
            [math.comb(n_total - k, j - i) if 0 <= j - i <= n_total - k else 0 for j in range(n_total + 1)]
            for i in range(k + 1)
        ]
        row = _single_row(out, ["k", "N", "feasible", "witness", "certificate", "reason"])
        _expect(_int(row["k"]) == k and _int(row["N"]) == n_total, "k/N columns")
        if row["feasible"] == "true":
            q = [_fraction(t) for t in row["witness"].split(";")]
            _expect(len(q) == n_total + 1 and all(x >= 0 for x in q), "witness shape or sign")
            for i in range(k + 1):
                _expect(sum(a * x for a, x in zip(a_mat[i], q)) == marginal[i], f"witness fails row {i}")
        else:
            _expect(row["feasible"] == "false", f"feasible column {row['feasible']}")
            y = [_fraction(t) for t in row["certificate"].split(";")]
            _expect(len(y) == k + 1, "certificate length")
            for j in range(n_total + 1):
                _expect(sum(y[i] * a_mat[i][j] for i in range(k + 1)) <= 0, f"y.A > 0 in column {j}")
            _expect(sum(yi * mi for yi, mi in zip(y, marginal)) > 0, "y.m <= 0")

    return check

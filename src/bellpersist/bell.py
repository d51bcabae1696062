"""Two-setting Bell functionals and their classical/quantum values.

Covers the Mermin-type (MAKB) family, in closed form, and the exact
classical constants of the geometric (continuum-settings, equatorial)
inequality together with its quantum value 2/pi.  The complete
sign-function family of full-correlation inequalities, which the tests
use to confirm that a correlation sum above 1 (:func:`dicke.sym_sigma`)
gives a violation, lives in ``tests/oracles.py``.

Local-realistic maxima come exactly from a Walsh-Hadamard transform, and
GHZ values under equatorial settings are sums of cosines.  Functionals
are frozen records, their keys and values checked once, when built.
"""

from __future__ import annotations

import copy
import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import Collection, Mapping, Sequence, Union

from . import qstate
from ._record import frozen
from .errors import CapabilityError, check_count, check_float, check_real

LR_MAX_PARTY_CAP = 16
_BINARY_DIGITS = bytes.maketrans(b"\0\1", b"01")

Number = Union[int, float, Fraction]
ObservablePair = tuple["qstate.SiteOperator", "qstate.SiteOperator"]


def _key_string(key: tuple[int, ...], settings_per_party: int) -> str:
    """The one JSON spelling of a settings tuple; commas above ten settings."""
    return ("" if settings_per_party <= 10 else ",").join(map(str, key))


def _per_object(fn, values: Collection) -> map:
    """``map(fn, values)``, calling ``fn`` once per distinct object, told
    apart by ``id`` (``values``, iterated twice, keeps each alive): no value
    is hashed, a Fraction slowly, and 0.0 and -0.0, or 1 and 1.0, stay apart."""
    done = {i: fn(v) for i, v in dict(zip(map(id, values), values)).items()}
    return map(done.__getitem__, map(id, values))


class _Pairs:
    """Parsed keys beside a table's values, read as a mapping's ``items()``
    and ``values()``, each pass anew: :class:`BellFunctional` checks them
    into the one dict it keeps, so a file's table is built once."""

    def __init__(self, keys: list, values: Collection):
        self._keys, self._values = keys, values

    def __iter__(self):
        return zip(self._keys, self._values)

    def items(self) -> "_Pairs":
        return self

    def values(self) -> Collection:
        return self._values


@frozen
class BellFunctional:
    """Linear functional over full correlators of a two-(or more-)setting
    Bell scenario.

    ``coefficients`` maps settings tuples (one entry per party, each in
    ``range(settings_per_party)``) to nonzero real weights.  A functional
    built here carries no settings distribution; :meth:`with_game_distribution`
    attaches the one a game uses, P(s) = |g(s)| / sum |g|.  Derived from
    the fields, it is no field itself, so equality does not compare it.
    It is held as one share per distinct |g|, not key by key:
    ``coefficients`` is the one table with an entry per settings tuple.
    """

    n_parties: int
    coefficients: Mapping[tuple[int, ...], Number]
    settings_per_party: int = 2
    # no field: with_game_distribution shadows it by {(float?, |g(s)|): P(s)}
    _shares = None

    def __post_init__(self):
        """Whole-table passes accept finite plain int, float or Fraction
        values and, on the nonzero entries, keys of ``n_parties`` plain
        ints in range.  Else each entry is checked in turn, value before
        key and zeros dropped unseen, which converts numpy integers and
        other Real types and words the first refusal.  Either way the
        entries are copied into a new dict, read through ``items()`` and
        ``values()`` alone; :meth:`from_json` passes a :class:`_Pairs`,
        so that dict is the one a file's table is built into."""
        object.__setattr__(self, "n_parties", check_count(self.n_parties, "party count", 1))
        spp = check_count(self.settings_per_party, "settings count", 2)
        object.__setattr__(self, "settings_per_party", spp)
        items, values, checked = self.coefficients.items(), self.coefficients.values(), None
        # NaN is the one value unequal to itself
        if (types := set(map(type, values))) <= {int, float, Fraction} and (float not in types or (
            not {math.inf, -math.inf} & (d := set(values)) and all(map(operator.eq, d, d))
        )):
            checked = dict(itertools.compress(items, values))
            keys, flat = checked.keys(), itertools.chain.from_iterable
            if not (
                set(map(type, keys)) <= {tuple} and set(map(len, keys)) <= {self.n_parties}
                and set(map(type, flat(keys))) <= {int}
                and all(map(range(spp).__contains__, set(flat(keys))))
            ):
                checked = None
        if checked is None:
            checked = {self._check_key(k): v for k, v in items if check_real(v, "coefficient") != 0}
        object.__setattr__(self, "coefficients", checked)

    def _check_key(self, key: tuple[int, ...]) -> tuple[int, ...]:
        key = tuple(key)
        if len(key) != self.n_parties:
            raise ValueError(f"settings tuple {key} has wrong arity")
        for s in key:
            if type(s) is not int:
                # other integer types convert; bools and non-integral
                # settings raise rather than truncate
                key = tuple(check_count(s, "setting") for s in key)
                break
        for s in key:
            if not 0 <= s < self.settings_per_party:
                raise ValueError(f"settings tuple {key} out of range")
        return key

    def _numerators(self) -> tuple[list[int], int]:
        """Each c written as n / D over one common denominator D.

        A float's ``as_integer_ratio`` has a power-of-two denominator, so
        for float coefficients D is the largest of them; the numerators
        follow the order of ``coefficients``.  Each distinct int or float
        is split once, a Fraction (slow to hash) or other Real entry by
        entry; each distinct ratio is scaled once, in plain ints.
        """
        ratios = values = self.coefficients.values()
        if set(map(type, values)) <= {int, float}:
            ratios = {c: c.as_integer_ratio() for c in set(values)}
        else:
            plain = (float, int, Fraction)
            values = [(c if isinstance(c, plain) else Fraction(c)).as_integer_ratio() for c in values]
            ratios = {r: tuple(map(int, r)) for r in set(values)}
        common = math.lcm(*{d for _, d in ratios.values()})
        scaled = {c: p * (common // d) for c, (p, d) in ratios.items()}
        return list(map(scaled.__getitem__, values)), common

    def abs_total(self) -> Fraction:
        """sum |c| over the coefficients, exactly: T / D from one integer
        sum T of the |numerators| of :meth:`_numerators`."""
        numerators, common = self._numerators()
        return Fraction(sum(map(abs, numerators)), common)

    def with_game_distribution(self) -> "BellFunctional":
        """The functional with P(s) = |g(s)| / sum |g| attached: itself when
        it carries a distribution, which only this method attaches, else a
        copy sharing the checked coefficients.

        With |g(s)| = n(s) / D and sum |g| = T / D, P(s) = n(s) / T.  For a
        float coefficient P(s) is the float ``n(s) / T``: int/int true
        division is correctly rounded, so it equals ``float(Fraction(|g(s)|)
        / abs_total())`` bit for bit.  Any other coefficient gets the exact
        ``Fraction(n(s), T)``.  Only these shares are recorded, one per
        distinct pair of n(s) and float or not, each divided once; no table
        with an entry per key is kept (see :attr:`settings_distribution`).
        A sum |g| past the largest float raises ValueError: a game's
        success probabilities divide by it.
        """
        if self._shares is not None:
            return self
        numerators, common = self._numerators()
        total = sum(map(abs, numerators))
        if Fraction(total, common) > sys.float_info.max:
            raise ValueError("game coefficients' sum |g| exceeds the largest float")
        game = copy.copy(self)
        kinds = map(isinstance, self.coefficients.values(), itertools.repeat(float))
        pairs = set(zip(kinds, map(abs, numerators)))
        shares = {(f, Fraction(n, common)): n / total if f else Fraction(n, total) for f, n in pairs}
        object.__setattr__(game, "_shares", shares)
        return game

    def _entry_shares(self) -> map:
        """Each entry's P(s), the one share object of its pair, in the order
        of ``coefficients``: looked up once per distinct coefficient object
        (:func:`_per_object`) by float or not and |g(s)| made exact."""
        def share(c: Number) -> Number:
            return self._shares[isinstance(c, float), abs(Fraction(c))]

        return _per_object(share, self.coefficients.values())

    @property
    def settings_distribution(self) -> dict | None:
        """P(s) key by key, in the order of ``coefficients``: None without
        :meth:`with_game_distribution`, else a dict built on each read from
        the shares, so every key of one pair maps to one share object."""
        if self._shares is None:
            return None
        return dict(zip(self.coefficients, self._entry_shares()))

    def _json_columns(self) -> tuple[list[str], list[list]]:
        """The keys spelled as :func:`_key_string` writes them, in sorted
        order, and in the same order the coefficients and, when attached,
        each P(s).  Each distinct setting is spelled once and the texts are
        sorted once: up to ten settings per party text order is tuple order,
        above ten it is not ("10,0" sorts before "2,0"), and a file is
        written in text order."""
        spell = {s: str(s) for s in set(itertools.chain.from_iterable(self.coefficients))}
        sep = "" if self.settings_per_party <= 10 else ","
        texts = list(map(sep.join, map(map, itertools.repeat(spell.__getitem__), self.coefficients)))
        columns = [list(self.coefficients.values())]
        if self._shares is not None:
            columns.append(list(self._entry_shares()))
        order = sorted(range(len(texts)), key=texts.__getitem__)
        return [texts[i] for i in order], [[column[i] for i in order] for column in columns]

    def to_json(self) -> dict:
        """The functional as a JSON object: the tables of :meth:`_json_columns`,
        each distinct value object made a float once (:func:`_per_object`)."""
        texts, columns = self._json_columns()
        payload = {"n_parties": self.n_parties, "settings_per_party": self.settings_per_party}
        for name, column in zip(("coefficients", "settings_distribution"), columns):
            payload[name] = dict(zip(texts, _per_object(float, column)))
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "BellFunctional":
        """Inverse of :meth:`to_json`; a key not spelled as :func:`_key_string`
        writes it raises ValueError naming the key, so no two keys name one
        tuple.

        A ``settings_distribution`` in the payload must name the nonzero
        coefficients' keys and give each P(s) of
        :meth:`with_game_distribution` to within 1e-12 relative; the
        result then carries the derived shares, not the file's numbers.
        Keys and float probabilities pass in whole-table passes that only
        accept: the file's P(s) is compared once per distinct pair of file
        value and derived share, and no derived table is built.  Else the
        key-by-key parse and check word each refusal.
        """
        spp = check_count(payload.get("settings_per_party", 2), "settings count")
        coefficients = payload["coefficients"]
        # keys parse by lookups in {str(s): s for s in range(spp)}, cut to
        # the parts the keys use so a large spp costs nothing
        commas = spp > 10
        parts = set(",".join(coefficients).split(",") if commas else "".join(coefficients))
        table = {t: int(t) for t in parts if t.isdecimal() and str(int(t)) == t and int(t) < spp}
        texts = map(str.split, coefficients, itertools.repeat(",")) if commas else coefficients
        try:
            keys = list(map(tuple, map(map, itertools.repeat(table.__getitem__), texts)))
        except KeyError:  # a part misses: the general parse, key by key
            keys = []
            for text in coefficients:
                key = tuple(map(table.get, text.split(",") if commas else text))
                if None in key:
                    try:
                        key = tuple(map(int, text.split(",") if "," in text else text))
                    except ValueError:
                        raise ValueError(f"settings key {text!r} is not spelled in digits") from None
                    if (spelled := _key_string(key, spp)) != text:
                        raise ValueError(f"settings key {text!r} must be spelled {spelled!r}")
                keys.append(key)
        f = cls(payload["n_parties"], _Pairs(keys, coefficients.values()), spp)
        dist = payload.get("settings_distribution")
        if dist is None:
            return f
        f = f.with_game_distribution()
        # the file's P(s) in the order of f.coefficients beside the derived
        # shares, checked once per distinct pair; keys are distinct strings,
        # so equal counts and every key found make the key sets equal
        given = map(dist.get, itertools.compress(coefficients, coefficients.values()))
        if len(dist) == len(f.coefficients) and set(map(type, dist.values())) == {float} and all(
            v is not None and abs(v - float(p)) <= 1e-12 * float(p)
            for v, p in set(zip(given, f._entry_shares()))
        ):
            return f
        derived = f.settings_distribution
        parsed = dict(zip(coefficients, keys))
        if len(dist) != len(derived) or not all(
            (p := derived.get(parsed.get(text))) is not None
            and abs(check_float(value, "probability") - float(p)) <= 1e-12 * float(p)
            for text, value in dist.items()
        ):
            raise ValueError("settings probabilities are not |coefficient| / sum |coefficients|")
        return f


def makb(n: int) -> BellFunctional:
    """Mermin-type functional on ``n`` parties, in closed form.

    The halving recursion starts from g_1 = A (coefficient 1 on the
    unprimed setting, 0 on the primed one) and adds a party by
    g_{n+1}(s, 0) = (g_n(s) + g_n(s')) / 2 and
    g_{n+1}(s, 1) = (g_n(s) - g_n(s')) / 2, with s' the tuple s with primed
    and unprimed settings exchanged; on two parties this is
    (A1(A2 + A2') + A1'(A2 - A2'))/2.  With k the count of primed settings
    in s and z = 1 + i, its solution is

        g_n(s) = Re[z^(n-1) (-i)^k] / 2^(n-1).

    By induction on n: at n = 1, Re 1 = 1 and Re(-i) = 0.  Step: s' has
    n - k primed settings and Re w = Re conj(w), so 2^(n-1) g_n(s') =
    Re[conj(z)^(n-1) i^n (-i)^k] = Re[i z^(n-1) (-i)^k], as conj(z) i = z.
    Then 2^n g_{n+1}(s, 0) = Re[(1 + i) z^(n-1) (-i)^k] = Re[z^n (-i)^k]
    and 2^n g_{n+1}(s, 1) = Re[(1 - i) z^(n-1) (-i)^k] = Re[z^n (-i)^(k+1)],
    as 1 - i = -i z; (s, 0) has k primed settings and (s, 1) has k + 1.

    z^(n-1) = a + bi is formed in Gaussian integers, and Re[(a + bi)(-i)^k]
    is a, b, -a, -b for k = 0, 1, 2, 3 mod 4, so every coefficient is an
    exact dyadic rational, +-2^(-floor(n/2)) or 0; the zeros (half of the
    tuples for odd n) are left out.  Keys run in lexicographic order.
    """
    n = check_count(n, "party count", 2, 16)
    a, b = 1, 0
    for _ in range(n - 1):
        a, b = a - b, a + b  # (a + bi)(1 + i)
    by_count = [Fraction(c, 1 << (n - 1)) for c in (a, b, -a, -b)]
    # the i-th tuple in lexicographic order spells i in binary
    keys = enumerate(itertools.product((0, 1), repeat=n))
    return BellFunctional(n, {key: c for i, key in keys if (c := by_count[i.bit_count() % 4])})


def makb_xy_settings(n: int) -> tuple[float, float]:
    """Symmetric equatorial settings (in turns) saturating the MAKB ratio
    on the phase-0 GHZ state.

    Returns (alpha, alpha') = (1/(8n) - 1/8, (2n+1)/(8n) - 1/8): the
    settings that saturate on the GHZ state of relative phase n*pi/4,
    turned by the local z rotation that takes that state to phase 0.
    """
    n = check_count(n, "party count", 1)
    return 1.0 / (8 * n) - 0.125, (2 * n + 1) / (8 * n) - 0.125


def lr_max(f: BellFunctional) -> float:
    """Maximum over deterministic local strategies, exact up to the one
    rounding of the returned float (int / int division).

    Party i's outcome pair (a(0), a(1)) is e_i (1, (-1)^t_i), one pair per
    sign e_i and bit t_i, so a strategy profile scores (prod_i e_i) G(t),
    G(t) = sum_s g(s) (-1)^(t . s) the Walsh-Hadamard transform of g.  The
    signs reach both +-G(t), so the maximum is max_t |G(t)|; for one party,
    |g(0)| + |g(1)|.  G runs on integer numerators over one denominator.
    """
    if f.settings_per_party != 2:
        raise CapabilityError("LR maxima implemented for two settings only")
    n = f.n_parties
    if n > LR_MAX_PARTY_CAP:
        raise CapabilityError(f"LR maxima capped at {LR_MAX_PARTY_CAP} parties")
    numerators, common = f._numerators()
    table = [0] * (1 << n)
    for key, p in zip(f.coefficients, numerators):  # settings are index bits
        table[int(bytes(key).translate(_BINARY_DIGITS), 2)] = p
    # each stage transforms the lowest index bit and moves it to the top
    for _ in range(n):
        even, odd = table[::2], table[1::2]
        table = [*map(operator.add, even, odd), *map(operator.sub, even, odd)]
    return max(map(abs, table)) / common


def ghz_value(f: BellFunctional, turns: Sequence[Sequence[float]]) -> float:
    """Quantum mean value on (|0..0> + |1..1>)/sqrt(2) when party i measures
    cos(2 pi a) sx + sin(2 pi a) sy, a = ``turns[i][s]``, at setting s: the
    sum of g(s) times the GHZ mean cos(sum of angles) of each product, the
    angles of a row added left to right in radians, as ``qccr`` plays them.
    """
    if len(turns) != f.n_parties:
        raise ValueError(f"need settings for {f.n_parties} parties, got {len(turns)}")
    angles = [[2.0 * math.pi * a for a in row] for row in turns]
    return math.fsum(
        float(c) * math.cos(sum(row[s] for row, s in zip(angles, key)))
        for key, c in f.coefficients.items()
    )


def quantum_value(
    f: BellFunctional,
    state: qstate.DenseState,
    observables: Sequence[ObservablePair],
) -> float:
    """Quantum mean value: sum of coefficients times dense correlators.

    ``observables[i]`` holds party i's operators, indexed by the setting.
    """
    if len(observables) != f.n_parties:
        raise ValueError(
            f"need observable choices for {f.n_parties} parties, got {len(observables)}"
        )
    if state.n_qubits != f.n_parties:
        raise ValueError(
            f"state has {state.n_qubits} qubits, functional has {f.n_parties} parties"
        )
    total = 0.0
    for key, value in f.coefficients.items():
        ops = [observables[i][s] for i, s in enumerate(key)]
        total += float(value) * qstate.expectation(state, ops)
    return total


# --- geometric-inequality constants ---------------------------------------


_zigzag_cache: list[int] = [1]
_zigzag_row: list[int] = [1]


def _zigzag_number(n: int) -> int:
    """A_n, the count of alternating permutations of n elements (1, 1, 1,
    2, 5, 16, 61, ...), by the boustrophedon recurrence, cached incrementally."""
    global _zigzag_row
    while len(_zigzag_cache) <= n:
        size = len(_zigzag_cache)
        new = [0]
        for k in range(size):
            new.append(new[-1] + _zigzag_row[size - 1 - k])
        _zigzag_row = new
        _zigzag_cache.append(new[-1])
    return _zigzag_cache[n]


def gbi_quantum(n: int) -> float:
    """Quantum side of the equatorial geometric inequality: the average
    of |cos(2 pi sum_i alpha_i)| over independent uniform angles, which
    is 2/pi for every party count."""
    check_count(n, "party count", 2)
    return 2.0 / math.pi


def gbi_classical(n: int) -> Fraction:
    """Optimal classical value of the geometric inequality, exactly.

    Equals the number of alternating permutations of n elements divided
    by n!; :func:`gbi_classical_by_integration` reaches it independently,
    by truncated means of the Irwin-Hall law.
    """
    n = check_count(n, "party count", 2)
    return Fraction(_zigzag_number(n), math.factorial(n))


def gbi_qcr(n: int) -> float:
    """Quantum-to-classical ratio (2/pi) / C_n of the geometric inequality."""
    return float(gbi_qcr_coefficient(n)) / math.pi


def gbi_qcr_coefficient(n: int) -> Fraction:
    """Exact rational r with quantum-to-classical ratio equal to r / pi."""
    c = gbi_classical(n)
    return Fraction(2, 1) / c


# sign(cos 2 pi t) on the open quarter turn (r/4, (r+1)/4), by r mod 4
_QUARTER_SIGNS = (1, -1, -1, 1)


def gbi_classical_by_integration(n: int) -> Fraction:
    """Classical optimum from its defining sign integral, exactly, by
    truncated means of the Irwin-Hall law.

    The optimum is the average of s(sum_i alpha_i), s(t) = sign(cos 2 pi t),
    with the first angle uniform on [w - 1/2, w], w = (2 - n)/4 = q/4, and
    the other m = n - 1 uniform on [0, 1/2]; X is the sum of those m.
    Averaging over the first angle gives C_n = E h(X) with h(x) =
    2 int_{w-1/2}^{w} s(a + x) da.  As s(t - 1/2) = -s(t), h'(x) = 4 s(x + w)
    off the jumps of s, and s = S(r) on each quarter turn (r/4, (r+1)/4).
    So h is continuous and piecewise linear: h(0) = (S(q-2) + S(q-1)) / 2,
    the slope on (0, 1/4) is 4 S(q), and at x = k/4 it changes by
    4 (S(q+k) - S(q+k-1)): -8 where x + w = 1/4, +8 where x + w = 3/4
    (mod 1), else 0.  As X lies in [0, m/2] with E X = m/4,

        C_n = h(0) + S(q) m + sum_{k=1}^{2m-1} 4 (S(q+k) - S(q+k-1)) E[(X - k/4)_+].

    X = Y/2 with Y Irwin-Hall (m uniforms on [0, 1]); integrating its CDF
    sum_j (-1)^j C(m, j) (y - j)_+^m / m! gives E[(c - Y)_+] =
    sum_j (-1)^j C(m, j) (c - j)_+^(m+1) / (m+1)!, and Y -> m - Y gives

        E[(X - k/4)_+] = sum_j (-1)^j C(m, j) (2m - k - 2j)_+^(m+1) / (2^(m+2) (m+1)!),

    integers over one denominator.  The recurrence of :func:`gbi_classical`
    is not used.
    """
    n = check_count(n, "party count", 2)
    m = n - 1
    q = 1 - m

    def sign(r: int) -> int:
        return _QUARTER_SIGNS[r % 4]

    breaks = 0  # sum_k (S(q+k) - S(q+k-1)) times the integer sum over j
    for k in range(1, 2 * m):
        if jump := sign(q + k) - sign(q + k - 1):
            breaks += jump * sum(
                (-1) ** j * math.comb(m, j) * (2 * m - k - 2 * j) ** (m + 1)
                for j in range((2 * m - k + 1) // 2)
            )
    head = Fraction(sign(q - 2) + sign(q - 1), 2) + sign(q) * m
    return head + Fraction(breaks, math.factorial(m + 1) << m)

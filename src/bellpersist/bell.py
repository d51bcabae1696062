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
import numbers
import operator
import sys
from collections.abc import ItemsView, Iterable, Mapping, ValuesView
from fractions import Fraction
from typing import Collection, Sequence, Union

from . import qstate
from ._record import frozen
from .errors import CapabilityError, check_count, check_float, check_real

LR_MAX_PARTY_CAP = 16
_DIGITS = b"0123456789"
# the settings 0..9 as their digit characters, and back
_DIGIT_TEXTS = bytes.maketrans(bytes(range(10)), _DIGITS)
_DIGIT_VALUES = bytes.maketrans(_DIGITS, bytes(range(10)))

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


def _split(c: Number) -> tuple[int, int]:
    """``c`` as numerator and denominator in plain ints: an int's, float's or
    Fraction's own ratio, another Rational's through Fraction, and any other
    Real's (such as a numpy float32, which construction checks to equal its
    float) through ``float``."""
    if isinstance(c, (float, int, Fraction)):
        ratio = c.as_integer_ratio()
    else:
        ratio = (Fraction(c) if isinstance(c, numbers.Rational) else float(c)).as_integer_ratio()
    return tuple(map(int, ratio))


def _check_coefficient(value) -> Number:
    """:func:`check_real`'s ``value``, which is rational, a float or a Real
    equal to its float, so that :func:`_split` takes it exactly."""
    check_real(value, "coefficient")
    if not isinstance(value, (float, numbers.Rational)) and float(value) != value:
        raise ValueError(f"coefficient {value!r} is neither rational nor a float")
    return value


def _width(settings_per_party: int) -> int:
    """Bytes per setting in a packed key: the byte length of the largest."""
    return ((settings_per_party - 1).bit_length() + 7) // 8


def _packed(settings: Iterable[int], width: int) -> bytes:
    """Plain int settings, each below 256 ** ``width``, each written
    big-endian in ``width`` bytes, one after the other."""
    if width == 1:
        return bytes(settings)
    return b"".join(map(int.to_bytes, settings, itertools.repeat(width), itertools.repeat("big")))


def _cuts(size: int, step: int) -> map:
    """Slices cutting ``size`` items into consecutive runs of ``step``."""
    return map(slice, range(0, size, step), range(step, size + step, step))


class _Table(Mapping):
    """A read-only mapping from settings tuples to values, held as two
    objects whatever its size, both in insertion order.

    The keys are one bytes buffer: each setting is written big-endian in
    ``width`` bytes, a key is its ``n_parties`` settings one after the
    other, and the keys follow each other.  As every key has the same
    length and each setting the same width, byte order of two keys is
    tuple order.  The values are one list of the objects given.  A key
    tuple is built only as it is iterated; lookup by tuple builds a
    position index on first use.  ``len``, ``==`` and ``repr`` are the
    dict's of the same entries.  The caller hands distinct keys.
    """

    __slots__ = ("_keys", "_values", "_n", "_width", "_index")

    def __init__(self, keys: bytes, values: list, n_parties: int, width: int):
        self._keys, self._values, self._n, self._width = keys, values, n_parties, width
        self._index = None

    @classmethod
    def product(cls, values: list, n_parties: int, settings_per_party: int) -> "_Table":
        """``values[i]`` at the i-th tuple of ``itertools.product(range(
        settings_per_party), repeat=n_parties)``, its false entries (zero
        or None) left out."""
        tuples = itertools.product(range(settings_per_party), repeat=n_parties)
        width = _width(settings_per_party)
        keys = _packed(itertools.chain.from_iterable(itertools.compress(tuples, values)), width)
        return cls(keys, list(itertools.compress(values, values)), n_parties, width)

    def _settings(self) -> Iterable[int]:
        """Every key's settings in turn, as plain ints."""
        if self._width == 1:
            return iter(self._keys)
        chunks = map(self._keys.__getitem__, _cuts(len(self._keys), self._width))
        return map(int.from_bytes, chunks, itertools.repeat("big"))

    def _nonzero(self) -> "_Table":
        """The table without its zero entries: itself when it has none."""
        if all(self._values):
            return self
        records = map(self._keys.__getitem__, _cuts(len(self._keys), self._n * self._width))
        keys = b"".join(itertools.compress(records, self._values))
        return _Table(keys, list(itertools.compress(self._values, self._values)), self._n, self._width)

    def __iter__(self):
        return zip(*[self._settings()] * self._n)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, key):
        if self._index is None:
            self._index = dict(zip(self, range(len(self._values))))
        return self._values[self._index[key]]

    def items(self) -> "_Items":
        return _Items(self)

    def values(self) -> "_Values":
        return _Values(self)

    def __eq__(self, other):
        if isinstance(other, _Table) and (self._keys, self._n, self._width) == (
            other._keys, other._n, other._width
        ):
            return self._values == other._values
        return dict(self.items()) == other if isinstance(other, Mapping) else NotImplemented

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _Items(ItemsView):
    """A :class:`_Table`'s entries, zipped from its keys and value list."""

    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping._values)

    def __reversed__(self):
        return reversed(list(self))


class _Values(ValuesView):
    """A :class:`_Table`'s value list, read only."""

    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping._values)


def _spelled_settings(parts: set[str], settings_per_party: int) -> dict[str, int]:
    """{str(s): s for s in range(settings_per_party)}, cut to ``parts``, so
    a large settings count costs nothing."""
    spp = settings_per_party
    return {t: int(t) for t in parts if t.isdecimal() and str(int(t)) == t and int(t) < spp}


def _packed_texts(texts: Collection[str], n_parties, settings_per_party: int) -> bytes | None:
    """The keys as :class:`_Table` packs them, read in whole-buffer passes
    from their texts, if each is :func:`_key_string`'s spelling of
    ``n_parties`` settings; else None.  Up to ten settings per party the
    texts are joined, encoded and translated digit by digit, after a check
    of every length and that every byte is a digit; above ten each distinct
    comma-separated part is read once.  :class:`BellFunctional` checks the
    range on the packed bytes."""
    spp = settings_per_party
    if type(n_parties) is not int:
        return None
    if spp <= 10:
        if not set(map(len, texts)) <= {n_parties} or not (text := "".join(texts)).isascii():
            return None
        raw = text.encode()
        return None if raw.translate(None, _DIGITS) else raw.translate(_DIGIT_VALUES)
    if not set(map(str.count, texts, itertools.repeat(","))) <= {n_parties - 1}:
        return None
    parts = ",".join(texts).split(",")
    settings = _spelled_settings(set(parts), spp)
    try:
        return _packed(map(settings.__getitem__, parts), _width(spp))
    except KeyError:
        return None


def _parsed_keys(texts: Collection[str], settings_per_party: int) -> list[tuple[int, ...]]:
    """Each text's settings tuple, parsed key by key; a text no int parse
    reads, or one not spelled as :func:`_key_string` writes it, raises
    ValueError naming it.  The tuples are not checked against the arity or
    the settings count."""
    spp, commas = settings_per_party, settings_per_party > 10
    table = _spelled_settings(set(",".join(texts).split(",") if commas else "".join(texts)), spp)
    keys = []
    for text in texts:
        key = tuple(map(table.get, text.split(",") if commas else text))
        if None in key:
            try:
                key = tuple(map(int, text.split(",") if "," in text else text))
            except ValueError:
                raise ValueError(f"settings key {text!r} is not spelled in digits") from None
            if (spelled := _key_string(key, spp)) != text:
                raise ValueError(f"settings key {text!r} must be spelled {spelled!r}")
        keys.append(key)
    return keys


@frozen
class BellFunctional:
    """Linear functional over full correlators of a two-(or more-)setting
    Bell scenario.

    ``coefficients`` maps settings tuples (one entry per party, each in
    ``range(settings_per_party)``) to nonzero real weights.  It is kept as
    a read-only :class:`_Table`: the keys packed into one bytes buffer,
    each setting big-endian in the byte length of ``settings_per_party -
    1`` (one byte up to 256 settings), so byte order of keys is tuple
    order, and the values in one list, both in the order given.  A
    functional built here carries no settings distribution;
    :meth:`with_game_distribution` attaches the one a game uses, P(s) =
    |g(s)| / sum |g|.  Derived from the fields, it is no field itself, so
    equality does not compare it.  It is held as one share per distinct
    |g|, not key by key.
    """

    n_parties: int
    coefficients: Mapping[tuple[int, ...], Number]
    settings_per_party: int = 2
    # no field: with_game_distribution shadows it by {(float?, |g(s)|): P(s)}
    _shares = None

    def __post_init__(self):
        """Whole-table passes accept finite plain int, float or Fraction
        values and, on the nonzero entries, keys of ``n_parties`` plain
        ints in range; a :class:`_Table` packed at this functional's
        layout has its range checked on the buffer, and is kept as it is
        when no entry is zero.  Else each entry is checked in turn, value
        before key and zeros dropped unseen, which converts numpy integers
        and other Real types and words the first refusal.  Either way the
        entries are packed into a :class:`_Table`."""
        n = check_count(self.n_parties, "party count", 1)
        object.__setattr__(self, "n_parties", n)
        spp = check_count(self.settings_per_party, "settings count", 2)
        object.__setattr__(self, "settings_per_party", spp)
        table, width, checked = self.coefficients, _width(spp), None
        values, flat = table.values(), itertools.chain.from_iterable
        # NaN is the one value unequal to itself
        if (types := set(map(type, values))) <= {int, float, Fraction} and (float not in types or (
            not {math.inf, -math.inf} & (d := set(values)) and all(map(operator.eq, d, d))
        )):
            if isinstance(table, _Table) and (table._n, table._width) == (n, width):
                checked = table._nonzero()
                if max(checked._settings(), default=0) >= spp:
                    checked = None
            else:
                kept = dict(itertools.compress(table.items(), values))
                keys = kept.keys()
                if (
                    set(map(type, keys)) <= {tuple} and set(map(len, keys)) <= {n}
                    and set(map(type, flat(keys))) <= {int}
                    and all(map(range(spp).__contains__, set(flat(keys))))
                ):
                    checked = _Table(_packed(flat(keys), width), list(kept.values()), n, width)
        if checked is None:
            kept = {self._check_key(k): v for k, v in table.items() if _check_coefficient(v) != 0}
            checked = _Table(_packed(flat(kept), width), list(kept.values()), n, width)
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
        is split once, any other value (:func:`_split`) entry by entry;
        each distinct ratio is scaled once, in plain ints.
        """
        ratios = values = self.coefficients.values()
        if set(map(type, values)) <= {int, float}:
            ratios = {c: c.as_integer_ratio() for c in set(values)}
        else:
            values = list(map(_split, values))
            ratios = {r: r for r in set(values)}
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
            return self._shares[isinstance(c, float), abs(Fraction(*_split(c)))]

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
        each P(s).  The keys are spelled from the packed buffer, up to ten
        settings per party by one translation of its bytes to digits, above
        ten with each distinct setting spelled once; the texts are sorted
        once: up to ten settings per party text order is tuple order, above
        ten it is not ("10,0" sorts before "2,0"), and a file is written in
        text order."""
        table, n = self.coefficients, self.n_parties
        if self.settings_per_party <= 10:
            text = table._keys.translate(_DIGIT_TEXTS).decode()
            texts = list(map(text.__getitem__, _cuts(len(text), n)))
        else:
            spell = {s: str(s) for s in set(table._settings())}
            texts = list(map(",".join, zip(*[map(spell.__getitem__, table._settings())] * n)))
        columns = [list(table.values())]
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

        Keys spelled so and of the right arity are packed in whole-buffer
        passes (:func:`_packed_texts`) into the table the functional keeps,
        which range-checks the packed bytes; else the key-by-key parse
        (:func:`_parsed_keys`) and the entry-by-entry check word each
        refusal.  A
        ``settings_distribution`` in the payload must name the nonzero
        coefficients' keys and give each P(s) of
        :meth:`with_game_distribution` to within 1e-12 relative; the
        result then carries the derived shares, not the file's numbers.
        Float probabilities pass in a whole-table pass that only accepts:
        the file's P(s) is compared once per distinct pair of file value
        and derived share, and no derived table is built.  Else they are
        checked key by key, against the shares keyed by key text.
        """
        spp = check_count(payload.get("settings_per_party", 2), "settings count")
        coefficients, n = payload["coefficients"], payload.get("n_parties")
        keys = _packed_texts(coefficients, n, spp)
        if keys is None:
            table = dict(zip(_parsed_keys(coefficients, spp), coefficients.values()))
        else:
            table = _Table(keys, list(coefficients.values()), n, _width(spp))
        f = cls(payload["n_parties"], table, spp)
        dist = payload.get("settings_distribution")
        if dist is None:
            return f
        f = f.with_game_distribution()
        # the file's P(s) in the order of f.coefficients beside the derived
        # shares, checked once per distinct pair; keys are distinct strings,
        # so equal counts and every key found make the key sets equal
        texts = list(itertools.compress(coefficients, coefficients.values()))
        given = map(dist.get, texts)
        if len(dist) == len(f.coefficients) and set(map(type, dist.values())) == {float} and all(
            v is not None and abs(v - float(p)) <= 1e-12 * float(p)
            for v, p in set(zip(given, f._entry_shares()))
        ):
            return f
        derived = dict(zip(texts, f._entry_shares()))
        if len(dist) != len(derived) or not all(
            (p := derived.get(text)) is not None
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
    values = [by_count[i.bit_count() % 4] for i in range(1 << n)]
    return BellFunctional(n, _Table.product(values, n, 2))


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
    # settings are index bits: each packed key, spelled in binary digits,
    # is its index
    bits = f.coefficients._keys.translate(_DIGIT_TEXTS)
    for cut, p in zip(_cuts(len(bits), n), numerators):
        table[int(bits[cut], 2)] = p
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

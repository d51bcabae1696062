"""The distributed sign-guessing game played on shared entanglement.

Each of k players receives a random bit y_i and a setting x_i drawn
jointly with probability proportional to |g(x_1..x_k)|, performs a local
action, and broadcasts one bit; together they guess

    F = y_1 ... y_k * sign(g(x_1, .., x_k)).

Classically the broadcast is limited to y_i f_i(x_i), so the optimal
success probability is (1 + LR(g) / sum|g|) / 2 with LR the
local-realistic maximum.  Measuring a shared state and broadcasting
y_i m_i lifts LR to the quantum mean value.  For equatorial
measurements on a GHZ block the outcome statistics are uniform except
for the full parity, whose bias equals the correlation function, which
is what the sampler here uses; mixing the block uniformly over the
C(N, k) subsets of N parties scales that bias by 1 / C(N, k).  A
deterministic classical strategy plays through the same sampler, as
the +-1 table of the products of its answers: a parity bias of 0 or 1.
Omitting one broadcast from the guess multiplies it by an independent
fair coin, which is the ``VisibilityModel(0.0)`` control.

The symmetrized variant asks every k-subset to play at once, which
requires the settings distribution to extend to an exchangeable N-party
distribution with the game distribution as its k-marginals.  That is a
small linear program over type classes, solved here in exact rational
arithmetic with a Farkas certificate on infeasibility.

A :class:`GameSpec` holds exactly what its JSON file holds: the
functional, whose settings distribution it derives, each setting of
each party as its turns on the equatorial (x-y) plane, stored as the
float the file writes, and a visibility model.  It plays the angles
2 pi times those turns.  The dense realization of :class:`GhzMixture`
and the dense outcome distributions that the tests check the parity
model against live in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import operator
from fractions import Fraction
from typing import Mapping, Sequence, Union

from . import bell
from ._lazy import lazy_import
from ._record import frozen
from .errors import CapabilityError, check_count, check_float, check_real

np = lazy_import("numpy")

MAX_FEASIBILITY_PARTIES = 12


@frozen
class GhzMixture:
    """Uniform mixture over party subsets of a GHZ block plus noise.

    Every one of the C(n_parties, block_size) subsets carries the GHZ
    block with equal weight, all other parties maximally mixed.  The
    only surviving equatorial correlator on a measured subset is the
    full one on subsets of exactly the block size, scaled by
    1/C(n_parties, block_size).
    """

    n_parties: int
    block_size: int

    def __post_init__(self):
        # stored as plain ints, which the JSON form can write
        n_parties = check_count(self.n_parties, "party count")
        object.__setattr__(self, "n_parties", n_parties)
        block_size = check_count(self.block_size, "block size", 1, n_parties)
        object.__setattr__(self, "block_size", block_size)

    def visibility(self, subset_size: int) -> float:
        if subset_size != self.block_size:
            return 0.0
        return 1.0 / math.comb(self.n_parties, self.block_size)


@frozen
class VisibilityModel:
    """Correlations v * cos(sum of angles); v = 0 is the uncorrelated
    control, v = 1 a pure GHZ block on the measured parties."""

    v: float

    def __post_init__(self):
        if not 0.0 <= check_real(self.v, "visibility") <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")

    def visibility(self, subset_size: int) -> float:
        return self.v


StateModel = Union[GhzMixture, VisibilityModel]


@frozen
class GameSpec:
    """A playable game: functional, state model, and ``turns[i][s]``, the
    turns a of party i's equatorial observable cos(2 pi a) sx +
    sin(2 pi a) sy at setting s, stored as floats; the parity model plays
    cos(sum of angles), the correlator of equatorial settings only.  The
    functional is stored with its game distribution
    P(s) = |g(s)| / sum |g| attached, held as one share per distinct |g|
    (:meth:`bell.BellFunctional.with_game_distribution`): the game's one
    table with an entry per settings tuple is its coefficients."""

    functional: bell.BellFunctional
    turns: tuple[tuple[float, ...], ...]
    state: StateModel
    name: str = "game"

    def __post_init__(self):
        f = self.functional.with_game_distribution()
        object.__setattr__(self, "functional", f)
        if not f.coefficients:
            raise ValueError("game functionals need a nonzero coefficient")
        if len(self.turns) != f.n_parties:
            raise ValueError("need one turns tuple per party")
        if any(len(per_party) != f.settings_per_party for per_party in self.turns):
            raise ValueError("need one turn per setting")
        turns = tuple(tuple(check_float(t, "turns") for t in per_party) for per_party in self.turns)
        object.__setattr__(self, "turns", turns)
        if not isinstance(self.state, (GhzMixture, VisibilityModel)):
            raise ValueError("a game state must be a GhzMixture or a VisibilityModel")
        if not isinstance(self.name, str):
            raise ValueError(f"game name {self.name!r} is not a string")

    @property
    def n_parties(self) -> int:
        return self.functional.n_parties


def chsh_game() -> GameSpec:
    """Two players sharing a Bell pair; quantum success cos^2(pi/8)."""
    f = bell.BellFunctional(2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1})
    return GameSpec(f, (bell.makb_xy_settings(2),) * 2, GhzMixture(2, 2), name="chsh")


def makb_game(n: int, n_total: int | None = None) -> GameSpec:
    """Mermin-type game for ``n`` players inside ``n_total`` parties.

    Settings are the symmetric equatorial choices that are optimal on
    the plain GHZ block.
    """
    n_total = n if n_total is None else n_total
    turns = (bell.makb_xy_settings(n),) * n
    return GameSpec(bell.makb(n), turns, GhzMixture(n_total, n), name=f"makb{n}")


def gbi_game(n: int, grid: int = 32) -> GameSpec:
    """Geometric game with settings discretized to ``grid`` uniform
    equatorial angles per party (practical stand-in for the continuum)."""
    n = check_count(n, "party count", 2)
    grid = check_count(grid, "grid size", 2)
    if grid**n > 200_000:
        raise CapabilityError("explicit geometric game too large; reduce grid or parties")
    # cos once per distinct sum(key), the zeros of cos left out
    cos_of = {t: g for t in range(n * grid) if abs(g := math.cos(2.0 * math.pi * t / grid)) > 1e-15}
    values = list(map(cos_of.get, map(sum, itertools.product(range(grid), repeat=n))))
    f = bell.BellFunctional(n, bell._Table.product(values, n, grid), grid)
    turns = (tuple(s / grid for s in range(grid)),) * n
    return GameSpec(f, turns, VisibilityModel(1.0), name=f"gbi{n}x{grid}")


def _settings_table(game: GameSpec):
    """Settings tuples in sorted order, as an int array of shape (count,
    parties), with their probabilities, coefficients and correlators.

    The settings are read straight off the functional's packed key buffer
    (:class:`bell._Table`): each is big-endian at one fixed width, so
    ``np.frombuffer`` at dtype ``>u{width}`` gives one row per key, in the
    functional's order.  Every column is read in that order into an array
    and put in sorted order by one ``np.lexsort`` of the rows, so no Python
    list or dict is built per entry: a probability is its pair's share,
    and every array holds the bits a sorted list of the tuples would give.
    """
    f = game.functional
    table, count = f.coefficients, len(f.coefficients)
    components = np.frombuffer(table._keys, f">u{table._width}").reshape(count, game.n_parties)
    # lexsort's last key is the primary one; the tuples are distinct
    order = np.lexsort(components.T[::-1])
    # one column at a time, each read in the functional's order dropped
    # once put in sorted order
    components = components[order].astype(np.int64)
    probs = np.fromiter(f._entry_shares(), float, count)[order]
    coeffs = np.fromiter(table.values(), float, count)[order]
    del order
    # added left to right, party by party, as sum() adds a tuple's angles,
    # in place: 0.0 + x is 0 + x, and x * v is v * x
    angle_sums = np.zeros(count)
    for party, per_party in enumerate(game.turns):
        angles = 2.0 * math.pi * np.array(per_party)
        angle_sums += angles[components[:, party]]
    corr = np.cos(angle_sums, out=angle_sums)
    corr *= game.state.visibility(game.n_parties)
    return components, probs, coeffs, corr


def _success(game: GameSpec, value: float) -> float:
    """Success probability (1 + value / sum|g|) / 2 of a protocol whose
    functional mean is ``value``."""
    return 0.5 * (1.0 + value / float(game.functional.abs_total()))


def classical_best(game: GameSpec) -> float:
    """Optimal classical success probability (1 + LR/sum|g|)/2, LR exact
    from :func:`bell.lr_max` (two settings, at most 16 players)."""
    return _success(game, bell.lr_max(game.functional))


def quantum_success(game: GameSpec) -> float:
    """Analytic success probability of the measure-and-broadcast protocol.

    It is the same for every set of ``game.n_parties`` players inside the
    register: both state models give each such subset one correlator, so
    no subset is named.
    """
    _, _, coeffs, corr = _settings_table(game)
    return _success(game, float(np.dot(coeffs, corr)))


@frozen
class SimulationResult:
    game: str
    trials: int
    seed: int
    success_rate: float
    stderr: float
    # expected success of the correlator table the run played
    analytic: float


# forward steps inside a guide bucket before the rest fall back to a
# binary search over the whole cdf
_GUIDE_STEPS = 8
# rounds per block of a stream, which bounds the memory a stream takes
_BLOCK = 1 << 15


def _guide_table(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normalized cdf of ``probs``, as numpy's weighted choice builds
    it, and its guide table over B buckets, B >= len(cdf) a power of
    two: guide[j] counts the cdf entries <= j / B."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    buckets = 1 << (len(cdf) - 1).bit_length()
    return cdf, cdf.searchsorted(np.arange(buckets + 1) / buckets, side="right")


def _play_buffers(size: int) -> tuple[np.ndarray, ...]:
    """The arrays a block of up to ``size`` rounds plays in: its 2 size
    uniforms, then per round a float, a settings index and two flags."""
    flags = np.empty(size, bool), np.empty(size, bool)
    return np.empty(2 * size), np.empty(size), np.empty(size, np.intp), *flags


def _draw_settings(u, cdf, guide, index, gathered, unresolved) -> None:
    """Write ``cdf.searchsorted(u, side="right")`` for uniforms u in
    [0, 1) into ``index``, given ``(cdf, guide) = _guide_table(probs)``:
    the settings index each uniform picks.  ``gathered`` (float) and
    ``unresolved`` (bool), of u's length like ``index``, are scratch.

    The indices are found through the guide table (Chen and Asau 1974).
    With B a power of two, u * B is exact, so the index for u lies in
    [guide[floor(u B)], guide[floor(u B) + 1]].  Each trial steps forward
    from the low end while cdf[index] <= u.  A trial in bucket j needs
    at most guide[j + 1] - guide[j] steps; those spreads sum to
    len(cdf) <= B and each bucket holds u with probability 1/B, so in
    expectation at most a fraction 1/(s + 1) of trials is still
    unresolved after s steps.  Each step passes over all trials, in
    place, and the steps end once none is unresolved; after
    ``_GUIDE_STEPS`` steps those left take the binary search, so a
    skewed ``probs`` never costs much more than the plain search.  A
    take reads each index before writing its slot, so ``index`` gathers
    in place; ``mode="clip"``, a no-op as every index is in range, keeps
    numpy from copying ``out``.
    """
    np.copyto(index, np.multiply(u, len(guide) - 1, out=gathered), casting="unsafe")
    np.take(guide, index, out=index, mode="clip")
    for _ in range(_GUIDE_STEPS):
        np.take(cdf, index, out=gathered, mode="clip")
        if not np.less_equal(gathered, u, out=unresolved).any():
            return
        index += unresolved
    active = np.flatnonzero(unresolved)
    index[active] = cdf.searchsorted(u[active], side="right")


def _simulate_chunk(rng, trials, cdf, guide, negative, bias, buffers) -> int:
    """Successes in ``trials`` rounds drawn from ``rng``, with the
    settings probabilities given as ``_guide_table(probs)`` and each
    setting's parity bias (1 + corr) / 2 as ``bias``.

    Round r takes the uniforms 2r and 2r + 1 of ``rng``: the first picks
    the setting through :func:`_draw_settings`, and the parity is -1
    when the second is not below its bias.  Every +-1 value v is carried
    as its sign bit, v == -1, so a product of +-1 values is the XOR of
    their bits; ``negative`` holds the sign bit of each coefficient.
    The +-1 round also hands each player a coin y_i
    and an outcome m_i whose product over the players is the parity;
    the guess is the product of the y_i m_i and the target is
    y_1 ... y_k sign(g).  Each y_i appears once in both, so the y_i
    cancel and the product of the m_i is the parity: a round succeeds
    when the parity has the sign of g, and neither the y_i nor the m_i
    are drawn.  The rounds are played in blocks of ``_BLOCK``, each
    written with ``out=`` into ``buffers = _play_buffers(size)``, size >=
    min(trials, _BLOCK), so a chunk allocates no block-sized array.  A
    block reads its rounds' uniforms in stream order, so the count does
    not depend on ``_BLOCK``.
    """
    successes = 0
    for start in range(0, trials, _BLOCK):
        n = min(_BLOCK, trials - start)
        u = rng.random(out=buffers[0][: 2 * n])
        gathered, index, below, bits = (b[:n] for b in buffers[1:])
        _draw_settings(u[0::2], cdf, guide, index, gathered, below)
        # below: the parity is +1; a round wins when that differs from g's sign bit
        np.less(u[1::2], np.take(bias, index, out=gathered, mode="clip"), out=below)
        np.take(negative, index, out=bits, mode="clip")
        successes += int(np.count_nonzero(np.not_equal(below, bits, out=bits)))
    return successes


def simulate(
    game: GameSpec,
    trials: int,
    seed: int,
    jobs: int = 1,
    strategy: Sequence[Sequence[int]] | None = None,
) -> SimulationResult:
    """Monte Carlo play of the game; deterministic for a fixed seed.

    The players are any ``game.n_parties`` parties of the register: both
    state models give every such subset the same correlators, so the
    result names none.  Settings are sampled from the game distribution
    and outcomes from the parity-biased product distribution of the
    state model.
    ``strategy``, a per-party table of deterministic answers, each the
    integer +1 or -1, plays classically: it acts as a state whose
    correlator for each settings tuple is the product of the answers, so
    its parity bias is 0 or 1 and the same rounds score exactly as
    broadcasting the answers would.  ``jobs`` splits the trials into
    streams seeded and played one at a time, stream i by
    ``SeedSequence(seed, spawn_key=(i,))``, child i of
    ``SeedSequence(seed).spawn(jobs)``; counts merge by addition, so the
    result depends only on (seed, jobs).  ``jobs`` above ``trials`` runs
    ``trials`` streams of one round each, which is what those ``jobs``
    streams would play.  Round r of a stream takes its uniforms 2r and
    2r + 1 (see :func:`_simulate_chunk`).  The biases (1 + corr) / 2, the
    same float operations as per round, and the play buffers are made
    once and shared by every stream; play keeps alive only the cdf, the
    guide table, the sign bits and the biases, so memory grows with
    neither ``trials`` nor ``jobs``.  The result's ``analytic`` is the
    expected success of the correlator table played: that of the state
    or of ``strategy``.  Leaving a broadcast out of the guess multiplies
    it by that player's uniform coin: the ``VisibilityModel(0.0)`` control.
    """
    trials = check_count(trials, "trials", 1)
    seed = check_count(seed, "seed", 0)
    jobs = check_count(jobs, "jobs", 1)
    components, probs, coeffs, corr = _settings_table(game)
    k = game.n_parties
    if strategy is not None:
        if np.shape(strategy) != (k, game.functional.settings_per_party):
            raise ValueError("strategy must give a +-1 answer per party per setting")
        for row in strategy:
            for answer in row:
                # a float or bool answer raises rather than being truncated
                if check_count(answer, "strategy answer") not in (1, -1):
                    raise ValueError("strategy answers must be +-1")
        answers = np.array(strategy, dtype=np.int64)
        corr = answers[np.arange(k), components].prod(axis=1)
    analytic = _success(game, float(np.dot(coeffs, corr)))
    # each table array dropped once read, before the guide table is built
    negative, bias = coeffs < 0, 0.5 * (1.0 + corr)
    del components, coeffs, corr
    cdf, guide = _guide_table(probs)
    del probs

    # streams past the trial count would play no round
    streams = min(jobs, trials)
    buffers = _play_buffers(min(_BLOCK, -(-trials // streams)))
    successes = 0
    for i in range(streams):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        rounds = trials // streams + (i < trials % streams)
        successes += _simulate_chunk(rng, rounds, cdf, guide, negative, bias, buffers)
    rate = successes / trials
    stderr = math.sqrt(max(rate * (1.0 - rate), 1e-300) / trials)
    return SimulationResult(game.name, trials, seed, rate, stderr, analytic)


# --- exchangeable-marginal feasibility -------------------------------------


@frozen
class FeasibilityResult:
    """Outcome of the exchangeable-extension linear program.

    ``witness`` gives, per count j of primed settings, the exact
    probability of each individual N-party settings tuple with that
    count (so the tuple prob times C(N, j) sums to 1).  ``certificate``
    is a Farkas vector y with y.A <= 0 and y.m > 0 proving
    infeasibility.
    """

    feasible: bool
    n_parties: int
    k: int
    witness: tuple[Fraction, ...] | None
    certificate: tuple[Fraction, ...] | None
    reason: str = ""


def _exactify(value) -> Fraction:
    """Exact probability from a Fraction, an int, a rational string such
    as "1/4", or a finite float (read as the nearest fraction with
    denominator at most 10^12, so 0.1 is 1/10)."""
    if isinstance(value, float):
        return Fraction(check_real(value, "probability")).limit_denominator(10**12)
    if isinstance(value, (Fraction, int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"probability {value!r} divides by zero") from None
    raise ValueError(f"cannot interpret probability {value!r}")


def _phase_one_simplex(
    a_mat: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Exact phase-1 simplex for {x >= 0 : A x = b}, b >= 0, Bland's rule.

    Returns (solution, None) if feasible, else (None, farkas) with
    farkas.A <= 0 componentwise and farkas.b > 0.
    """
    nc, nv = len(a_mat), len(a_mat[0])
    # tableau: original vars | artificial vars | rhs
    tab = [row[:] + [Fraction(int(i == r)) for i in range(nc)] + [rhs[r]] for r, row in enumerate(a_mat)]
    basis = [nv + r for r in range(nc)]
    cost = [-sum(a_mat[r][j] for r in range(nc)) for j in range(nv)]
    cost += [Fraction(0)] * nc + [-sum(rhs)]

    while True:
        enter = next((j for j in range(nv + nc) if cost[j] < 0), None)
        if enter is None:
            break
        best_row, best_ratio = None, None
        for r in range(nc):
            if tab[r][enter] > 0:
                ratio = tab[r][-1] / tab[r][enter]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_row])
                ):
                    best_row, best_ratio = r, ratio
        if best_row is None:
            raise RuntimeError("phase-1 objective unbounded; inconsistent tableau")
        pivot = tab[best_row][enter]
        tab[best_row] = [v / pivot for v in tab[best_row]]
        for r in range(nc):
            if r != best_row and tab[r][enter]:
                factor = tab[r][enter]
                tab[r] = [v - factor * w for v, w in zip(tab[r], tab[best_row])]
        if cost[enter]:
            factor = cost[enter]
            cost = [v - factor * w for v, w in zip(cost, tab[best_row])]
        basis[best_row] = enter

    objective = -cost[-1]
    if objective == 0:
        solution = [Fraction(0)] * nv
        for r, b in enumerate(basis):
            if b < nv:
                solution[b] = tab[r][-1]
        return solution, None
    # simplex multipliers read off the artificial columns
    farkas = [Fraction(1) - cost[nv + r] for r in range(nc)]
    return None, farkas


def marginal_feasibility(dist: Mapping, n_parties: int) -> FeasibilityResult:
    """Can a k-party settings distribution be every k-marginal of an
    exchangeable N-party distribution?

    ``dist`` maps settings tuples of the integers 0 and 1 (no bool or
    float), or strings of 0s and 1s as in the JSON form, each tuple
    once, to probabilities (see :func:`_exactify`); absent tuples have
    probability 0.  The distribution must be
    permutation symmetric (a marginal of an exchangeable distribution
    always is).  Writing q_j for the probability of one N-party tuple
    with j primed settings, the requirement is
    sum_j C(N-k, j-i) q_j = m_i for each primed count i of the marginal,
    q_j >= 0: a linear program solved exactly.
    """
    if not isinstance(dist, Mapping) or not dist:
        raise ValueError("settings distribution must be a nonempty mapping")
    entries = {}
    for key, value in dist.items():
        if not isinstance(key, (str, tuple)) or not all(
            s in ("0", "1")
            or (isinstance(s, numbers.Integral) and not isinstance(s, bool) and s in (0, 1))
            for s in key
        ):
            raise ValueError(f"settings key {key!r} is not a tuple of 0s and 1s")
        settings = tuple(int(s) for s in key)
        if settings in entries:
            raise ValueError(f"settings key {key!r} names a tuple given before")
        entries[settings] = _exactify(value)
    if len({len(key) for key in entries}) > 1:
        raise ValueError("settings tuples differ in length")
    k = check_count(len(next(iter(entries))), "marginal size k", 1, MAX_FEASIBILITY_PARTIES)
    n_parties = check_count(n_parties, "party count N", k, MAX_FEASIBILITY_PARTIES)
    table = {key: entries.get(key, Fraction(0)) for key in itertools.product((0, 1), repeat=k)}
    if any(v < 0 for v in table.values()):
        raise ValueError("probabilities must be nonnegative")
    total = sum(table.values())
    if total != 1:
        raise ValueError(f"probabilities sum to {total}, expected exactly 1")

    marginal = [None] * (k + 1)
    for key, value in table.items():
        i = sum(key)
        if marginal[i] is None:
            marginal[i] = value
        elif marginal[i] != value:
            return FeasibilityResult(
                False, n_parties, k, None, None,
                reason="distribution is not permutation symmetric",
            )

    a_mat = [
        [Fraction(math.comb(n_parties - k, j - i)) if 0 <= j - i <= n_parties - k else Fraction(0)
         for j in range(n_parties + 1)]
        for i in range(k + 1)
    ]
    solution, farkas = _phase_one_simplex(a_mat, [Fraction(v) for v in marginal])
    # verify the witness or the Farkas certificate exactly before returning
    # it; explicit checks, so that python -O cannot strip them
    if solution is not None:
        if not (
            all(q >= 0 for q in solution)
            and all(
                sum(a_mat[i][j] * solution[j] for j in range(n_parties + 1)) == marginal[i]
                for i in range(k + 1)
            )
        ):
            raise RuntimeError("simplex witness fails A q = marginal, q >= 0")
        return FeasibilityResult(True, n_parties, k, tuple(solution), None)
    if not (
        farkas is not None
        and all(
            sum(farkas[i] * a_mat[i][j] for i in range(k + 1)) <= 0
            for j in range(n_parties + 1)
        )
        and sum(farkas[i] * marginal[i] for i in range(k + 1)) > 0
    ):
        raise RuntimeError("simplex Farkas certificate fails y.A <= 0 < y.marginal")
    return FeasibilityResult(False, n_parties, k, None, tuple(farkas))


# --- JSON round trip --------------------------------------------------------


def game_to_json(game: GameSpec) -> str:
    """The text ``json.dumps(payload, sort_keys=True)`` writes.  Both tables
    are laid out from the one sorted key order of
    :meth:`bell.BellFunctional._json_columns`, its keys (digits and commas,
    no escapes) spelled and quoted once; each distinct value object takes
    one ``repr`` (json's spelling of a finite float) of its float.  One
    join lays out the fields, copying each text once.
    """
    f = game.functional
    texts, columns = f._json_columns()
    # each key quoted once, for both tables
    keys = list(map('"{}": '.format, texts))
    del texts
    tables = [
        ", ".join(map(operator.add, keys, bell._per_object(lambda v: repr(float(v)), column)))
        for column in columns
    ]
    del keys, columns
    kind = "ghz_mixture" if isinstance(game.state, GhzMixture) else "visibility"
    state = {"kind": kind, **{name: getattr(game.state, name) for name in game.state._fields}}
    observables = [[{"plane": "xy", "turns": t} for t in per_party] for per_party in game.turns]
    return "".join([
        '{"functional": {"coefficients": {', tables[0],
        f'}}, "n_parties": {f.n_parties}, "settings_distribution": {{', tables[1],
        f'}}, "settings_per_party": {f.settings_per_party}}}, "name": ',
        json.dumps(game.name), ', "observables": ', json.dumps(observables, sort_keys=True),
        ', "state": ', json.dumps(state, sort_keys=True), "}",
    ])


def game_from_json(text: str) -> GameSpec:
    """Inverse of :func:`game_to_json`.

    Each distinct JSON float text is read once, by ``float`` as json
    reads it, through a cache made for the call; every place holding it
    gets that one float, bit for bit json's.  A missing key raises
    ValueError naming it; a top level that is not an object, or a
    container or value of the wrong type inside, raises ValueError too.
    """
    payload = json.loads(text, parse_float=functools.lru_cache(maxsize=None)(float))
    if not isinstance(payload, dict):
        raise ValueError("game spec must be a JSON object")
    try:
        functional = bell.BellFunctional.from_json(payload["functional"])
        observables = payload["observables"]
        turns = tuple(tuple(o["turns"] for o in per_party) for per_party in observables)
        # the parity model plays cos(sum of angles), which only equatorial
        # settings give; an "xz" observable must not play as if it were one
        if any(o["plane"] != "xy" for per_party in observables for o in per_party):
            raise ValueError("game observables must lie in the xy plane")
        state_info = payload["state"]
        if state_info["kind"] == "ghz_mixture":
            state: StateModel = GhzMixture(state_info["n_parties"], state_info["block_size"])
        elif state_info["kind"] == "visibility":
            state = VisibilityModel(state_info["v"])
        else:
            raise ValueError(f"unknown state kind {state_info['kind']!r}")
        return GameSpec(functional, turns, state, name=payload.get("name", "game"))
    except KeyError as exc:
        raise ValueError(f"game spec lacks key {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed game spec: {exc}") from None

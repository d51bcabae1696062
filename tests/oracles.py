"""Second routes that the tests check the library against.

Exponential in the register size: dense Dicke states, mixtures and
partial traces, the dense correlation sum, the MAKB halving recursion,
the sign-function family of full-correlation inequalities (the
Zukowski-Brukner criterion, PRL 88, 210401, 2002, that a correlation sum
above 1 gives a violation) and dense game states.  Polynomial: the
Dicke correlation sum as a double sum of binomials at one point, the
reference that the library's Krawtchouk row and walk are checked
against, and the point-by-point Dicke threshold and persistency scans,
one such sum per point, that those recurrences replaced.  Linear:
the entry-by-entry checks, splits and divisions of a Bell functional's
table, and its one cosine per geometric settings tuple, that the
library's whole-table passes replaced; and the game file's writer and
reader through json alone, one float, one repr and one parse per
number, that the library's once-per-distinct-number routes replaced.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union
from unittest import mock

import numpy as np

from bellpersist import bell, qccr, qstate
from bellpersist.bell import ObservablePair
from bellpersist.dicke import DickeMixture
from bellpersist.errors import CapabilityError, NoCrossingError, check_count, check_real
from bellpersist.persistency import PersistencyResult
from bellpersist.qstate import MAX_QUBITS, DenseState

# literals, so that PlaneObservable.matrix() has a reference outside the library
PAULI_MATRICES = {
    "I": np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

_NORM_ATOL = 1e-12


def to_density_state(state: DenseState) -> DenseState:
    if not state.pure:
        return state
    return DenseState(state.n_qubits, state.density(), pure=False)


def validate_spectrum(state: DenseState) -> None:
    """Eigenvalue positivity check, regardless of size (may be slow)."""
    if not state.pure:
        state._check_spectrum(np.asarray(state.data))


def dicke_state(n: int, m: int) -> DenseState:
    """The Dicke state with exactly ``m`` qubits in |0> out of ``n``.

    Equal amplitudes binom(n, m)^(-1/2) on every computational basis
    state containing exactly m zeros.
    """
    if not 1 <= n <= MAX_QUBITS:
        raise CapabilityError(f"{n} qubits outside supported range 1..{MAX_QUBITS}")
    if not 0 <= m <= n:
        raise ValueError(f"zero count m={m} must satisfy 0 <= m <= n={n}")
    amp = np.zeros(2**n, dtype=complex)
    value = 1.0 / math.sqrt(math.comb(n, m))
    # a basis index with m zeros has n - m one bits
    want = n - m
    for idx in range(2**n):
        if idx.bit_count() == want:
            amp[idx] = value
    return DenseState(n, amp, pure=True)


def mixture(states: Sequence[DenseState], weights: Sequence[float]) -> DenseState:
    """Convex mixture of states, returned in density form."""
    if len(states) != len(weights) or not states:
        raise ValueError("need equally many states and weights, at least one each")
    if any(w < 0 for w in weights):
        raise ValueError("mixture weights must be nonnegative")
    total = float(sum(weights))
    if abs(total - 1.0) > _NORM_ATOL * max(10, len(weights)):
        raise ValueError(f"mixture weights sum to {total}, expected 1")
    n = states[0].n_qubits
    if any(s.n_qubits != n for s in states):
        raise ValueError("all mixture components must share the qubit count")
    rho = np.zeros((2**n, 2**n), dtype=complex)
    for s, w in zip(states, weights):
        rho += float(w) * s.density()
    return DenseState(n, rho, pure=False)


def random_pure_state(n: int, rng: Union[np.random.Generator, int, None] = None) -> DenseState:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    vec = rng.normal(size=2**n) + 1.0j * rng.normal(size=2**n)
    vec /= np.linalg.norm(vec)
    return DenseState(n, vec, pure=True)


def partial_trace(state: DenseState, traced: Sequence[int]) -> DenseState:
    """Trace out the given qubits, returning a density-form state.

    The remaining qubits keep their original relative order.  Tracing
    nothing returns the same state in density form.
    """
    n = state.n_qubits
    traced_list = sorted(traced)
    if len(set(traced_list)) != len(traced_list):
        raise ValueError(f"duplicate qubit indices in {traced!r}")
    if any(not 0 <= q < n for q in traced_list):
        raise ValueError(f"qubit indices {traced!r} out of range for {n} qubits")
    if len(traced_list) == n:
        raise ValueError("cannot trace out every qubit")
    if not traced_list:
        return to_density_state(state)

    keep = [q for q in range(n) if q not in traced_list]
    k, t = len(keep), len(traced_list)
    if state.pure:
        psi = state.data.reshape((2,) * n).transpose(keep + traced_list)
        mat = psi.reshape(2**k, 2**t)
        rho = mat @ mat.conj().T
    else:
        full = state.data.reshape((2,) * (2 * n))
        order = keep + traced_list + [n + q for q in keep] + [n + q for q in traced_list]
        full = full.transpose(order).reshape(2**k, 2**t, 2**k, 2**t)
        rho = np.einsum("atbt->ab", full)
    return DenseState(k, rho, pure=False)


def dense_mixture(mix: DickeMixture) -> DenseState:
    """Density-matrix realization of a Dicke mixture (small n only)."""
    states = [dicke_state(mix.n, m) for m, _ in mix.components]
    weights = [float(w) for _, w in mix.components]
    return mixture(states, weights)


def dense_sigma_sum(n_total: int, m_zeros: int, n_traced: int) -> float:
    """Dense-oracle version of :func:`bellpersist.dicke.sigma_sum` (exponential cost).

    Builds the reduced density matrix by an actual partial trace and sums
    the squared expectation of every x/z Pauli string.
    """
    state = dicke_state(n_total, m_zeros)
    reduced = partial_trace(state, list(range(n_total - n_traced, n_total)))
    n = reduced.n_qubits
    total = 0.0
    for pattern in range(2**n):
        letters = "".join("X" if pattern & (1 << (n - 1 - i)) else "Z" for i in range(n))
        total += qstate.expectation(reduced, qstate.PauliString(letters)) ** 2
    return total


def sigma_sum_by_binomials(n_total: int, m_zeros: int, n_traced: int) -> Fraction:
    """Double-sum version of :func:`bellpersist.dicke.sigma_sum`, one point
    at a time, sharing no recurrence with the library's Krawtchouk kernels.

    Substituting the weights of :func:`bellpersist.dicke.reduced_dicke`
    into :func:`bellpersist.dicke.xz_component`, the C(n, m) factors
    cancel and, with n = N - L and h = k/2 over even k,

        sigma = S / C(N, M)^2,
        S = sum_k C(n, k) C(k, h)^2 (sum_l (-1)^(n-(M-l)-h) C(L, l) C(n-k, M-l-h))^2,

    where terms with M-l > n or M-l-h outside 0..n-k vanish exactly as
    in the readable route.  The sign (-1)^(n-M-h) is common to every
    term of the inner sum and drops out when it is squared, which leaves
    the Krawtchouk polynomial K_{M-h}(L; N-2h) of the dicke module.  Its
    sum over l is empty once h > M, and once h > N - M every
    C(n-k, M-l-h) in it is 0 (M-l-h >= M-L-h > n-k), so k stops at
    2 min(M, N - M, n // 2).  Costs O(min(L, M) min(M, N - L)) binomials.
    """
    n = n_total - n_traced
    total = 0
    for h in range(min(m_zeros, n_total - m_zeros, n // 2) + 1):
        k = 2 * h
        inner = 0
        # math.comb is 0 once M-l-h > n-k, which also covers M-l > n
        for lost in range(min(n_traced, m_zeros - h) + 1):
            term = math.comb(n_traced, lost) * math.comb(n - k, m_zeros - lost - h)
            inner += -term if lost % 2 else term
        total += math.comb(n, k) * math.comb(k, h) ** 2 * inner * inner
    return Fraction(total, math.comb(n_total, m_zeros) ** 2)


def solve_n0_by_points(m_zeros: int, n_traced: int) -> float:
    """Point-scan version of :func:`bellpersist.dicke.solve_n0`.

    Calls :func:`sigma_sum_by_binomials` once per register size
    instead of walking the Krawtchouk vectors; the scan, the stopping
    rule and the interpolation are the same.
    """
    if n_traced < 1:
        raise ValueError("need at least one traced party")
    if m_zeros < 0:
        raise ValueError("zeros count must be nonnegative")
    start = max(m_zeros, n_traced + 1, 2)
    max_n = 4 * (n_traced + m_zeros) + 16
    # the mirror-degenerate region ends once n exceeds both 2M and 2(N-M)
    settled = 2 * m_zeros + n_traced + 1
    crossing = None
    seen_below = False
    prev = sigma_sum_by_binomials(start, m_zeros, n_traced)
    for n in range(start + 1, max_n + 1):
        cur = sigma_sum_by_binomials(n, m_zeros, n_traced)
        seen_below = seen_below or prev < 1
        if prev < 1 <= cur:
            crossing = Fraction(n - 1) + (1 - prev) / (cur - prev)
        if crossing is not None and n > settled and cur > Fraction(21, 20):
            break
        prev = cur
    if crossing is not None:
        return float(crossing)
    if not seen_below:
        raise NoCrossingError("sum never drops below 1 in the window", (start, max_n))
    raise NoCrossingError("no upward crossing of 1 found", (start, max_n))


def dicke_persistency_by_points(n_parties: int, m_zeros: int) -> PersistencyResult:
    """Point-scan version of :func:`bellpersist.persistency.dicke_persistency`.

    Calls :func:`sigma_sum_by_binomials` once per traced count
    instead of computing the Krawtchouk row.
    """
    if not 0 <= m_zeros <= n_parties:
        raise ValueError("need 0 <= M <= N")
    if n_parties < 2:
        raise ValueError("need at least two parties")
    if n_parties == 2:
        return PersistencyResult(2, 0, 2, float(sigma_sum_by_binomials(2, m_zeros, 0)))
    sums = {
        traced: sigma_sum_by_binomials(n_parties, m_zeros, traced)
        for traced in range(1, n_parties - 1)
    }
    best = max((traced for traced, value in sums.items() if value > 1), default=0)
    at = max(best, 1)
    return PersistencyResult(n_parties, best, n_parties - at, float(sums[at]))


def makb_by_recursion(n: int) -> dict[tuple[int, ...], Fraction]:
    """Nonzero MAKB coefficients on ``n`` parties from the halving
    recursion that :func:`bell.makb` solves in closed form.

    Starting from the one-party functional A, each added party contributes
    (A+A')/2 times the previous functional plus (A-A')/2 times the previous
    functional with primed and unprimed settings exchanged everywhere.
    """
    coeffs: dict[tuple[int, ...], Fraction] = {(0,): Fraction(1)}
    for _ in range(n - 1):
        new: dict[tuple[int, ...], Fraction] = {}
        # a key can be absent while its prime-swapped mirror is not
        keys = set(coeffs) | {tuple(1 - s for s in k) for k in coeffs}
        for key in keys:
            value = coeffs.get(key, Fraction(0))
            swapped = coeffs.get(tuple(1 - s for s in key), Fraction(0))
            plus = (value + swapped) / 2
            minus = (value - swapped) / 2
            if plus:
                new[key + (0,)] = plus
            if minus:
                new[key + (1,)] = minus
        coeffs = new
    return coeffs


def checked_by_entries(
    n_parties, coefficients, settings_per_party=2
) -> dict[tuple[int, ...], Union[int, float, Fraction]]:
    """The coefficients :class:`bell.BellFunctional` keeps, checked entry
    by entry: each value before its key, zero entries dropped before
    their key is seen, the first offender raising."""
    n = check_count(n_parties, "party count", 1)
    spp = check_count(settings_per_party, "settings count", 2)

    def check_key(key):
        key = tuple(key)
        if len(key) != n:
            raise ValueError(f"settings tuple {key} has wrong arity")
        if any(type(s) is not int for s in key):
            key = tuple(check_count(s, "setting") for s in key)
        for s in key:
            if not 0 <= s < spp:
                raise ValueError(f"settings tuple {key} out of range")
        return key

    return {check_key(k): v for k, v in coefficients.items() if check_real(v, "coefficient") != 0}


def numerators_by_entries(coefficients) -> tuple[list[int], int]:
    """Each coefficient as n / D over one common denominator D, split
    entry by entry into plain ints."""
    ratios = [
        tuple(map(int, (c if isinstance(c, (float, int, Fraction)) else Fraction(c)).as_integer_ratio()))
        for c in coefficients.values()
    ]
    denominators = {d for _, d in ratios}
    common = math.lcm(*denominators)
    scale = {d: common // d for d in denominators}
    return [p * scale[d] for p, d in ratios], common


def game_distribution_by_entries(coefficients) -> dict:
    """P(s) = |g(s)| / sum |g|, one division per entry: the float n(s) / T
    for a float coefficient, else the exact Fraction(n(s), T)."""
    numerators, common = numerators_by_entries(coefficients)
    numerators = [abs(p) for p in numerators]
    total = sum(numerators)
    if Fraction(total, common) > sys.float_info.max:
        raise ValueError("game coefficients' sum |g| exceeds the largest float")
    return {
        k: n / total if isinstance(c, float) else Fraction(n, total)
        for (k, c), n in zip(coefficients.items(), numerators)
    }


def gbi_coefficients_by_entries(n: int, grid: int) -> dict[tuple[int, ...], float]:
    """The discretized geometric functional, one cosine per settings tuple."""
    coeffs = {}
    for key in itertools.product(range(grid), repeat=n):
        g = math.cos(2.0 * math.pi * sum(key) / grid)
        if abs(g) > 1e-15:
            coeffs[key] = g
    return coeffs


def plain_game_to_json(game: "qccr.GameSpec") -> str:
    """The game file by ``json.dumps(payload, sort_keys=True)``, each
    table entry made a float and spelled by json on its own."""
    f = game.functional
    spp = f.settings_per_party
    functional = {"n_parties": f.n_parties, "settings_per_party": spp}
    for name in ("coefficients", "settings_distribution"):
        table = getattr(f, name)
        functional[name] = {bell._key_string(k, spp): float(v) for k, v in table.items()}
    kind = "ghz_mixture" if isinstance(game.state, qccr.GhzMixture) else "visibility"
    payload = {
        "name": game.name,
        "functional": functional,
        "observables": [[{"plane": "xy", "turns": t} for t in row] for row in game.turns],
        "state": {"kind": kind, **{name: getattr(game.state, name) for name in game.state._fields}},
    }
    return json.dumps(payload, sort_keys=True)


_json_loads = json.loads


def plain_game_from_json(text: str) -> "qccr.GameSpec":
    """:func:`qccr.game_from_json` with json's own parse, one new float per
    number: the reader's ``parse_float`` is set aside."""
    with mock.patch.object(json, "loads", lambda text, **_: _json_loads(text)):
        return qccr.game_from_json(text)


@dataclass(frozen=True)
class SignFunction:
    """A +-1 assignment to every tuple of two-setting choices."""

    n: int
    signs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.signs, dtype=np.int8).reshape((2,) * self.n)
        if not np.all(np.abs(arr) == 1):
            raise ValueError("sign function entries must be +-1")
        arr.setflags(write=False)
        object.__setattr__(self, "signs", arr)

    @classmethod
    def chsh(cls) -> "SignFunction":
        return cls(2, np.array([[1, 1], [1, -1]]))

    @classmethod
    def constant(cls, n: int, sign: int = 1) -> "SignFunction":
        return cls(n, np.full((2,) * n, sign, dtype=np.int8))


def _walsh(state: DenseState, site) -> np.ndarray:
    """sum_t (-1)^(s . t) <site(0, t_0) x ... x site(n-1, t_{n-1})> for every
    bit tuple s, as a (2,) * n table: the Walsh-Hadamard transform of the
    correlator table, taken one party axis at a time."""
    n = state.n_qubits
    table = np.array(
        [
            qstate.expectation(state, [site(i, t) for i, t in enumerate(key)])
            for key in itertools.product((0, 1), repeat=n)
        ]
    ).reshape((2,) * n)
    for axis in range(n):
        plus, minus = np.take(table, 0, axis), np.take(table, 1, axis)
        table = np.stack((plus + minus, plus - minus), axis)
    return table


def _sign_terms(state: DenseState, observables: Sequence[ObservablePair]) -> np.ndarray:
    """<(A_1 + s_1 A_1') x ... x (A_n + s_n A_n')> for every s, indexed by
    the setting bits (bit 0 for +, 1 for -): each product expands into the
    full correlators of A_i (t_i = 0) and A_i' (t_i = 1) with signs
    prod_i (-1)^(s_i t_i)."""
    return _walsh(state, lambda i, t: observables[i][t])


def wwwzb_value(
    sf: SignFunction,
    state: DenseState,
    observables: Sequence[ObservablePair],
) -> float:
    """Mean value of the full-correlation Bell operator for one sign
    function: 2^-n sum_s S(s) <(A_1 + s_1 A_1') x ... x (A_n + s_n A_n')>.

    Local-realistic models obey |value| <= 1.
    """
    n = sf.n
    if len(observables) != n or state.n_qubits != n:
        raise ValueError("state/observable shapes do not match the sign function")
    return float(np.sum(sf.signs * _sign_terms(state, observables))) / 2**n


def wwwzb_max(state: DenseState, observables: Sequence[ObservablePair]) -> float:
    """Best value over all 2^(2^n) sign functions at fixed observables.

    The optimal sign function matches the sign of each term, so the
    maximum equals 2^-n sum_s |<(A_1 + s_1 A_1') x ...>| without
    enumerating sign functions.
    """
    n = state.n_qubits
    if len(observables) != n:
        raise ValueError(f"need observable pairs for {n} parties")
    return float(np.sum(np.abs(_sign_terms(state, observables)))) / 2**n


def optimize_wwwzb_angles(
    state: DenseState,
    grid: int = 32,
    sweeps: int = 6,
    refine: int = 3,
) -> tuple[float, list[tuple[float, float]]]:
    """Maximize :func:`wwwzb_max` over x-z plane observable angles.

    Coarse per-angle grid search with coordinate-descent sweeps, then
    local grid refinement around the best point.  Returns the best value
    and the (beta, beta') angle pairs per party.
    """
    n = state.n_qubits
    angles = np.zeros(2 * n)
    angles[1::2] = math.pi / 2

    def value(a: np.ndarray) -> float:
        pairs = [
            (qstate.PlaneObservable.xz(a[2 * i]), qstate.PlaneObservable.xz(a[2 * i + 1]))
            for i in range(n)
        ]
        return wwwzb_max(state, pairs)

    best = value(angles)
    step = math.pi / grid
    candidates = np.arange(grid) * (2 * math.pi / grid)
    for _ in range(sweeps):
        improved = False
        for j in range(2 * n):
            trial = angles.copy()
            for cand in candidates:
                trial[j] = cand
                v = value(trial)
                if v > best + 1e-13:
                    best, angles = v, trial.copy()
                    improved = True
        if not improved:
            break
    for _ in range(refine):
        step /= 4
        for j in range(2 * n):
            trial = angles.copy()
            for cand in (angles[j] - step, angles[j] + step):
                trial[j] = cand
                v = value(trial)
                if v > best:
                    best, angles = v, trial.copy()
    return best, [(float(angles[2 * i]), float(angles[2 * i + 1])) for i in range(n)]


def outcome_distribution(
    state: DenseState,
    observables: Sequence[Sequence[qstate.PlaneObservable]],
    key: tuple[int, ...],
) -> np.ndarray:
    """Outcome distribution over the 2^k sign patterns of a k-qubit dense
    state when party i measures ``observables[i][key[i]]`` (small k)."""
    # the projector (I + sign O) / 2 of each party expands into the
    # marginal correlators of the parties with t_i = 1
    table = _walsh(state, lambda i, t: observables[i][key[i]] if t else "I")
    return table.ravel() / 2**state.n_qubits


def ghz_mixture_density(n_parties: int, block_size: int) -> DenseState:
    """Dense realization of :class:`bellpersist.qccr.GhzMixture` (small n)."""
    n, k = n_parties, block_size
    dim = 2**n
    rho = np.zeros((dim, dim), dtype=complex)
    block = qstate.ghz_state(k).density()
    rest = np.eye(2 ** (n - k)) / 2 ** (n - k)
    for subset in itertools.combinations(range(n), k):
        order = list(subset) + [q for q in range(n) if q not in subset]
        term = np.kron(block, rest).reshape((2,) * (2 * n))
        perm = [order.index(q) for q in range(n)]
        term = term.transpose(perm + [n + p for p in perm]).reshape(dim, dim)
        rho += term
    rho /= math.comb(n, k)
    return DenseState(n, rho, pure=False)

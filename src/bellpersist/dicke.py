"""Reduced Dicke states and permutation-symmetric x/z correlation sums.

Tracing L qubits out of the n-qubit Dicke state with M zeros leaves a
binomial mixture of smaller Dicke states.  Because Dicke states are
permutation symmetric, the full correlation tensor over sigma_x / sigma_z
measurement choices collapses to one value per number of x factors, and
the sum of its squares has a closed combinatorial form that scales
polynomially in the register size.

In that sum the C(n, m) normalisations of the Dicke components cancel,
so with n = N - L it is one integer S over C(N, M)^2,

    S = sum_h C(n, 2h) C(2h, h)^2 K_{M-h}(L; N - 2h)^2,
    K_j(x; m) = sum_l (-1)^l C(x, l) C(m - x, j - l),

where h is half the number of x factors and K is a Krawtchouk
polynomial (MacWilliams & Sloane, *The Theory of Error-Correcting
Codes*, 1977, ch. 5 par. 7), a signed sum over the l lost zeros;
``sigma_sum_by_binomials`` in ``tests/oracles.py`` derives S from
:func:`reduced_dicke` and :func:`xz_component`.  Threshold cases (sums
exactly equal to 1) are decided as S > C(N, M)^2 on integers, without
rational or floating-point arithmetic until the final value.  K_{M-h}
is 0 once h > M or h > N - M, so only h <= min(M, N - M, n // 2)
contribute.  Two kernels evaluate S, each by its own recurrence:
:func:`_sigma_row` along L at fixed (N, M) by a three-term recurrence in
x, which :func:`sigma_sum` reads at one L, and :func:`_sigma_walk`
along N at fixed (M, L) by Pascal's rule; each docstring derives its
recurrence.  The readable route :func:`reduced_dicke` ->
:func:`sym_correlation` -> :func:`sym_sigma` computes the same sum in
exact rationals and is the second route the tests compare against.
The reference both kernels are checked against is the binomial double
sum ``sigma_sum_by_binomials``, one point at a time; ``tests/oracles.py``
also holds the dense cross-check (a partial trace of the dense Dicke
state) and the point-by-point scans the kernels replaced.  The line fit
:func:`fit_n0_line` is exact too, so the module needs no numpy.

Every sum here is taken in the x/z measuring plane: each party measures
sigma_x or sigma_z, the same pair at every party, so sigma =
:func:`sigma_sum` and every ``persistency dicke`` row are x/z values.
The Zukowski-Brukner condition holds for any local plane; no other plane
is computed, so a row that fails in x/z is not thereby decided in
another.

For N <= 80 and every M the tests check that no L >= N/2 has
S > C(N, M)^2.  That is checked, not proved, and it bounds what the
sigma > 1 criterion can certify, not Bell violation itself.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Iterable, Iterator

from ._record import frozen
from .errors import NoCrossingError, check_count


@frozen
class DickeMixture:
    """Weighted mixture of Dicke components on ``n`` qubits.

    ``components`` maps each surviving zeros-count ``m`` to its weight.
    Weights are exact rationals and must sum to one.
    """

    n: int
    components: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        check_count(self.n, "qubit count n", 1)
        total = Fraction(0)
        for m, w in self.components:
            check_count(m, "component zeros count m", 0, self.n)
            if w < 0:
                raise ValueError("component weights must be nonnegative")
            total += w
        if total != 1:
            raise ValueError(f"component weights sum to {total}, expected 1")


@frozen
class SymCorrelation:
    """Common correlation-tensor values of a permutation-symmetric state.

    ``values[k]`` is the expectation of any tensor product with k
    sigma_x factors and n-k sigma_z factors.  Entries at odd k vanish:
    flipping an odd number of qubits cannot preserve the zeros count.
    """

    n: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.n + 1:
            raise ValueError("need one value per x-count 0..n")
        for k, v in enumerate(self.values):
            if abs(v) > 1:
                raise ValueError(f"|values[{k}]| = {v} exceeds 1")
            if k % 2 == 1 and v != 0:
                raise ValueError(f"odd x-count {k} must have zero correlation")


def xz_component(n: int, m: int, k: int) -> Fraction:
    """Expectation of sx^k (x) sz^(n-k) in the Dicke state with m zeros.

    Applying sigma_x at k sites maps a zeros pattern to another pattern
    with the same zeros count iff exactly k/2 of the flipped sites held
    zeros, and every surviving matrix element carries the uniform sign
    (-1)^(n-m-k/2) from the sigma_z factors.  Counting patterns gives

        (-1)^(n-m-k/2) C(k, k/2) C(n-k, m-k/2) / C(n, m)

    for even k and zero for odd k.
    """
    n = check_count(n, "qubit count n", 0)
    m = check_count(m, "zeros count m", 0, n)
    k = check_count(k, "x-count k", 0, n)
    if k % 2 == 1:
        return Fraction(0)
    half = k // 2
    if half > m or m - half > n - k:
        return Fraction(0)
    sign = -1 if (n - m - half) % 2 else 1
    return Fraction(sign * math.comb(k, half) * math.comb(n - k, m - half), math.comb(n, m))


def _check_reduction(n_total: int, m_zeros: int, n_traced: int) -> tuple[int, int, int]:
    """(N, M, L) as plain ints, given 0 <= M <= N and 0 <= L < N."""
    n_total = check_count(n_total, "party count N", 1)
    m_zeros = check_count(m_zeros, "zeros count M", 0, n_total)
    return n_total, m_zeros, check_count(n_traced, "traced count L", 0, n_total - 1)


def reduced_dicke(n_total: int, m_zeros: int, n_traced: int) -> DickeMixture:
    """Mixture left after tracing ``n_traced`` qubits out of a Dicke state.

    The surviving component with m_zeros - l zeros has weight
    C(L, l) C(N-L, M-l) / C(N, M).
    """
    n_total, m_zeros, n_traced = _check_reduction(n_total, m_zeros, n_traced)
    n = n_total - n_traced
    denom = math.comb(n_total, m_zeros)
    components = []
    for lost in range(n_traced + 1):
        m = m_zeros - lost
        if not 0 <= m <= n:
            continue
        # 0 <= lost <= L and 0 <= m <= n, so every weight is positive
        components.append((m, Fraction(math.comb(n_traced, lost) * math.comb(n, m), denom)))
    return DickeMixture(n, tuple(components))


def sym_correlation(mix: DickeMixture) -> SymCorrelation:
    """Correlation values of a Dicke mixture, one per x-count."""
    values = []
    for k in range(mix.n + 1):
        acc = Fraction(0)
        for m, w in mix.components:
            acc += w * xz_component(mix.n, m, k)
        values.append(acc)
    return SymCorrelation(mix.n, tuple(values))


def sym_sigma(sym: SymCorrelation) -> Fraction:
    """Sum of squared x/z correlation-tensor entries, sum_k C(n, k) v_k^2.

    Each x-count k is shared by C(n, k) tensor entries of equal value.
    """
    return sum(
        (math.comb(sym.n, k) * v * v for k, v in enumerate(sym.values)),
        start=Fraction(0),
    )


def sigma_sum(n_total: int, m_zeros: int, n_traced: int) -> Fraction:
    """Sum of squared x/z correlation-tensor entries of the reduced state.

    Exceeding 1 is the Zukowski-Brukner sufficient condition (PRL 88,
    210401, 2002) for the reduced state to violate a two-setting
    full-correlation Bell inequality; the persistency lower bounds rest
    on it.  The tensor is that of sigma_x / sigma_z products, so the sum
    is taken in the x/z measuring plane; the condition holds in any local
    plane, and no other is computed.

    The value is S / C(N, M)^2 read at L from :func:`_sigma_row`, at a
    cost of O(L min(M, N - M)) integer steps and O(L) memory.
    """
    n_total, m_zeros, n_traced = _check_reduction(n_total, m_zeros, n_traced)
    row, denom = _sigma_row(n_total, m_zeros, n_traced)
    return Fraction(row[n_traced], denom)


def _sigma_row(n_total: int, m_zeros: int, last: int) -> tuple[list[int], int]:
    """Numerators S of :func:`sigma_sum` for L = 0..last, and C(N, M)^2.

    ``row[L] / C(N, M)^2`` equals ``sigma_sum(N, M, L)``; needs
    0 <= M <= N and 0 <= last < N.  The row stops at ``last`` because
    its callers read different lengths: :func:`sigma_sum` one L, and
    ``persistency.dicke_persistency`` every L up to N - 2.  Each entry
    past ``last`` would cost as much as one before it, so a point read
    off the whole row pays for all N entries (at N = 10^5, M = 2,
    L = 10 that was 0.12 s and 5 MB more, end to end).

    For each h <= min(M, N - M) (K_{M-h}(x; N-2h) is 0 when
    M - h > N - 2h) the Krawtchouk values K_j(x; m), m = N - 2h,
    j = M - h, are walked over x = L = 0..min(m, last) with the
    three-term recurrence

        (m - x) K_j(x + 1) = (m - 2j) K_j(x) - x K_j(x - 1),

    from K_j(0; m) = C(m, j); at x = 0 the K_j(-1) term is multiplied by
    0.  Both sides are integers and m - x >= 1, so the floor division is
    exact.  The weight C(2h, h)^2 C(N - x, 2h) of the term steps with
    C(N - x - 1, 2h) = C(N - x, 2h) (m - x) / (N - x), exact for the same
    reason.  The term of h enters row[x] only while x <= m, which is the
    bound h <= (N - L) // 2 of the module docstring.  That is
    O((last + 1) min(M, N - M)) big-integer steps and last + 1 entries.
    """
    row = [0] * (last + 1)
    for h in range(min(m_zeros, n_total - m_zeros) + 1):
        m, j = n_total - 2 * h, m_zeros - h
        weight = math.comb(2 * h, h) ** 2 * math.comb(n_total, 2 * h)
        below, kraw = 0, math.comb(m, j)
        stop = min(m, last)
        for x in range(stop + 1):
            row[x] += weight * kraw * kraw
            if x < stop:
                weight = weight * (m - x) // (n_total - x)
                below, kraw = kraw, ((m - 2 * j) * kraw - x * below) // (m - x)
    return row, math.comb(n_total, m_zeros) ** 2


def _sigma_walk(m_zeros: int, n_traced: int, start: int) -> Iterator[tuple[int, int]]:
    """Numerators S of :func:`sigma_sum` and C(N, M)^2 for N = start, start+1, ...

    ``S / C(N, M)^2`` equals ``sigma_sum(N, M, L)``; needs M >= 0 and
    0 <= L < start.  The vector (K_0, ..., K_M)(L; m) starts at m = L,
    where K_j(L; L) = (-1)^j C(L, j), and steps m -> m + 1 by Pascal's
    rule

        K_j(L; m + 1) = K_j(L; m) + K_{j-1}(L; m),   K_{-1} = 0,

    which is C(a + 1, b) = C(a, b) + C(a, b - 1) applied to C(m - L, j - l).
    The last 2M + 1 vectors are kept, so that at register size N each
    h <= min(M, (N - L) // 2) reads K_{M-h}(L; N - 2h), 2h steps back.
    Every step costs O(M) integer additions.
    """
    centres = [math.comb(2 * h, h) ** 2 for h in range(m_zeros + 1)]
    kraw = [(-1) ** j * math.comb(n_traced, j) for j in range(m_zeros + 1)]
    back = deque([kraw], maxlen=2 * m_zeros + 1)
    n_total = n_traced
    while True:
        if n_total >= start:
            n = n_total - n_traced
            total = 0
            for h in range(min(m_zeros, n // 2) + 1):
                total += math.comb(n, 2 * h) * centres[h] * back[2 * h][m_zeros - h] ** 2
            yield total, math.comb(n_total, m_zeros) ** 2
        kraw = [kraw[0]] + [kraw[j] + kraw[j - 1] for j in range(1, m_zeros + 1)]
        back.appendleft(kraw)
        n_total += 1


def solve_n0(m_zeros: int, n_traced: int) -> float:
    """Party count at which the reduced correlation sum crosses up through 1.

    For fixed (M, L) with L >= M the sum is below 1 for small registers
    and grows through 1 as the register grows.  When few parties are
    traced (L < M) the sum can additionally wander around 1 while the
    register is so small that the state is close to its own bit-flip
    mirror; the crossing of interest is the final upward one, after
    which the sum stays above 1.  Integers are scanned with
    :func:`_sigma_walk`, every comparison with 1 is made on its integer
    numerators, and the bracketing pair is interpolated linearly in
    exact rationals; a crossing that lands exactly on an integer is
    returned exactly.
    """
    m_zeros = check_count(m_zeros, "zeros count M", 0)
    n_traced = check_count(n_traced, "traced count L", 1)
    start = max(m_zeros, n_traced + 1, 2)
    max_n = 4 * (n_traced + m_zeros) + 16
    # the mirror-degenerate region ends once n exceeds both 2M and 2(N-M)
    settled = 2 * m_zeros + n_traced + 1
    crossing = None
    seen_below = False
    walk = _sigma_walk(m_zeros, n_traced, start)
    prev, prev_den = next(walk)
    for n, (cur, cur_den) in zip(range(start + 1, max_n + 1), walk):
        seen_below = seen_below or prev < prev_den
        if prev < prev_den and cur_den <= cur:
            lo, hi = Fraction(prev, prev_den), Fraction(cur, cur_den)
            crossing = Fraction(n - 1) + (1 - lo) / (hi - lo)
        if crossing is not None and n > settled and 20 * cur > 21 * cur_den:
            break
        prev, prev_den = cur, cur_den
    if crossing is not None:
        return float(crossing)
    if not seen_below:
        raise NoCrossingError("sum never drops below 1 in the window", (start, max_n))
    raise NoCrossingError("no upward crossing of 1 found", (start, max_n))


@frozen
class N0Fit:
    """Least-squares line through (L, N0) crossing points."""

    slope: float
    intercept: float
    rms_residual: float


def fit_n0_line(m_zeros: int, l_values: Iterable[int]) -> N0Fit:
    """Least-squares line N0 = a L + b over the given traced-party counts,
    solved without numpy and exactly over the crossings :func:`solve_n0`
    returns: slope, intercept and mean squared residual are rationals, each
    rounded to float once, so points on a line fit with residual 0."""
    xs = sorted({check_count(l, "traced count L", 1) for l in l_values})
    if len(xs) < 2:
        raise ValueError("need at least two distinct L values to fit a line")
    ys = [Fraction(solve_n0(m_zeros, l)) for l in xs]
    x_mean, y_mean = Fraction(sum(xs), len(xs)), sum(ys) / len(ys)
    spread = sum((x - x_mean) ** 2 for x in xs)
    slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / spread
    intercept = y_mean - slope * x_mean
    squares = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    return N0Fit(float(slope), float(intercept), math.sqrt(squares / len(xs)))

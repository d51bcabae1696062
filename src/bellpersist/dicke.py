"""Reduced Dicke states and permutation-symmetric x/z correlation sums.

Tracing L qubits out of the n-qubit Dicke state with M zeros leaves a
binomial mixture of smaller Dicke states.  Because Dicke states are
permutation symmetric, the full correlation tensor over sigma_x / sigma_z
measurement choices collapses to one value per number of x factors, and
the sum of its squares has a closed combinatorial form that scales
polynomially in the register size.

In that sum the C(n, m) normalisations of the Dicke components cancel,
so :func:`sigma_sum` is one integer S over C(N, M)^2 (see its
docstring): threshold cases (sums exactly equal to 1) are decided on
integers, without rational or floating-point arithmetic until the final
value.  The readable route :func:`reduced_dicke` -> :func:`sym_correlation`
-> :func:`sym_sigma` computes the same sum in exact rationals and is the
second route the tests compare against; the independent dense
cross-check (a partial trace of the dense Dicke state) lives in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from ._lazy import lazy_import
from .errors import NoCrossingError

np = lazy_import("numpy")


@dataclass(frozen=True)
class DickeMixture:
    """Weighted mixture of Dicke components on ``n`` qubits.

    ``components`` maps each surviving zeros-count ``m`` to its weight.
    Weights are exact rationals and must sum to one.
    """

    n: int
    components: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("mixture needs at least one qubit")
        total = Fraction(0)
        for m, w in self.components:
            if not 0 <= m <= self.n:
                raise ValueError(f"component m={m} out of range for n={self.n}")
            if w < 0:
                raise ValueError("component weights must be nonnegative")
            total += w
        if total != 1:
            raise ValueError(f"component weights sum to {total}, expected 1")


@dataclass(frozen=True)
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
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    if not 0 <= k <= n:
        raise ValueError(f"x-count k={k} out of range")
    if k % 2 == 1:
        return Fraction(0)
    half = k // 2
    if half > m or m - half > n - k:
        return Fraction(0)
    sign = -1 if (n - m - half) % 2 else 1
    return Fraction(sign * math.comb(k, half) * math.comb(n - k, m - half), math.comb(n, m))


def _check_reduction(n_total: int, m_zeros: int, n_traced: int) -> None:
    if not 0 <= m_zeros <= n_total:
        raise ValueError(f"need 0 <= M <= N, got M={m_zeros}, N={n_total}")
    if not 0 <= n_traced < n_total:
        raise ValueError(f"traced count L={n_traced} must satisfy 0 <= L < N={n_total}")


def reduced_dicke(n_total: int, m_zeros: int, n_traced: int) -> DickeMixture:
    """Mixture left after tracing ``n_traced`` qubits out of a Dicke state.

    The surviving component with m_zeros - l zeros has weight
    C(L, l) C(N-L, M-l) / C(N, M).
    """
    _check_reduction(n_total, m_zeros, n_traced)
    n = n_total - n_traced
    denom = math.comb(n_total, m_zeros)
    components = []
    for lost in range(n_traced + 1):
        m = m_zeros - lost
        if not 0 <= m <= n:
            continue
        weight = Fraction(math.comb(n_traced, lost) * math.comb(n, m), denom)
        if weight:
            components.append((m, weight))
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
    on it.

    Substituting the weights of :func:`reduced_dicke` into
    :func:`xz_component`, the C(n, m) factors cancel and, with
    n = N - L and h = k/2 over even k,

        sigma = S / C(N, M)^2,
        S = sum_k C(n, k) C(k, h)^2 (sum_l (-1)^(n-(M-l)-h) C(L, l) C(n-k, M-l-h))^2,

    where terms with M-l > n or M-l-h outside 0..n-k vanish exactly as
    in the readable route.  The sign (-1)^(n-M-h) is common to every
    term of the inner sum and drops out when it is squared.
    """
    _check_reduction(n_total, m_zeros, n_traced)
    n = n_total - n_traced
    total = 0
    for k in range(0, n + 1, 2):
        h = k // 2
        inner = 0
        # math.comb is 0 once M-l-h > n-k, which also covers M-l > n
        for lost in range(min(n_traced, m_zeros - h) + 1):
            term = math.comb(n_traced, lost) * math.comb(n - k, m_zeros - lost - h)
            inner += -term if lost % 2 else term
        total += math.comb(n, k) * math.comb(k, h) ** 2 * inner * inner
    return Fraction(total, math.comb(n_total, m_zeros) ** 2)


def solve_n0(m_zeros: int, n_traced: int) -> float:
    """Party count at which the reduced correlation sum crosses up through 1.

    For fixed (M, L) with L >= M the sum is below 1 for small registers
    and grows through 1 as the register grows.  When few parties are
    traced (L < M) the sum can additionally wander around 1 while the
    register is so small that the state is close to its own bit-flip
    mirror; the crossing of interest is the final upward one, after
    which the sum stays above 1.  Integers are scanned and the
    bracketing pair is interpolated linearly; a crossing that lands
    exactly on an integer is returned exactly.
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
    prev = sigma_sum(start, m_zeros, n_traced)
    for n in range(start + 1, max_n + 1):
        cur = sigma_sum(n, m_zeros, n_traced)
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


@dataclass(frozen=True)
class N0Fit:
    """Least-squares line through (L, N0) crossing points."""

    slope: float
    intercept: float
    rms_residual: float


def fit_n0_line(m_zeros: int, l_values: Iterable[int]) -> N0Fit:
    """Fit N0 = a L + b over the given traced-party counts."""
    l_list = sorted(set(int(l) for l in l_values))
    if len(l_list) < 2:
        raise ValueError("need at least two distinct L values to fit a line")
    xs = np.array(l_list, dtype=float)
    ys = np.array([solve_n0(m_zeros, l) for l in l_list])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return N0Fit(float(slope), float(intercept), float(np.sqrt(np.mean(resid**2))))

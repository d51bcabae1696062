"""Symmetrized persistency of Bell correlations.

For uniformly symmetrized mixtures that hand a GHZ block of size M to a
random M-subset of N parties, any M parties can violate a Bell
inequality with quantum-to-classical ratio b * a^M iff

    C(N, M)^-1 * b * a^M > 1,

since the block lands on the measured subset with probability 1/C(N,M).
Two Bell families score the mixtures, each named by a string: "makb",
the Mermin-type family with (a, b) = (sqrt 2, 1/sqrt 2), and "gbi", the
geometric inequality with (a, b) = (pi/2, 1/2).
The number of parties that may be lost while the remaining ones still
violate follows from scanning M; asymptotically the fraction M/N that
must be preserved tends to the root of H(gamma) = gamma * log2(a) with
H the binary entropy.

Frontier decisions are certified in integers at every N.  For makb the
test is 2^(M-1) > C(N, M)^2.  For gbi Euler's zigzag series
(N. D. Elkies, Amer. Math. Monthly 110 (2003) 561) gives, with s = M + 1,
C_M = A_M / M! = 2 (2/pi)^s sum_{k>=0} (-1)^(ks) (2k+1)^-s = 2 (2/pi)^s (1 + eps)
with |eps| <= sum_{k>=1} (2k+1)^-s <= 3^-s + int_1^inf (2x+1)^-s dx =
3^-s (1 + 3 / (2 (s-1))) < 2 * 3^-s for s >= 3.  So (2/pi) / C_M > C(N, M),
i.e. (pi/2)^M > 2 (1 + eps) C(N, M), is decided against 2 (1 -+ 2 * 3^-s)
C(N, M) with the continued-fraction convergents 103993/33102 < pi <
104348/33215 (the even-indexed ones lie below pi, the odd-indexed above).

Dicke-state persistency uses the squared-correlation indicator from the
dicke module: a correlation sum above 1 is the Zukowski-Brukner
sufficient condition for a two-setting full-correlation violation, so
tracing L parties keeps a violation as long as the sum stays above 1.
That sum is taken in the x/z measuring plane (sigma_x or sigma_z at
every party), so every Dicke row here is an x/z row.

Everything here is a lower bound: better inequalities can only raise
the numbers.  Upper bounds (for single-zero Dicke states half the
register is known to be a ceiling) are out of scope.
"""

from __future__ import annotations

import math

from . import bell, dicke
from ._record import frozen
from .errors import check_count

# continued-fraction convergents (p, q) of pi, just below and just above it
_PI_LO, _PI_HI = (103993, 33102), (104348, 33215)

# the growth model (a, b) of ratio(M) = b * a^M for each family
_GROWTH = {"makb": (math.sqrt(2.0), 1.0 / math.sqrt(2.0)), "gbi": (math.pi / 2.0, 0.5)}


@frozen
class PersistencyResult:
    """How many of ``n_parties`` may be traced out while a violation survives.

    ``witness_m`` counts the parties left where ``margin``, the condition
    value, is taken: N - max_traced at the frontier, or N - 1 when not
    even one party may be traced (the first loss, which fails).  The
    two-party Dicke state is the one exception: it reports its margin at
    L = 0 with witness_m = 2.
    """

    n_parties: int
    max_traced: int
    witness_m: int
    margin: float

    def __post_init__(self):
        check_count(self.max_traced, "traced count", 0, self.n_parties - 1)


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2(1-x), with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy defined on [0, 1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def gamma_crit(a: float) -> float:
    """Root of H(gamma) = gamma * log2(a) in (1/2, 1), by bisection to
    double precision.

    This is the asymptotic fraction of parties that must be preserved
    for the condition C(N, gamma N)^-1 * b * a^(gamma N) > 1 to hold.
    The root lies in (1/2, 1) iff 1 < a < 4: for g(x) = H(x) - x log2(a),
    g(1/2) = 1 - log2(a) / 2 > 0 and g(1) = -log2(a) < 0, so the
    bisection starts from those exact ends.  It keeps g(lo) > 0 >= g(hi)
    and stops when the midpoint equals an end, that is when lo and hi
    are adjacent floats (about 52 halvings); it returns lo, so the
    returned value and the next float above it bracket the sign change
    of g as evaluated.
    """
    if not 1.0 < a < 4.0:
        raise ValueError(f"growth base {a!r}: the root lies in (1/2, 1) only for 1 < a < 4")
    log2a = math.log2(a)

    def g(x: float) -> float:
        return binary_entropy(x) - x * log2a

    lo, hi = 0.5, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo


def _log_condition(family: str, m: int, log_binom: float) -> float:
    """log(C(N, M)^-1 b a^M), given log C(N, M): the one float form of the
    condition, for the float proposal and for the margin.

    The geometric constant C_M = A_M / M! equals 2 (2/pi)^(M+1) to within
    3^-M relative error, so below M = 34, where that gap exceeds double
    precision, the exact ratio (2/pi) / C_M replaces b a^M (C_1 = 1 for
    the lone party left at N = 2).
    """
    if family == "gbi" and m < 34:
        coeff = bell.gbi_qcr_coefficient(m) if m > 1 else 2
        return math.log(float(coeff) / math.pi) - log_binom
    a, b = _GROWTH[family]
    return math.log(b) + m * math.log(a) - log_binom


def _violates(family: str, m: int, binom: int) -> bool:
    """Certified C(n, m)^-1 b a^m > 1 for the family, 2 <= m < n, given
    the integer binom = C(n, m)."""
    if family == "makb":
        # (1/sqrt2) sqrt2^m > C(n, m)  <=>  2^(m-1) > C(n, m)^2
        return 1 << (m - 1) > binom * binom
    # (2/pi) / C_m > C(n, m) <=> (pi/2)^m > 2 (1 + eps) C(n, m), |eps| < 2 / 3^(m+1);
    # both sides times 3^(m+1) (2q)^m for a bracket p/q of pi
    three = 3 ** (m + 1)
    (p_lo, q_lo), (p_hi, q_hi) = _PI_LO, _PI_HI
    if p_lo**m * three > 2 * (2 * q_lo) ** m * (three + 2) * binom:
        return True
    if p_hi**m * three < 2 * (2 * q_hi) ** m * (three - 2) * binom:
        return False
    raise RuntimeError("pi bracket too coarse to certify the frontier")


def ghz_persistency(family: str, n_parties: int) -> PersistencyResult:
    """Largest number of parties that may be traced out of the
    symmetrized GHZ-block mixture while some subgroup still violates the
    ``family`` inequality, "makb" or "gbi".

    ``max_traced`` is the largest t such that subgroups of M = N - t
    parties satisfy C(N, M)^-1 b a^M > 1 (zero if even t = 1 fails);
    ``witness_m`` is the subgroup size at that frontier (N - 1 when
    nothing may be traced) and ``margin`` the condition value there.
    Every row is certified in integers at any N; floats only propose.

    The condition's logarithm f(M) = log b + M log a - log C(N, M) is
    convex in M on 2 <= M <= N-1: log C(N, M) has second difference
    -log[(M+1)(N-M+1) / (M (N-M))] < -log(1 + 1/M), and log(b a^M) is
    linear (the exact geometric ratio (2/pi) / C_M used below M = 34 has
    second differences of size at most 0.065, below log(1 + 1/M) there).
    So the M with f(M) <= 0 form an interval.  For N >= 3, M = 2 never
    violates in either family: for makb 2 < C(N, 2)^2 since C(N, 2) >= 3,
    and for gbi 4/pi < 3 <= C(N, 2).  So the violating M are a suffix
    {M >= M_f}, and the float proposal M_f is found by bisection from
    lo = 2, with log C(N, M) read off math.lgamma.

    The proposal is then stepped until M violates exactly and M - 1 does
    not (or M - 1 < 2).  One math.comb forms C(N, M_f); each step moves
    it by an exact ratio, C(N, M+1) = C(N, M) (N-M) / (M+1) and
    C(N, M-1) = C(N, M) M / (N-M+1), and the margin takes the log of the
    same integer (of C(N, N-1) = N when nothing may be traced).  The
    stepped pair fixes the frontier because, for both families on
    2 <= M <= N-1, the violating set is {M >= M*}: no M <= N/2
    violates, and above N/2 the condition
    grows with M (the ratio of successive values is a (M+1) / (N-M) > 1
    in the b a^M form and (C_M / C_(M+1)) (M+1) / (N-M) > 1 for the
    exact geometric constants).
    """
    if family not in ("makb", "gbi"):
        raise ValueError(f"unknown Bell family {family!r}; use 'makb' or 'gbi'")
    n = check_count(n_parties, "party count N", 2)
    log_n_fact = math.lgamma(n + 1)

    # first float-violating m in [2, n-1], or m == n when none violates
    lo, m = 2, n  # lo does not violate; m violates or is n
    while m - lo > 1:
        mid = (lo + m) // 2
        log_binom = log_n_fact - math.lgamma(mid + 1) - math.lgamma(n - mid + 1)
        if _log_condition(family, mid, log_binom) > 0:
            m = mid
        else:
            lo = mid
    binom = math.comb(n, m)
    while m < n and not _violates(family, m, binom):
        m, binom = m + 1, binom * (n - m) // (m + 1)
    while m > 2 and _violates(family, m - 1, below := binom * m // (n - m + 1)):
        m, binom = m - 1, below
    witness = min(m, n - 1)
    margin = _log_condition(family, witness, math.log(binom if m < n else n))
    return PersistencyResult(n, n - m, witness, math.exp(margin))


def dicke_persistency(n_parties: int, m_zeros: int) -> PersistencyResult:
    """Indicator-level persistency of the Dicke state with M zeros.

    ``max_traced`` is the largest L for which the squared-correlation
    sum of the reduced state still exceeds 1 (the Zukowski-Brukner
    sufficient condition for violation, so the persistency claim is the
    lower bound P >= max_traced + 1); ``margin`` is the sum at that L,
    or at L = 1 when no L qualifies (at L = 0 for two parties), and
    ``witness_m`` the N - L parties left there.

    The sums of every L come from one Krawtchouk row of the dicke
    module, as integers S over C(N, M)^2, taken in the x/z measuring
    plane as :func:`dicke.sigma_sum` is, and "exceeds 1" is
    S > C(N, M)^2.  Every L is tested: near half filling the violating L
    do not form a prefix, so no scan may stop at the first failure.
    """
    n_parties = check_count(n_parties, "party count N", 2)
    m_zeros = check_count(m_zeros, "zeros count M", 0, n_parties)
    row, denom = dicke._sigma_row(n_parties, m_zeros, max(n_parties - 2, 0))
    best = max((traced for traced in range(1, n_parties - 1) if row[traced] > denom), default=0)
    at = max(best, 1) if n_parties > 2 else 0
    # int / int is correctly rounded, as float(Fraction) is
    return PersistencyResult(n_parties, best, n_parties - at, row[at] / denom)

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from bellpersist import bell, dicke, persistency
from bellpersist.persistency import (
    PersistencyResult,
    binary_entropy,
    dicke_persistency,
    gamma_crit,
    ghz_persistency,
)
from oracles import dicke_persistency_by_points, sigma_sum_by_binomials

# pi to 50 decimals, rounded down, and one unit of the last digit above it
PI_LO = Fraction(314159265358979323846264338327950288419716939937510, 10**50)
PI_HI = PI_LO + Fraction(1, 10**50)


def _violates_by_scan(family, n, m):
    """Reference test of C(n, m)^-1 b a^m > 1, exact for one M at a time."""
    if family == "makb":
        return 2 ** (m - 1) > math.comb(n, m) ** 2
    ratio = bell.gbi_qcr_coefficient(m) / math.comb(n, m)
    assert not PI_LO <= ratio <= PI_HI, (n, m)
    return ratio > PI_HI


def _row_scan_log_condition(family, ms, log_binom):
    """log(C(N, M)^-1 b a^M) over an array of M, as the numpy row scan
    that preceded the bisection computed it."""
    a, b = {"makb": (math.sqrt(2.0), 1.0 / math.sqrt(2.0)), "gbi": (math.pi / 2.0, 0.5)}[family]
    logs = math.log(b) + ms * math.log(a) - log_binom
    for i in np.flatnonzero(ms < 34) if family == "gbi" else ():
        coeff = bell.gbi_qcr_coefficient(int(ms[i])) if ms[i] > 1 else 2
        logs[i] = math.log(float(coeff) / math.pi) - log_binom[i]
    return logs


def _row_scan(family, n):
    """Reference float frontier: evaluate every M in [2, N-1] and take the
    first violating one; returns (max_traced, witness_m, margin)."""
    ms = np.arange(2, n)
    lf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    hits = np.flatnonzero(_row_scan_log_condition(family, ms, lf[n] - lf[ms] - lf[n - ms]) > 0)
    m = int(ms[hits[0]]) if hits.size else n
    witness = min(m, n - 1)
    log_binom = np.array([math.log(math.comb(n, witness))])
    margin = _row_scan_log_condition(family, np.array([witness]), log_binom)
    return n - m, witness, math.exp(margin[0])


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_symmetry(self):
        for x in (0.1, 0.25, 0.4):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    def test_critical_point_identity(self):
        # at the sqrt(2) critical fraction, H(gamma) equals gamma/2
        gamma = 0.905118
        assert binary_entropy(gamma) == pytest.approx(gamma / 2, abs=1e-6)


class TestGammaCrit:
    def test_sqrt2(self):
        assert gamma_crit(math.sqrt(2.0)) == pytest.approx(0.905118, abs=1e-5)

    def test_half_pi(self):
        assert gamma_crit(math.pi / 2.0) == pytest.approx(0.867227, abs=1e-5)

    def test_against_grid_scan_oracle(self):
        a = 2.0
        xs = [0.5 + i * 1e-6 for i in range(int(0.5 / 1e-6))]
        crossing = next(
            x for x in xs if binary_entropy(x) - x * math.log2(a) < 0
        )
        assert gamma_crit(a) == pytest.approx(crossing, abs=1e-5)

    def test_residual_and_side(self):
        for a in (math.sqrt(2.0), math.pi / 2.0, 2.0, 3.5):
            gamma = gamma_crit(a)
            assert abs(binary_entropy(gamma) - gamma * math.log2(a)) < 1e-8
            probe = gamma + 1e-4
            assert binary_entropy(probe) < probe * math.log2(a)

    @pytest.mark.parametrize(
        "a", [math.sqrt(2.0), math.pi / 2.0, 2.0, 3.5, 1.000000000001, 3.99999999]
    )
    def test_root_to_double_precision(self, a):
        # gamma and the next float above it bracket the sign change of the
        # residual: the bisection runs until its ends are adjacent floats;
        # the last two bases put the root within 1e-12 of 1 and 1e-9 of 1/2
        gamma = gamma_crit(a)
        residual = lambda x: binary_entropy(x) - x * math.log2(a)
        assert residual(gamma) > 0 >= residual(math.nextafter(gamma, 1.0))

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_crit(1.0)
        with pytest.raises(ValueError):
            gamma_crit(4.5)


class TestGhzPersistency:
    def test_makb_first_instance_at_nine(self):
        assert ghz_persistency("makb", 9).max_traced == 1
        assert ghz_persistency("makb", 8).max_traced == 0

    def test_makb_boundary_value_not_strict(self):
        # at N = 8, M = 7 the condition value is exactly 1
        result = ghz_persistency("makb", 8)
        assert result.witness_m == 7
        assert result.margin == pytest.approx(1.0, abs=1e-12)

    def test_gbi_first_instance_at_seven(self):
        r6 = ghz_persistency("gbi", 6)
        r7 = ghz_persistency("gbi", 7)
        assert r6.max_traced == 0 and r7.max_traced == 1
        assert r7.witness_m == 6
        assert r7.margin == pytest.approx(1440 / (427 * math.pi), abs=1e-9)

    def test_gbi_constant_closed_form_bound(self):
        # C_M = 2 (2/pi)^(M+1) (1 + eps_M) with |eps_M| < 2 * 3^-(M+1), the
        # bound the certificate relies on; past M ~ 90 the 50-digit pi
        # bracket is wider than 3^-M and cannot show it
        for m in range(2, 91):
            delta = Fraction(2, 3 ** (m + 1))
            for pi in (PI_LO, PI_HI):
                ratio = bell.gbi_classical(m) * pi ** (m + 1) / 2 ** (m + 2)
                assert abs(ratio - 1) < delta, m

    def test_pi_bracket_encloses_pi(self):
        assert Fraction(*persistency._PI_LO) < PI_LO
        assert Fraction(*persistency._PI_HI) > PI_HI

    @pytest.mark.parametrize("family", ["makb", "gbi"])
    def test_certified_matches_per_m_scan(self, family):
        for n in range(2, 301):
            frontier = next((m for m in range(2, n) if _violates_by_scan(family, n, m)), n)
            result = ghz_persistency(family, n)
            assert (result.max_traced, result.witness_m) == (n - frontier, min(frontier, n - 1)), n
            m = result.witness_m
            if m >= 2:
                if family == "makb":
                    value = math.sqrt(Fraction(2 ** (m - 1), math.comb(n, m) ** 2))
                else:
                    value = float(bell.gbi_qcr_coefficient(m) / math.comb(n, m)) / math.pi
                assert result.margin == pytest.approx(value, rel=1e-12), n

    @pytest.mark.parametrize("shift", [-0.7, 0.7])
    def test_certificate_corrects_a_wrong_proposal(self, monkeypatch, shift):
        # a float row off by a factor of two proposes the wrong M; the
        # exact steps must still land on the per-M scan's frontier
        inner = persistency._log_condition
        monkeypatch.setattr(persistency, "_log_condition", lambda *args: inner(*args) + shift)
        for family in ("makb", "gbi"):
            for n in range(2, 121):
                frontier = next((m for m in range(2, n) if _violates_by_scan(family, n, m)), n)
                assert ghz_persistency(family, n).max_traced == n - frontier, (family, n)

    @pytest.mark.parametrize("family", ["makb", "gbi"])
    def test_rows_match_row_scan(self, family):
        # includes the makb tie at N = 8, where 2^6 = C(8, 7)^2
        for n in range(2, 2601):
            result = ghz_persistency(family, n)
            assert (result.max_traced, result.witness_m, result.margin) == _row_scan(family, n), n

    def test_one_binomial_per_row(self, monkeypatch):
        # the certificate and the margin share one math.comb; every other
        # binomial is an exact ratio step from it
        calls = []
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda n, k: calls.append((n, k)) or comb(n, k))
        for family in ("makb", "gbi"):
            for n in range(2, 301):
                calls.clear()
                ghz_persistency(family, n)
                assert len(calls) == 1, (family, n, calls)

    def test_monotone_in_n(self):
        for family in ("makb", "gbi"):
            previous = 0
            for n in range(2, 201):
                current = ghz_persistency(family, n).max_traced
                assert current >= previous, (family, n)
                previous = current

    def test_frontier_fraction_converges(self):
        for family, a in (("makb", math.sqrt(2.0)), ("gbi", math.pi / 2)):
            fraction = ghz_persistency(family, 10**4).witness_m / 10**4
            assert abs(fraction - gamma_crit(a)) < 0.01

    @pytest.mark.parametrize(
        "family", ["custom", "MAKB", None, ["makb"]], ids=["custom", "MAKB", "None", "list"]
    )
    def test_refuses_unknown_family(self, family):
        with pytest.raises(ValueError, match=re.escape(repr(family))):
            ghz_persistency(family, 12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ghz_persistency("makb", 1)
        with pytest.raises(ValueError):
            PersistencyResult(4, 4, 0, 1.0)


class TestDickePersistency:
    @pytest.mark.parametrize("n,m", [(5, 1), (6, 2), (8, 3), (9, 4)])
    def test_persistency_two_instances(self, n, m):
        result = dicke_persistency(n, m)
        assert result.max_traced >= 1
        assert result.max_traced + 1 >= 2

    def test_four_one_fails_indicator(self):
        assert dicke_persistency(4, 1).max_traced == 0

    @pytest.mark.parametrize("n,m", [(2, 1), (4, 1), (9, 4)])
    def test_one_row_per_call(self, monkeypatch, n, m):
        seen = []
        inner = dicke._sigma_row

        def counting(*args):
            seen.append(args)
            return inner(*args)

        monkeypatch.setattr(dicke, "_sigma_row", counting)
        result = dicke_persistency(n, m)
        # the row stops at the largest L the scan reads
        assert seen == [(n, m, max(n - 2, 0))]
        margin_l = max(result.max_traced, 1) if n > 2 else 0
        assert result.margin == float(sigma_sum_by_binomials(n, m, margin_l))

    def test_matches_point_scan(self):
        cases = [(n, m) for n in range(2, 41) for m in range(n + 1)]
        # the half-filled N = 300 row costs seconds by points; its sums
        # are sampled in test_dicke
        for n, m in cases + [(300, 7), (300, 299)]:
            assert dicke_persistency(n, m) == dicke_persistency_by_points(n, m), (n, m)

    def test_half_filling_violations_are_not_a_prefix(self):
        # why dicke_persistency tests every L: some L below max_traced fail
        n, m = 40, 20
        result = dicke_persistency(n, m)
        failing = [l for l in range(1, result.max_traced) if dicke.sigma_sum(n, m, l) <= 1]
        assert failing

    def test_witness_is_where_margin_is_taken(self):
        # both solvers: witness_m = N - max(max_traced, 1), the margin taken there
        for n in range(3, 13):
            for m in range(n + 1):
                result = dicke_persistency(n, m)
                assert result.witness_m == n - max(result.max_traced, 1), (n, m)
                margin_l = n - result.witness_m
                assert result.margin == float(sigma_sum_by_binomials(n, m, margin_l))
            ghz = ghz_persistency("makb", n)
            assert ghz.witness_m == n - max(ghz.max_traced, 1), n
        assert dicke_persistency(2, 1).witness_m == 2

    @pytest.mark.parametrize("n,m", [(7, 3), (5, 2), (8, 4)])
    def test_preceding_instances_fail(self, n, m):
        assert dicke_persistency(n, m).max_traced == 0

    def test_exchange_symmetry(self):
        for n in range(3, 11):
            for m in range(n + 1):
                assert (
                    dicke_persistency(n, m).max_traced
                    == dicke_persistency(n, n - m).max_traced
                )

    def test_asymptotic_fraction_single_zero(self):
        assert 1 / dicke.fit_n0_line(1, range(5, 26)).slope == pytest.approx(1 / 3, rel=0.02)

    def test_asymptotic_fraction_grows_with_m(self):
        fractions = [1 / dicke.fit_n0_line(m, range(5, 21)).slope for m in (1, 2, 3, 4)]
        assert all(a < b for a, b in zip(fractions, fractions[1:]))

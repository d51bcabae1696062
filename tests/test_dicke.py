import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpersist import dicke, qstate
from bellpersist.dicke import (
    DickeMixture,
    fit_n0_line,
    reduced_dicke,
    sigma_sum,
    solve_n0,
    sym_correlation,
    sym_sigma,
    xz_component,
)
from bellpersist.errors import NoCrossingError
from oracles import (
    dense_mixture, dense_sigma_sum, dicke_state, optimize_wwwzb_angles, partial_trace,
    sigma_sum_by_binomials, solve_n0_by_points,
)

F = Fraction


class TestReducedDicke:
    def test_3_1_1_weights(self):
        mix = reduced_dicke(3, 1, 1)
        assert dict(mix.components) == {1: F(2, 3), 0: F(1, 3)}

    def test_no_trace_is_pure_component(self):
        mix = reduced_dicke(5, 2, 0)
        assert dict(mix.components) == {2: F(1)}

    def test_rejects_tracing_all(self):
        with pytest.raises(ValueError):
            reduced_dicke(3, 1, 3)

    @pytest.mark.parametrize("n,m,l", [(4, 2, 1), (6, 3, 2), (7, 1, 3), (8, 5, 4)])
    def test_matches_dense_partial_trace(self, n, m, l):
        mix = reduced_dicke(n, m, l)
        dense = partial_trace(dicke_state(n, m), list(range(n - l, n)))
        np.testing.assert_allclose(dense_mixture(mix).data, dense.data, atol=1e-12)

    def test_weights_always_sum_to_one(self):
        for n in range(2, 9):
            for m in range(n + 1):
                for l in range(n):
                    mix = reduced_dicke(n, m, l)
                    assert sum(w for _, w in mix.components) == 1


class TestSymCorrelation:
    def test_bell_state_values(self):
        sym = sym_correlation(reduced_dicke(2, 1, 0))
        assert sym.values == (F(-1), F(0), F(1))

    def test_all_zero_state(self):
        sym = sym_correlation(reduced_dicke(4, 4, 0))
        assert sym.values == (F(1), F(0), F(0), F(0), F(0))

    def test_odd_components_vanish(self):
        for n in range(2, 9):
            for m in range(n + 1):
                sym = sym_correlation(reduced_dicke(n, m, 0))
                assert all(sym.values[k] == 0 for k in range(1, n + 1, 2))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_component_formula_against_oracle(self, n):
        for m in range(n + 1):
            state = dicke_state(n, m)
            for k in range(n + 1):
                letters = "X" * k + "Z" * (n - k)
                oracle = qstate.expectation(state, letters)
                assert float(xz_component(n, m, k)) == pytest.approx(oracle, abs=1e-10)

    def test_component_arrangement_invariance(self):
        # any arrangement of the same x-count gives the same value
        state = dicke_state(6, 2)
        arrangements = ["XXZZZZ", "ZXZXZZ", "ZZZZXX"]
        values = [qstate.expectation(state, s) for s in arrangements]
        assert max(values) - min(values) < 1e-12

    def test_mixture_values(self):
        sym = sym_correlation(reduced_dicke(8, 3, 1))
        assert sym.values[0] == F(1, 4)
        assert sym.values[2] == F(-5, 28)
        assert sym.values[4] == F(3, 14)
        assert sym.values[6] == F(-5, 14)


class TestSigmaSum:
    def test_bell_state(self):
        assert sigma_sum(2, 1, 0) == 2

    def test_product_state(self):
        for n in range(2, 8):
            assert sigma_sum(n, n, 0) == 1

    def test_first_persistency_two_instance(self):
        assert sigma_sum(5, 1, 1) == F(33, 25)
        assert sigma_sum(5, 1, 1) > 1

    def test_boundary_case_exact(self):
        assert sigma_sum(4, 1, 1) == 1  # not a violation: strictly greater is required

    @pytest.mark.parametrize(
        "n,m,l",
        [(4, 2, 1), (5, 2, 2), (6, 3, 1), (7, 2, 3), (8, 4, 2), (8, 3, 1)],
    )
    def test_matches_dense_oracle(self, n, m, l):
        assert float(sigma_sum(n, m, l)) == pytest.approx(
            dense_sigma_sum(n, m, l), abs=1e-10
        )

    def test_integer_kernel_matches_readable_route(self):
        for n in range(1, 25):
            for m in range(n + 1):
                for l in range(n):
                    readable = sym_sigma(sym_correlation(reduced_dicke(n, m, l)))
                    assert sigma_sum(n, m, l) == readable, (n, m, l)

    @pytest.mark.parametrize(
        "n,m,l",
        [(40, 0, 7), (40, 3, 39), (40, 12, 20), (60, 1, 20), (60, 7, 33),
         (60, 12, 5), (80, 4, 15), (80, 9, 60), (80, 12, 79)],
    )
    def test_integer_kernel_matches_readable_route_large(self, n, m, l):
        assert sigma_sum(n, m, l) == sym_sigma(sym_correlation(reduced_dicke(n, m, l)))

    def test_validation_matches_reduction(self):
        for args in [(3, 4, 0), (3, -1, 0), (3, 1, 3), (3, 1, -1)]:
            with pytest.raises(ValueError):
                sigma_sum(*args)

    def test_above_one_is_sufficient_for_violation(self):
        # Zukowski-Brukner: sigma > 1 guarantees that some two-setting
        # full-correlation inequality is violated by x-z plane settings
        violating = []
        for n in range(3, 11):
            for l in range(max(0, n - 4), n):
                for m in range(n + 1):
                    if sigma_sum(n, m, l) > 1:
                        state = dense_mixture(reduced_dicke(n, m, l))
                        value = optimize_wwwzb_angles(state)[0]
                        assert value > 1, (n, m, l, value)
                        violating.append((n, m, l))
        assert (5, 1, 1) in violating and len(violating) == 7

    def test_exchange_symmetry_exact(self):
        for n in range(2, 10):
            for m in range(n + 1):
                for l in range(n - 1):
                    assert sigma_sum(n, m, l) == sigma_sum(n, n - m, l)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=28), st.data())
    def test_exchange_symmetry_property(self, n, data):
        m = data.draw(st.integers(min_value=0, max_value=n))
        l = data.draw(st.integers(min_value=0, max_value=n - 2))
        assert sigma_sum(n, m, l) == sigma_sum(n, n - m, l)


class TestSolveN0:
    @pytest.mark.parametrize("l", [1, 2, 5, 10, 25])
    def test_single_zero_crossing_is_exact(self, l):
        assert solve_n0(1, l) == 3 * l + 1

    def test_crossing_brackets(self):
        n0 = solve_n0(2, 7)
        lo, hi = math.floor(n0), math.ceil(n0)
        assert sigma_sum(lo, 2, 7) < 1 < sigma_sum(hi, 2, 7)

    def test_single_crossing_on_monotone_branch(self):
        # after a small-register transient the sum rises monotonically
        # through 1 exactly once, which makes the interpolation well posed
        for m, l in [(1, 6), (2, 8), (3, 9), (4, 11)]:
            n0 = solve_n0(m, l)
            values = [sigma_sum(n, m, l) for n in range(l + 1, math.ceil(n0) + 4)]
            crossings = sum(
                1 for a, b in zip(values, values[1:]) if a < 1 <= b
            )
            assert crossings == 1, (m, l)
            above = values.index(next(v for v in values if v >= 1))
            assert all(v > 1 for v in values[above + 1 :]), (m, l)
            # the run containing the crossing rises monotonically
            start = above
            while start > 0 and values[start - 1] <= values[start]:
                start -= 1
            assert values[start] < 1 and start < above + 1

    def test_requires_traced_party(self):
        with pytest.raises(ValueError):
            solve_n0(2, 0)

    def test_no_crossing_reports_window(self):
        # zero excitations: the correlation sum never exceeds 1
        with pytest.raises(NoCrossingError) as err:
            solve_n0(0, 3)
        assert err.value.window[1] >= err.value.window[0]

    def test_small_l_takes_final_crossing(self):
        # heavy zeros counts wobble around 1 before settling; the final
        # upward crossing is the reported one
        n0 = solve_n0(4, 1)
        assert 8 < n0 < 9
        assert sigma_sum(9, 4, 1) > 1 > sigma_sum(8, 4, 1)


def _n0_window(m, l):
    # the register sizes solve_n0 may scan for (M, L)
    return range(max(m, l + 1, 2), 4 * (l + m) + 16 + 1)


def _equal(numerator, denominator, value):
    return numerator * value.denominator == value.numerator * denominator


def _n0_or_error(solver, m, l):
    try:
        return solver(m, l)
    except NoCrossingError as err:
        return (str(err), err.window)


class TestKrawtchoukKernels:
    """The row and walk recurrences against the binomial double sum."""

    def test_row_matches_sigma_sum(self):
        for n in range(1, 41):
            for m in range(n + 1):
                row, denom = dicke._sigma_row(n, m, n - 1)
                assert len(row) == n and denom == math.comb(n, m) ** 2
                for l in range(n):
                    assert _equal(row[l], denom, sigma_sum_by_binomials(n, m, l)), (n, m, l)

    @pytest.mark.parametrize("m", [7, 150, 299])
    def test_row_matches_sigma_sum_n300(self, m):
        row, denom = dicke._sigma_row(300, m, 299)
        for l in [*range(0, 300, 23), 1, 150, 298, 299]:
            assert _equal(row[l], denom, sigma_sum_by_binomials(300, m, l)), (m, l)

    def test_walk_matches_sigma_sum(self):
        for m in range(10):
            for l in range(1, 41):
                window = _n0_window(m, l)
                walk = dicke._sigma_walk(m, l, window.start)
                for n, (total, denom) in zip(window, walk):
                    assert denom == math.comb(n, m) ** 2
                    assert _equal(total, denom, sigma_sum_by_binomials(n, m, l)), (n, m, l)

    def test_no_sigma_violation_from_half_the_register(self):
        # checked, not proved, over N <= 80: the sigma > 1 criterion never
        # certifies a reduced state once L >= N/2 parties are traced out
        best = Fraction(0)
        for n in range(2, 81):
            for m in range(n + 1):
                row, denom = dicke._sigma_row(n, m, n - 1)
                for l, total in enumerate(row):
                    if total > denom:
                        assert 2 * l < n, (n, m, l)
                        best = max(best, Fraction(l, n))
        # the largest certified fraction, reached at (N, M, L) = (76, 4, 30)
        assert best == Fraction(15, 38)

    def test_solve_n0_matches_point_scan(self):
        outcomes = set()
        for m in range(10):
            for l in range(1, 41):
                fast = _n0_or_error(solve_n0, m, l)
                assert fast == _n0_or_error(solve_n0_by_points, m, l), (m, l)
                outcomes.add(type(fast))
        # the grid reaches both the crossings and the NoCrossingError window
        assert outcomes == {float, tuple}


class TestFit:
    def test_single_zero_line_is_exact(self):
        # N0 = 3 L + 1 exactly, so the exact fit has no rounding noise
        fit = fit_n0_line(1, range(5, 21))
        assert (fit.slope, fit.intercept, fit.rms_residual) == (3.0, 1.0, 0.0)

    @pytest.mark.parametrize("m", range(1, 8))
    @pytest.mark.parametrize(
        "l_values",
        [range(5, 41), range(1, 9), range(3, 31, 3), range(12, 60, 7), [2, 17]],
        ids=["5:40", "1:8", "3:30:3", "12:59:7", "2,17"],
    )
    def test_matches_float_polyfit(self, m, l_values):
        # the float route the exact fit replaced, on the same crossings
        xs = np.array(l_values, dtype=float)
        ys = np.array([solve_n0(m, l) for l in l_values])
        slope, intercept = np.polyfit(xs, ys, 1)
        residual = np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2))
        fit = fit_n0_line(m, l_values)
        assert fit.slope == pytest.approx(slope, rel=1e-13, abs=0)
        assert fit.intercept == pytest.approx(intercept, rel=1e-12, abs=0)
        assert fit.rms_residual == pytest.approx(residual, rel=0, abs=1e-12)

    def test_reference_slopes(self):
        for m, a_ref in [(2, 2.5776), (3, 2.4043), (4, 2.3325)]:
            fit = fit_n0_line(m, range(5, 26))
            assert fit.slope == pytest.approx(a_ref, rel=0.02), m

    def test_rejects_degenerate_range(self):
        with pytest.raises(ValueError):
            fit_n0_line(1, [7])

    @pytest.mark.parametrize(
        "l_values",
        [[5.5, 6.7], [True, 5, 6], [5, 6.0], ["5", "6"]],
        ids=["fractional", "bool", "integral-float", "string"],
    )
    def test_rejects_non_integer_counts(self, l_values):
        with pytest.raises(ValueError, match="traced count L .* is not an integer"):
            fit_n0_line(2, l_values)

    def test_accepts_numpy_integers_and_iterators(self):
        expected = fit_n0_line(2, range(5, 13))
        assert fit_n0_line(2, np.arange(5, 13)) == expected
        assert fit_n0_line(2, iter(range(12, 4, -1))) == expected


class TestMixtureValidation:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            DickeMixture(2, ((0, F(1, 2)), (1, F(1, 3))))

    def test_rejects_out_of_range_component(self):
        with pytest.raises(ValueError):
            DickeMixture(2, ((3, F(1)),))

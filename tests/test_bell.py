import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpersist import bell, dicke, qccr, qstate
from bellpersist.bell import (
    BellFunctional,
    gbi_classical,
    gbi_classical_by_integration,
    gbi_qcr,
    gbi_quantum,
    ghz_value,
    lr_max,
    makb,
    makb_xy_settings,
    quantum_value,
)
from bellpersist.errors import CapabilityError
from oracles import (
    SignFunction,
    checked_by_entries,
    dicke_state,
    game_distribution_by_entries,
    gbi_coefficients_by_entries,
    makb_by_recursion,
    numerators_by_entries,
    optimize_wwwzb_angles,
    random_pure_state,
    wwwzb_max,
    wwwzb_value,
)

F = Fraction


def xy_pair(alpha, alpha_prime):
    return (
        qstate.PlaneObservable.xy_turns(alpha),
        qstate.PlaneObservable.xy_turns(alpha_prime),
    )


class TestMakb:
    def test_two_party_coefficients(self):
        assert makb(2).coefficients == {
            (0, 0): F(1, 2),
            (0, 1): F(1, 2),
            (1, 0): F(1, 2),
            (1, 1): F(-1, 2),
        }

    def test_three_party_mermin_form(self):
        coeffs = makb(3).coefficients
        assert len(coeffs) == 4
        assert coeffs == {
            (0, 0, 1): F(1, 2),
            (0, 1, 0): F(1, 2),
            (1, 0, 0): F(1, 2),
            (1, 1, 1): F(-1, 2),
        }

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_even_party_full_support(self, n):
        coeffs = makb(n).coefficients
        assert len(coeffs) == 2**n
        assert {abs(v) for v in coeffs.values()} == {F(1, 2 ** (n // 2))}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_self_similarity(self, n):
        parent = makb(n + 1).coefficients
        child = makb(n).coefficients
        for key in itertools.product((0, 1), repeat=n):
            lo = parent.get(key + (0,), F(0))
            hi = parent.get(key + (1,), F(0))
            assert lo + hi == child.get(key, F(0))
            mirrored = tuple(1 - s for s in key)
            assert lo - hi == child.get(mirrored, F(0))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_closed_form_equals_recursion(self, n):
        coeffs = makb(n).coefficients
        assert coeffs == makb_by_recursion(n)
        assert all(type(c) is Fraction for c in coeffs.values())
        assert list(coeffs) == sorted(coeffs)

    def test_range_check(self):
        with pytest.raises(ValueError):
            makb(1)
        with pytest.raises(ValueError):
            makb(17)

    def test_mermin_value_on_phase_aligned_ghz(self):
        # sigma_x / sigma_y settings reach the quantum maximum 2 on the
        # GHZ state with relative phase pi/2
        state = qstate.ghz_state(3, phase=math.pi / 2)
        value = quantum_value(makb(3), state, [xy_pair(0.0, 0.25)] * 3)
        assert value == pytest.approx(2.0, abs=1e-12)


_COEFFICIENTS = {
    "int": st.integers(-40, 40),
    "fraction": st.fractions(max_denominator=60).filter(lambda q: abs(q) < 50),
    "float": st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
}


@st.composite
def two_setting_tables(draw):
    """A coefficient table of one number type on 1..5 parties."""
    n = draw(st.integers(1, 5))
    value = _COEFFICIENTS[draw(st.sampled_from(sorted(_COEFFICIENTS)))]
    return n, {k: draw(value) for k in itertools.product((0, 1), repeat=n)}


def brute_force_lr(n, coeffs):
    """Largest score over all 4^n deterministic strategy profiles, in Fractions."""
    exact = {k: F(c) for k, c in coeffs.items()}
    best = None
    for profile in itertools.product(((1, 1), (1, -1), (-1, 1), (-1, -1)), repeat=n):
        score = sum(
            (c if math.prod(pair[s] for pair, s in zip(profile, k)) > 0 else -c)
            for k, c in exact.items()
        )
        best = score if best is None else max(best, score)
    return best


class TestLrMax:
    def test_chsh_normalized_bound(self):
        assert lr_max(makb(2)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_makb_bound_is_one(self, n):
        assert lr_max(makb(n)) == 1.0

    def test_all_positive_saturates_at_sum(self):
        f = BellFunctional(3, {k: 0.25 for k in itertools.product((0, 1), repeat=3)})
        assert lr_max(f) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "coeffs,total",
        [({(0,): F(3, 4), (1,): -2}, 2.75), ({(0,): -0.5}, 0.5), ({(1,): 3}, 3.0)],
    )
    def test_one_party_is_abs_sum(self, coeffs, total):
        assert lr_max(BellFunctional(1, coeffs)) == total

    def test_matches_full_enumeration(self):
        rng = np.random.default_rng(21)
        for n in (2, 3):
            coeffs = {
                k: rng.normal() for k in itertools.product((0, 1), repeat=n)
            }
            f = BellFunctional(n, coeffs)
            best = -np.inf
            for strat in itertools.product((-1, 1), repeat=2 * n):
                tables = [strat[2 * i : 2 * i + 2] for i in range(n)]
                value = sum(
                    c * np.prod([tables[i][s] for i, s in enumerate(key)])
                    for key, c in coeffs.items()
                )
                best = max(best, value)
            assert lr_max(f) == pytest.approx(best, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(two_setting_tables())
    def test_equals_brute_force(self, table):
        # the exact maximum, correctly rounded, for int, Fraction and float tables
        n, coeffs = table
        assert lr_max(BellFunctional(n, coeffs)) == float(brute_force_lr(n, coeffs))

    def test_party_cap(self):
        f = BellFunctional(17, {(0,) * 17: 1.0})
        with pytest.raises(CapabilityError):
            lr_max(f)

    def test_settings_cap(self):
        with pytest.raises(CapabilityError):
            lr_max(BellFunctional(2, {(0, 2): 1}, settings_per_party=3))

    def test_cached(self):
        f = makb(4)
        assert lr_max(f) is lr_max(f) or lr_max(f) == lr_max(f)


class TestGhzValue:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_dense_oracle(self, n):
        f = makb(n)
        rng = np.random.default_rng(n)
        for turns in ([makb_xy_settings(n)] * n, rng.uniform(-1, 1, size=(n, 2)).tolist()):
            dense = quantum_value(f, qstate.ghz_state(n), [xy_pair(*row) for row in turns])
            assert ghz_value(f, turns) == pytest.approx(dense, abs=1e-13)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_game_success(self, n):
        # a pure GHZ block has visibility 1, so value = (2 p - 1) sum|g|
        game = qccr.makb_game(n)
        value = (2.0 * qccr.quantum_success(game) - 1.0) * float(game.functional.abs_total())
        assert ghz_value(makb(n), [makb_xy_settings(n)] * n) == pytest.approx(value, abs=1e-12)

    def test_party_count_mismatch(self):
        with pytest.raises(ValueError):
            ghz_value(makb(3), [(0.0, 0.25)] * 2)


class TestQuantumValue:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_symmetric_settings_saturate_qcr(self, n):
        f = makb(n)
        pair = xy_pair(*makb_xy_settings(n))
        value = quantum_value(f, qstate.ghz_state(n), [pair] * n)
        assert value / lr_max(f) == pytest.approx(2 ** ((n - 1) / 2), abs=1e-9)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_shifted_settings_saturate_on_plain_ghz(self, n):
        pair = xy_pair(*makb_xy_settings(n))
        value = quantum_value(makb(n), qstate.ghz_state(n), [pair] * n)
        assert value == pytest.approx(2 ** ((n - 1) / 2), abs=1e-12)

    def test_maximally_mixed_gives_zero(self):
        rho = qstate.DenseState(2, np.eye(4) / 4, pure=False)
        value = quantum_value(makb(2), rho, [xy_pair(0.1, 0.3)] * 2)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            quantum_value(makb(2), qstate.ghz_state(3), [xy_pair(0, 0.25)] * 2)
        with pytest.raises(ValueError):
            quantum_value(makb(2), qstate.ghz_state(2), [xy_pair(0, 0.25)] * 3)


def chsh_optimal_xz_pairs():
    x, z = qstate.PlaneObservable.xz(0.0), qstate.PlaneObservable.xz(math.pi / 2)
    d = qstate.PlaneObservable.xz(-math.pi / 4)
    dp = qstate.PlaneObservable.xz(math.pi / 4)
    return [(x, z), (d, dp)]


class TestWwwzb:
    def test_chsh_sign_function_on_bell_state(self):
        psi_plus = dicke_state(2, 1)
        value = wwwzb_value(SignFunction.chsh(), psi_plus, chsh_optimal_xz_pairs())
        assert abs(value) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_constant_sign_function_on_mixed_state(self):
        rho = qstate.DenseState(2, np.eye(4) / 4, pure=False)
        pairs = [(qstate.PlaneObservable.xz(0.2), qstate.PlaneObservable.xz(1.0))] * 2
        assert wwwzb_value(SignFunction.constant(2), rho, pairs) == pytest.approx(0.0, abs=1e-12)

    def test_local_deterministic_models_bounded(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(2, 4))
            sf = SignFunction(n, rng.choice([-1, 1], size=(2,) * n))
            # deterministic local state: computational basis product state
            bits = rng.integers(0, 2, size=n)
            amp = np.zeros(2**n)
            amp[int("".join(map(str, bits)), 2)] = 1.0
            state = qstate.DenseState(n, amp, pure=True)
            pairs = [
                (qstate.PlaneObservable.xz(rng.uniform(0, 2 * math.pi)),
                 qstate.PlaneObservable.xz(rng.uniform(0, 2 * math.pi)))
                for _ in range(n)
            ]
            assert abs(wwwzb_value(sf, state, pairs)) <= 1.0 + 1e-10

    def test_max_on_bell_state(self):
        value = wwwzb_max(dicke_state(2, 1), chsh_optimal_xz_pairs())
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_max_ghz3_xy_settings(self):
        pairs = [("X", "Y")] * 3
        assert wwwzb_max(qstate.ghz_state(3), pairs) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_max_matches_sign_enumeration(self, n):
        rng = np.random.default_rng(44 + n)
        state = random_pure_state(n, rng)
        pairs = [
            (qstate.PlaneObservable.xz(rng.uniform(0, 2 * math.pi)),
             qstate.PlaneObservable.xz(rng.uniform(0, 2 * math.pi)))
            for _ in range(n)
        ]
        closed = wwwzb_max(state, pairs)
        best = 0.0
        for raw in itertools.product((-1, 1), repeat=2**n):
            sf = SignFunction(n, np.array(raw).reshape((2,) * n))
            best = max(best, abs(wwwzb_value(sf, state, pairs)))
        assert closed == pytest.approx(best, abs=1e-12)

    def test_angle_optimizer_recovers_bell_violation(self):
        value, angles = optimize_wwwzb_angles(dicke_state(2, 1), grid=32)
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert len(angles) == 2

    def test_separable_states_never_violate(self):
        rng = np.random.default_rng(55)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            single = [random_pure_state(1, rng).amplitudes for _ in range(n)]
            amp = single[0]
            for vec in single[1:]:
                amp = np.kron(amp, vec)
            state = qstate.DenseState(n, amp, pure=True)
            pairs = [
                (qstate.PlaneObservable.xz(rng.uniform(0, 2 * math.pi)),
                 qstate.PlaneObservable.xz(rng.uniform(0, 2 * math.pi)))
                for _ in range(n)
            ]
            assert wwwzb_max(state, pairs) <= 1.0 + 1e-10


class TestViolationIndicator:
    def test_bell_state_violates(self):
        assert dicke.sym_sigma(dicke.sym_correlation(dicke.reduced_dicke(2, 1, 0))) > 1

    def test_product_state_boundary_is_not_violation(self):
        sym = dicke.sym_correlation(dicke.reduced_dicke(5, 5, 0))
        assert not dicke.sym_sigma(sym) > 1

    def test_reduced_w_state_five_parties(self):
        sym = dicke.sym_correlation(dicke.reduced_dicke(5, 1, 1))
        assert dicke.sym_sigma(sym) > 1


class TestGbiConstants:
    def test_quantum_part_is_two_over_pi(self):
        assert gbi_quantum(2) == pytest.approx(2 / math.pi)
        assert gbi_quantum(7) == pytest.approx(2 / math.pi)
        with pytest.raises(ValueError):
            gbi_quantum(1)

    def test_quantum_part_quasi_monte_carlo(self):
        # 2^20 sums of five uniform angles: the standard error of the mean
        # of |cos| is about 3e-4, so abs=2e-3 is more than six of them
        rng = np.random.default_rng(90)
        angles = sum(rng.random(1 << 20) for _ in range(5))
        est = np.mean(np.abs(np.cos(2 * math.pi * angles)))
        assert est == pytest.approx(2 / math.pi, abs=2e-3)

    def test_exact_classical_values(self):
        expected = [F(1, 2), F(1, 3), F(5, 24), F(2, 15), F(61, 720), F(17, 315)]
        assert [gbi_classical(n) for n in range(2, 8)] == expected

    @pytest.mark.parametrize("n", range(2, 41))
    def test_integration_route_agrees(self, n):
        assert gbi_classical_by_integration(n) == gbi_classical(n)

    def test_classical_monte_carlo_oracle(self):
        rng = np.random.default_rng(17)
        n, trials = 4, 400_000
        alpha1 = rng.uniform(-n / 4, (-n + 2) / 4, size=trials)
        rest = rng.uniform(0, 0.5, size=(trials, n - 1)).sum(axis=1)
        signs = np.sign(np.cos(2 * math.pi * (alpha1 + rest)))
        est, sem = signs.mean(), signs.std() / math.sqrt(trials)
        assert abs(est - float(F(5, 24))) < 3 * sem

    def test_ratio_limit(self):
        ratio = float(gbi_classical(19) / gbi_classical(20))
        assert abs(ratio - math.pi / 2) < 1e-3

    def test_qcr_values(self):
        assert gbi_qcr(2) == pytest.approx(4 / math.pi, abs=1e-12)
        assert gbi_qcr(6) == pytest.approx(1440 / (61 * math.pi), abs=1e-12)
        ratio = gbi_qcr(20) / gbi_qcr(19)
        assert abs(ratio - math.pi / 2) < 1e-3

    def test_range_caps(self):
        with pytest.raises(ValueError):
            gbi_classical(1)

    def test_no_rational_cap(self):
        # alternating-permutation counts from 2 A(k+1) = sum_j C(k, j) A(j) A(k-j)
        counts = [1, 1]
        for k in range(1, 60):
            counts.append(sum(math.comb(k, j) * counts[j] * counts[k - j] for j in range(k + 1)) // 2)
        for n in (31, 45, 60):
            assert gbi_classical(n) == F(counts[n], math.factorial(n))
            assert bell.gbi_qcr_coefficient(n) == 2 / gbi_classical(n)


class TestJsonRoundTrip:
    def test_functional_round_trip(self):
        f = makb(3).with_game_distribution()
        restored = BellFunctional.from_json(f.to_json())
        assert restored.n_parties == 3
        assert {k: float(v) for k, v in restored.coefficients.items()} == {
            k: float(v) for k, v in f.coefficients.items()
        }
        assert restored.settings_distribution is not None
        assert restored.with_game_distribution() is restored
        assert BellFunctional.from_json(makb(3).to_json()).settings_distribution is None

    def test_comma_keys_round_trip(self):
        f = BellFunctional(2, {(0, 11): 0.5, (10, 1): -0.25}, settings_per_party=12)
        assert f.to_json()["coefficients"] == {"0,11": 0.5, "10,1": -0.25}
        assert BellFunctional.from_json(f.to_json()).coefficients == f.coefficients

    @pytest.mark.parametrize(
        "spp,key", [(2, "0,1"), (2, "+1,0"), (2, "\u0660\u0661"), (12, "011"), (12, "0,+11")]
    )
    def test_other_key_spellings_rejected(self, spp, key):
        payload = {"n_parties": 2, "settings_per_party": spp, "coefficients": {key: 1.0}}
        with pytest.raises(ValueError, match="spelled"):
            BellFunctional.from_json(payload)

    @pytest.mark.parametrize(
        "n,spp,key,message",
        [
            (2, 2, "0,1", "settings key '0,1' must be spelled '01'"),
            (2, 2, " 0,+1", "settings key ' 0,+1' must be spelled '01'"),
            (2, 12, "01", "settings key '01' must be spelled '0,1'"),
            (1, 2, "5", "settings tuple (5,) out of range"),
            (2, 2, "0", "settings tuple (0,) has wrong arity"),
            (2, 12, "0,1,2", "settings tuple (0, 1, 2) has wrong arity"),
        ],
    )
    def test_refusal_messages(self, n, spp, key, message):
        payload = {"n_parties": n, "settings_per_party": spp, "coefficients": {key: 1.0}}
        with pytest.raises(ValueError) as info:
            BellFunctional.from_json(payload)
        assert str(info.value) == message

    def test_one_party_many_settings_round_trip(self):
        # one party above ten settings: each key is one setting, no comma
        f = BellFunctional(1, {(s,): float(s + 1) for s in range(12)}, settings_per_party=12)
        assert BellFunctional.from_json(f.to_json()) == f

    def test_each_value_object_made_a_float_once(self):
        # shared objects, equal values in distinct objects, and values
        # equal across types (1 and 1.0, 0.5 and Fraction(1, 2))
        calls = []

        class Counted(Fraction):
            def __float__(self):
                calls.append(id(self))
                return super().__float__()

        shared, twin = Counted(1, 3), Counted(1, 3)
        values = [shared, twin, shared, Counted(-1, 2), 1, 1.0, 0.5, F(1, 2), twin]
        keys = itertools.product((0, 1, 2), repeat=2)
        f = BellFunctional(2, dict(zip(keys, values)), settings_per_party=3)
        payload = f.with_game_distribution().to_json()
        assert len(calls) == len(set(calls)) == 3
        written = list(payload["coefficients"].values())
        assert list(map(type, written)) == [float] * len(values)
        assert written == [float(v) for v in values]
        # makb(16): 65 536 entries of 4 coefficient and 1 probability objects
        f = makb(16).with_game_distribution()
        payload = f.to_json()
        for name, objects in (("coefficients", 4), ("settings_distribution", 1)):
            table = getattr(f, name)
            assert len({id(v) for v in table.values()}) == objects
            assert len({id(v) for v in payload[name].values()}) == objects
            assert list(payload[name].values()) == [float(table[k]) for k in sorted(table)]

    def test_distribution_validation(self):
        for dist in (
            {"00": 0.5},
            {"00": 1.0, "01": 0.0},
            {"01": 1.0},
            {"0,0": 1.0},
            {"00": 1.0 + 2e-12},
            {"00": float("nan")},
            {"00": "1"},
            {"00": True},
        ):
            payload = {"n_parties": 2, "coefficients": {"00": 1.0}, "settings_distribution": dist}
            with pytest.raises(ValueError):
                BellFunctional.from_json(payload)


class TestSettingsKeys:
    @pytest.mark.parametrize(
        "key", [(0.7, 1), (True, 0), (0, False), (1.0, 0), ("0", "1"), (0, 2), (-1, 0), (0,)]
    )
    def test_invalid_settings_raise(self, key):
        # a float, bool or string setting raises rather than being truncated by int()
        with pytest.raises(ValueError):
            BellFunctional(2, {key: 1, (0, 0): 2})

    def test_other_integer_types_convert(self):
        f = BellFunctional(2, {(np.int64(1), np.int8(0)): 1})
        assert list(f.coefficients) == [(1, 0)]
        assert all(type(s) is int for s in next(iter(f.coefficients)))


def _typed(table):
    """A table's entries in order with the types of keys and values: equal
    lists mean bit-identical tables (no zero, NaN or inf is kept)."""
    return [(k, tuple(map(type, k)), type(v), repr(v)) for k, v in table.items()]


def _assert_matches_entry_route(n, coefficients, spp=2):
    """BellFunctional checks, splits and divides ``coefficients`` as the
    entry-by-entry route does, refusals word for word."""
    try:
        expected = checked_by_entries(n, coefficients, spp)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            BellFunctional(n, coefficients, spp)
        assert str(info.value) == str(exc)
        return
    f = BellFunctional(n, coefficients, spp)
    assert _typed(f.coefficients) == _typed(expected)
    assert f._numerators() == numerators_by_entries(expected)
    try:
        dist = game_distribution_by_entries(expected)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            f.with_game_distribution()
        assert str(info.value) == str(exc)
        return
    assert _typed(f.with_game_distribution().settings_distribution) == _typed(dist)


_SETTINGS = st.integers(0, 2) | st.integers(0, 2).map(np.int64) | st.booleans() | st.integers(-1, 3)
_VALUES = (
    st.sampled_from([0, 1, 1.0, F(1), -2, 0.5, F(1, 2), 0.0, -0.0])
    | st.integers(-5, 5)
    | st.floats(-4.0, 4.0)
    | st.fractions(max_denominator=12).filter(lambda q: abs(q) < 5)
    | st.sampled_from([math.nan, math.inf, -math.inf, True, np.int64(3), np.float64(-0.25)])
)


class TestWholeTablePasses:
    """The whole-table passes against the entry-by-entry route of
    ``oracles``: the same entries, numerators and distributions bit for
    bit, and the same first refusal."""

    @pytest.mark.parametrize(
        "n,grid", [(2, grid) for grid in range(2, 65)] + [(3, 32)],
        ids=[f"gbi2x{grid}" for grid in range(2, 65)] + ["gbi3x32"],
    )
    def test_geometric_games(self, n, grid):
        f = qccr.gbi_game(n, grid).functional
        expected = gbi_coefficients_by_entries(n, grid)
        assert _typed(f.coefficients) == _typed(expected)
        assert _typed(f.settings_distribution) == _typed(game_distribution_by_entries(expected))
        _assert_matches_entry_route(n, expected, grid)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_makb(self, n):
        f = makb(n).with_game_distribution()
        assert _typed(f.settings_distribution) == _typed(game_distribution_by_entries(f.coefficients))
        _assert_matches_entry_route(n, f.coefficients)

    def test_chsh(self):
        f = qccr.chsh_game().functional
        assert _typed(f.settings_distribution) == _typed(game_distribution_by_entries(f.coefficients))
        _assert_matches_entry_route(2, f.coefficients)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_drawn_tables(self, data):
        n = data.draw(st.integers(1, 3))
        # keys in range, plain int keys, or keys of any length and setting type
        key = data.draw(st.sampled_from([
            st.tuples(*[st.integers(0, 2)] * n),
            st.tuples(*[st.integers(-1, 3)] * n),
            st.lists(_SETTINGS, min_size=n - 1, max_size=n + 1).map(tuple),
        ]))
        entries = data.draw(st.lists(st.tuples(key, _VALUES), max_size=12))
        _assert_matches_entry_route(n, dict(entries), 3)

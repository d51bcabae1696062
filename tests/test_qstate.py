import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpersist import qstate
from bellpersist.errors import CapabilityError
from bellpersist.qstate import (
    DenseState,
    PauliString,
    PlaneObservable,
    anticommutes,
    expectation,
    ghz_state,
)
from oracles import (
    PAULI_MATRICES,
    dicke_state,
    mixture,
    partial_trace,
    random_pure_state,
    to_density_state,
    validate_spectrum,
)

SQ2 = 1.0 / math.sqrt(2.0)


class TestConstructors:
    def test_ghz_two_qubits(self):
        state = ghz_state(2)
        np.testing.assert_allclose(state.amplitudes, [SQ2, 0, 0, SQ2], atol=1e-15)

    def test_ghz_single_qubit(self):
        np.testing.assert_allclose(ghz_state(1).amplitudes, [SQ2, SQ2], atol=1e-15)

    def test_ghz_size_cap(self):
        with pytest.raises(CapabilityError):
            ghz_state(13)
        with pytest.raises(CapabilityError):
            DenseState(13, np.zeros(2**13), pure=True)

    def test_qubit_count_stored_as_int(self):
        # tests/test_errors.py refuses bools, floats and counts below one
        state = DenseState(np.int64(1), [1, 0], pure=True)
        assert type(state.n_qubits) is int and type(ghz_state(np.int8(2)).n_qubits) is int

    def test_ghz_phase(self):
        state = ghz_state(3, phase=math.pi / 2)
        assert state.amplitudes[-1] == pytest.approx(1j * SQ2)

    @pytest.mark.parametrize("phase", [math.nan, math.inf, True, "0"])
    def test_ghz_phase_must_be_finite_real(self, phase):
        with pytest.raises(ValueError, match="phase"):
            ghz_state(2, phase)

    def test_nan_state_refused(self):
        # NaN fails every tolerance test, as a value outside it does
        with pytest.raises(ValueError, match="not normalized"):
            DenseState(1, [math.nan, 0.0], pure=True)
        with pytest.raises(ValueError, match="trace"):
            DenseState(1, [[math.nan, 0.0], [0.0, 0.0]], pure=False)

    def test_dicke_2_1(self):
        np.testing.assert_allclose(dicke_state(2, 1).amplitudes, [0, SQ2, SQ2, 0], atol=1e-15)

    def test_dicke_all_zeros_is_basis_state(self):
        amp = dicke_state(3, 3).amplitudes
        np.testing.assert_allclose(amp, [1, 0, 0, 0, 0, 0, 0, 0], atol=1e-15)

    def test_dicke_3_1_support(self):
        amp = dicke_state(3, 1).amplitudes
        # one zero <=> two set bits: indices 3, 5, 6
        expected = np.zeros(8)
        expected[[3, 5, 6]] = 1.0 / math.sqrt(3.0)
        np.testing.assert_allclose(amp, expected, atol=1e-15)

    def test_dicke_rejects_m_above_n(self):
        with pytest.raises(ValueError):
            dicke_state(3, 4)

    @pytest.mark.parametrize("n,m", [(1, 0), (4, 2), (6, 3), (8, 1)])
    def test_norm_within_1e12(self, n, m):
        state = dicke_state(n, m)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-12

    def test_mixture_trace_one(self):
        rho = mixture([ghz_state(2), dicke_state(2, 1)], [0.25, 0.75])
        assert abs(np.trace(rho.data) - 1.0) < 1e-12
        validate_spectrum(rho)

    def test_mixture_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            mixture([ghz_state(2)], [0.5])
        with pytest.raises(ValueError):
            mixture([ghz_state(2), ghz_state(2)], [1.5, -0.5])

    def test_states_are_readonly(self):
        state = ghz_state(2)
        with pytest.raises(ValueError):
            state.data[0] = 0.0


class TestPlaneObservable:
    @pytest.mark.parametrize("plane", ["xz", "xy"])
    @pytest.mark.parametrize("angle", [0.0, 0.3, 1.1, 2.0, -0.7])
    def test_unit_eigenvalues(self, plane, angle):
        eigs = np.linalg.eigvalsh(PlaneObservable(plane, angle).matrix())
        np.testing.assert_allclose(sorted(eigs), [-1.0, 1.0], atol=1e-12)

    def test_xz_components(self):
        mat = PlaneObservable.xz(0.3).matrix()
        expected = math.cos(0.3) * PAULI_MATRICES["X"] + math.sin(0.3) * PAULI_MATRICES["Z"]
        np.testing.assert_allclose(mat, expected, atol=1e-15)

    def test_xy_turns(self):
        mat = PlaneObservable.xy_turns(0.25).matrix()
        np.testing.assert_allclose(mat, PAULI_MATRICES["Y"], atol=1e-15)

    def test_rejects_unknown_plane(self):
        with pytest.raises(ValueError):
            PlaneObservable("yz", 0.1)


class TestExpectation:
    def test_bell_state_stabilizer(self):
        assert expectation(ghz_state(2), "XX") == pytest.approx(1.0)

    def test_ghz3_xy_closed_form(self):
        obs = [PlaneObservable.xy_turns(a) for a in (0.1, 0.2, 0.05)]
        assert expectation(ghz_state(3), obs) == pytest.approx(math.cos(2 * math.pi * 0.35), abs=1e-12)

    def test_dicke_zzz(self):
        assert expectation(dicke_state(3, 1), "ZZZ") == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            expectation(ghz_state(2), "XXX")
        with pytest.raises(ValueError):
            expectation(ghz_state(2), [PlaneObservable.xz(0.0)])

    @pytest.mark.parametrize("op", [2 * PAULI_MATRICES["X"], PAULI_MATRICES["Z"], "W"])
    def test_site_operator_is_a_plane_observable_or_pauli_letter(self, op):
        # a matrix, even a +-1-valued one, is no site operator
        with pytest.raises(ValueError, match="operator"):
            expectation(ghz_state(2), ["X", op])

    @pytest.mark.parametrize("n", range(2, 11))
    def test_ghz_xy_oracle_consistency(self, n):
        rng = np.random.default_rng(100 + n)
        state = ghz_state(n)
        for _ in range(100):
            alphas = rng.uniform(0, 1, size=n)
            obs = [PlaneObservable.xy_turns(a) for a in alphas]
            expected = math.cos(2 * math.pi * alphas.sum())
            assert expectation(state, obs) == pytest.approx(expected, abs=1e-10)

    def test_pauli_fast_path_matches_site_ops(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            state = random_pure_state(n, rng)
            letters = "".join(rng.choice(list("IXYZ"), size=n))
            via_string = expectation(state, PauliString(letters))
            via_sites = expectation(state, list(letters))
            assert via_string == pytest.approx(via_sites, abs=1e-12)

    def test_density_matches_pure(self):
        rng = np.random.default_rng(6)
        state = random_pure_state(3, rng)
        dens = to_density_state(state)
        obs = [PlaneObservable.xz(0.2), "Y", PlaneObservable.xy_turns(0.4)]
        assert expectation(state, obs) == pytest.approx(expectation(dens, obs), abs=1e-12)

    @pytest.mark.parametrize("value", [complex(math.nan, 0.0), complex(0.0, math.nan)])
    def test_nan_value_refused(self, value):
        with pytest.raises(ValueError, match="expectation"):
            qstate._as_real(value)

    def test_real_within_tolerance_for_hermitian(self):
        rng = np.random.default_rng(7)
        state = random_pure_state(2, rng)
        value = expectation(state, [PlaneObservable.xz(0.3), PlaneObservable.xy_turns(0.1)])
        assert isinstance(value, float)
        assert abs(value) <= 1.0 + 1e-10


class TestPartialTrace:
    def test_ghz2_reduces_to_maximally_mixed(self):
        reduced = partial_trace(ghz_state(2), [0])
        np.testing.assert_allclose(reduced.data, np.eye(2) / 2, atol=1e-12)

    def test_dicke_3_1_reduction(self):
        reduced = partial_trace(dicke_state(3, 1), [2])
        target = (2.0 / 3.0) * dicke_state(2, 1).density() + (1.0 / 3.0) * dicke_state(2, 0).density()
        np.testing.assert_allclose(reduced.data, target, atol=1e-12)

    def test_trace_nothing_is_identity_operation(self):
        state = random_pure_state(3, np.random.default_rng(8))
        np.testing.assert_allclose(partial_trace(state, []).data, state.density(), atol=1e-14)

    def test_trace_everything_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(ghz_state(2), [0, 1])

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(ghz_state(3), [1, 1])

    def test_density_input(self):
        state = mixture([ghz_state(3), dicke_state(3, 2)], [0.5, 0.5])
        reduced = partial_trace(state, [1])
        assert abs(np.trace(reduced.data) - 1.0) < 1e-12
        validate_spectrum(reduced)

    def test_matches_pure_route(self):
        state = random_pure_state(4, np.random.default_rng(9))
        via_pure = partial_trace(state, [1, 3])
        via_density = partial_trace(to_density_state(state), [1, 3])
        np.testing.assert_allclose(via_pure.data, via_density.data, atol=1e-12)


class TestAnticommutes:
    @pytest.mark.parametrize(
        "p,q,expected",
        [
            ("XX0", "XZ0", True),
            ("XX0", "ZZ0", False),
            ("XX0", "0XX", False),
            ("XX0", "0ZX", True),
            ("XI", "ZI", True),
        ],
    )
    def test_known_pairs(self, p, q, expected):
        assert anticommutes(p, q) is expected

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            anticommutes("XX", "XXX")

    def test_matrix_oracle_all_pairs_up_to_three_qubits(self):
        strings = ["".join(s) for s in itertools.product("IXYZ", repeat=3)]
        mats = {s: PauliString(s).matrix() for s in strings}
        for p, q in itertools.combinations_with_replacement(strings, 2):
            anti = np.allclose(mats[p] @ mats[q] + mats[q] @ mats[p], 0.0, atol=1e-12)
            assert anticommutes(p, q) is anti, (p, q)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.tuples(
                st.text(alphabet="IXYZ", min_size=n, max_size=n),
                st.text(alphabet="IXYZ", min_size=n, max_size=n),
            )
        )
    )
    def test_matrix_oracle_property_four_qubits(self, pair):
        p, q = pair
        a, b = PauliString(p).matrix(), PauliString(q).matrix()
        anti = np.allclose(a @ b + b @ a, 0.0, atol=1e-12)
        assert anticommutes(p, q) is anti

    def test_zero_alias(self):
        assert PauliString("X0z").letters == "XIZ"

import itertools

import numpy as np
import pytest

from bellpersist import qstate
from bellpersist.errors import CapabilityError
from bellpersist.monogamy import (
    build_graph,
    independence_number,
    overlapping_chsh_operators,
    parse_pauli_lines,
)


def brute_force_alpha(graph) -> int:
    n = graph.n_vertices
    neighbor = graph.neighbor_masks
    best = 0
    for mask in range(1 << n):
        if all(not (mask & neighbor[i]) for i in range(n) if mask >> i & 1):
            best = max(best, mask.bit_count())
    return best


class TestGraph:
    def test_chsh_pair_graph_degrees(self):
        graph = build_graph(overlapping_chsh_operators())
        assert [mask.bit_count() for mask in graph.neighbor_masks] == [4] * 8

    def test_single_operator(self):
        graph = build_graph(["XYZ"])
        assert graph.neighbor_masks == (0,)
        assert independence_number(graph) == 1

    def test_two_anticommuting(self):
        graph = build_graph(["XI", "ZI"])
        assert graph.neighbor_masks == (0b10, 0b01)  # one symmetric edge

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            build_graph(["XX", "XXX"])

    def test_vertex_cap(self):
        ops = ["I" * 3] * 25
        with pytest.raises(CapabilityError):
            build_graph(ops)


class TestIndependenceNumber:
    def test_chsh_pair_bound_is_two(self):
        assert independence_number(build_graph(overlapping_chsh_operators())) == 2

    def test_empty_graph(self):
        graph = build_graph(["XII", "IXI", "IIX", "XXX", "XXI"])
        # compare against enumeration whatever the structure
        assert independence_number(graph) == brute_force_alpha(graph)

    def test_complete_graph_k4(self):
        # pairwise anticommuting single-qubit set extended by Y products
        graph = build_graph(["XI", "YI", "ZI"])
        assert independence_number(graph) == 1

    def test_five_isolated_vertices(self):
        graph = build_graph(["XX", "XX", "XX", "XX", "XX"])
        assert independence_number(graph) == 5

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_on_random_sets(self, seed):
        rng = np.random.default_rng(seed)
        n_ops = int(rng.integers(4, 17))
        width = int(rng.integers(2, 4))
        ops = [
            "".join(rng.choice(list("IXYZ"), size=width)) for _ in range(n_ops)
        ]
        graph = build_graph(ops)
        assert independence_number(graph) == brute_force_alpha(graph)

    def test_matches_brute_force_at_sixteen_vertices(self):
        rng = np.random.default_rng(1234)
        ops = ["".join(rng.choice(list("IXYZ"), size=3)) for _ in range(16)]
        graph = build_graph(ops)
        assert independence_number(graph) == brute_force_alpha(graph)


class TestSquaredSumBound:
    def test_bloch_ball(self):
        assert independence_number(build_graph(["XI", "ZI", "YI"])) == 1

    def test_random_states_respect_chsh_pair_bound(self):
        ops = overlapping_chsh_operators()
        mats = np.array([op.matrix() for op in ops])
        rng = np.random.default_rng(97)
        vecs = rng.normal(size=(2000, 8)) + 1j * rng.normal(size=(2000, 8))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        means = np.einsum("si,oij,sj->so", vecs.conj(), mats, vecs).real
        worst = float((means**2).sum(axis=1).max())
        assert worst <= 2.0 + 1e-9

    def test_bound_tight_for_chsh_pair(self):
        # Bell pair on the first two qubits, |0> on the third
        amp = np.kron(qstate.ghz_state(2).amplitudes, [1.0, 0.0])
        state = qstate.DenseState(3, amp, pure=True)
        total = sum(
            qstate.expectation(state, op) ** 2 for op in overlapping_chsh_operators()
        )
        assert total >= 2.0 - 1e-9


class TestParsing:
    def test_parse_lines(self):
        text = "XX0\n# comment\nxz0\n\nIZZ  \n"
        ops = parse_pauli_lines(text)
        assert [op.letters for op in ops] == ["XXI", "XZI", "IZZ"]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            parse_pauli_lines("# nothing here\n")

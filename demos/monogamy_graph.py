"""Why two CHSH tests sharing an observer cannot both be violated.

The sum of squared means of the eight two-body x/z correlators that feed
the two CHSH expressions is bounded by the independence number of their
anticommutation graph.  That number is 2, so the squared CHSH values are
jointly bounded by 8 = 4 * 2: one test at the quantum maximum forces the
other down to its classical bound.  Random states never exceed the
bound, and a Bell pair next to an uncorrelated qubit saturates it.
"""

import numpy as np

from bellpersist import monogamy, qstate


def main():
    ops = monogamy.overlapping_chsh_operators()
    graph = monogamy.build_graph(ops)
    print("operators: ", ", ".join(op.letters for op in ops))
    print("degrees:   ", [mask.bit_count() for mask in graph.neighbor_masks])
    bound = monogamy.independence_number(graph)
    print(f"independence number = {bound}"
          f"  =>  <B_12>^2 + <B_23>^2 <= {4 * bound}")

    rng = np.random.default_rng(1)
    mats = np.array([op.matrix() for op in ops])
    vecs = rng.normal(size=(5000, 8)) + 1j * rng.normal(size=(5000, 8))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    means = np.einsum("si,oij,sj->so", vecs.conj(), mats, vecs).real
    print(f"worst squared sum over 5000 random 3-qubit states: "
          f"{(means ** 2).sum(axis=1).max():.6f}")

    amp = np.kron(qstate.ghz_state(2).amplitudes, [1.0, 0.0])
    product = qstate.DenseState(3, amp, pure=True)
    achieved = sum(qstate.expectation(product, op) ** 2 for op in ops)
    print(f"Bell pair x |0> achieves: {achieved:.12f} (bound is tight)")


if __name__ == "__main__":
    main()

"""Monogamy bounds from anticommutation graphs.

For a set of Pauli strings, the sum of squared expectation values over
any quantum state is at most the independence number of the graph that
connects anticommuting pairs: assigning 1 to a vertex forces 0 on all of
its neighbours, and squared means of anticommuting observables obey an
uncertainty trade-off.  Combined with the Cauchy-Schwarz step
<B>^2 <= 4 (sum of squared correlators) this certifies, e.g., that two
CHSH expressions sharing an observer satisfy <B_12>^2 + <B_23>^2 <= 8.

The independence number is computed exactly by branch and bound with a
greedy clique-cover bound; instances here are tiny, and correctness of
the bound is what matters.
"""

from __future__ import annotations

from typing import Sequence, Union

from ._record import frozen
from .errors import CapabilityError
from .qstate import PauliString, anticommutes

MAX_VERTICES = 24


@frozen
class AnticommGraph:
    """Vertices with their neighbours as int bitmasks: bit j of
    ``neighbor_masks[i]`` is set iff vertices i and j are adjacent."""

    vertices: tuple[PauliString, ...]
    neighbor_masks: tuple[int, ...]

    def __post_init__(self):
        masks = tuple(self.neighbor_masks)
        n = len(self.vertices)
        if len(masks) != n or any(not 0 <= mask < 1 << n for mask in masks):
            raise ValueError("neighbour masks do not match the vertex count")
        for i, mask in enumerate(masks):
            if mask >> i & 1 or any((masks[j] >> i ^ mask >> j) & 1 for j in range(n)):
                raise ValueError("adjacency must be symmetric with empty diagonal")
        object.__setattr__(self, "neighbor_masks", masks)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


def build_graph(operators: Sequence[Union[PauliString, str]]) -> AnticommGraph:
    """Graph on the given Pauli strings with edges between anticommuting
    pairs."""
    ops = tuple(op if isinstance(op, PauliString) else PauliString(op) for op in operators)
    if not ops:
        raise ValueError("need at least one operator")
    if len(ops) > MAX_VERTICES:
        raise CapabilityError(f"vertex count capped at {MAX_VERTICES}")
    width = len(ops[0])
    if any(len(op) != width for op in ops):
        raise ValueError("all Pauli strings must act on the same register")
    n = len(ops)
    masks = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if anticommutes(ops[i], ops[j]):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return AnticommGraph(ops, tuple(masks))


def _clique_cover_bound(candidates: int, neighbor_masks: Sequence[int]) -> int:
    """Greedy partition of the candidate set into cliques; an independent
    set picks at most one vertex per clique."""
    remaining = candidates
    cliques = 0
    while remaining:
        v = (remaining & -remaining).bit_length() - 1
        clique = 1 << v
        pool = remaining & neighbor_masks[v]
        while pool:
            u = (pool & -pool).bit_length() - 1
            clique |= 1 << u
            pool &= neighbor_masks[u]
        remaining &= ~clique
        cliques += 1
    return cliques


def independence_number(graph: AnticommGraph) -> int:
    """Exact maximum independent set size."""
    n = graph.n_vertices
    if n > MAX_VERTICES:
        raise CapabilityError(f"vertex count capped at {MAX_VERTICES}")
    neighbor_masks = graph.neighbor_masks
    best = 0

    def expand(candidates: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if not candidates:
            return
        if size + _clique_cover_bound(candidates, neighbor_masks) <= best:
            return
        v = (candidates & -candidates).bit_length() - 1
        bit = 1 << v
        expand(candidates & ~(neighbor_masks[v] | bit), size + 1)
        expand(candidates & ~bit, size)

    expand((1 << n) - 1, 0)
    return best


def overlapping_chsh_operators() -> list[PauliString]:
    """The eight two-body x/z correlators of two CHSH tests on three
    qubits sharing the middle observer; the bound for this set is 2."""
    return [
        PauliString(s)
        for s in ("XXI", "XZI", "ZXI", "ZZI", "IXX", "IXZ", "IZX", "IZZ")
    ]


def parse_pauli_lines(text: str) -> list[PauliString]:
    """Parse one Pauli string per line; blank lines and # comments skipped."""
    ops = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            ops.append(PauliString(line))
    if not ops:
        raise ValueError("no operators found")
    return ops

"""Dense-state quantum algebra for small qubit registers.

Exact brute-force routines: the GHZ constructor, tensor-product
expectation values and Pauli-string anticommutation.  The dense oracle
the tests check the library against (Dicke states, mixtures, partial
traces) builds on these in ``tests/oracles.py``.  Everything is dense
and capped at ``MAX_QUBITS`` qubits, counts checked by ``check_count``;
basis states are ordered lexicographically with qubit 0 most significant,
and the computational value 0 of a qubit is the +1 eigenstate of sigma_z.
Site operators are +-1-valued, so every expectation lies in [-1, 1].
"""

from __future__ import annotations

import functools
import math
from typing import Sequence, Union

from ._lazy import lazy_import
from ._record import frozen
from .errors import CapabilityError, check_count, check_real

np = lazy_import("numpy")

MAX_QUBITS = 12

_HERM_ATOL = 1e-12
_EIG_FLOOR = -1e-10
# Spectrum checks cost O(8^n); run them automatically only below this size.
_EIG_CHECK_DIM = 256


def _qubit_count(n) -> int:
    """``n`` through :func:`check_count`; CapabilityError above ``MAX_QUBITS``."""
    n = check_count(n, "qubit count", 1)
    if n > MAX_QUBITS:
        raise CapabilityError(f"{n} qubits outside supported range 1..{MAX_QUBITS}")
    return n


@functools.cache
def _pauli_matrices() -> dict[str, np.ndarray]:
    return {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    }


@frozen
class PlaneObservable:
    """A +/-1-valued single-qubit observable confined to one Bloch plane.

    ``plane="xz"`` represents cos(angle) sx + sin(angle) sz and
    ``plane="xy"`` represents cos(angle) sx + sin(angle) sy, with the
    angle in radians.  Use :meth:`xy_turns` for the turn-based
    parameterization cos(2 pi a) sx + sin(2 pi a) sy that is natural for
    GHZ correlation functions.
    """

    plane: str
    angle: float

    def __post_init__(self):
        if self.plane not in ("xz", "xy"):
            raise ValueError(f"unknown plane {self.plane!r}, expected 'xz' or 'xy'")
        check_real(self.angle, "observable angle")

    @classmethod
    def xy_turns(cls, alpha: float) -> "PlaneObservable":
        return cls("xy", 2.0 * math.pi * alpha)

    @classmethod
    def xz(cls, beta: float) -> "PlaneObservable":
        return cls("xz", beta)

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.angle), math.sin(self.angle)
        if self.plane == "xz":
            return np.array([[s, c], [c, -s]], dtype=complex)
        return np.array([[0.0, c - 1.0j * s], [c + 1.0j * s, 0.0]], dtype=complex)


@frozen
class PauliString:
    """A tensor product of single-qubit Pauli operators, e.g. ``XZI``.

    The letter ``0`` is accepted as an alias for the identity ``I``.
    """

    letters: str

    def __post_init__(self):
        normalized = self.letters.upper().replace("0", "I")
        if not normalized or any(ch not in "IXYZ" for ch in normalized):
            raise ValueError(f"invalid Pauli string {self.letters!r}")
        object.__setattr__(self, "letters", normalized)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters

    def matrix(self) -> np.ndarray:
        if len(self) > MAX_QUBITS:
            raise CapabilityError(f"dense matrix for {len(self)} qubits exceeds cap")
        out = np.array([[1.0 + 0.0j]])
        for ch in self.letters:
            out = np.kron(out, _pauli_matrices()[ch])
        return out


def anticommutes(p: Union[PauliString, str], q: Union[PauliString, str]) -> bool:
    """Whether two Pauli strings anticommute.

    Two strings anticommute iff the number of positions where both
    letters are non-identity and different is odd.
    """
    p = p if isinstance(p, PauliString) else PauliString(p)
    q = q if isinstance(q, PauliString) else PauliString(q)
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    clashes = sum(
        1
        for a, b in zip(p.letters, q.letters)
        if a != "I" and b != "I" and a != b
    )
    return clashes % 2 == 1


@frozen
class DenseState:
    """A pure state vector or a density operator on ``n_qubits`` qubits.

    Immutable after construction; the backing array is marked read-only
    so instances can be shared freely across threads.
    """

    n_qubits: int
    data: np.ndarray
    pure: bool

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _qubit_count(self.n_qubits))
        dim = 2**self.n_qubits
        arr = np.array(self.data, dtype=complex)
        if self.pure:
            if arr.shape != (dim,):
                raise ValueError(f"pure state needs shape ({dim},), got {arr.shape}")
            norm = float(np.sum(np.abs(arr) ** 2))
            # "not <=" throughout, so that NaN fails every tolerance test
            if not abs(norm - 1.0) <= 1e-9:
                raise ValueError(f"state not normalized: |psi|^2 = {norm}")
        else:
            if arr.shape != (dim, dim):
                raise ValueError(f"density operator needs shape ({dim},{dim})")
            tr = complex(np.trace(arr))
            if not abs(tr - 1.0) <= 1e-9:
                raise ValueError(f"density operator trace {tr} != 1")
            if not np.allclose(arr, arr.conj().T, atol=_HERM_ATOL * dim):
                raise ValueError("density operator not Hermitian")
            if dim <= _EIG_CHECK_DIM:
                self._check_spectrum(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @staticmethod
    def _check_spectrum(arr: np.ndarray) -> None:
        eigs = np.linalg.eigvalsh(arr)
        if float(eigs.min()) < _EIG_FLOOR:
            raise ValueError(f"density operator has negative eigenvalue {eigs.min()}")

    @property
    def amplitudes(self) -> np.ndarray:
        if not self.pure:
            raise ValueError("density operators have no amplitude vector")
        return self.data

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def density(self) -> np.ndarray:
        """The state as a density matrix (outer product for pure states)."""
        if self.pure:
            return np.outer(self.data, self.data.conj())
        return self.data


def ghz_state(l: int, phase: float = 0.0) -> DenseState:
    """The l-qubit GHZ state (|0...0> + e^{i phase} |1...1>)/sqrt(2).

    The relative phase is a local-unitary degree of freedom (a product
    of z rotations); it matters when pairing a fixed state with fixed
    equatorial measurement angles.
    """
    l = _qubit_count(l)
    phase = check_real(phase, "phase")
    amp = np.zeros(2**l, dtype=complex)
    amp[0] = 1.0 / math.sqrt(2.0)
    amp[-1] = np.exp(1.0j * phase) / math.sqrt(2.0)
    return DenseState(l, amp, pure=True)


SiteOperator = Union[PlaneObservable, str]


def _site_matrix(op: SiteOperator) -> np.ndarray:
    """The 2x2 matrix of a per-qubit operator, a +-1-valued observable."""
    if isinstance(op, PlaneObservable):
        return op.matrix()
    if not isinstance(op, str):
        raise ValueError(f"site operator {type(op).__name__} is no PlaneObservable or Pauli letter")
    key = op.upper().replace("0", "I")
    matrices = _pauli_matrices()
    if key not in matrices:
        raise ValueError(f"unknown single-qubit operator {op!r}")
    return matrices[key]


def _pauli_masks(ps: PauliString, n: int) -> tuple[int, int, int]:
    flip = sign = 0
    n_y = 0
    for pos, ch in enumerate(ps.letters):
        bit = 1 << (n - 1 - pos)
        if ch == "X":
            flip |= bit
        elif ch == "Y":
            flip |= bit
            sign |= bit
            n_y += 1
        elif ch == "Z":
            sign |= bit
    return flip, sign, n_y


def _pauli_expectation(state: DenseState, ps: PauliString) -> complex:
    n = state.n_qubits
    flip, sign, n_y = _pauli_masks(ps, n)
    idx = np.arange(state.dim)
    parities = np.zeros(state.dim, dtype=np.int64)
    masked = idx & sign
    while masked.any():
        parities += masked & 1
        masked >>= 1
    signs = np.where(parities % 2 == 0, 1.0, -1.0)
    prefactor = 1.0j**n_y
    if state.pure:
        amp = state.data
        return prefactor * np.sum(np.conj(amp[idx ^ flip]) * signs * amp)
    rho = state.data
    return prefactor * np.sum(rho[idx, idx ^ flip] * signs)


def expectation(
    state: DenseState,
    observables: Union[PauliString, str, Sequence[SiteOperator]],
) -> float:
    """Expectation value of a tensor product of single-qubit observables.

    ``observables`` is either a Pauli string covering the whole register
    or a sequence with one entry per qubit, each a
    :class:`PlaneObservable` or a Pauli letter.  Every such operator has
    eigenvalues +-1, so a value outside [-1, 1] raises ValueError.
    """
    n = state.n_qubits
    if isinstance(observables, str):
        observables = PauliString(observables)
    if isinstance(observables, PauliString):
        if len(observables) != n:
            raise ValueError(
                f"operator acts on {len(observables)} qubits, state has {n}"
            )
        value = _pauli_expectation(state, observables)
        return _as_real(value)

    if len(observables) != n:
        raise ValueError(f"need {n} site operators, got {len(observables)}")
    mats = [_site_matrix(op) for op in observables]

    if state.pure:
        psi = state.data.reshape((2,) * n)
        phi = psi
        for axis, mat in enumerate(mats):
            phi = np.moveaxis(np.tensordot(mat, phi, axes=([1], [axis])), 0, axis)
        value = complex(np.vdot(psi, phi))
    else:
        rho = state.data.reshape((2,) * (2 * n))
        for axis, mat in enumerate(mats):
            rho = np.moveaxis(np.tensordot(mat, rho, axes=([1], [axis])), 0, axis)
        value = complex(np.trace(rho.reshape(state.dim, state.dim)))
    return _as_real(value)


def _as_real(value: complex) -> float:
    # "not <=", so that a NaN part is refused
    if not abs(value.imag) <= 1e-10:
        raise ValueError(f"expectation has non-real value {value}")
    real = float(value.real)
    if not abs(real) <= 1.0 + 1e-10:
        raise ValueError(f"expectation {real} outside [-1, 1]")
    return real


"""Exact quantum mechanics on one to three qubits.

States are complex amplitude vectors, gates are 2x2 unitaries applied to a
single target qubit, and measurement is projective with collapse.  Everything
is a value: operations return new objects and never mutate their arguments,
so all of it is safe to use from concurrent callers.

Conventions:
  * qubit 0 is the leftmost label in |x0 x1 x2>, so the amplitude index of a
    basis label is its big-endian integer value;
  * states are compared up to global phase via ``overlap`` (never
    componentwise);
  * measuring a multi-qubit state removes the measured qubit from the
    collapsed state; measuring a single-qubit state collapses it onto the
    basis vector itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import BadDimension, BadTarget, NonNormalizable
from .stream import check_between, check_integer, check_kind, is_bit

NORM_TOL = 1e-9       # state invariants
_INPUT_NORM_TOL = 1e-6

_SQRT2_INV = 1.0 / math.sqrt(2.0)


def _complex_array(name: str, value) -> np.ndarray:
    """``value`` as a complex128 array; an array of anything but numbers raises ValueError naming ``name``."""
    arr = np.asarray(value)
    if not np.issubdtype(arr.dtype, np.number):
        raise ValueError(f"{name} must be numbers, got {value!r}")
    return arr.astype(np.complex128, copy=False)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector over 1-3 qubits."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _complex_array("amplitudes", self.amplitudes)
        if amps.ndim != 1 or amps.size not in (2, 4, 8):
            raise BadDimension(f"amplitude vector must have length 2, 4 or 8, got shape {amps.shape}")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise NonNormalizable("amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise NonNormalizable(f"state norm {norm} is not 1 within {NORM_TOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_qubits(self) -> int:
        return int(self.amplitudes.size).bit_length() - 1

    def __repr__(self) -> str:
        entries = ", ".join(f"{a:.6g}" for a in self.amplitudes)
        return f"PureState([{entries}])"


@dataclass(frozen=True, eq=False)
class Gate1Q:
    """Named 2x2 unitary acting on one qubit."""

    name: str
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _complex_array("matrix", self.matrix)
        if mat.shape != (2, 2):
            raise BadDimension(f"gate matrix must be 2x2, got {mat.shape}")
        if not np.allclose(mat.conj().T @ mat, np.eye(2), atol=NORM_TOL, rtol=0.0):
            raise NonNormalizable(f"gate {self.name!r} is not unitary")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def __repr__(self) -> str:
        return f"Gate1Q({self.name!r})"


H = Gate1Q("H", np.array([[1, 1], [1, -1]]) * _SQRT2_INV)
S = Gate1Q("S", np.array([[1, 0], [0, 1j]]))
X = Gate1Q("X", np.array([[0, 1], [1, 0]]))
Z = Gate1Q("Z", np.array([[1, 0], [0, -1]]))
I = Gate1Q("I", np.eye(2))


def make_state(amplitudes: Mapping[str, complex] | Sequence[complex]) -> PureState:
    """Build a normalized state from labeled or positional amplitudes.

    Accepts either a mapping from basis-state bit labels (``"0"``, ``"101"``,
    ...) to amplitudes, or a flat sequence of 2**n amplitudes in big-endian
    order.  The input norm must already be within 1e-6 of 1; residual drift
    is renormalized away, anything larger raises ``NonNormalizable``.  Labels
    that are not strings and amplitudes that are not numbers raise ValueError.
    """
    check_kind("amplitudes", amplitudes, (Mapping, Sequence, np.ndarray))
    if isinstance(amplitudes, Mapping):
        if not amplitudes:
            raise BadDimension("empty amplitude mapping")
        labels = list(amplitudes)
        for label in labels:
            check_kind("each basis label of amplitudes", label, str)
        width = len(labels[0])
        if width not in (1, 2, 3):
            raise BadDimension(f"basis labels must have 1-3 bits, got {labels[0]!r}")
        vec = np.zeros(2 ** width, dtype=np.complex128)
        for label, amp in amplitudes.items():
            if len(label) != width or any(c not in "01" for c in label):
                raise BadDimension(f"bad basis label {label!r}")
            check_kind("each of amplitudes", amp, numbers.Number)
            vec[int(label, 2)] = amp
    else:
        vec = _complex_array("amplitudes", amplitudes)
        if vec.size not in (2, 4, 8):
            raise BadDimension(f"amplitude list must have length 2, 4 or 8, got {vec.size}")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > _INPUT_NORM_TOL:
        raise NonNormalizable(f"input norm {norm} differs from 1 by more than {_INPUT_NORM_TOL}")
    return PureState(vec / norm)


def _check_args(state: PureState, target: int, name: str, operator, kind: type) -> None:
    """Check a call's state, its gate or basis (argument ``name``, of type ``kind``) and its target qubit."""
    check_kind("state", state, PureState)
    check_kind(name, operator, kind)
    check_integer("target", target)
    if not 0 <= target < state.num_qubits:
        raise BadTarget(f"target {target} out of range for {state.num_qubits}-qubit state")


def _target_first(amplitudes: np.ndarray, target: int) -> np.ndarray:
    """The amplitudes as a (2, k) matrix: row b is target qubit b, the other qubits in order."""
    return amplitudes.reshape(2**target, 2, -1).transpose(1, 0, 2).reshape(2, -1)


def apply_gate(state: PureState, gate: Gate1Q, target: int) -> PureState:
    """Apply a one-qubit gate to the target qubit, returning a new state."""
    _check_args(state, target, "gate", gate, Gate1Q)
    moved = gate.matrix @ _target_first(state.amplitudes, target)
    # the inverse reordering puts the target qubit back in its place
    return PureState(moved.reshape(2, 2**target, -1).transpose(1, 0, 2).reshape(-1))


PROB_SNAP = 1e-18
# at <= 8 dimensions with O(1) amplitudes, any Born weight this small is the
# floating-point residue of an exact cancellation; clearing it keeps nominally
# deterministic outcomes exactly deterministic


def born_weights(weights: np.ndarray, axes: int | tuple[int, ...]) -> np.ndarray:
    """Born probabilities from a nonnegative weight array: each weight below ``PROB_SNAP`` cleared, then divided by the sum over ``axes``."""
    check_kind("weights", weights, np.ndarray)
    weights = np.where(weights < PROB_SNAP, 0.0, weights)
    return weights / weights.sum(axis=axes, keepdims=True)


def _branches(state: PureState, basis: "QubitBasis", target: int) -> tuple[np.ndarray, tuple[float, float]]:
    """Check a measurement's arguments, then contract the target qubit against both basis vectors at once.

    Returns the residuals, whose row i holds the unnormalized amplitudes left
    after projecting the target qubit onto basis vector i (for single-qubit
    states the scalar <v_i|state>), and both outcomes' Born probabilities.
    """
    _check_args(state, target, "basis", basis, QubitBasis)
    residuals = basis.bras @ _target_first(state.amplitudes, target)
    weights = np.array([row.real @ row.real + row.imag @ row.imag for row in residuals])
    return residuals, tuple(born_weights(weights, 0).tolist())


def _collapsed(state: PureState, basis: "QubitBasis", residuals: np.ndarray, outcome: int) -> PureState:
    """The state an outcome of positive probability leaves: its basis vector, or its residual renormalised."""
    if state.num_qubits == 1:
        return (basis.v0, basis.v1)[outcome]
    return PureState(residuals[outcome] / np.linalg.norm(residuals[outcome]))


def measurement_branches(
    state: PureState, basis: "QubitBasis", target: int
) -> tuple[tuple[float, PureState | None], tuple[float, PureState | None]]:
    """Both measurement branches: (probability, collapsed state) per outcome.

    A zero-probability branch carries ``None`` for its collapsed state.  The
    measured qubit is removed from multi-qubit states; a single-qubit state
    collapses onto the measured basis vector.
    """
    residuals, probs = _branches(state, basis, target)
    return tuple((p, _collapsed(state, basis, residuals, k) if p > 0.0 else None) for k, p in enumerate(probs))


def outcome_distribution(state: PureState, basis: "QubitBasis", target: int) -> tuple[float, float]:
    """Exact Born probabilities of the two basis outcomes on the target qubit."""
    return _branches(state, basis, target)[1]


def collapse(state: PureState, basis: "QubitBasis", target: int, outcome: int) -> tuple[float, PureState]:
    """Probability of the given outcome and the post-measurement state, building only that branch."""
    if not is_bit(outcome):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    residuals, probs = _branches(state, basis, target)
    if probs[outcome] <= 0.0:
        raise NonNormalizable(f"outcome {outcome} has zero probability")
    return probs[outcome], _collapsed(state, basis, residuals, outcome)


class MeasurementResult(NamedTuple):
    """One projective measurement: outcome bit, its probability, collapsed state."""

    outcome: int
    probability: float
    collapsed: PureState


def measure(state: PureState, basis: "QubitBasis", target: int, randomness: float) -> MeasurementResult:
    """Measure the target qubit, deciding the outcome from a uniform draw.

    Outcome 0 iff ``randomness < p0``; deterministic given its arguments.
    """
    check_between("randomness", randomness, 0, 1, "[)")
    residuals, probs = _branches(state, basis, target)
    outcome = 0 if randomness < probs[0] else 1     # so the drawn outcome has positive probability
    return MeasurementResult(outcome, probs[outcome], _collapsed(state, basis, residuals, outcome))


def overlap(a: PureState, b: PureState) -> float:
    """|<a|b>|, the phase-insensitive agreement between two states."""
    if not (isinstance(a, PureState) and isinstance(b, PureState)):
        raise ValueError(f"overlap's a and b must be PureStates, got {a!r} and {b!r}")
    if a.num_qubits != b.num_qubits:
        raise BadDimension("states live on different qubit counts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


@dataclass(frozen=True, eq=False)
class QubitBasis:
    """Orthonormal single-qubit measurement pair {v0, v1}.

    ``bras`` is the read-only 2x2 array whose row i is <v_i|, the conjugate
    of v_i's amplitudes.
    """

    name: str
    v0: PureState
    v1: PureState
    bras: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_kind("v0", self.v0, PureState)
        check_kind("v1", self.v1, PureState)
        if self.v0.num_qubits != 1 or self.v1.num_qubits != 1:
            raise BadDimension("basis vectors must be single-qubit states")
        inner = abs(np.vdot(self.v0.amplitudes, self.v1.amplitudes))
        if inner > NORM_TOL:
            raise NonNormalizable(f"basis {self.name!r} vectors are not orthogonal (|<v0|v1>| = {inner})")
        bras = np.vstack([self.v0.amplitudes, self.v1.amplitudes]).conj()
        bras.setflags(write=False)
        object.__setattr__(self, "bras", bras)

    def __repr__(self) -> str:
        return f"QubitBasis({self.name!r})"


KET_ZERO = PureState(np.array([1.0, 0.0]))
KET_ONE = PureState(np.array([0.0, 1.0]))
KET_PLUS = PureState(np.array([_SQRT2_INV, _SQRT2_INV]))
KET_MINUS = PureState(np.array([_SQRT2_INV, -_SQRT2_INV]))
KET_PLUS_I = PureState(np.array([_SQRT2_INV, _SQRT2_INV * 1j]))
KET_MINUS_I = PureState(np.array([_SQRT2_INV, -_SQRT2_INV * 1j]))
KET_PSI = PureState(np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)]))
KET_PSI_PERP = PureState(np.array([-math.sin(math.pi / 8), math.cos(math.pi / 8)]))
KET_PHI = PureState(np.array([math.sin(math.pi / 8), math.cos(math.pi / 8)]))
KET_PHI_PERP = PureState(np.array([-math.cos(math.pi / 8), math.sin(math.pi / 8)]))

COMPUTATIONAL = QubitBasis("computational", KET_ZERO, KET_ONE)
HADAMARD = QubitBasis("hadamard", KET_PLUS, KET_MINUS)
PSI = QubitBasis("psi", KET_PSI, KET_PSI_PERP)
PHI = QubitBasis("phi", KET_PHI, KET_PHI_PERP)

BELL_PHI_PLUS = make_state({"00": _SQRT2_INV, "11": _SQRT2_INV})
GHZ3 = make_state({"000": _SQRT2_INV, "111": _SQRT2_INV})

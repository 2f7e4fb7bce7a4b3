"""State, gate, basis and measurement machinery checks."""

import math

import numpy as np
import pytest

from diqrng import qcore
from diqrng.errors import BadDimension, BadTarget, NonNormalizable

RNG = np.random.default_rng(20240811)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
NAMED_BASES = [qcore.COMPUTATIONAL, qcore.HADAMARD, qcore.PSI, qcore.PHI]


def random_state(num_qubits: int, rng) -> qcore.PureState:
    vec = rng.normal(size=2 ** num_qubits) + 1j * rng.normal(size=2 ** num_qubits)
    return qcore.PureState(vec / np.linalg.norm(vec))


# inputs that each check of qcore rejects: (call, error, message)
REJECTED = {
    "state-of-3-amplitudes": (lambda: qcore.PureState(np.array([1.0, 0.0, 0.0])), BadDimension, "length 2, 4 or 8"),
    "state-with-nan": (lambda: qcore.PureState(np.array([math.nan, 1.0])), NonNormalizable, "finite"),
    "state-of-norm-sqrt2": (lambda: qcore.PureState(np.array([1.0, 1.0])), NonNormalizable, "state norm 1.414"),
    "gate-3x3": (lambda: qcore.Gate1Q("big", np.eye(3)), BadDimension, "2x2"),
    "gate-not-unitary": (lambda: qcore.Gate1Q("shear", np.array([[1, 1], [0, 1]])), NonNormalizable, "not unitary"),
    "make-state-empty": (lambda: qcore.make_state({}), BadDimension, "empty amplitude mapping"),
    "make-state-4-bit-label": (lambda: qcore.make_state({"0000": 1}), BadDimension, "1-3 bits"),
    "collapse-outcome-2": (
        lambda: qcore.collapse(qcore.KET_ZERO, qcore.COMPUTATIONAL, 0, 2), ValueError, "outcome must be 0 or 1"
    ),
    "collapse-zero-probability": (
        lambda: qcore.collapse(qcore.KET_ZERO, qcore.COMPUTATIONAL, 0, 1), NonNormalizable, "zero probability"
    ),
    "overlap-1-and-2-qubits": (
        lambda: qcore.overlap(qcore.KET_ZERO, qcore.BELL_PHI_PLUS), BadDimension, "different qubit counts"
    ),
    "basis-of-2-qubit-vector": (
        lambda: qcore.QubitBasis("wide", qcore.BELL_PHI_PLUS, qcore.KET_ONE), BadDimension, "single-qubit"
    ),
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_rejected_input_raises(case):
    call, error, message = REJECTED[case]
    with pytest.raises(error, match=message):
        call()


class TestMakeState:
    def test_plus_from_labels(self):
        st = qcore.make_state({"0": INV_SQRT2, "1": INV_SQRT2})
        assert qcore.overlap(st, qcore.KET_PLUS) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(st.amplitudes.real, [0.7071067811865475] * 2, atol=1e-12)

    def test_computational_basis_state(self):
        st = qcore.make_state({"0": 1})
        assert qcore.overlap(st, qcore.KET_ZERO) == 1.0

    def test_ghz_three_qubits(self):
        st = qcore.make_state({"000": INV_SQRT2, "111": INV_SQRT2})
        assert st.num_qubits == 3
        assert qcore.overlap(st, qcore.GHZ3) == pytest.approx(1.0, abs=1e-12)

    def test_sequence_input(self):
        st = qcore.make_state([INV_SQRT2, -INV_SQRT2])
        assert qcore.overlap(st, qcore.KET_MINUS) == pytest.approx(1.0, abs=1e-12)

    def test_small_norm_drift_is_renormalized(self):
        st = qcore.make_state([1.0 + 5e-7, 0.0])
        assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(NonNormalizable):
            qcore.make_state([0.0, 0.0])

    def test_far_from_unit_norm_rejected(self):
        with pytest.raises(NonNormalizable):
            qcore.make_state([2.0, 0.0])

    def test_bad_length_rejected(self):
        with pytest.raises(BadDimension):
            qcore.make_state([1.0, 0.0, 0.0])
        with pytest.raises(BadDimension):
            qcore.make_state([1.0] + [0.0] * 15)

    def test_inconsistent_labels_rejected(self):
        with pytest.raises(BadDimension):
            qcore.make_state({"0": 1.0, "11": 0.0})


class TestGates:
    @pytest.mark.parametrize("gate", [qcore.H, qcore.S, qcore.X, qcore.Z, qcore.I])
    def test_unitarity(self, gate):
        np.testing.assert_allclose(
            gate.matrix.conj().T @ gate.matrix, np.eye(2), atol=1e-12, rtol=0.0
        )

    def test_s_action(self):
        assert qcore.overlap(qcore.apply_gate(qcore.KET_ZERO, qcore.S, 0), qcore.KET_ZERO) == pytest.approx(1.0)
        s_one = qcore.apply_gate(qcore.KET_ONE, qcore.S, 0)
        np.testing.assert_allclose(s_one.amplitudes, [0.0, 1j], atol=1e-12)

    def test_h_sends_plus_to_zero(self):
        st = qcore.apply_gate(qcore.KET_PLUS, qcore.H, 0)
        assert qcore.overlap(st, qcore.KET_ZERO) >= 1 - 1e-12

    def test_s_then_h_on_plus_i_gives_one(self):
        st = qcore.apply_gate(qcore.KET_PLUS_I, qcore.S, 0)
        st = qcore.apply_gate(st, qcore.H, 0)
        assert qcore.overlap(st, qcore.KET_ONE) >= 1 - 1e-12

    def test_h_on_ghz_qubit2_matches_full_matrix_oracle(self):
        # independent oracle: multiply the full 8x8 matrix I (x) I (x) H
        full = np.kron(np.kron(np.eye(2), np.eye(2)), qcore.H.matrix)
        expected = full @ qcore.GHZ3.amplitudes
        got = qcore.apply_gate(qcore.GHZ3, qcore.H, 2)
        np.testing.assert_allclose(got.amplitudes, expected, atol=1e-12)
        np.testing.assert_allclose(np.abs(got.amplitudes), [0.5, 0.5, 0, 0, 0, 0, 0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    @pytest.mark.parametrize("gate", [qcore.H, qcore.S, qcore.X, qcore.Z])
    def test_apply_gate_matches_kron_oracle_on_random_states(self, num_qubits, gate):
        rng = np.random.default_rng(17 * num_qubits + ord(gate.name[0]))
        for _ in range(5):
            st = random_state(num_qubits, rng)
            for target in range(num_qubits):
                mats = [np.eye(2)] * num_qubits
                mats[target] = gate.matrix
                full = mats[0]
                for m in mats[1:]:
                    full = np.kron(full, m)
                expected = full @ st.amplitudes
                got = qcore.apply_gate(st, gate, target)
                np.testing.assert_allclose(got.amplitudes, expected, atol=1e-12)

    def test_norm_preserved(self):
        for _ in range(20):
            st = random_state(int(RNG.integers(1, 4)), RNG)
            gate = [qcore.H, qcore.S, qcore.X, qcore.Z][int(RNG.integers(0, 4))]
            target = int(RNG.integers(0, st.num_qubits))
            out = qcore.apply_gate(st, gate, target)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9

    def test_value_semantics(self):
        st = qcore.KET_PLUS
        before = st.amplitudes.copy()
        qcore.apply_gate(st, qcore.H, 0)
        np.testing.assert_array_equal(st.amplitudes, before)

    def test_bad_target(self):
        with pytest.raises(BadTarget):
            qcore.apply_gate(qcore.KET_ZERO, qcore.H, 1)


class TestBases:
    @pytest.mark.parametrize("basis", [qcore.COMPUTATIONAL, qcore.HADAMARD, qcore.PSI, qcore.PHI])
    def test_orthonormal(self, basis):
        assert abs(np.vdot(basis.v0.amplitudes, basis.v1.amplitudes)) < 1e-12
        assert abs(np.linalg.norm(basis.v0.amplitudes) - 1) < 1e-12
        assert abs(np.linalg.norm(basis.v1.amplitudes) - 1) < 1e-12

    def test_named_constants(self):
        c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
        np.testing.assert_allclose(qcore.PSI.v0.amplitudes.real, [c, s], atol=1e-15)
        np.testing.assert_allclose(qcore.PHI.v0.amplitudes.real, [s, c], atol=1e-15)
        np.testing.assert_allclose(qcore.HADAMARD.v0.amplitudes.real, [INV_SQRT2] * 2, atol=1e-15)

    def test_non_orthogonal_pair_rejected(self):
        with pytest.raises(NonNormalizable):
            qcore.QubitBasis("bad", qcore.KET_ZERO, qcore.KET_PSI)

    @pytest.mark.parametrize("basis", NAMED_BASES)
    def test_bras_are_the_conjugate_rows(self, basis):
        np.testing.assert_array_equal(basis.bras, np.conj([basis.v0.amplitudes, basis.v1.amplitudes]))
        with pytest.raises(ValueError):
            basis.bras[0, 0] = 0.0


class TestCollapse:
    @pytest.mark.parametrize("num_qubits", [2, 3])
    @pytest.mark.parametrize("basis", NAMED_BASES)
    def test_matches_projector_oracle_on_every_target(self, num_qubits, basis):
        rng = np.random.default_rng(31 * num_qubits + len(basis.name))
        for _ in range(5):
            st = random_state(num_qubits, rng)
            for target in range(num_qubits):
                branches = qcore.measurement_branches(st, basis, target)
                for outcome in (0, 1):
                    # <v_outcome| on the target qubit, the identity on the others
                    bra = np.conj((basis.v0, basis.v1)[outcome].amplitudes)[None, :]
                    projector = np.kron(np.kron(np.eye(2**target), bra), np.eye(2 ** (num_qubits - target - 1)))
                    residual = projector @ st.amplitudes
                    want_prob = float(np.vdot(residual, residual).real)
                    want = residual / np.linalg.norm(residual)
                    for prob, got in (branches[outcome], qcore.collapse(st, basis, target, outcome)):
                        assert prob == pytest.approx(want_prob, abs=1e-12)
                        assert got.num_qubits == num_qubits - 1
                        assert not got.amplitudes.flags.writeable
                        phase = np.vdot(got.amplitudes, want)
                        np.testing.assert_allclose(got.amplitudes * phase / abs(phase), want, atol=1e-12, rtol=0)


class TestOutcomeDistribution:
    def test_zero_in_psi_basis(self):
        p0, p1 = qcore.outcome_distribution(qcore.KET_ZERO, qcore.PSI, 0)
        assert p0 == pytest.approx(0.5 * (1 + INV_SQRT2), abs=1e-12)
        assert p1 == pytest.approx(0.5 * (1 - INV_SQRT2), abs=1e-12)

    def test_zero_in_hadamard_basis(self):
        p0, p1 = qcore.outcome_distribution(qcore.KET_ZERO, qcore.HADAMARD, 0)
        assert p0 == pytest.approx(0.5, abs=1e-12)
        assert p1 == pytest.approx(0.5, abs=1e-12)

    def test_plus_i_after_h_in_computational(self):
        st = qcore.apply_gate(qcore.KET_PLUS_I, qcore.H, 0)
        p0, p1 = qcore.outcome_distribution(st, qcore.COMPUTATIONAL, 0)
        assert p0 == pytest.approx(0.5, abs=1e-12)

    def test_completeness_on_random_states(self):
        for _ in range(30):
            st = random_state(int(RNG.integers(1, 4)), RNG)
            basis = [qcore.COMPUTATIONAL, qcore.HADAMARD, qcore.PSI, qcore.PHI][int(RNG.integers(0, 4))]
            target = int(RNG.integers(0, st.num_qubits))
            p0, p1 = qcore.outcome_distribution(st, basis, target)
            assert abs(p0 + p1 - 1.0) < 1e-12


class TestMeasure:
    def test_eigenstate_measurement(self):
        for r in (0.0, 0.3, 0.999):
            res = qcore.measure(qcore.KET_ONE, qcore.COMPUTATIONAL, 0, r)
            assert res.outcome == 1
            assert res.probability == pytest.approx(1.0, abs=1e-12)
            assert qcore.overlap(res.collapsed, qcore.KET_ONE) >= 1 - 1e-12

    def test_bell_collapse_to_plus(self):
        res = qcore.measure(qcore.BELL_PHI_PLUS, qcore.HADAMARD, 0, 0.3)
        assert res.outcome == 0
        assert res.collapsed.num_qubits == 1
        assert qcore.overlap(res.collapsed, qcore.KET_PLUS) >= 1 - 1e-9

    def test_ghz_double_h_measure_collapses_to_plus(self):
        st = qcore.apply_gate(qcore.GHZ3, qcore.H, 0)
        st = qcore.apply_gate(st, qcore.H, 1)
        first = qcore.measure(st, qcore.COMPUTATIONAL, 0, 0.1)
        assert first.outcome == 0
        second = qcore.measure(first.collapsed, qcore.COMPUTATIONAL, 0, 0.1)
        assert second.outcome == 0
        assert qcore.overlap(second.collapsed, qcore.KET_PLUS) >= 1 - 1e-9

    def test_probability_consistent_with_distribution(self):
        for _ in range(20):
            st = random_state(int(RNG.integers(1, 4)), RNG)
            basis = [qcore.COMPUTATIONAL, qcore.HADAMARD, qcore.PSI, qcore.PHI][int(RNG.integers(0, 4))]
            target = int(RNG.integers(0, st.num_qubits))
            r = float(RNG.random())
            res = qcore.measure(st, basis, target, r)
            dist = qcore.outcome_distribution(st, basis, target)
            assert abs(res.probability - dist[res.outcome]) < 1e-12
            assert abs(np.linalg.norm(res.collapsed.amplitudes) - 1.0) < 1e-9

    def test_deterministic_threshold(self):
        p0, _ = qcore.outcome_distribution(qcore.KET_ZERO, qcore.PSI, 0)
        assert qcore.measure(qcore.KET_ZERO, qcore.PSI, 0, p0 - 1e-9).outcome == 0
        assert qcore.measure(qcore.KET_ZERO, qcore.PSI, 0, p0 + 1e-9).outcome == 1

    def test_empirical_frequency_matches_distribution(self):
        # 1e5 i.i.d. draws against the exact Born probability, 4 standard errors
        rng = np.random.default_rng(7)
        n = 100_000
        p0, _ = qcore.outcome_distribution(qcore.KET_ZERO, qcore.PSI, 0)
        draws = rng.random(n)
        zeros = sum(
            qcore.measure(qcore.KET_ZERO, qcore.PSI, 0, float(u)).outcome == 0 for u in draws
        )
        se = math.sqrt(p0 * (1 - p0) / n)
        assert abs(zeros / n - p0) <= 4 * se

    def test_randomness_range_validated(self):
        with pytest.raises(ValueError):
            qcore.measure(qcore.KET_ZERO, qcore.PSI, 0, 1.0)

    def test_no_signaling_marginal(self):
        # Bob's marginal in any fixed basis is (1/2, 1/2) whether or not Alice measured
        for bob_basis in (qcore.COMPUTATIONAL, qcore.HADAMARD, qcore.PSI, qcore.PHI):
            direct = qcore.outcome_distribution(qcore.BELL_PHI_PLUS, bob_basis, 1)
            for alice_basis in (qcore.COMPUTATIONAL, qcore.HADAMARD, qcore.PSI, qcore.PHI):
                marginal = [0.0, 0.0]
                for a in (0, 1):
                    pa, collapsed = qcore.collapse(qcore.BELL_PHI_PLUS, alice_basis, 0, a)
                    pb = qcore.outcome_distribution(collapsed, bob_basis, 0)
                    marginal[0] += pa * pb[0]
                    marginal[1] += pa * pb[1]
                assert abs(marginal[0] - direct[0]) < 1e-12
                assert abs(marginal[1] - direct[1]) < 1e-12
                assert abs(marginal[0] - 0.5) < 1e-12

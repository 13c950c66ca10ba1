"""Core state/operator/propagation layer."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import qcore
from phaselab.errors import CyclicityError, ScheduleError

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


class TestAngles:
    def test_wrap_interval_convention(self):
        assert qcore.wrap_angle(0.0) == 0.0
        assert qcore.wrap_angle(math.pi) == math.pi
        assert qcore.wrap_angle(-math.pi) == math.pi
        assert qcore.wrap_angle(2.0 * math.pi) == 0.0
        assert qcore.wrap_angle(3.5 * math.pi) == pytest.approx(-0.5 * math.pi)

    @given(finite)
    def test_wrap_stays_in_half_open_interval(self, angle):
        w = qcore.wrap_angle(angle)
        assert -math.pi < w <= math.pi

    @given(finite)
    def test_wrap_preserves_angle_mod_two_pi(self, angle):
        w = qcore.wrap_angle(angle)
        assert math.remainder(angle - w, 2.0 * math.pi) == pytest.approx(
            0.0, abs=1e-6)

    @given(finite, finite)
    def test_circle_distance_symmetric_and_bounded(self, a, b):
        d = qcore.circle_distance(a, b)
        assert 0.0 <= d <= math.pi
        assert d == qcore.circle_distance(b, a)

    def test_circle_distance_across_branch_cut(self):
        assert qcore.circle_distance(math.pi - 0.01, -math.pi + 0.01) == \
            pytest.approx(0.02, abs=1e-12)


class TestPauli:
    def test_pauli_vector_matches_matrix_sum(self):
        c = (0.3, -1.2, 0.7)
        expected = c[0] * qcore.SIGMA_1 + c[1] * qcore.SIGMA_2 \
            + c[2] * qcore.SIGMA_3
        assert np.allclose(qcore.pauli_vector(c), expected)

    def test_pauli_algebra(self):
        for s in qcore.PAULI:
            assert np.allclose(s @ s, np.eye(2))
        assert np.allclose(qcore.SIGMA_1 @ qcore.SIGMA_2,
                           1j * qcore.SIGMA_3)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            qcore.StateVector(np.array([1.0, 1.0]))

    def test_normalized_constructor(self):
        s = qcore.StateVector.normalized([3.0, 4.0])
        assert s.amplitudes[0] == pytest.approx(0.6)
        assert s.dim == 2

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            qcore.StateVector.normalized([0.0, 0.0])

    def test_overlap_conjugation(self):
        a = qcore.StateVector.normalized([1.0, 1j])
        b = qcore.StateVector.normalized([1.0, -1.0])
        assert a.overlap(b) == pytest.approx(np.conj(b.overlap(a)))

    def test_amplitudes_read_only(self):
        s = qcore.StateVector.normalized([1.0, 0.0])
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        mat = np.array([[0.0, 1.0], [2.0, 0.0]])
        psi = qcore.StateVector.normalized(np.array([1.0, 0.0]))
        with pytest.raises(ScheduleError):
            qcore.instantaneous_eigensystem(mat)
        with pytest.raises(ScheduleError):
            qcore.expectation(mat, psi)

    def test_schedule_checks_every_query(self):
        sched = qcore.HamiltonianSchedule(
            evaluator=lambda t: np.array([[0.0, 1.0], [1.0 + t, 0.0]]),
            duration=1.0)
        sched.operator(0.0)
        with pytest.raises(ScheduleError):
            sched.operator(0.5)


class TestEigensystem:
    @given(st.tuples(finite, finite, finite).filter(
        lambda c: math.hypot(math.hypot(c[0], c[1]), c[2]) > 1e-6))
    @settings(max_examples=60)
    def test_closed_form_matches_numpy(self, coeffs):
        mat = qcore.pauli_vector(coeffs)
        eig = qcore.instantaneous_eigensystem(mat)
        ref_vals = np.linalg.eigvalsh(mat)
        scale = max(1.0, float(np.max(np.abs(ref_vals))))
        assert np.allclose(eig.values, ref_vals, atol=1e-9 * scale)
        for k in range(2):
            residual = mat @ eig.vectors[:, k] - eig.values[k] * eig.vectors[:, k]
            assert np.linalg.norm(residual) < 1e-9 * scale

    def test_ground_state_aligns_against_field(self):
        # field along +z: ground state is spin-down
        psi = qcore.ground_state(qcore.pauli_vector((0.0, 0.0, 2.0)))
        assert abs(psi.amplitudes[1]) == pytest.approx(1.0)
        assert qcore.expectation(qcore.SIGMA_3, psi) == pytest.approx(-1.0)

    def test_degenerate_flag(self):
        eig = qcore.instantaneous_eigensystem(np.zeros((2, 2)))
        assert eig.degenerate

    def test_large_matrix_path(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        mat = a + a.conj().T
        with pytest.raises(ValueError):
            qcore.instantaneous_eigensystem(mat)
        sched = qcore.HamiltonianSchedule(evaluator=lambda t: mat,
                                          duration=1.0)
        psi0 = qcore.StateVector.normalized(np.ones(5))
        with pytest.raises(ValueError):
            qcore.evolve(sched, psi0, 0.1)


class TestExpectation:
    def test_matches_direct_form(self):
        psi = qcore.StateVector.normalized([1.0, 1.0])
        assert qcore.expectation(qcore.SIGMA_1, psi) == pytest.approx(1.0)
        assert qcore.expectation(qcore.SIGMA_3, psi) == pytest.approx(0.0)


class TestEvolution:
    def test_free_precession_closed_form(self):
        # H = A sigma3: amplitudes pick up exp(-+ i A t)
        amp = 0.8
        sched = qcore.HamiltonianSchedule(
            evaluator=lambda t: amp * qcore.SIGMA_3, duration=3.0)
        psi0 = qcore.StateVector.normalized([1.0, 1.0])
        final = qcore.evolve(sched, psi0, 0.001)
        expected = np.array([cmath.exp(-1j * amp * 3.0),
                             cmath.exp(1j * amp * 3.0)]) / math.sqrt(2.0)
        assert np.allclose(final.amplitudes, expected, atol=1e-6)

    def test_norm_preserved_exactly(self):
        sched = qcore.HamiltonianSchedule(
            evaluator=lambda t: qcore.pauli_vector((math.cos(t), 0.0,
                                                    math.sin(t))),
            duration=10.0)
        psi0 = qcore.StateVector.normalized([1.0, 0.0])
        final = qcore.evolve(sched, psi0, 0.01)
        assert np.linalg.norm(final.amplitudes) == pytest.approx(1.0,
                                                                 abs=1e-12)

    def test_energy_integral_for_constant_hamiltonian(self):
        sched = qcore.HamiltonianSchedule(
            evaluator=lambda t: 2.0 * qcore.SIGMA_3, duration=5.0)
        psi0 = qcore.StateVector([0.0 + 0j, 1.0 + 0j])
        _, energy = qcore.evolve_with_energy(sched, psi0, 0.001)
        assert energy == pytest.approx(-10.0, rel=1e-9)

    def test_trajectory_brackets_run(self):
        sched = qcore.HamiltonianSchedule(
            evaluator=lambda t: qcore.SIGMA_3, duration=1.0)
        psi0 = qcore.StateVector([1.0 + 0j, 0.0 + 0j])
        times, states = qcore.evolve_trajectory(sched, psi0, 0.01,
                                                sample_every=7)
        assert times[0] == 0.0
        assert times[-1] == 1.0
        assert np.allclose(states[0], psi0.amplitudes)
        assert np.allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)

    def test_step_validation(self):
        sched = qcore.HamiltonianSchedule(
            evaluator=lambda t: qcore.SIGMA_3, duration=1.0)
        psi0 = qcore.StateVector([1.0 + 0j, 0.0 + 0j])
        with pytest.raises(ValueError):
            qcore.evolve(sched, psi0, 0.0)


class TestPhaseDecompose:
    def test_identity_split_for_stationary_state(self):
        # eigenstate evolution: total phase is purely dynamical
        sched = qcore.HamiltonianSchedule(
            evaluator=lambda t: 0.3 * qcore.SIGMA_3, duration=4.0)
        psi0 = qcore.StateVector([0.0 + 0j, 1.0 + 0j])
        dec = qcore.phase_decompose(sched, psi0, 0.001)
        assert dec.overlap_modulus == pytest.approx(1.0, abs=1e-10)
        assert dec.dynamical == pytest.approx(1.2, rel=1e-9)
        assert qcore.circle_distance(dec.total, dec.dynamical) < 1e-6
        assert qcore.circle_distance(dec.geometric, 0.0) < 1e-6

    def test_geometric_is_wrapped_difference(self):
        sched = qcore.HamiltonianSchedule(
            evaluator=lambda t: 0.3 * qcore.SIGMA_3, duration=4.0)
        psi0 = qcore.StateVector([0.0 + 0j, 1.0 + 0j])
        dec = qcore.phase_decompose(sched, psi0, 0.001)
        assert dec.geometric == qcore.wrap_angle(dec.total - dec.dynamical)

    def test_non_cyclic_run_raises(self):
        # slow half-turn of the field: the state follows it to the opposite
        # pole and ends nearly orthogonal to where it started
        sched = qcore.HamiltonianSchedule(
            evaluator=lambda t: qcore.pauli_vector(
                (math.sin(t * math.pi / 10.0), 0.0,
                 math.cos(t * math.pi / 10.0))),
            duration=10.0)
        psi0 = qcore.ground_state(sched.operator(0.0))
        with pytest.raises(CyclicityError) as err:
            qcore.phase_decompose(sched, psi0, 0.005)
        assert err.value.overlap_modulus < 0.99

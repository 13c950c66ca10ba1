"""Core state/field/propagation layer."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import analogs, berry, qcore
from phaselab.errors import CyclicityError, ScheduleError

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


def state(values):
    """A StateVector along the given amplitudes."""
    vec = np.asarray(values, dtype=complex)
    return qcore.StateVector(vec / np.linalg.norm(vec))


SIGMA = np.array([[[0.0, 1.0], [1.0, 0.0]],
                  [[0.0, -1.0j], [1.0j, 0.0]],
                  [[1.0, 0.0], [0.0, -1.0]]])


def pauli(fields):
    """a . sigma for a field a, or a stack of them for an (N, 3) array."""
    return np.tensordot(fields, SIGMA, axes=1)


def turns_complex(t):
    """a1 picks up an imaginary part from t = 0.5 on: H stops being Hermitian."""
    return np.where(t < 0.5, 1.0, 1.0 + 1e-6j), 0.0, 0.5


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


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            qcore.StateVector(np.array([1.0, 1.0]))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            qcore.StateVector(np.zeros(2))

    def test_overlap_conjugation(self):
        a = state([1.0, 1j])
        b = state([1.0, -1.0])
        assert a.overlap(b) == pytest.approx(np.conj(b.overlap(a)))

    def test_amplitudes_read_only(self):
        s = state([1.0, 0.0])
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        # an imaginary part of the field beyond 1e-12 of its scale is not
        # roundoff; one below it is dropped
        real = qcore.HamiltonianSchedule(lambda t: (2.0, 0.0, 0.5), 1.0)
        roundoff = qcore.HamiltonianSchedule(
            lambda t: (2.0 + 1e-13j, 0.0, 0.5), 1.0)
        assert np.array_equal(qcore.ground_state(roundoff, 0.0).amplitudes,
                              qcore.ground_state(real, 0.0).amplitudes)
        complex_field = qcore.HamiltonianSchedule(
            lambda t: (2.0 + 1e-6j, 0.0, 0.5), 1.0)
        with pytest.raises(ScheduleError):
            qcore.ground_state(complex_field, 0.0)

    def test_schedule_checks_every_query(self):
        sched = qcore.HamiltonianSchedule(turns_complex, duration=1.0)
        qcore.ground_state(sched, 0.0)
        with pytest.raises(ScheduleError):
            qcore.ground_state(sched, 0.5)


fields = st.tuples(finite, finite, finite).filter(
    lambda c: math.hypot(math.hypot(c[0], c[1]), c[2]) > 1e-6)


class TestEigensystem:
    @given(st.lists(fields, min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_closed_form_matches_numpy(self, stack):
        a = np.array(stack)
        vectors = qcore.field_eigenvectors(a)
        mats = pauli(a)
        ref_vals = np.linalg.eigh(mats)[0]
        r = np.linalg.norm(a, axis=1)
        for k in range(len(a)):
            scale = max(1.0, r[k])
            assert np.allclose(ref_vals[k], [-r[k], r[k]], atol=1e-9 * scale)
            for j in range(2):
                v = vectors[k, :, j]
                residual = mats[k] @ v - ref_vals[k, j] * v
                assert np.linalg.norm(residual) < 1e-9 * scale
                # the phase rule: the largest-modulus component is real and
                # positive (either one, where both moduli agree)
                top = np.abs(v).max()
                assert any(abs(c.imag) <= 1e-15 and c.real > 0.0
                           for c in v[np.abs(v) >= top - 1e-15])

    def test_ground_state_aligns_against_field(self):
        # field along +z: ground state is spin-down
        sched = qcore.HamiltonianSchedule(lambda t: (0.0, 0.0, 2.0), 1.0)
        amp = qcore.ground_state(sched, 0.0).amplitudes
        assert abs(amp[1]) == pytest.approx(1.0)
        assert np.vdot(amp, SIGMA[2] @ amp).real == pytest.approx(-1.0)

    def test_zero_field_takes_the_plus_z_basis(self):
        vectors = qcore.field_eigenvectors([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(vectors[0], [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(vectors[0], vectors[1])
        dark = qcore.HamiltonianSchedule(lambda t: (0.0, 0.0, 0.0), 1.0)
        assert np.array_equal(qcore.ground_state(dark, 0.5).amplitudes,
                              [0.0, 1.0])

    def test_large_matrix_path(self):
        # qcore is two-level only: a state of any other size is rejected
        for amplitudes in (np.ones(5), np.ones(1), np.ones((2, 1))):
            with pytest.raises(ValueError):
                state(amplitudes)


class TestEvolution:
    def test_free_precession_closed_form(self):
        # H = A sigma3: amplitudes pick up exp(-+ i A t)
        amp = 0.8
        sched = qcore.HamiltonianSchedule(lambda t: (0.0, 0.0, amp),
                                          duration=3.0)
        psi0 = state([1.0, 1.0])
        final, _ = qcore.evolve_with_energy(sched, psi0, 0.001)
        expected = np.array([cmath.exp(-1j * amp * 3.0),
                             cmath.exp(1j * amp * 3.0)]) / math.sqrt(2.0)
        assert np.allclose(final.amplitudes, expected, atol=1e-6)

    def test_norm_preserved_exactly(self):
        sched = qcore.HamiltonianSchedule(
            lambda t: (np.cos(t), 0.0, np.sin(t)), duration=10.0)
        psi0 = state([1.0, 0.0])
        final, _ = qcore.evolve_with_energy(sched, psi0, 0.01)
        assert np.linalg.norm(final.amplitudes) == pytest.approx(1.0,
                                                                 abs=1e-12)

    def test_energy_integral_for_constant_hamiltonian(self):
        sched = qcore.HamiltonianSchedule(lambda t: (0.0, 0.0, 2.0),
                                          duration=5.0)
        psi0 = qcore.StateVector([0.0 + 0j, 1.0 + 0j])
        _, energy = qcore.evolve_with_energy(sched, psi0, 0.001)
        assert energy == pytest.approx(-10.0, rel=1e-9)

    def test_step_validation(self):
        sched = qcore.HamiltonianSchedule(lambda t: (0.0, 0.0, 1.0),
                                          duration=1.0)
        psi0 = qcore.StateVector([1.0 + 0j, 0.0 + 0j])
        with pytest.raises(ValueError):
            qcore.evolve_with_energy(sched, psi0, 0.0)


def scalar_midpoint(coefficients, duration, steps, psi):
    """Step-by-step reference for the kernel: H frozen at each midpoint,
    exp(-i H dt) from numpy's eigh.  Returns (states, energy integral,
    sigma3 integral)."""
    dt = duration / steps
    states = [np.asarray(psi, dtype=complex)]
    energy = sigma3 = 0.0
    for k in range(steps):
        h = pauli([float(np.real(c))
                   for c in coefficients(np.float64((k + 0.5) * dt))])
        psi = states[-1]
        energy += dt * float(np.vdot(psi, h @ psi).real)
        sigma3 += dt * float(np.vdot(psi, SIGMA[2] @ psi).real)
        w, v = np.linalg.eigh(h)
        states.append(v @ (np.exp(-1j * w * dt) * (v.conj().T @ psi)))
    return np.array(states), energy, sigma3


@pytest.fixture
def marches(monkeypatch):
    """(alpha, beta, b0, b1) of each qcore._march call a test makes."""
    calls = []
    march = qcore._march

    def recorded(alpha, beta, p0, p1):
        b0, b1, p0, p1 = march(alpha, beta, p0, p1)
        calls.append((alpha, beta, b0, b1))
        return b0, b1, p0, p1

    monkeypatch.setattr(qcore, "_march", recorded)
    return calls


class TestChunkedKernel:
    CHUNK = qcore._CHUNK
    BLOCK = qcore._BLOCK
    # one step, either side of a march block, of a block of blocks (the
    # march's second level) and of a chunk boundary, a ragged last block
    # after a whole one in a ragged last chunk, and a ragged last chunk of
    # one ragged block
    STEPS = (1, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK ** 2 - 1, BLOCK ** 2,
             BLOCK ** 2 + 1, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + BLOCK + 3,
             3 * CHUNK + 7)
    DT = 2.0 ** -12  # exact, so duration / DT is exactly the step count

    @staticmethod
    def drive(t):
        return np.cos(3.0 * t), 0.5 * np.sin(2.0 * t), 1.0 - t

    @staticmethod
    def dark_then_lit(t):
        # no field before t = 0.5: the state stands still there
        lit = t >= 0.5
        return np.where(lit, 0.8, 0.0), 0.0, np.where(lit, -0.6, 0.0)

    def test_constant_hamiltonian_closed_form(self):
        a = np.array([0.4, -0.7, 1.1])
        r = float(np.linalg.norm(a))
        psi0 = state([0.6, 0.8j])
        h = pauli(a)
        mean_energy = float(np.vdot(psi0.amplitudes, h @ psi0.amplitudes).real)
        for steps in self.STEPS:
            duration = steps * self.DT
            sched = qcore.HamiltonianSchedule(lambda t: tuple(a), duration)
            final, energy = qcore.evolve_with_energy(sched, psi0, self.DT)
            exact = (math.cos(r * duration) * np.eye(2)
                     - 1j * math.sin(r * duration) * pauli(a / r)
                     ) @ psi0.amplitudes
            assert np.abs(final.amplitudes - exact).max() < 1e-12, steps
            assert abs(energy - mean_energy * duration) < 1e-12, steps

    def test_norm_does_not_drift(self, marches):
        # every step applies the same rounded unitary, whose norm error
        # would add up over the run; the march keeps it to a few roundings,
        # at the end and at every step's start
        a = (0.4, -0.7, 1.1)
        sched = qcore.HamiltonianSchedule(lambda t: a, 50_000 * self.DT)
        final, _, _ = qcore._propagate(sched, state([0.6, 0.8j]).amplitudes,
                                       self.DT)
        assert abs(np.linalg.norm(final) - 1.0) < 1e-14
        b0 = np.concatenate([m[2] for m in marches])
        b1 = np.concatenate([m[3] for m in marches])
        norms = np.hypot(np.abs(b0), np.abs(b1))
        assert np.abs(norms - 1.0).max() < 16 * np.finfo(float).eps

    def test_matches_scalar_reference(self):
        psi0 = state([0.6, 0.8j])
        for steps in self.STEPS:
            sched = qcore.HamiltonianSchedule(self.drive, steps * self.DT)
            final, energy, sigma3 = qcore._propagate(sched, psi0.amplitudes,
                                                     self.DT)
            ref, ref_energy, ref_sigma3 = scalar_midpoint(
                self.drive, sched.duration, steps, psi0.amplitudes)
            assert np.abs(final - ref[-1]).max() < 1e-12, steps
            assert abs(energy - ref_energy) < 1e-12, steps
            assert abs(sigma3 - ref_sigma3) < 1e-12, steps

    def test_cayley_klein_pairs_are_the_unitary_columns(self, marches):
        # the pairs the kernel marches are the first column of the step
        # unitary written out as four entries, bit for bit, and the second
        # column is (-conj(beta), conj(alpha)) exactly; dark steps included
        steps = self.CHUNK + 1
        for coefficients in (self.drive, self.dark_then_lit):
            marches.clear()
            sched = qcore.HamiltonianSchedule(coefficients, steps * self.DT)
            qcore._propagate(sched, state([0.6, 0.8j]).amplitudes, self.DT)
            a1, a2, a3 = qcore._coefficients(
                sched, (np.arange(steps) + 0.5) * self.DT)
            r = np.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
            c = np.cos(r * self.DT)
            s = np.divide(np.sin(r * self.DT), r,
                          out=np.full_like(r, self.DT), where=r != 0.0)
            u00 = c - 1j * s * a3
            u01 = (-1j * s) * (a1 - 1j * a2)
            u10 = (-1j * s) * (a1 + 1j * a2)
            u11 = c + 1j * s * a3
            alpha = np.concatenate([m[0] for m in marches])
            beta = np.concatenate([m[1] for m in marches])
            assert np.array_equal(alpha, u00)
            assert np.array_equal(beta, u10)
            assert np.array_equal(u01, -beta.conj())
            assert np.array_equal(u11, alpha.conj())

    def test_zero_field_stretch(self):
        psi0 = state([0.6, 0.8j])
        dark = qcore.HamiltonianSchedule(self.dark_then_lit, 0.5)
        final, _ = qcore.evolve_with_energy(dark, psi0, self.DT)
        assert np.abs(final.amplitudes - psi0.amplitudes).max() < 1e-12
        steps = self.CHUNK + 1
        sched = qcore.HamiltonianSchedule(self.dark_then_lit, steps * self.DT)
        final, energy = qcore.evolve_with_energy(sched, psi0, self.DT)
        ref, ref_energy, _ = scalar_midpoint(self.dark_then_lit,
                                             sched.duration, steps,
                                             psi0.amplitudes)
        assert np.abs(final.amplitudes - ref[-1]).max() < 1e-12
        assert abs(energy - ref_energy) < 1e-12

    def test_zero_duration(self):
        sched = qcore.HamiltonianSchedule(self.drive, 0.0)
        psi0 = state([0.6, 0.8j])
        final, energy = qcore.evolve_with_energy(sched, psi0, self.DT)
        assert np.array_equal(final.amplitudes, psi0.amplitudes)
        assert energy == 0.0
        assert qcore._propagate(sched, psi0.amplitudes, self.DT)[2] == 0.0

    def test_every_midpoint_is_checked(self):
        # the bad stretch starts in the third chunk of the run
        not_finite = lambda t: (1.0, 0.0, np.where(t < 0.5, 0.5, np.nan))
        psi0 = state([1.0, 0.0])
        for coefficients in (turns_complex, not_finite):
            sched = qcore.HamiltonianSchedule(coefficients, duration=1.0)
            with pytest.raises(ScheduleError):
                qcore.evolve_with_energy(sched, psi0, 2.0 ** -14)


def loop_march(u, p0, p1):
    """The step-by-step state march that qcore._march replaces, kept as its
    reference definition: same arguments and returns, in the precision of
    u, p0 and p1."""
    b0 = []
    b1 = []
    for v00, v01, v10, v11 in zip(u[0, 0], u[0, 1], u[1, 0], u[1, 1]):
        b0.append(p0)
        b1.append(p1)
        p0, p1 = v00 * p0 + v01 * p1, v10 * p0 + v11 * p1
    return np.array(b0), np.array(b1), p0, p1


def pair_loop_march(alpha, beta, p0, p1):
    """loop_march of the Cayley-Klein pairs qcore._march takes, each pair
    wrapped into its SU(2) matrix."""
    u = np.array([[alpha, -beta.conj()], [beta, alpha.conj()]])
    return loop_march(u, p0, p1)


def long_double_run(schedule, psi, step):
    """Starting amplitudes of every step, final amplitudes and energy
    integral of the midpoint rule, with the step unitaries built and
    marched in long double from the kernel's float64 coefficients.  The
    field must not vanish on the grid."""
    n, dt = qcore._step_count(schedule.duration, step)
    a1, a2, a3 = qcore._coefficients(
        schedule, (np.arange(n) + 0.5) * dt).astype(np.longdouble)
    dt = np.longdouble(dt)
    r = np.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
    c = np.cos(r * dt)
    s = np.sin(r * dt) / r
    u = np.array([[c - 1j * s * a3, (-1j * s) * (a1 - 1j * a2)],
                  [(-1j * s) * (a1 + 1j * a2), c + 1j * s * a3]])
    assert u.dtype == np.clongdouble
    b0, b1, p0, p1 = loop_march(u, *np.asarray(psi, dtype=np.clongdouble))
    energy = dt * np.sum(a3 * np.abs(b0) ** 2 - a3 * np.abs(b1) ** 2
                         + 2.0 * ((a1 - 1j * a2) * b1 * b0.conj()).real)
    return np.concatenate((b0, [p0])), np.concatenate((b1, [p1])), energy


class TestLongRunAccuracy:
    """The kernel's march against the step-by-step loop over long runs, both
    measured against long_double_run: each of the march's errors may be at
    most twice the loop's, and at most one rounding per step."""

    @staticmethod
    def errors(march, schedule, psi, step, reference, monkeypatch):
        """Largest amplitude error over all steps, and energy error."""
        starts = []

        def recorded(alpha, beta, p0, p1):
            b0, b1, p0, p1 = march(alpha, beta, p0, p1)
            starts.append((b0, b1))
            return b0, b1, p0, p1

        monkeypatch.setattr(qcore, "_march", recorded)
        final, energy, _ = qcore._propagate(schedule, psi, step)
        b0 = np.concatenate([b[0] for b in starts] + [final[:1]])
        b1 = np.concatenate([b[1] for b in starts] + [final[1:]])
        ref0, ref1, ref_energy = reference
        state = max(np.abs(b0 - ref0).max(), np.abs(b1 - ref1).max())
        return float(state), float(abs(energy - ref_energy))

    @pytest.mark.parametrize("run", ["berry-equator", "berry-scaled",
                                     "rect-loop"])
    def test_blocked_march_against_loop(self, run, monkeypatch):
        if run.startswith("berry"):
            # berry-equator's defaults and berry-wilson-sweep's scaled run:
            # 62,832 steps of 0.02 on a field of amplitude 1 or 5
            amplitude = 1.0 if run == "berry-equator" else 5.0
            schedule = berry.spin_rotation_schedule(
                amplitude, 0.5 * math.pi, 2.0 * math.pi / 0.005)
            step, scale = 0.02, amplitude
        else:
            # the first half-loop transport of the default rectangle at the
            # benchmark's step: 38,084 steps through the resonance
            times, dk, ek = analogs.rectangle_transport(10.0, 0.5)
            half = float(times[len(times) // 2])
            schedule = qcore.HamiltonianSchedule(
                lambda t: (np.interp(t, times, ek), 0.0,
                           np.interp(t, times, dk)), half)
            step, scale = 0.04, math.hypot(10.0, 0.5)
        psi = qcore.ground_state(schedule, 0.0).amplitudes
        reference = long_double_run(schedule, psi, step)
        march = self.errors(qcore._march, schedule, psi, step, reference,
                            monkeypatch)
        loop = self.errors(pair_loop_march, schedule, psi, step, reference,
                           monkeypatch)
        steps = len(reference[0]) - 1
        eps = np.finfo(float).eps
        assert march[0] <= 2.0 * loop[0]
        assert march[1] <= 2.0 * loop[1]
        assert march[0] <= steps * eps
        assert march[1] <= schedule.duration * scale * steps * eps


class TestPhaseDecompose:
    def test_identity_split_for_stationary_state(self):
        # eigenstate evolution: total phase is purely dynamical
        sched = qcore.HamiltonianSchedule(lambda t: (0.0, 0.0, 0.3),
                                          duration=4.0)
        psi0 = qcore.StateVector([0.0 + 0j, 1.0 + 0j])
        dec = qcore.phase_decompose(sched, psi0, 0.001)
        assert dec.overlap_modulus == pytest.approx(1.0, abs=1e-10)
        assert dec.dynamical == pytest.approx(1.2, rel=1e-9)
        assert qcore.circle_distance(dec.geometric, 0.0) < 1e-6
        assert dec.sigma3_mean == pytest.approx(-1.0, abs=1e-12)

    def test_geometric_is_wrapped_difference(self):
        sched = qcore.HamiltonianSchedule(lambda t: (0.0, 0.0, 0.3),
                                          duration=4.0)
        psi0 = qcore.StateVector([0.0 + 0j, 1.0 + 0j])
        dec = qcore.phase_decompose(sched, psi0, 0.001)
        final, energy = qcore.evolve_with_energy(sched, psi0, 0.001)
        total = cmath.phase(np.vdot(psi0.amplitudes, final.amplitudes))
        assert dec.dynamical == -energy
        assert dec.geometric == qcore.wrap_angle(total - dec.dynamical)

    def test_non_cyclic_run_raises(self):
        # slow half-turn of the field: the state follows it to the opposite
        # pole and ends nearly orthogonal to where it started
        sched = qcore.HamiltonianSchedule(
            lambda t: (np.sin(t * math.pi / 10.0), 0.0,
                       np.cos(t * math.pi / 10.0)),
            duration=10.0)
        psi0 = qcore.ground_state(sched, 0.0)
        with pytest.raises(CyclicityError,
                           match=r"^evolution is not cyclic: \|overlap\| = "
                           r"0\.\d{6} < 0\.99$"):
            qcore.phase_decompose(sched, psi0, 0.005)

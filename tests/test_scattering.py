"""Mirror+barrier channel: phases and the bounce ledger."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import qcore, scattering
from phaselab.scattering import BounceChain, DeltaBarrier, ScatteringConfig


class TestBarrierMatrix:
    @given(p=st.floats(0.2, 5.0), gamma=st.floats(0.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_delta_unitarity(self, p, gamma):
        cfg = ScatteringConfig(p=p, m=1.0, X=3.0, barrier=DeltaBarrier(gamma))
        mat = scattering.barrier_matrix(cfg)
        t = 1.0 / mat[0, 0]
        r = mat[1, 0] / mat[0, 0]
        assert abs(abs(r) ** 2 + abs(t) ** 2 - 1.0) < 1e-10

    def test_delta_transmission_closed_form(self):
        # T = 1 / (1 + (m gamma / p)^2)
        for p, gamma in ((1.0, 1.0), (2.0, 0.5), (0.7, 3.0)):
            cfg = ScatteringConfig(p=p, m=1.0, X=3.0,
                                   barrier=DeltaBarrier(gamma))
            u = gamma / p
            assert scattering.transmission_probability(cfg) == pytest.approx(
                1.0 / (1.0 + u * u), rel=1e-12)

    def test_one_fifth_transmission(self):
        cfg = ScatteringConfig(p=1.0, m=1.0, X=3.0, barrier=DeltaBarrier(2.0))
        assert scattering.transmission_probability(cfg) == pytest.approx(
            0.2, rel=1e-12)

    def test_transparent_barrier(self):
        cfg = ScatteringConfig(p=1.3, m=1.0, X=3.0, barrier=DeltaBarrier(0.0))
        assert scattering.transmission_probability(cfg) == pytest.approx(
            1.0, abs=1e-14)


class TestReflectionPhase:
    def test_bare_mirror_is_exactly_pi(self):
        cfg = ScatteringConfig(p=1.7, m=1.0, X=5.0, barrier=DeltaBarrier(0.0))
        assert scattering.reflection_phase(cfg) == math.pi

    def test_opaque_barrier_shortens_the_channel(self, scenario):
        # scatter-phase's strongest barrier: p = 1, X = 2, gamma = 1e6
        phase = scenario("scatter-phase")[0]["strong_phase"]
        assert phase == pytest.approx(-0.8584063464099779, rel=1e-12)
        assert qcore.circle_distance(
            phase, qcore.wrap_angle(math.pi - 4.0)) < 2e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScatteringConfig(p=0.0, m=1.0, X=1.0, barrier=DeltaBarrier(1.0))
        with pytest.raises(ValueError):
            ScatteringConfig(p=1.0, m=1.0, X=1.0, barrier="delta")
        with pytest.raises(ValueError):
            DeltaBarrier(-0.5)


class TestBounceChain:
    def test_net_momentum_exactly_zero(self):
        for eps in (0.01, 0.1, 0.3, 0.5, 0.9, 0.999):
            exp = scattering.bounce_chain_expectation(BounceChain(eps, 1.7))
            assert exp.net_momentum == 0.0

    def test_branch_expectations(self):
        exp = scattering.bounce_chain_expectation(BounceChain(0.2, 1.5))
        assert exp.first_kick == pytest.approx(2.0 * 1.5 * 0.8, rel=1e-14)
        assert exp.trapped_contribution == -exp.first_kick
        assert exp.trapped_dwell == pytest.approx(0.8 / 0.2, rel=1e-14)

    def test_monte_carlo_agrees_with_exact(self):
        for eps in (0.01, 0.1, 0.5, 0.9):
            chain = BounceChain(eps, 1.0)
            sample = scattering.bounce_chain_sample(chain, 40000, seed=0)
            z_net = abs(sample.mean_net_momentum) / sample.net_standard_error
            assert z_net < 3.0
            exact = scattering.bounce_chain_expectation(chain)
            z_dwell = (abs(sample.mean_trapped_dwell - exact.trapped_dwell)
                       / sample.dwell_standard_error)
            assert z_dwell < 3.0

    def test_sampling_is_deterministic(self):
        chain = BounceChain(0.3, 1.0)
        a = scattering.bounce_chain_sample(chain, 5000, seed=11)
        b = scattering.bounce_chain_sample(chain, 5000, seed=11)
        assert a == b
        c = scattering.bounce_chain_sample(chain, 5000, seed=12)
        assert c.mean_net_momentum != a.mean_net_momentum

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            BounceChain(0.0, 1.0)
        with pytest.raises(ValueError):
            BounceChain(1.0, 1.0)
        with pytest.raises(ValueError):
            BounceChain(0.5, -1.0)
        with pytest.raises(ValueError):
            scattering.bounce_chain_sample(BounceChain(0.5, 1.0), 0, seed=0)

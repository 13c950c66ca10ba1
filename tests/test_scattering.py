"""Mirror+barrier channel: phases and the bounce ledger."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import qcore, scattering, scenarios
from phaselab.scattering import BounceChain, ScatteringConfig


class TestBarrierMatrix:
    @given(p=st.floats(0.2, 5.0), gamma=st.floats(0.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_delta_unitarity(self, p, gamma):
        cfg = ScatteringConfig(p=p, m=1.0, X=3.0, strength=gamma)
        mat = scattering.barrier_matrix(cfg)
        t = 1.0 / mat[0, 0]
        r = mat[1, 0] / mat[0, 0]
        assert abs(abs(r) ** 2 + abs(t) ** 2 - 1.0) < 1e-10

    def test_delta_transmission_closed_form(self):
        # T = 1 / (1 + (m gamma / p)^2)
        for p, gamma in ((1.0, 1.0), (2.0, 0.5), (0.7, 3.0)):
            cfg = ScatteringConfig(p=p, m=1.0, X=3.0, strength=gamma)
            u = gamma / p
            assert scattering.transmission_probability(cfg) == pytest.approx(
                1.0 / (1.0 + u * u), rel=1e-12)

    def test_one_fifth_transmission(self):
        cfg = ScatteringConfig(p=1.0, m=1.0, X=3.0, strength=2.0)
        assert scattering.transmission_probability(cfg) == pytest.approx(
            0.2, rel=1e-12)

    def test_transparent_barrier(self):
        cfg = ScatteringConfig(p=1.3, m=1.0, X=3.0, strength=0.0)
        assert scattering.transmission_probability(cfg) == pytest.approx(
            1.0, abs=1e-14)


class TestReflectionPhase:
    def test_bare_mirror_is_exactly_pi(self):
        cfg = ScatteringConfig(p=1.7, m=1.0, X=5.0, strength=0.0)
        assert scattering.reflection_phase(cfg) == math.pi

    def test_opaque_barrier_shortens_the_channel(self, scenario):
        # scatter-phase's strongest barrier: p = 1, X = 2, gamma = 1e6
        phase = scenario("scatter-phase")[0]["strong_phase"]
        assert phase == pytest.approx(-0.8584063464099779, rel=1e-12)
        assert qcore.circle_distance(
            phase, qcore.wrap_angle(math.pi - 4.0)) < 2e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScatteringConfig(p=0.0, m=1.0, X=1.0, strength=1.0)
        with pytest.raises(ValueError):
            ScatteringConfig(p=1.0, m=1.0, X=1.0, strength=-0.5)


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

    def test_second_moment(self):
        exp = scattering.bounce_chain_expectation(BounceChain(0.2, 1.5))
        assert exp.trapped_dwell_square == pytest.approx(0.8 * 1.8 / 0.04,
                                                         rel=1e-14)

    @staticmethod
    def within_bounds(sample):
        return (abs(sample.net_deviation) <= sample.net_bound
                and abs(sample.dwell_deviation) <= sample.dwell_bound
                and abs(sample.dwell_square_deviation)
                <= sample.dwell_square_bound)

    def test_monte_carlo_agrees_with_exact(self):
        for eps in (0.01, 0.1, 0.5, 0.9):
            chain = BounceChain(eps, 1.0)
            sample = scattering.bounce_chain_sample(chain, 40000, seed=0)
            assert self.within_bounds(sample)
            assert abs(sample.trapped - 40000 * eps) < 1.0
            # the dwell bound is about log(n_t)/(n_t lam), lam >= eps
            scale = math.log(sample.trapped) / (
                sample.trapped * -math.log1p(-eps))
            assert scale < sample.dwell_bound < 3.0 * scale

    def test_default_bounds_beat_three_sigma(self):
        # the 3-sigma widths of 200,000 independent chains at eps 0.1:
        # dwell 3 sd(D)/sqrt(n eps), sd(D) = sqrt(1-eps)/eps, and net
        # 3 sqrt(E[net^2]/n), E[net^2] = 4p^2 (1-eps + eps E[D^2])
        chain = BounceChain(0.1, 1.0)
        sample = scattering.bounce_chain_sample(chain, 200_000, seed=0)
        exact = scattering.bounce_chain_expectation(chain)
        dwell_sigma3 = 3.0 * math.sqrt(0.9) / 0.1 / math.sqrt(20_000)
        net_sigma3 = 3.0 * math.sqrt(
            4.0 * (0.9 + 0.1 * exact.trapped_dwell_square) / 200_000)
        assert sample.dwell_bound < 0.006 < 0.2 < dwell_sigma3
        assert sample.net_bound < 0.0012 < 0.05 < net_sigma3

    def test_matches_per_stratum_reference(self):
        # one dwell at a time: D_j = max(0, ceil(L) - 1) at 1 - v_j =
        # (n_t - j - s)/n_t, with no blocks, runs or skipped zero strata
        for eps, trials in ((0.5, 20_000), (0.05, 200_000), (0.999, 9_000)):
            chain = BounceChain(eps, 1.0)
            sample = scattering.bounce_chain_sample(chain, trials, seed=3)
            s, n_t = sample.shift, sample.trapped
            dwells = [max(0, math.ceil(
                math.log(((n_t - j) - s) / n_t) / math.log1p(-eps)) - 1)
                for j in range(n_t)]
            exact = scattering.bounce_chain_expectation(chain)
            assert n_t == sum(1 for i in range(trials)
                              if (i + s) / trials < eps)
            assert sample.dwell_deviation == (sum(dwells) / n_t
                                              - exact.trapped_dwell)
            assert sample.dwell_square_deviation == (
                sum(d * d for d in dwells) / n_t - exact.trapped_dwell_square)
            assert sample.net_deviation == 2.0 * (
                (trials - n_t - sum(dwells)) / trials)

    def test_every_seed_passes_the_runner_checks(self):
        # the catalog's trials, through scatter-bounce's own checks
        for eps in (0.01, 0.1, 0.5, 0.9):
            chain = BounceChain(eps, 1.0)
            for seed in range(500):
                sample = scattering.bounce_chain_sample(
                    chain, scenarios.BOUNCE_TRIALS, seed)
                checks = scenarios._bounce_sample_checks(chain, sample)
                assert all(passed for _, passed in checks), (eps, seed)

    def test_verdict_near_one_trapped_chain_does_not_depend_on_seed(self):
        # below n eps = 1 a shift may trap no chain, so the net check fails
        # for every seed; from 1 up every shift traps one and all pass
        n = scenarios.BOUNCE_TRIALS
        for n_eps, verdict in ((0.5, False), (0.999, False), (1.0, True),
                               (2.0, True), (4.0, True), (8.0, True)):
            chain = BounceChain(n_eps / n, 1.0)
            for seed in range(100):
                sample = scattering.bounce_chain_sample(chain, n, seed)
                checks = scenarios._bounce_sample_checks(chain, sample)
                assert all(passed for _, passed in checks) is verdict, (
                    n_eps, seed)

    def test_memory_does_not_grow_with_trials(self):
        chain = BounceChain(0.5, 1.0)
        peaks = {}
        for trials in (2 * 10 ** 4, 2 * 10 ** 6):
            scattering.bounce_chain_sample(chain, trials, seed=0)
            tracemalloc.start()
            try:
                scattering.bounce_chain_sample(chain, trials, seed=0)
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        block = 8 * scattering._STRATA_BLOCK
        assert peaks[2 * 10 ** 6] - peaks[2 * 10 ** 4] <= block

    @pytest.mark.parametrize("eps, trials", [
        (1e-10, 200_000), (1e-10, 10 ** 11), (1e-6, 200_000), (1e-6, 10 ** 8),
        (0.999, 200_000)])
    def test_extreme_epsilon(self, eps, trials):
        sample = scattering.bounce_chain_sample(BounceChain(eps, 1.0), trials,
                                                seed=5)
        assert abs(sample.trapped - trials * eps) < 1.0
        if sample.trapped:
            assert self.within_bounds(sample)
        else:
            assert sample.net_deviation == 2.0
            assert math.isnan(sample.dwell_deviation)
            assert sample.dwell_bound == math.inf
        if trials == 10 ** 11:
            # ten dwells of about 1e10: their squares pass int64's range
            assert sample.trapped == 10
            exact = scattering.bounce_chain_expectation(BounceChain(eps, 1.0))
            assert (sample.dwell_square_deviation
                    + exact.trapped_dwell_square) > 2.0 ** 63

    def test_sampling_is_deterministic(self):
        chain = BounceChain(0.3, 1.0)
        a = scattering.bounce_chain_sample(chain, 5000, seed=11)
        b = scattering.bounce_chain_sample(chain, 5000, seed=11)
        assert a == b
        c = scattering.bounce_chain_sample(chain, 5000, seed=12)
        assert c.shift != a.shift

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            BounceChain(0.0, 1.0)
        with pytest.raises(ValueError):
            BounceChain(1.0, 1.0)
        with pytest.raises(ValueError):
            BounceChain(0.5, -1.0)
        with pytest.raises(ValueError):
            scattering.bounce_chain_sample(BounceChain(0.5, 1.0), 0, seed=0)

import math

import numpy as np
import pytest

from blinkinfer.ctmc import QuadratureSpec, count_state_prob_ctmc, trace_loglik_ctmc
from blinkinfer.kernels import (
    CountTrace,
    EmissionRates,
    StatePrior,
    SwitchRates,
    poisson_pmf,
    probs_from_rates,
)
from blinkinfer.multistep import (
    base_distributions,
    choose_subinterval_count,
    convolve_halving,
    default_c_max,
    interval_distributions,
    on_count_weights,
    trace_loglik_multistep,
)
from oracles import path_sum_loglik, reference_loglik, substep_path_matrix

EM = EmissionRates(mu=2.0, lam=20.0)


class TestBaseDistributions:
    def test_no_switching_zeroes_cross_terms(self):
        probs = probs_from_rates(SwitchRates(0.0, 0.0), 4)
        dist = base_distributions(4, probs, EM, 60)
        assert np.all(dist.probs[0, 1] == 0.0)
        assert np.all(dist.probs[1, 0] == 0.0)

    def test_start_state_mass_is_one_minus_tail(self):
        probs = probs_from_rates(SwitchRates(1.0, 2.0), 8)
        dist = base_distributions(8, probs, EM, 60)
        assert dist.probs[0].sum() == pytest.approx(1.0, abs=1e-12)
        assert dist.probs[1].sum() == pytest.approx(1.0, abs=1e-12)

    def test_direct_entry_value(self):
        rates = SwitchRates(2.0, 2.0)
        probs = probs_from_rates(rates, 16)
        dist = base_distributions(16, probs, EM, 60)
        expected = (1.0 - probs.beta) * math.exp(-22.0 / 16.0)
        assert dist.probs[1, 1, 0] == pytest.approx(expected, rel=1e-13)

    def test_insufficient_c_max_names_required_bound(self):
        probs = probs_from_rates(SwitchRates(1.0, 1.0), 1)
        with pytest.raises(ValueError, match=r"need c_max >= (\d+)"):
            base_distributions(1, probs, EmissionRates(10.0, 100.0), 40)


class TestConvolveHalving:
    def test_poisson_additivity_when_frozen(self):
        probs = probs_from_rates(SwitchRates(0.0, 0.0), 2)
        base = base_distributions(2, probs, EM, 80)
        doubled = convolve_halving(base)
        kappa = np.arange(81)
        np.testing.assert_allclose(
            doubled.probs[0, 0], poisson_pmf(2.0, kappa), atol=1e-14
        )
        np.testing.assert_allclose(
            doubled.probs[1, 1], poisson_pmf(22.0, kappa), atol=1e-14
        )

    def test_mass_conserved_through_chain(self):
        probs = probs_from_rates(SwitchRates(1.7, 0.9), 2)
        base = base_distributions(2, probs, EM, 120)
        doubled = convolve_halving(base)
        # with negligible truncation, each start state's mass stays 1
        for i in (0, 1):
            assert doubled.probs[i].sum() == pytest.approx(1.0, abs=1e-10)

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(2)
        rates = SwitchRates(float(rng.uniform(0.2, 3)), float(rng.uniform(0.2, 3)))
        em = EmissionRates(1.5, 7.0)
        probs = probs_from_rates(rates, 2)
        base = base_distributions(2, probs, em, 40)
        doubled = convolve_halving(base)
        direct = np.zeros((2, 2, 41))
        for i in (0, 1):
            for j in (0, 1):
                for k in range(41):
                    total = 0.0
                    for mid in (0, 1):
                        for cd in range(k + 1):
                            total += base.probs[i, mid, cd] * base.probs[mid, j, k - cd]
                    direct[i, j, k] = total
        np.testing.assert_allclose(doubled.probs, direct, atol=1e-15)

    def test_double_halving_associativity(self):
        probs = probs_from_rates(SwitchRates(2.0, 1.0), 4)
        base = base_distributions(4, probs, EM, 80)
        half = convolve_halving(base)
        assert half.interval_fraction == pytest.approx(0.5)
        via_half = convolve_halving(half)
        twice = convolve_halving(convolve_halving(base))
        np.testing.assert_allclose(via_half.probs, twice.probs, rtol=1e-12, atol=0)
        assert via_half.interval_fraction == pytest.approx(1.0)


class TestIntervalDistributions:
    def test_d1_reproduces_single_step_factors(self):
        rates = SwitchRates(0.9, 0.4)
        probs = probs_from_rates(rates, 1)
        dist = interval_distributions(1, rates, EM, 60)
        kappa = np.arange(61)
        np.testing.assert_allclose(
            dist.probs[0, 1], probs.alpha * poisson_pmf(2.0, kappa), rtol=1e-13
        )
        np.testing.assert_allclose(
            dist.probs[1, 1],
            (1 - probs.beta) * poisson_pmf(22.0, kappa),
            rtol=1e-13,
        )

    def test_supnorm_to_ctmc_decreases_in_d(self):
        rates = SwitchRates(2.0, 2.0)
        c_max = default_c_max(60, EM)
        quad = QuadratureSpec()
        reference = np.empty((2, 2, 61))
        for a in (0, 1):
            for b in (0, 1):
                for c in range(61):
                    reference[a, b, c] = count_state_prob_ctmc(c, a, b, rates, EM, quad)
        previous = None
        for d in (2, 4, 8, 16):
            dist = interval_distributions(d, rates, EM, c_max)
            sup = float(np.max(np.abs(dist.probs[:, :, :61] - reference)))
            if previous is not None:
                assert sup < previous
            previous = sup

    def test_tail_accounting_below_tolerance(self):
        rates = SwitchRates(2.0, 2.0)
        c_max = default_c_max(60, EM)
        dist = interval_distributions(16, rates, EM, c_max)
        assert dist.mass_deficit() < 1e-10

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            interval_distributions(3, SwitchRates(1, 1), EM, 60)


MIX_RATES = [(0.0, 0.0), (0.0, 2.5), (3.0, 0.0), (0.7, 5.0), (20.0, 30.0)]
MIX_EMISSIONS = [
    EmissionRates(0.0, 20.0),
    EmissionRates(2.0, 20.0),
    EmissionRates(5.0, 0.0),
    EmissionRates(0.0, 0.0),
]


def mixture_probs(d, rates, em, c_max):
    """probs[start, end, count] as the Poisson mixture over on-sub-step counts."""
    weights = on_count_weights(d, rates.r_alpha, rates.r_beta)
    rate = em.mu + em.lam * np.arange(d + 1) / d
    pmf = poisson_pmf(rate[None, :], np.arange(c_max + 1)[:, None])
    return np.einsum("ijn,cn->ijc", weights, pmf)


class TestOnCountWeights:
    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
    def test_normalised_law(self, d):
        w = on_count_weights(d, np.array([0.0, 1.3, 40.0]), np.array([0.0, 0.2, 9.0]))
        assert w.shape == (2, 2, 3, d + 1)
        assert np.all(w >= 0.0)
        np.testing.assert_allclose(w.sum(axis=(1, 3)), 1.0, rtol=0, atol=1e-14)
        # a frozen chain never leaves its start state
        assert w[0, 0, 0, 0] == 1.0 and w[1, 1, 0, d] == 1.0
        assert w[:, :, 0].sum() == 2.0

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_mixture_matches_substep_path_enumeration(self, d):
        counts = np.arange(101)
        for ra, rb in MIX_RATES:
            for em in MIX_EMISSIONS:
                mix = mixture_probs(d, SwitchRates(ra, rb), em, 100)
                want = substep_path_matrix(counts, d, ra, rb, em.mu, em.lam)
                got = mix.transpose(1, 0, 2)  # [end, start, count]
                live = want > 1e-300
                assert np.all(got[~live] < 1e-290)
                rel = np.abs(got[live] - want[live]) / want[live]
                assert rel.max() <= 1e-13

    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
    def test_mixture_reproduces_interval_distributions(self, d):
        # The halving route evaluates each Poisson pmf as exp of a log of
        # size |ln p| and convolves d of them, so deep in the tail its own
        # rounding reaches 2e-13 relative (the mixture agrees with the
        # enumeration above there); the relative bound is taken where that
        # rounding is below 1e-13, the absolute bound everywhere.
        for ra, rb in MIX_RATES:
            rates = SwitchRates(ra, rb)
            for em in MIX_EMISSIONS:
                want = interval_distributions(d, rates, em, 100).probs
                got = mixture_probs(d, rates, em, 100)
                assert np.max(np.abs(got - want)) <= 1e-15
                bulk = want > 1e-10
                rel = np.abs(got[bulk] - want[bulk]) / want[bulk]
                assert rel.max() <= 1e-13

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            on_count_weights(3, 1.0, 1.0)


class TestChooseSubintervalCount:
    def test_low_rates_need_single_step(self):
        assert choose_subinterval_count(0.1, 0.5) == 1

    def test_rule_boundary(self):
        # product 4 needs 0.1 * 2^(2m) > 4, first satisfied at m = 3
        assert choose_subinterval_count(2.0, 2.0) == 8

    def test_scales_with_rates(self):
        assert choose_subinterval_count(8.0, 8.0) == 32


class TestTraceLoglik:
    def test_d1_equals_single_step(self):
        # shared explicit prior: the defaults differ (stationary in the
        # rates vs stationary in the mapped probabilities)
        rng = np.random.default_rng(0)
        trace = CountTrace(rng.integers(0, 30, size=50))
        rates = SwitchRates(0.8, 1.2)
        probs = probs_from_rates(rates, 1)
        prior = StatePrior(0.5, 0.5)
        a = trace_loglik_multistep(trace, rates, EM, prior, d=1)
        b = reference_loglik("single", trace, (probs.alpha, probs.beta), EM, prior)
        assert a == pytest.approx(b, rel=1e-12)

    def test_matches_boundary_path_sum(self):
        rng = np.random.default_rng(6)
        trace = CountTrace(rng.integers(0, 28, size=8))
        rates = SwitchRates(1.1, 0.7)
        prior = StatePrior.stationary_from_rates(rates)
        c_max = default_c_max(trace.max_count, EM)
        dist = interval_distributions(8, rates, EM, c_max)

        def mat(t):
            c = int(trace.counts[t - 1])
            return [[dist.probs[a, b, c] for a in (0, 1)] for b in (0, 1)]

        slow = path_sum_loglik(mat, 8, prior.vector)
        fast = trace_loglik_multistep(trace, rates, EM, prior, d=8)
        assert fast == pytest.approx(slow, rel=1e-12)

    @pytest.mark.parametrize("ra,rb", [(1.5, 1.5), (1.0, 0.5)])
    def test_d16_close_to_ctmc_per_point(self, ra, rb):
        # per-data-point agreement with the continuous model at moderate
        # rates; the gap grows as O(ra*rb/d) and reaches ~2e-3 at (2, 2)
        from blinkinfer.simulate import sim_ctmc

        rates = SwitchRates(ra, rb)
        res = sim_ctmc(rates, EM, 200, seed=5)
        lm = trace_loglik_multistep(res.trace, rates, EM, d=16)
        lc = trace_loglik_ctmc(res.trace, rates, EM)
        assert abs(lm - lc) / len(res.trace) < 1e-3

    def test_counts_far_beyond_default_c_max(self):
        # the tables are exact mixtures, so no count bound applies
        counts = [5, 160, 0, 230, 3]
        em = EmissionRates(1.0, 4.0)
        assert min(counts[1], counts[3]) > 3 * default_c_max(5, em)
        for d in (1, 2, 4):
            mats = {c: substep_path_matrix(c, d, 1.0, 1.5, 1.0, 4.0) for c in counts}
            slow = path_sum_loglik(lambda t: mats[counts[t - 1]], 5, (0.6, 0.4))
            fast = trace_loglik_multistep(CountTrace(counts), SwitchRates(1.0, 1.5), em, d=d)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_auto_d_follows_rule(self):
        rng = np.random.default_rng(1)
        trace = CountTrace(rng.integers(0, 30, size=30))
        rates = SwitchRates(2.0, 2.0)
        auto = trace_loglik_multistep(trace, rates, EM)
        explicit = trace_loglik_multistep(trace, rates, EM, d=8)
        assert auto == explicit

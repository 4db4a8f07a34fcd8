import math

import numpy as np
import pytest
from scipy.stats import poisson

from blinkinfer.kernels import (
    CountTrace,
    EmissionRates,
    StatePrior,
    SwitchProbs,
    poisson_pmf,
    scaled_chain_loglik,
)
from blinkinfer.posterior import _cell_context
from blinkinfer.single_step import (
    StepMatrix,
    brute_force_loglik,
    step_matrix_single,
    trace_loglik_single,
)
from oracles import reference_loglik

EM = EmissionRates(mu=2.0, lam=20.0)


def random_instance(rng, n_max=12):
    n = int(rng.integers(1, n_max + 1))
    trace = CountTrace(rng.integers(0, 35, size=n))
    probs = SwitchProbs(float(rng.random()), float(rng.random()), 1)
    em = EmissionRates(float(rng.random() * 5), float(rng.random() * 25))
    return trace, probs, em


class TestStepMatrix:
    def test_no_switching_is_diagonal(self):
        m = step_matrix_single(4, SwitchProbs(0, 0, 1), EM).entries
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0
        assert m[0, 0] == pytest.approx(poisson_pmf(2.0, 4))
        assert m[1, 1] == pytest.approx(poisson_pmf(22.0, 4))

    def test_column_sums_are_count_probabilities(self):
        probs = SwitchProbs(0.37, 0.81, 1)
        for c in (0, 3, 17):
            m = step_matrix_single(c, probs, EM).entries
            assert m[:, 0].sum() == pytest.approx(poisson_pmf(2.0, c), rel=1e-14)
            assert m[:, 1].sum() == pytest.approx(poisson_pmf(22.0, c), rel=1e-14)

    def test_hand_evaluated_entry(self):
        # switch-on entry: emission from the off state times alpha
        m = step_matrix_single(5, SwitchProbs(0.3, 0.2, 1), EM).entries
        assert m[1, 0] == pytest.approx(poisson_pmf(2.0, 5) * 0.3, rel=1e-14)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            StepMatrix(np.array([[0.5, -0.1], [0.1, 0.5]]))
        with pytest.raises(ValueError):
            StepMatrix(np.array([[0.9, 0.1], [0.9, 0.1]]))


class TestTraceLoglik:
    def test_single_interval_explicit_four_term_sum(self):
        trace = CountTrace([7])
        probs = SwitchProbs(0.4, 0.3, 1)
        prior = StatePrior(0.6, 0.4)
        m = step_matrix_single(7, probs, EM).entries
        expected = math.log(
            sum(m[s1, s0] * prior.vector[s0] for s0 in (0, 1) for s1 in (0, 1))
        )
        got = trace_loglik_single(trace, probs, EM, prior)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_alternating_chain_keeps_both_paths(self):
        # alpha = beta = 1: the state alternates, so the start state fixes
        # the whole path.  The counts fit one phase for 50 intervals and the
        # other for 100, so the early leader ends ~3700 nats behind.
        counts = np.array([0, 40] * 25 + [40, 0] * 50)
        phase = np.arange(counts.size) % 2  # start-of-interval state, from off
        from_off = poisson.logpmf(counts, np.where(phase == 0, 1.0, 40.0)).sum()
        from_on = poisson.logpmf(counts, np.where(phase == 0, 40.0, 1.0)).sum()
        expected = np.logaddexp(math.log(0.5) + from_off, math.log(0.5) + from_on)
        got = trace_loglik_single(
            CountTrace(counts), SwitchProbs(1.0, 1.0, 1), EmissionRates(1.0, 39.0)
        )
        assert expected == pytest.approx(-3971.98, abs=0.01)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_frozen_off_is_poisson_product(self):
        trace = CountTrace([1, 4, 0, 2, 3])
        got = trace_loglik_single(
            trace, SwitchProbs(0, 0, 1), EM, StatePrior.point(0)
        )
        expected = sum(math.log(poisson_pmf(2.0, int(c))) for c in trace.counts)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            trace, probs, em = random_instance(rng)
            prior = StatePrior.stationary_from_probs(probs)
            fast = trace_loglik_single(trace, probs, em, prior)
            slow = brute_force_loglik(trace, probs, em, prior)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_impossible_data_gives_neg_inf(self):
        trace = CountTrace([3])
        got = trace_loglik_single(trace, SwitchProbs(0.2, 0.2, 1), EmissionRates(0, 0))
        assert got == -math.inf

    def test_likelihood_normalises_over_all_count_pairs(self):
        # N=2: summing exp(loglik) over all count vectors must give 1
        probs = SwitchProbs(0.35, 0.15, 1)
        em = EmissionRates(1.0, 5.0)
        prior = StatePrior.stationary_from_probs(probs)
        total = 0.0
        for c1 in range(31):
            for c2 in range(31):
                total += math.exp(
                    trace_loglik_single(CountTrace([c1, c2]), probs, em, prior)
                )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_rescaling_invariance(self):
        # naive unscaled product agrees on traces short enough not to underflow
        rng = np.random.default_rng(7)
        trace, probs, em = random_instance(rng, n_max=10)
        prior = StatePrior.stationary_from_probs(probs)
        v = prior.vector.copy()
        for c in trace.counts:
            v = step_matrix_single(int(c), probs, em).entries @ v
        naive = math.log(v.sum())
        scaled = trace_loglik_single(trace, probs, em, prior)
        assert scaled == pytest.approx(naive, rel=1e-12)

    def test_long_trace_stays_finite(self):
        rng = np.random.default_rng(3)
        trace = CountTrace(rng.integers(0, 40, size=20_000))
        val = trace_loglik_single(trace, SwitchProbs(0.1, 0.2, 1), EM)
        assert math.isfinite(val)


class TestEngineTablesBitwise:
    """The engine's tables are the only single-step builder; pin them."""

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 0.37])
    @pytest.mark.parametrize("beta", [0.0, 1.0, 0.81])
    @pytest.mark.parametrize("mu", [0.0, 2.5])
    def test_tables_and_loglik_equal_step_matrix_single(self, alpha, beta, mu):
        rng = np.random.default_rng(19)
        trace = CountTrace(np.concatenate([[0, 0, 140], rng.poisson(9.0, 300)]))
        probs, em = SwitchProbs(alpha, beta), EmissionRates(mu, 12.0)
        ctx = _cell_context(trace, "single", (alpha, beta), em)
        tables = np.stack(ctx.tables(), axis=-1).reshape(-1, 2, 2)
        mats = [step_matrix_single(int(c), probs, em).entries for c in trace.counts]
        for t, m in enumerate(mats):
            assert np.array_equal(tables[ctx.inv[t]], m)
        got = trace_loglik_single(trace, probs, em)
        want = reference_loglik("single", trace, (alpha, beta), em)
        assert got == pytest.approx(want, rel=1e-14)


class TestBruteForce:
    def test_refuses_long_traces(self):
        with pytest.raises(ValueError):
            brute_force_loglik(
                CountTrace(np.zeros(21, dtype=int)), SwitchProbs(0.1, 0.1, 1), EM
            )

    def test_single_interval_hand_sum(self):
        trace = CountTrace([2])
        probs = SwitchProbs(0.25, 0.5, 1)
        prior = StatePrior(0.5, 0.5)
        m = step_matrix_single(2, probs, EM).entries
        expected = math.log(0.5 * (m[:, 0].sum() + m[:, 1].sum()))
        assert brute_force_loglik(trace, probs, EM, prior) == pytest.approx(
            expected, rel=1e-14
        )

    def test_forced_switching_structure(self):
        # prior fixed on off, alpha = 1: states must alternate starting at 0,
        # so the likelihood equals the single alternating path's probability
        trace = CountTrace([1, 24, 2])
        probs = SwitchProbs(1.0, 1.0, 1)
        prior = StatePrior.point(0)
        expected = math.log(
            poisson_pmf(2.0, 1) * poisson_pmf(22.0, 24) * poisson_pmf(2.0, 2)
        )
        assert brute_force_loglik(trace, probs, EM, prior) == pytest.approx(
            expected, rel=1e-12
        )


class TestRelabelSymmetry:
    def test_posterior_reflects_across_diagonal(self):
        # relabelling on<->off swaps the switch probabilities, the two
        # emission rates, and the prior components; the likelihood is
        # invariant, so a grid of log-likelihoods is the transpose of the
        # mirrored configuration's grid
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 30, size=40)

        def loglik(alpha, beta, rate_end0, rate_end1, p_off):
            def mats():
                for c in counts:
                    p0 = poisson_pmf(rate_end0, int(c))
                    p1 = poisson_pmf(rate_end1, int(c))
                    yield np.array(
                        [[p0 * (1 - alpha), p1 * beta], [p0 * alpha, p1 * (1 - beta)]]
                    )

            return scaled_chain_loglik(mats(), StatePrior(p_off, 1 - p_off))

        grid = np.linspace(0.05, 0.9, 7)
        direct = np.array(
            [[loglik(a, b, 2.0, 22.0, 0.3) for b in grid] for a in grid]
        )
        mirrored = np.array(
            [[loglik(a, b, 22.0, 2.0, 0.7) for b in grid] for a in grid]
        )
        np.testing.assert_allclose(direct, mirrored.T, rtol=1e-12)

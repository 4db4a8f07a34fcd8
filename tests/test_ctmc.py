import math

import numpy as np
import pytest
from scipy.linalg import expm

from blinkinfer.ctmc import (
    QuadratureConvergenceError,
    QuadratureSpec,
    avg_count_prob,
    check_quadrature_convergence,
    count_state_prob_ctmc,
    fraction_density,
    trace_loglik_ctmc,
    transition_prob,
)
from blinkinfer.kernels import (
    CountTrace,
    EmissionRates,
    StatePrior,
    SwitchRates,
    poisson_pmf,
    probs_from_rates,
)
from blinkinfer.posterior import _cell_context
from blinkinfer.simulate import sim_ctmc
from blinkinfer.single_step import trace_loglik_single
from oracles import ctmc_expm_step_matrix, gauss_legendre_integral, path_sum_loglik

EM = EmissionRates(mu=2.0, lam=20.0)
QUAD = QuadratureSpec()


class TestTransitionProb:
    def test_zero_time_identity(self):
        rates = SwitchRates(1.7, 0.4)
        for a in (0, 1):
            for b in (0, 1):
                assert transition_prob(a, b, 0.0, rates) == (1.0 if a == b else 0.0)

    def test_rows_normalise(self):
        rates = SwitchRates(0.9, 2.3)
        for t in (0.1, 1.0, 7.0):
            assert transition_prob(0, 0, t, rates) + transition_prob(
                0, 1, t, rates
            ) == pytest.approx(1.0, rel=1e-14)
            assert transition_prob(1, 0, t, rates) + transition_prob(
                1, 1, t, rates
            ) == pytest.approx(1.0, rel=1e-14)

    def test_closed_form_value(self):
        rates = SwitchRates(1.0, 0.5)
        expected = (1.0 / 1.5) * (1.0 - math.exp(-1.5))
        assert transition_prob(0, 1, 1.0, rates) == pytest.approx(expected, rel=1e-14)

    def test_against_matrix_exponential(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            ra, rb = rng.uniform(0.01, 8.0, size=2)
            t = float(rng.uniform(0.0, 3.0))
            q = np.array([[-ra, rb], [ra, -rb]])  # columns indexed by start state
            kernel = expm(q * t)
            for a in (0, 1):
                for b in (0, 1):
                    assert transition_prob(a, b, t, SwitchRates(ra, rb)) == (
                        pytest.approx(float(kernel[b, a]), rel=1e-10, abs=1e-12)
                    )

    def test_frozen_chain(self):
        rates = SwitchRates(0.0, 0.0)
        assert transition_prob(0, 0, 5.0, rates) == 1.0
        assert transition_prob(0, 1, 5.0, rates) == 0.0


class TestFractionDensity:
    def test_no_switch_on_rate_zero(self):
        rates = SwitchRates(0.0, 0.7)
        d01 = fraction_density(0, 1, rates)
        d00 = fraction_density(0, 0, rates)
        f = np.linspace(1e-6, 1 - 1e-6, 50)
        assert np.all(d01.smooth(f) == 0.0)
        assert np.all(d00.smooth(f) == 0.0)
        assert d00.delta_at_0 == 1.0

    def test_delta_weights(self):
        rates = SwitchRates(1.2, 0.3)
        assert fraction_density(0, 0, rates).delta_at_0 == pytest.approx(
            math.exp(-1.2)
        )
        assert fraction_density(1, 1, rates).delta_at_1 == pytest.approx(
            math.exp(-0.3)
        )
        assert fraction_density(0, 1, rates).delta_at_0 == 0.0
        assert fraction_density(1, 0, rates).delta_at_1 == 0.0

    def test_total_probability_splits(self):
        rates = SwitchRates(1.0, 0.5)
        for a in (0, 1):
            total = 0.0
            for b in (0, 1):
                d = fraction_density(a, b, rates)
                total += d.delta_at_0 + d.delta_at_1
                total += gauss_legendre_integral(d.smooth, 0.0, 1.0)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_integral_matches_transition_prob(self):
        rates = SwitchRates(1.0, 0.5)
        for a in (0, 1):
            for b in (0, 1):
                d = fraction_density(a, b, rates)
                val = d.delta_at_0 + d.delta_at_1
                val += gauss_legendre_integral(d.smooth, 0.0, 1.0)
                assert val == pytest.approx(
                    transition_prob(a, b, 1.0, rates), abs=1e-8
                )

    @pytest.mark.parametrize("ra,rb", [(0.1, 0.1), (0.5, 3.0), (4.0, 1.5), (8.0, 8.0)])
    def test_normalisation_across_rate_box(self, ra, rb):
        rates = SwitchRates(ra, rb)
        for a in (0, 1):
            total = 0.0
            for b in (0, 1):
                d = fraction_density(a, b, rates)
                total += d.delta_at_0 + d.delta_at_1
                total += gauss_legendre_integral(d.smooth, 0.0, 1.0)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_mean_on_fraction_closed_form(self):
        # sum_b E[f * R_ab] equals the time average of P(state on at t)
        rates = SwitchRates(1.3, 0.6)
        s = rates.r_alpha + rates.r_beta
        expected = {
            0: rates.r_alpha / s * (1.0 - (1.0 - math.exp(-s)) / s),
            1: (rates.r_alpha + rates.r_beta * (1.0 - math.exp(-s)) / s) / s,
        }
        for a in (0, 1):
            mean_f = 0.0
            for b in (0, 1):
                d = fraction_density(a, b, rates)
                mean_f += d.delta_at_1  # delta at f=1 contributes weight * 1
                mean_f += gauss_legendre_integral(
                    lambda f: f * d.smooth(f), 0.0, 1.0
                )
            assert mean_f == pytest.approx(expected[a], abs=1e-6)

    def test_start_end_density_bounded_near_edges(self):
        rates = SwitchRates(3.0, 2.0)
        d00 = fraction_density(0, 0, rates)
        d11 = fraction_density(1, 1, rates)
        tiny = np.array([1e-12, 1e-9])
        assert np.all(np.isfinite(d00.smooth(tiny)))
        assert np.all(np.isfinite(d11.smooth(1.0 - tiny)))
        # limit value: r_alpha * r_beta * exp(-r_alpha) as f -> 0
        assert d00.smooth(np.array([1e-12]))[0] == pytest.approx(
            3.0 * 2.0 * math.exp(-3.0), rel=1e-6
        )


class TestCountStateProb:
    def test_delta_only_when_frozen(self):
        rates = SwitchRates(0.0, 0.0)
        for c in (0, 2, 9):
            assert count_state_prob_ctmc(c, 0, 0, rates, EM, QUAD) == pytest.approx(
                poisson_pmf(2.0, c), rel=1e-12
            )
            assert count_state_prob_ctmc(c, 0, 1, rates, EM, QUAD) == 0.0

    def test_normalises_over_counts_and_states(self):
        rates = SwitchRates(1.0, 0.5)
        total = sum(
            count_state_prob_ctmc(c, 0, b, rates, EM, QUAD)
            for c in range(120)
            for b in (0, 1)
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_monte_carlo_oracle(self):
        # empirical frequency of (count=10, end=1 | start=0) from simulated
        # intervals at r_alpha = r_beta = 1
        rates = SwitchRates(1.0, 1.0)
        n = 10_000_000
        res = sim_ctmc(rates, EM, n, seed=99)
        start = res.boundary_states[:-1]
        end = res.boundary_states[1:]
        sel_a = start == 0
        n_a = sel_a.sum()
        hits = (sel_a & (end == 1) & (res.trace.counts == 10)).sum()
        emp = hits / n_a
        p = count_state_prob_ctmc(10, 0, 1, rates, EM, QUAD)
        se = math.sqrt(p * (1 - p) / n_a)
        assert abs(emp - p) < 3 * se

    def test_low_rate_limit_switch_terms(self):
        # switch entries tend to switching probability times the
        # fraction-averaged count law
        rates = SwitchRates(1e-3, 1e-3)
        alpha = 1.0 - math.exp(-1e-3)
        for c in (0, 5, 12, 25):
            lhs = count_state_prob_ctmc(c, 0, 1, rates, EM, QUAD)
            rhs = alpha * avg_count_prob(c, EM)
            assert lhs == pytest.approx(rhs, rel=1e-2)


class TestTraceLoglik:
    def test_low_rate_matches_single_step(self):
        # the models coincide on switch-free intervals and differ O(1) on the
        # rare intervals containing a switch; at r = 1e-3 a typical trace has
        # none, and the agreement is then limited only by O(r^2) terms
        rates = SwitchRates(1e-3, 1e-3)
        res = sim_ctmc(rates, EM, 200, seed=32, return_path=True)
        assert res.switch_times.size == 0
        probs = probs_from_rates(rates, 1)
        a = trace_loglik_ctmc(res.trace, rates, EM)
        b = trace_loglik_single(res.trace, probs, EM)
        assert a == pytest.approx(b, rel=1e-3)

    def test_matches_boundary_path_sum(self):
        rng = np.random.default_rng(8)
        rates = SwitchRates(1.4, 0.9)
        trace = CountTrace(rng.integers(0, 30, size=8))
        prior = StatePrior.stationary_from_rates(rates)

        def mat(t):
            c = int(trace.counts[t - 1])
            return [
                [
                    count_state_prob_ctmc(c, a, b, rates, EM, QUAD)
                    for a in (0, 1)
                ]
                for b in (0, 1)
            ]

        slow = path_sum_loglik(mat, 8, prior.vector)
        fast = trace_loglik_ctmc(trace, rates, EM, prior)
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_all_zero_counts_with_zero_rates_is_certain(self):
        trace = CountTrace(np.zeros(10, dtype=int))
        val = trace_loglik_ctmc(trace, SwitchRates(0.5, 0.5), EmissionRates(0, 0))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_memoisation_matches_direct_evaluation(self):
        rng = np.random.default_rng(14)
        counts = rng.integers(0, 12, size=60)
        trace = CountTrace(counts)
        rates = SwitchRates(2.0, 1.0)
        prior = StatePrior.stationary_from_rates(rates)
        fast = trace_loglik_ctmc(trace, rates, EM, prior)

        def mat(t):
            c = int(trace.counts[t - 1])
            return [
                [count_state_prob_ctmc(c, a, b, rates, EM, QUAD) for a in (0, 1)]
                for b in (0, 1)
            ]

        from blinkinfer.kernels import scaled_chain_loglik

        direct = scaled_chain_loglik((np.array(mat(t)) for t in range(1, 61)), prior)
        assert fast == pytest.approx(direct, rel=1e-14)


class TestEngineTablesAgainstExpm:
    """The engine's ctmc tables, the only ctmc builder, against expm."""

    @pytest.mark.parametrize("ra", [0.0, 1e-3, 0.7, 8.0])
    @pytest.mark.parametrize("rb", [0.0, 0.5, 8.0])
    @pytest.mark.parametrize("mu, lam", [(0.0, 40.0), (1e-3, 1e-3), (2.0, 20.0)])
    def test_tables_match_matrix_exponential(self, ra, rb, mu, lam):
        counts = np.arange(61)
        em = EmissionRates(mu, lam)
        ctx = _cell_context(CountTrace(counts), "ctmc", (ra, rb), em, quad=QUAD)
        tables = np.stack(ctx.tables(*ctx.pair_params(0, 1)), axis=-1).reshape(-1, 2, 2)
        got = tables[ctx.inv]
        ref = ctmc_expm_step_matrix(counts, ra, rb, mu, lam)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)
        big = ref > 1e-12
        np.testing.assert_allclose(got[big], ref[big], rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("mu, lam", [(1.0, 0.125), (1e-3, 1e-3), (2.0, 40.0)])
    def test_expm_oracle_keeps_tail_accuracy(self, mu, lam):
        # a frozen chain emits at one rate: the entries are Poisson pmfs,
        # down to 1e-190 at count 60, and the oracle keeps their digits
        counts = np.arange(61)
        ref = ctmc_expm_step_matrix(counts, 0.0, 0.0, mu, lam)
        want = np.zeros((counts.size, 2, 2))
        want[:, 0, 0] = [math.exp(c * math.log(mu) - mu - math.lgamma(c + 1)) for c in counts]
        want[:, 1, 1] = [math.exp(c * math.log(mu + lam) - mu - lam - math.lgamma(c + 1))
                         for c in counts]
        np.testing.assert_allclose(ref, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "ra, rb, mu, lam",
        [(0.7, 0.5, 2.0, 20.0), (8.0, 8.0, 0.0, 40.0), (1e-3, 0.5, 1e-3, 1e-3)],
    )
    def test_trace_loglik_matches_expm_path_sum(self, ra, rb, mu, lam):
        rng = np.random.default_rng(int(ra * 1000 + rb * 10))
        rates = SwitchRates(ra, rb)
        prior = StatePrior.stationary_from_rates(rates)
        for n in (1, 3, 8):
            counts = rng.poisson(mu + lam * rng.random(n))
            ref = ctmc_expm_step_matrix(counts, ra, rb, mu, lam)
            slow = path_sum_loglik(lambda t: ref[t - 1], n, prior.vector)
            fast = trace_loglik_ctmc(CountTrace(counts), rates, EmissionRates(mu, lam))
            assert fast == pytest.approx(slow, rel=1e-9)


class TestAvgCountProb:
    def test_lambda_zero_reduces_to_poisson(self):
        em = EmissionRates(mu=3.0, lam=0.0)
        for c in (0, 3, 8):
            assert avg_count_prob(c, em) == pytest.approx(
                poisson_pmf(3.0, c), rel=1e-14
            )

    def test_normalises(self):
        total = sum(avg_count_prob(c, EM) for c in range(150))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_analytic_pure_fluorescence(self):
        em = EmissionRates(mu=0.0, lam=10.0)
        assert avg_count_prob(0, em) == pytest.approx(
            (1.0 - math.exp(-10.0)) / 10.0, rel=1e-12
        )

    def test_matches_quadrature(self):
        for c in (0, 4, 15, 30):
            ref = gauss_legendre_integral(
                lambda f: poisson_pmf(2.0 + 20.0 * f, c), 0.0, 1.0, n=128
            )
            assert avg_count_prob(c, EM) == pytest.approx(ref, rel=1e-10, abs=1e-14)


class TestQuadrature:
    def test_node_count_floor(self):
        with pytest.raises(ValueError):
            QuadratureSpec(node_count=4)
        with pytest.raises(ValueError):
            QuadratureSpec(scheme="trapezoid")

    def test_default_rule_converged(self):
        worst = check_quadrature_convergence(
            SwitchRates(8.0, 8.0), EM, QUAD, counts=range(0, 60, 5)
        )
        assert worst < 1e-9

    def test_unconverged_rule_reported(self):
        coarse = QuadratureSpec(node_count=8)
        with pytest.raises(QuadratureConvergenceError, match="has not converged"):
            check_quadrature_convergence(
                SwitchRates(8.0, 8.0),
                EmissionRates(10.0, 120.0),
                coarse,
                counts=range(0, 120, 3),
                tol=1e-12,
            )

    @staticmethod
    def _scalar_worst(rates, emissions, quad, counts):
        """Worst change and its (count, start, end) by the scalar integrals."""
        fine = QuadratureSpec(node_count=2 * quad.node_count)
        worst, worst_at = 0.0, None
        for c in counts:
            for a in (0, 1):
                for b in (0, 1):
                    diff = abs(
                        count_state_prob_ctmc(c, a, b, rates, emissions, quad)
                        - count_state_prob_ctmc(c, a, b, rates, emissions, fine)
                    )
                    if diff > worst:
                        worst, worst_at = diff, (c, a, b)
        return worst, worst_at

    def test_worst_matches_scalar_loop(self):
        rates, em = SwitchRates(8.0, 8.0), EmissionRates(7.5, 36.0)
        worst = check_quadrature_convergence(rates, em, QUAD, counts=range(81))
        expected, _ = self._scalar_worst(rates, em, QUAD, range(81))
        assert worst == pytest.approx(expected, rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("rb", [8.0, 0.5])  # worst at 0->0, at 0->1
    def test_unconverged_names_scalar_loop_worst(self, rb):
        rates, em = SwitchRates(8.0, rb), EmissionRates(7.5, 36.0)
        coarse = QuadratureSpec(node_count=8)
        _, (c, a, b) = self._scalar_worst(rates, em, coarse, range(81))
        with pytest.raises(QuadratureConvergenceError) as err:
            check_quadrature_convergence(rates, em, coarse, counts=range(81))
        assert f"P(count={c}, {a}->{b})" in str(err.value)

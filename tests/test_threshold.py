import math

import numpy as np
import pytest

from blinkinfer.kernels import CountTrace, EmissionRates, StatePrior, SwitchProbs
from blinkinfer.simulate import sim_dtmc_single
from blinkinfer.threshold import (
    ThresholdConfig,
    assign_states,
    fit_exponential_prob,
    fit_poisson_mixture,
    fit_switch_probs,
    literature_thresholds,
    run_durations,
    threshold_sweep,
)

EM = EmissionRates(mu=2.0, lam=30.0)


def clear_blinking_trace(n=5000, seed=101):
    return sim_dtmc_single(SwitchProbs(0.02, 0.05, 1), EM, n, seed=seed)


class TestAssignStates:
    def test_threshold_below_min_all_on(self):
        tr = CountTrace([3, 5, 9])
        assert assign_states(tr, 2).tolist() == [1, 1, 1]

    def test_threshold_at_max_all_off(self):
        tr = CountTrace([3, 5, 9])
        assert assign_states(tr, 9).tolist() == [0, 0, 0]

    def test_tie_is_off(self):
        tr = CountTrace([7])
        assert assign_states(tr, 7).tolist() == [0]

    def test_monotone_in_threshold(self):
        res = clear_blinking_trace(n=1000)
        low = assign_states(res.trace, 10)
        high = assign_states(res.trace, 20)
        assert np.all(high <= low)


class TestRunDurations:
    def test_all_on(self):
        on, off = run_durations(np.ones(7, dtype=int))
        assert on.tolist() == [7] and off.size == 0

    def test_alternating(self):
        on, off = run_durations(np.array([0, 1, 0, 1, 0]))
        assert np.all(on == 1) and np.all(off == 1)

    def test_hand_built(self):
        on, off = run_durations(np.array([0, 0, 1, 1, 1, 0, 0]))
        assert on.tolist() == [3]
        assert off.tolist() == [2, 2]

    def test_partition_covers_trace(self):
        res = clear_blinking_trace(n=2000)
        states = assign_states(res.trace, 17)
        on, off = run_durations(states)
        assert on.sum() + off.sum() == 2000

    def test_partial_runs_can_be_dropped(self):
        states = np.array([1, 1, 0, 1, 1, 1])
        on_all, off_all = run_durations(states)
        on_trim, off_trim = run_durations(states, include_partial=False)
        assert on_all.tolist() == [2, 3]
        assert on_trim.size == 0
        assert off_trim.tolist() == [1]


class TestExponentialFit:
    def test_recovers_geometric_parameter(self):
        rng = np.random.default_rng(55)
        durations = rng.geometric(0.2, size=100_000)
        prob, diag = fit_exponential_prob(durations, 10)
        assert abs(prob - 0.2) / 0.2 < 0.10
        assert diag.bins_used >= 2

    def test_identical_durations_error(self):
        with pytest.raises(ValueError, match="bin count"):
            fit_exponential_prob(np.full(50, 4), 10)

    def test_scale_consistency(self):
        # replicating every duration leaves the fitted rate unchanged
        rng = np.random.default_rng(8)
        durations = rng.geometric(0.3, size=2000)
        p1, _ = fit_exponential_prob(durations, 10)
        p3, _ = fit_exponential_prob(np.repeat(durations, 3), 10)
        assert p1 == pytest.approx(p3, rel=1e-9)

    def test_bin_count_sensitivity_is_real(self):
        res = clear_blinking_trace()
        states = assign_states(res.trace, 17)
        durations = run_durations(states)
        estimates = [fit_switch_probs(durations, b).beta_hat for b in range(8, 13)]
        assert np.std(estimates) > 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ThresholdConfig(-1.0, 10)
        with pytest.raises(ValueError):
            ThresholdConfig(5.0, 1)


class TestPoissonMixture:
    def test_separates_clear_components(self):
        res = clear_blinking_trace()
        mix = fit_poisson_mixture(res.trace)
        assert mix.mu_bg == pytest.approx(2.0, abs=0.5)
        assert mix.mu_on == pytest.approx(32.0, abs=1.0)
        assert mix.separated

    def test_background_only_not_separated(self):
        res = sim_dtmc_single(
            SwitchProbs(0, 0, 1), EM, 3000, initial=StatePrior.point(0), seed=7
        )
        mix = fit_poisson_mixture(res.trace)
        assert not mix.separated


class TestLiteratureThresholds:
    def test_midpoint_near_seventeen(self):
        res = clear_blinking_trace()
        rules = literature_thresholds(res.trace)
        assert rules.midpoint_of_peaks == pytest.approx(17.0, abs=1.0)
        assert rules.min_between_peaks is not None
        assert 2.0 < rules.min_between_peaks < 32.0

    def test_background_only_peak_rules_unavailable(self):
        res = sim_dtmc_single(
            SwitchProbs(0, 0, 1), EM, 3000, initial=StatePrior.point(0), seed=7
        )
        rules = literature_thresholds(res.trace)
        assert rules.min_between_peaks is None
        assert rules.midpoint_of_peaks is None
        assert "unimodal" in rules.note

    def test_background_only_two_sigma_rule(self):
        res = sim_dtmc_single(
            SwitchProbs(0, 0, 1), EM, 3000, initial=StatePrior.point(0), seed=7
        )
        rules = literature_thresholds(res.trace)
        mean = res.trace.counts.mean()
        assert rules.bg_mean_plus_2sd == pytest.approx(
            mean + 2 * math.sqrt(mean), abs=0.3
        )

    def test_tail_rule_beyond_background(self):
        res = clear_blinking_trace()
        rules = literature_thresholds(res.trace)
        # N * pmf at the returned count is below one, and above one just before
        from blinkinfer.kernels import poisson_pmf

        n = len(res.trace)
        c = int(rules.bg_tail_below_one)
        mu = rules.mixture.mu_bg
        assert n * poisson_pmf(mu, c) < 1.0
        assert n * poisson_pmf(mu, c - 1) >= 1.0


class TestSweep:
    def test_single_configuration(self):
        res = clear_blinking_trace()
        sweep = threshold_sweep(res.trace, [17], [10])
        assert len(sweep.rows) == 1
        row = sweep.rows[0]
        assert row.threshold == 17.0 and row.bins == 10
        assert 0 < row.alpha_hat < 1 and 0 < row.beta_hat < 1

    def test_deterministic_ordering(self):
        res = clear_blinking_trace()
        sweep = threshold_sweep(res.trace, [20, 15, 17], [12, 8])
        keys = [(r.threshold, r.bins) for r in sweep.rows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("bins", [[0], [1], [8, 1], range(0, 3)])
    def test_bin_count_below_two_rejected(self, bins):
        res = clear_blinking_trace(n=1000)
        with pytest.raises(ValueError, match=r"^bin_count must be >= 2$"):
            threshold_sweep(res.trace, [17], bins)

    def test_degenerate_fit_keeps_nan_row(self):
        # every off run has length 1 and every on run length 2, so each
        # duration histogram has one occupied bin
        trace = CountTrace([0, 30, 30] * 20)
        sweep = threshold_sweep(trace, [15], range(2, 5))
        assert [r.bins for r in sweep.rows] == [2, 3, 4]
        assert all(math.isnan(r.alpha_hat) and math.isnan(r.beta_hat) for r in sweep.rows)

    def test_full_sweep_with_summary(self):
        res = clear_blinking_trace()
        sweep = threshold_sweep(
            res.trace, range(15, 25), range(8, 13), summary_range=(17, 21)
        )
        assert len(sweep.rows) == 50
        assert sweep.summary is not None
        assert sweep.summary.n_rows == 25
        # the arbitrary choices spread the estimates measurably
        alphas = [r.alpha_hat for r in sweep.rows if math.isfinite(r.alpha_hat)]
        assert np.std(alphas) > 0.0
        assert sweep.summary.alpha_std > 0.0

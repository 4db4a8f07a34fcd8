import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blinkinfer.kernels import (
    CountTrace,
    EmissionRates,
    StatePrior,
    SwitchProbs,
    SwitchRates,
    log_poisson_pmf,
    poisson_pmf,
    probs_from_rates,
    rates_from_probs,
)


class TestPoissonPmf:
    def test_zero_rate_point_mass(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0

    def test_unit_rate_zero_count(self):
        assert poisson_pmf(1.0, 0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_against_direct_formula(self):
        # frozen from rate**c * exp(-rate) / c!, cross-checked by summing the
        # pmf over counts 0..200 with mpmath-free high-precision arithmetic
        assert poisson_pmf(4.5, 3) == pytest.approx(
            4.5**3 * math.exp(-4.5) / 6.0, rel=1e-13
        )

    @pytest.mark.parametrize("rate", [-0.1, np.array([1.0, -0.1])])
    def test_negative_rate_rejected(self, rate):
        for pmf in (poisson_pmf, log_poisson_pmf):
            with pytest.raises(ValueError, match=r"^Poisson rate must be non-negative$"):
                pmf(rate, 0)

    @pytest.mark.parametrize("rate", [0.05, 0.7, 2.0, 13.5, 40.0])
    def test_normalises_over_counts(self, rate):
        total = sum(poisson_pmf(rate, c) for c in range(0, 400))
        assert abs(total - 1.0) < 1e-12

    def test_vectorised_broadcast(self):
        counts = np.arange(6)
        vals = poisson_pmf(2.0, counts)
        assert vals.shape == (6,)
        assert vals[0] == pytest.approx(math.exp(-2.0))


class TestLogPoissonPmf:
    def test_matches_pmf(self):
        for rate in (0.1, 5.0, 50.0):
            for count in range(0, 101, 7):
                expected = poisson_pmf(rate, count)
                assert math.exp(log_poisson_pmf(rate, count)) == pytest.approx(
                    expected, rel=1e-12, abs=1e-300
                )

    def test_zero_rate_sentinel(self):
        assert log_poisson_pmf(0.0, 5) == -math.inf
        assert log_poisson_pmf(0.0, 0) == 0.0

    def test_large_arguments_stay_finite(self):
        val = log_poisson_pmf(50.0, 50)
        # reference: summed log terms log(50)*50 - 50 - sum(log(1..50))
        ref = 50 * math.log(50.0) - 50.0 - sum(math.log(k) for k in range(1, 51))
        assert math.isfinite(val)
        assert val == pytest.approx(ref, rel=1e-13)

    def test_unit_rate(self):
        assert log_poisson_pmf(1.0, 0) == pytest.approx(-1.0)


class TestProbsFromRates:
    def test_zero_rates(self):
        p = probs_from_rates(SwitchRates(0.0, 0.0), 1)
        assert p.alpha == 0.0 and p.beta == 0.0

    def test_log2_rate_gives_half(self):
        p = probs_from_rates(SwitchRates(math.log(2.0), 0.0), 1)
        assert p.alpha == pytest.approx(0.5, rel=1e-15)
        assert p.beta == 0.0

    def test_closed_form_d16(self):
        p = probs_from_rates(SwitchRates(2.0, 2.0), 16)
        assert p.alpha == pytest.approx(1.0 - math.exp(-0.125), rel=1e-15)
        assert p.beta == pytest.approx(1.0 - math.exp(-0.125), rel=1e-15)

    @given(
        alpha=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
        m=st.integers(min_value=0, max_value=8),
    )
    @settings(deadline=None, max_examples=200)
    def test_round_trip(self, alpha, m):
        d = 2**m
        probs = SwitchProbs(alpha=alpha, beta=alpha / 2.0, d=d)
        back = probs_from_rates(rates_from_probs(probs), d)
        assert back.alpha == pytest.approx(alpha, rel=1e-12, abs=1e-12)

    @given(rate=st.floats(min_value=1e-6, max_value=20.0))
    @settings(deadline=None, max_examples=200)
    def test_finer_steps_switch_less(self, rate):
        p1 = probs_from_rates(SwitchRates(rate, rate), 4)
        p2 = probs_from_rates(SwitchRates(rate, rate), 8)
        assert p2.alpha < p1.alpha

    def test_low_rate_limit_linear(self):
        r = 1e-8
        p = probs_from_rates(SwitchRates(r, 0.0), 4)
        assert p.alpha == pytest.approx(r / 4.0, rel=1e-7)


class TestTypes:
    def test_count_trace_validation(self):
        with pytest.raises(ValueError):
            CountTrace(np.array([], dtype=int))
        with pytest.raises(ValueError):
            CountTrace(np.array([1, -2]))
        tr = CountTrace([3, 0, 7])
        assert len(tr) == 3 and tr.max_count == 7

    def test_emission_rates_validation(self):
        with pytest.raises(ValueError):
            EmissionRates(-1.0, 2.0)
        em = EmissionRates(2.0, 20.0)
        assert em.on_rate == 22.0

    def test_switch_probs_power_of_two(self):
        with pytest.raises(ValueError):
            SwitchProbs(0.1, 0.1, 3)
        with pytest.raises(ValueError):
            SwitchProbs(1.2, 0.1, 1)
        assert SwitchProbs(0.1, 0.1, 8).d == 8

    def test_state_prior_sums_to_one(self):
        with pytest.raises(ValueError):
            StatePrior(0.6, 0.5)
        assert StatePrior.point(1).p_on == 1.0
        st_prior = StatePrior.stationary_from_probs(SwitchProbs(0.2, 0.6, 1))
        assert st_prior.p_off == pytest.approx(0.75)
        assert StatePrior.stationary_from_rates(SwitchRates(0, 0)).p_off == 0.5

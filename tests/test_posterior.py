import math

import numpy as np
import pytest
from scipy.stats import poisson

import blinkinfer.multistep as multistep
from blinkinfer.ctmc import trace_loglik_ctmc
from blinkinfer.kernels import (
    CountTrace,
    EmissionRates,
    SwitchProbs,
    SwitchRates,
)
from blinkinfer.posterior import (
    GridAxis,
    GridSpec,
    credible_regions,
    evaluate_grid,
    inference_error,
    marginalize,
    mode,
)
from blinkinfer.multistep import trace_loglik_multistep
from blinkinfer.simulate import sim_ctmc, sim_dtmc_single
from blinkinfer.single_step import trace_loglik_single
from oracles import path_sum_loglik, substep_path_matrix

EM = EmissionRates(mu=2.0, lam=20.0)


def small_single_posterior(n=300, seed=4):
    res = sim_dtmc_single(SwitchProbs(0.3, 0.2, 1), EM, n, seed=seed)
    grid = GridSpec(
        axes=(GridAxis("alpha", 0.02, 0.7, 9), GridAxis("beta", 0.02, 0.7, 8)),
        fixed={"lambda": 20.0, "mu": 2.0},
    )
    return res, grid, evaluate_grid(res.trace, "single", grid)


class TestGridSpec:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            GridAxis("alpha", 0.5, 0.4, 10)
        with pytest.raises(ValueError):
            GridAxis("alpha", 0.0, 1.5, 10)
        with pytest.raises(ValueError):
            GridAxis("r_alpha", 0.0, np.inf, 10)
        with pytest.raises(ValueError):
            GridAxis("r_alpha", 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            GridAxis("gamma", 0.0, 1.0, 10)

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(
                axes=(GridAxis("alpha", 0, 1, 5),),
                fixed={"alpha": 0.3, "beta": 0.1, "lambda": 20, "mu": 2},
            )

    def test_axes_sorted_canonically(self):
        grid = GridSpec(
            axes=(
                GridAxis("mu", 0, 5, 3),
                GridAxis("alpha", 0, 1, 4),
                GridAxis("lambda", 0, 40, 5),
                GridAxis("beta", 0, 1, 6),
            )
        )
        assert grid.free_names == ("alpha", "beta", "lambda", "mu")
        assert grid.shape == (4, 6, 5, 3)


class TestEvaluateGrid:
    def test_log_post_equals_scalar_loglik_single(self):
        res, grid, pg = small_single_posterior()
        for i, a in enumerate(grid.axis("alpha").values):
            for j, b in enumerate(grid.axis("beta").values):
                ll = trace_loglik_single(res.trace, SwitchProbs(a, b, 1), EM)
                assert pg.log_post[i, j] == pytest.approx(ll, rel=1e-12)

    def test_log_post_equals_scalar_loglik_ctmc(self):
        res = sim_ctmc(SwitchRates(1.0, 0.5), EM, 120, seed=9)
        grid = GridSpec(
            axes=(GridAxis("r_alpha", 0.2, 3, 5), GridAxis("r_beta", 0.2, 3, 4)),
            fixed={"lambda": 20.0, "mu": 2.0},
        )
        pg = evaluate_grid(res.trace, "ctmc", grid)
        for i, a in enumerate(grid.axis("r_alpha").values):
            for j, b in enumerate(grid.axis("r_beta").values):
                ll = trace_loglik_ctmc(res.trace, SwitchRates(a, b), EM)
                assert pg.log_post[i, j] == pytest.approx(ll, rel=1e-9)

    def test_log_post_equals_scalar_loglik_multistep(self):
        # rates from 0, counts up to 56, and emission cells down to
        # mu = lambda = 0.001, where whole windows of steps underflow
        res = sim_ctmc(SwitchRates(1.5, 1.0), EmissionRates(0.001, 45.0), 60, seed=3)
        assert res.trace.max_count >= 40
        grid = GridSpec(
            axes=(
                GridAxis("r_alpha", 0.0, 3.0, 4),
                GridAxis("r_beta", 0.0, 2.0, 3),
                GridAxis("lambda", 0.001, 50.0, 3),
            ),
            fixed={"mu": 0.001},
        )
        for d in (1, 4, 16):
            pg = evaluate_grid(res.trace, "multistep", grid, d=d)
            for i, a in enumerate(grid.axis("r_alpha").values):
                for j, b in enumerate(grid.axis("r_beta").values):
                    for k, lam in enumerate(grid.axis("lambda").values):
                        ll = trace_loglik_multistep(
                            res.trace, SwitchRates(a, b), EmissionRates(0.001, lam), d=d
                        )
                        assert np.isfinite(ll)
                        assert pg.log_post[i, j, k] == pytest.approx(ll, rel=1e-12)

    def test_multistep_lambda_axis_far_above_short_trace(self, monkeypatch):
        # the engine's tables are exact mixtures, so no count bound is
        # derived from the data and nothing goes through the truncated
        # halving route
        def refuse(*args, **kwargs):
            raise AssertionError("engine called interval_distributions")

        monkeypatch.setattr(multistep, "interval_distributions", refuse)
        counts = [0, 3, 1, 0, 5, 2, 0, 1]
        grid = GridSpec(
            axes=(
                GridAxis("r_alpha", 0.0, 2.0, 3),
                GridAxis("r_beta", 0.5, 3.0, 2),
                GridAxis("lambda", 0.0, 400.0, 3),
            ),
            fixed={"mu": 1.5},
        )
        for d in (1, 2, 4):
            pg = evaluate_grid(CountTrace(counts), "multistep", grid, d=d)
            for i, a in enumerate(grid.axis("r_alpha").values):
                for j, b in enumerate(grid.axis("r_beta").values):
                    for k, lam in enumerate(grid.axis("lambda").values):
                        mats = {
                            c: substep_path_matrix(c, d, a, b, 1.5, lam)
                            for c in set(counts)
                        }
                        prior = (b / (a + b), a / (a + b))
                        want = path_sum_loglik(
                            lambda t: mats[counts[t - 1]], len(counts), prior
                        )
                        assert pg.log_post[i, j, k] == pytest.approx(want, rel=1e-12)

    def test_window_underflow_is_not_zero_likelihood(self):
        # at mu = lambda = 0.001 each step's sum is ~1e-100, so four-step
        # products underflow although every per-step sum is positive
        res = sim_dtmc_single(SwitchProbs(0.1, 0.1, 1), EmissionRates(2.0, 20.0), 300, seed=1)
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.001, 0.5, 3), GridAxis("beta", 0.001, 0.5, 4)),
            fixed={"lambda": 0.001, "mu": 0.001},
        )
        pg = evaluate_grid(res.trace, "single", grid)
        for i, a in enumerate(grid.axis("alpha").values):
            for j, b in enumerate(grid.axis("beta").values):
                ll = trace_loglik_single(
                    res.trace, SwitchProbs(a, b, 1), EmissionRates(0.001, 0.001)
                )
                assert pg.log_post[i, j] == pytest.approx(ll, rel=1e-12)
        assert pg.log_post[0, 3] == pytest.approx(-27936.93, abs=0.01)

    def test_alternating_chain_keeps_both_paths(self):
        # at alpha = beta = 1 the start state fixes the hidden path; the
        # counts fit one phase for 50 intervals and the other for 100
        counts = np.array([0, 40] * 25 + [40, 0] * 50)
        phase = np.arange(counts.size) % 2
        from_off = poisson.logpmf(counts, np.where(phase == 0, 1.0, 40.0)).sum()
        from_on = poisson.logpmf(counts, np.where(phase == 0, 40.0, 1.0)).sum()
        expected = np.logaddexp(math.log(0.5) + from_off, math.log(0.5) + from_on)
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.5, 1.0, 2), GridAxis("beta", 0.5, 1.0, 2)),
            fixed={"lambda": 39.0, "mu": 1.0},
        )
        pg = evaluate_grid(CountTrace(counts), "single", grid)
        assert pg.log_post[1, 1] == pytest.approx(expected, rel=1e-12)
        for i, a in enumerate((0.5, 1.0)):
            for j, b in enumerate((0.5, 1.0)):
                ll = trace_loglik_single(
                    CountTrace(counts), SwitchProbs(a, b, 1), EmissionRates(1.0, 39.0)
                )
                assert pg.log_post[i, j] == pytest.approx(ll, rel=1e-12)

    @pytest.mark.parametrize("model", ["ctmc", "multistep"])
    def test_frozen_chain_keeps_both_paths(self, model):
        # both rates 0: the state never changes; off leads by ~2300 nats
        # over the first 60 intervals and trails by ~4000 at the end
        counts = np.array([0] * 60 + [40] * 60)
        from_off = poisson.logpmf(counts, 1.0).sum()
        from_on = poisson.logpmf(counts, 40.0).sum()
        expected = np.logaddexp(math.log(0.5) + from_off, math.log(0.5) + from_on)
        grid = GridSpec(
            axes=(GridAxis("r_alpha", 0.0, 1.0, 2), GridAxis("r_beta", 0.0, 1.0, 2)),
            fixed={"lambda": 39.0, "mu": 1.0},
        )
        pg = evaluate_grid(CountTrace(counts), model, grid)
        assert pg.log_post[0, 0] == pytest.approx(expected, rel=1e-12)
        scalar = trace_loglik_ctmc if model == "ctmc" else trace_loglik_multistep
        got = scalar(CountTrace(counts), SwitchRates(0.0, 0.0), EmissionRates(1.0, 39.0))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_posterior_normalised(self):
        _, _, pg = small_single_posterior()
        assert abs(pg.post.sum() - 1.0) < 1e-10

    def test_single_count_trace_is_proper(self):
        grid = GridSpec(
            axes=(GridAxis("alpha", 0, 1, 6), GridAxis("beta", 0, 1, 6)),
            fixed={"lambda": 20.0, "mu": 2.0},
        )
        pg = evaluate_grid(CountTrace([4]), "single", grid)
        assert abs(pg.post.sum() - 1.0) < 1e-10

    def test_model_axis_mismatch_rejected(self):
        grid = GridSpec(
            axes=(GridAxis("r_alpha", 0, 4, 5), GridAxis("r_beta", 0, 4, 5)),
            fixed={"lambda": 20.0, "mu": 2.0},
        )
        with pytest.raises(ValueError, match="needs parameters"):
            evaluate_grid(CountTrace([1, 2]), "single", grid)

    def test_empty_grid_rejected(self):
        grid = GridSpec(
            axes=(), fixed={"alpha": 0.1, "beta": 0.1, "lambda": 20.0, "mu": 2.0}
        )
        with pytest.raises(ValueError, match="no free axes"):
            evaluate_grid(CountTrace([1, 2]), "single", grid)

    def test_quad_only_for_ctmc(self):
        from blinkinfer.ctmc import QuadratureSpec

        grid = GridSpec(
            axes=(GridAxis("alpha", 0, 1, 4), GridAxis("beta", 0, 1, 4)),
            fixed={"lambda": 20.0, "mu": 2.0},
        )
        with pytest.raises(ValueError):
            evaluate_grid(CountTrace([1]), "single", grid, quad=QuadratureSpec())

    def test_worker_count_invariance(self):
        res = sim_ctmc(SwitchRates(1.0, 0.5), EM, 80, seed=3)
        grid = GridSpec(
            axes=(
                GridAxis("r_alpha", 0.1, 3, 6),
                GridAxis("r_beta", 0.1, 3, 6),
                GridAxis("lambda", 10, 30, 4),
                GridAxis("mu", 0.5, 4, 4),
            )
        )
        one = evaluate_grid(res.trace, "ctmc", grid, workers=1)
        two = evaluate_grid(res.trace, "ctmc", grid, workers=2)
        assert np.array_equal(one.log_post, two.log_post)

    def test_mode_near_truth_high_switching(self):
        res = sim_dtmc_single(SwitchProbs(0.8, 0.9, 1), EM, 10_000, seed=12)
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.0, 1.0, 41), GridAxis("beta", 0.0, 1.0, 41)),
            fixed={"lambda": 20.0, "mu": 2.0},
        )
        pg = evaluate_grid(res.trace, "single", grid)
        assert abs(pg.mode_value("alpha") - 0.8) < 0.05
        assert abs(pg.mode_value("beta") - 0.9) < 0.05

    def test_concentration_with_more_data(self):
        # 99% HPD area in grid cells shrinks as the trace doubles; the grid
        # is fine enough that the region never saturates at a few cells
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.0, 0.6, 97), GridAxis("beta", 0.0, 0.6, 97)),
            fixed={"lambda": 20.0, "mu": 2.0},
        )
        sizes = [500, 1000, 2000, 4000, 8000]
        full = sim_dtmc_single(SwitchProbs(0.25, 0.15, 1), EM, max(sizes), seed=44)
        areas = []
        for n in sizes:
            pg = evaluate_grid(CountTrace(full.trace.counts[:n]), "single", grid)
            region = credible_regions(pg.switch_marginal(), [0.99])[0]
            areas.append(int(region.mask.sum()))
        assert all(a > b for a, b in zip(areas, areas[1:])), areas


class TestMarginalize:
    def test_keep_all_is_identity(self):
        _, grid, pg = small_single_posterior()
        out = marginalize(pg, ("alpha", "beta"))
        np.testing.assert_allclose(out, pg.post, rtol=1e-14)

    def test_marginal_of_marginal(self):
        res = sim_dtmc_single(SwitchProbs(0.3, 0.2, 1), EM, 100, seed=5)
        grid = GridSpec(
            axes=(
                GridAxis("alpha", 0.05, 0.6, 5),
                GridAxis("beta", 0.05, 0.6, 5),
                GridAxis("lambda", 12, 28, 4),
            ),
            fixed={"mu": 2.0},
        )
        pg = evaluate_grid(res.trace, "single", grid)
        direct = marginalize(pg, ("alpha",))
        via_pair = marginalize(pg, ("alpha", "beta")).sum(axis=1)
        np.testing.assert_allclose(direct, via_pair, rtol=1e-12)

    def test_separable_posterior_factorises(self):
        # construct a rank-1 posterior by hand and check the outer product
        grid = GridSpec(
            axes=(GridAxis("alpha", 0, 1, 6), GridAxis("beta", 0, 1, 7)),
            fixed={"lambda": 20.0, "mu": 2.0},
        )
        rng = np.random.default_rng(0)
        pa = rng.random(6)
        pb = rng.random(7)
        post = np.outer(pa, pb)
        post /= post.sum()
        from blinkinfer.posterior import _finalize

        pg = _finalize(grid, "single", np.log(post), None)
        pair = marginalize(pg, ("alpha", "beta"))
        outer = np.outer(pg.marginals["alpha"], pg.marginals["beta"])
        np.testing.assert_allclose(pair, outer, rtol=1e-10)

    def test_unknown_axis_rejected(self):
        _, _, pg = small_single_posterior()
        with pytest.raises(ValueError):
            marginalize(pg, ("lambda",))


class TestCredibleRegions:
    def test_uniform_smallest_half(self):
        m = np.full((4, 5), 1.0 / 20.0)
        region = credible_regions(m, [0.5])[0]
        assert region.mask.sum() == 10
        assert region.contained_mass == pytest.approx(0.5)

    def test_single_spike(self):
        m = np.zeros((6, 6))
        m[2, 3] = 1.0
        for level in (0.5, 0.9, 0.99):
            region = credible_regions(m, [level])[0]
            assert region.mask.sum() == 1
            assert region.mask[2, 3]

    def test_nested_levels(self):
        rng = np.random.default_rng(1)
        m = rng.random((12, 12))
        m /= m.sum()
        r50, r90, r99 = credible_regions(m, [0.5, 0.9, 0.99])
        assert np.all(r50.mask <= r90.mask)
        assert np.all(r90.mask <= r99.mask)
        assert r50.contained_mass >= 0.5
        assert r99.contained_mass >= 0.99

    def test_level_bounds(self):
        m = np.full((2, 2), 0.25)
        with pytest.raises(ValueError):
            credible_regions(m, [1.5])


class TestModeAndError:
    def test_spike_location(self):
        grid = GridSpec(
            axes=(GridAxis("alpha", 0, 1, 5), GridAxis("beta", 0, 1, 5)),
            fixed={"lambda": 20.0, "mu": 2.0},
        )
        log_post = np.full((5, 5), -100.0)
        log_post[3, 1] = 0.0
        from blinkinfer.posterior import _finalize

        pg = _finalize(grid, "single", log_post, None)
        assert pg.mode_index == (3, 1)
        assert mode(pg) == (0.75, 0.25)

    def test_mode_invariant_under_log_shift(self):
        grid = GridSpec(
            axes=(GridAxis("alpha", 0, 1, 4), GridAxis("beta", 0, 1, 4)),
            fixed={"lambda": 20.0, "mu": 2.0},
        )
        rng = np.random.default_rng(2)
        log_post = rng.normal(size=(4, 4))
        from blinkinfer.posterior import _finalize

        a = _finalize(grid, "single", log_post, None)
        b = _finalize(grid, "single", log_post + 123.0, None)
        assert a.mode_index == b.mode_index

    def test_tie_breaks_to_lowest_index(self):
        grid = GridSpec(
            axes=(GridAxis("alpha", 0, 1, 3), GridAxis("beta", 0, 1, 3)),
            fixed={"lambda": 20.0, "mu": 2.0},
        )
        log_post = np.zeros((3, 3))
        from blinkinfer.posterior import _finalize

        pg = _finalize(grid, "single", log_post, None)
        assert pg.mode_index == (0, 0)

    def test_inference_error_zero_at_truth(self):
        _, _, pg = small_single_posterior()
        assert inference_error(pg.mode, pg) == 0.0

    def test_inference_error_distance(self):
        _, _, pg = small_single_posterior()
        a, b = pg.mode
        err = inference_error((a + 0.03, b - 0.04), pg)
        assert err == pytest.approx(0.05, rel=1e-12)

    def test_truth_outside_grid_rejected(self):
        _, _, pg = small_single_posterior()
        with pytest.raises(ValueError):
            inference_error((0.9, 0.9), pg)


class TestSingleStepApplicability:
    def test_rate_product_threshold_tracks_error_band(self):
        # single-step inference on continuously switching data: inside the
        # validity region (rate product below 0.1) the relative error stays
        # within the 25% band, far outside it does not; inferred
        # probabilities are mapped back to rates for the comparison
        from blinkinfer.kernels import SwitchProbs, rates_from_probs

        def rel_error(ra, rb, n):
            res = sim_ctmc(SwitchRates(ra, rb), EM, n, seed=500)
            grid = GridSpec(
                axes=(
                    GridAxis("alpha", 0.0, 0.99, 81),
                    GridAxis("beta", 0.0, 0.99, 81),
                ),
                fixed={"lambda": 20.0, "mu": 2.0},
            )
            pg = evaluate_grid(res.trace, "single", grid)
            est = rates_from_probs(SwitchProbs(pg.mode[0], pg.mode[1], 1))
            return float(
                np.hypot(est.r_alpha - ra, est.r_beta - rb) / np.hypot(ra, rb)
            )

        inside = rel_error(0.2, 0.2, 8000)    # product 0.04 < 0.1
        outside = rel_error(1.5, 1.5, 4000)   # product 2.25 >> 0.1
        assert inside <= 0.25
        assert outside > 0.25

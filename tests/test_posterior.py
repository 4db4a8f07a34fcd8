import ctypes
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

import blinkinfer.ctmc as ctmc
import blinkinfer.multistep as multistep
import blinkinfer.posterior as posterior
from blinkinfer.ctmc import QuadratureSpec, trace_loglik_ctmc
from blinkinfer.kernels import (
    CountTrace,
    EmissionRates,
    SwitchProbs,
    SwitchRates,
    poisson_pmf,
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
from blinkinfer.state_inference import state_posterior_known
from oracles import (
    assert_forward_matches,
    log_forward_backward,
    path_sum_loglik,
    reference_loglik,
    substep_path_matrix,
    tensordot_mix,
)

EM = EmissionRates(mu=2.0, lam=20.0)

# a ctmc grid of 6 x 6 switch pairs at 16 emission cells
WORKER_GRID = GridSpec(
    axes=(
        GridAxis("r_alpha", 0.1, 3, 6),
        GridAxis("r_beta", 0.1, 3, 6),
        GridAxis("lambda", 10, 30, 4),
        GridAxis("mu", 0.5, 4, 4),
    )
)


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

    @pytest.mark.parametrize("model", ["single", "ctmc", "multistep"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fixed_value_rejected(self, model, value):
        names = (*posterior._MODELS[model], "lambda", "mu")
        for name in names:
            free = names[1] if name == names[0] else names[0]
            fixed = {n: 0.2 for n in names if n != free}
            fixed[name] = value
            with pytest.raises(ValueError, match=f"fixed {name} must be finite"):
                grid = GridSpec(axes=(GridAxis(free, 0.1, 0.5, 3),), fixed=fixed)
                evaluate_grid(CountTrace([1, 2]), model, grid)

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
                ll = reference_loglik("single", res.trace, (a, b), EM)
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
                ll = reference_loglik("ctmc", res.trace, (a, b), EM)
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
                        em = EmissionRates(0.001, lam)
                        ll = reference_loglik("multistep", res.trace, (a, b), em, d=d)
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
                em = EmissionRates(0.001, 0.001)
                ll = reference_loglik("single", res.trace, (a, b), em)
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
                em = EmissionRates(1.0, 39.0)
                ll = reference_loglik("single", CountTrace(counts), (a, b), em)
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

    def test_start_keeps_tiny_stationary_on_probability(self):
        # at alpha = 1e-30, beta = 1 the stationary P(on) = 1e-30 rounds
        # away in 1 - P(off), yet the path started on carries most of the
        # likelihood
        counts = CountTrace([40] * 20 + [0] * 100)
        grid = GridSpec(
            axes=(GridAxis("alpha", 1e-30, 0.5, 2),),
            fixed={"beta": 1.0, "lambda": 39.0, "mu": 1.0},
        )
        pg = evaluate_grid(counts, "single", grid)
        ll = reference_loglik("single", counts, (1e-30, 1.0), EmissionRates(1.0, 39.0))
        assert pg.log_post[0] == pytest.approx(ll, rel=1e-12)

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

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.1, 0.5, 3), GridAxis("beta", 0.1, 0.5, 3)),
            fixed={"lambda": 20.0, "mu": 2.0},
        )
        with pytest.raises(ValueError, match="workers must be >= 1"):
            evaluate_grid(CountTrace([1, 2]), "single", grid, workers=workers)

    def test_worker_count_invariance(self):
        res = sim_ctmc(SwitchRates(1.0, 0.5), EM, 80, seed=3)
        one = evaluate_grid(res.trace, "ctmc", WORKER_GRID, workers=1)
        two = evaluate_grid(res.trace, "ctmc", WORKER_GRID, workers=2)
        assert np.array_equal(one.log_post, two.log_post)

    def test_pool_starts_no_idle_worker(self, monkeypatch):
        # 6 x 6 switch pairs at 16 emission cells, 18 pairs to a block: two
        # blocks, so eight workers asked for start two processes
        sizes = []

        class Recording(posterior.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        res = sim_ctmc(SwitchRates(1.0, 0.5), EM, 80, seed=3)
        monkeypatch.setattr(posterior, "_BLOCK_CELL_TARGET", 18 * 16)
        one = evaluate_grid(res.trace, "ctmc", WORKER_GRID, workers=1)
        monkeypatch.setattr(posterior, "ProcessPoolExecutor", Recording)
        eight = evaluate_grid(res.trace, "ctmc", WORKER_GRID, workers=8)
        assert sizes == [2]
        assert np.array_equal(one.log_post, eight.log_post)

    def test_workers_run_one_blas_thread(self, monkeypatch, tmp_path):
        getters = [name.replace("_set_", "_get_") for name in posterior._BLAS_SET]
        get_threads = posterior._blas_function(getters, [], ctypes.c_int)
        if get_threads is None:
            pytest.skip("no OpenBLAS thread-count call in this numpy")
        parent_threads = get_threads()
        set_threads = posterior._blas_function(posterior._BLAS_SET, [ctypes.c_int], None)
        set_threads(2)  # what workers would inherit on any machine
        log = tmp_path / "threads.txt"
        eval_block = posterior._EngineContext.eval_block

        def reporting(ctx, p_start, p_end):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {get_threads()}\n")
            return eval_block(ctx, p_start, p_end)

        res = sim_ctmc(SwitchRates(1.0, 0.5), EM, 80, seed=3)
        monkeypatch.setattr(posterior, "_BLOCK_CELL_TARGET", 18 * 16)
        monkeypatch.setattr(posterior._EngineContext, "eval_block", reporting)
        try:
            evaluate_grid(res.trace, "ctmc", WORKER_GRID, workers=2)
            assert get_threads() == 2
        finally:
            set_threads(parent_threads)
        reports = [line.split() for line in log.read_text().splitlines()]
        assert len(reports) == 2
        assert str(os.getpid()) not in {pid for pid, _ in reports}
        assert all(threads == "1" for _, threads in reports)

    def test_single_step_bits_do_not_depend_on_block_size(self, monkeypatch):
        # each single-step table entry is one rounded product, so a cell's
        # log-likelihood cannot depend on which switch pairs share its
        # block; ctmc and multistep entries are BLAS sums, which may
        res = sim_dtmc_single(SwitchProbs(0.3, 0.6, 1), EM, 400, seed=21)
        grid = GridSpec(
            axes=(
                GridAxis("alpha", 0.0, 1.0, 6),
                GridAxis("beta", 0.0, 1.0, 5),
                GridAxis("lambda", 0.0, 30.0, 3),
                GridAxis("mu", 0.0, 4.0, 2),
            )
        )
        assert posterior._BLOCK_CELL_TARGET == 129 * 512
        whole = evaluate_grid(res.trace, "single", grid)
        # 6 emission cells: blocks of 7 switch pairs, the last one of 2
        monkeypatch.setattr(posterior, "_BLOCK_CELL_TARGET", 43)
        split = evaluate_grid(res.trace, "single", grid)
        assert np.isneginf(whole.log_post).any()
        assert np.array_equal(whole.log_post, split.log_post)

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


_RATE = st.sampled_from([0.0, 1.0, 30.0]) | st.floats(0.0, 30.0)
_MIXED_MODELS = [("ctmc", None), ("multistep", 1), ("multistep", 4), ("multistep", 16)]


def _mixed_case(model, d, a, b, counts, n_lambda, n_mu):
    """The engine's tables for switch pairs ``a``, ``b`` and the tensordot
    oracle's, as two lists of four (D, cells) arrays, and the number of
    terms the engine sums per entry.

    The oracle is built from public pieces only: the quadrature rule or
    ``on_count_weights``, ``poisson_pmf`` and the smooth ctmc densities,
    with the ctmc point masses at on-fractions 0 and 1 added apart.
    """
    lam, mu = np.linspace(0.0, 40.0, n_lambda), np.linspace(0.0, 6.0, n_mu)
    grid = GridSpec(
        axes=(GridAxis("lambda", 0.0, 40.0, n_lambda), GridAxis("mu", 0.0, 6.0, n_mu)),
        fixed={"r_alpha": 1.0, "r_beta": 1.0},
    )
    quad = QuadratureSpec() if model == "ctmc" else None
    ctx = posterior._EngineContext(CountTrace(counts), model, grid, None, quad, d)
    lam_c, mu_c = (v.ravel() for v in np.meshgrid(lam, mu, indexing="ij"))
    dcol = np.unique(counts)[:, None]
    if model == "ctmc":
        x, w = quad.nodes_weights()
        weights = ctmc._smooth_densities(a[:, None], b[:, None], x) * w
    else:
        x = np.arange(d + 1) / d
        weights = multistep.on_count_weights(d, a, b)
    emission = poisson_pmf(mu_c[:, None] + lam_c[:, None] * x, dcol[:, :, None])
    e00, e01, e10, e11 = tensordot_mix(emission, weights)
    if model == "ctmc":
        e00 = e00 + np.einsum("p,dm->dpm", np.exp(-a), poisson_pmf(mu_c, dcol))
        e11 = e11 + np.einsum("p,dm->dpm", np.exp(-b), poisson_pmf(mu_c + lam_c, dcol))
    want = [e.reshape(len(e), -1) for e in (e00, e01, e10, e11)]
    got = ctx.tables(a, b)
    assert all(table.flags.c_contiguous for table in got)
    return got, want, x.size + 2 if model == "ctmc" else x.size


def _assert_within_rounding(got, want, k):
    # k products and k - 1 additions per entry on either side
    for table, ref in zip(got, want):
        np.testing.assert_allclose(table, ref, rtol=(2 * k + 2) * 2.0**-53, atol=2 * k * 2.0**-1074)


class TestMixedTablesAgainstTensordot:
    """The ctmc and multistep tables, one batched matmul over the on-fraction
    nodes straight into the kernels' layout, against a tensordot over the
    inner nodes with the ctmc point masses added after it.

    Both sum the same non-negative terms, but in different orders, and
    BLAS may pick a different kernel for the two shapes.  The tables
    therefore agree within the rounding of a sum of that many terms.
    Whether they agree bit for bit depends on the BLAS build and the CPU,
    so byte identity of posteriors is checked on the benchmark's grids, not
    here.
    """

    @pytest.mark.parametrize("model, d", _MIXED_MODELS)
    def test_large_block(self, model, d):
        rng = np.random.default_rng(11)
        a, b = rng.uniform(0.0, 8.0, (2, 128))
        a[:3], b[1:4] = 0.0, 0.0
        got, want, k = _mixed_case(model, d, a, b, [0, 1, 7, 20, 41, 90, 200], 32, 16)
        _assert_within_rounding(got, want, k)

    @settings(max_examples=40, deadline=None)
    @given(
        model_d=st.sampled_from(_MIXED_MODELS),
        pairs=st.lists(st.tuples(_RATE, _RATE), min_size=2, max_size=5),
        n_lambda=st.integers(2, 4),
        n_mu=st.integers(2, 3),
        counts=st.lists(st.integers(0, 200), min_size=1, max_size=30),
    )
    def test_small_blocks(self, model_d, pairs, n_lambda, n_mu, counts):
        a, b = (np.array(r) for r in zip(*pairs))
        got, want, k = _mixed_case(*model_d, a, b, counts, n_lambda, n_mu)
        _assert_within_rounding(got, want, k)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSubnormalStepSum:
    def test_subnormal_step_sum_gives_finite_loglik(self):
        # at rate 0.002, the count 77 has probability ~4e-322, a subnormal
        # step sum whose reciprocal overflows; subnormal tables keep only
        # about 6 bits, hence the loose tolerance
        counts = [2, 77, 3, 1]
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.1, 0.6, 2), GridAxis("beta", 0.1, 0.6, 2)),
            fixed={"lambda": 0.001, "mu": 0.001},
        )
        pg = evaluate_grid(CountTrace(counts), "single", grid)
        assert np.all(np.isfinite(pg.log_post))
        for i, a in enumerate(grid.axis("alpha").values):
            for j, b in enumerate(grid.axis("beta").values):
                prior = (b / (a + b), a / (a + b))
                want, _ = log_forward_backward(counts, a, b, 0.001, 0.001, prior)
                assert abs(pg.log_post[i, j] - want) < 0.05


# a finite cell whose sum over 8 steps falls by about 2^-1920: each count
# of 60 at rate 1 or 1.5 has probability about 2^-240
ZERO_WINDOW_COUNTS = [1, 0, 2] + [60] * 16 + [0, 1, 3]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPerStepRescaling:
    def test_zero_window_sum(self):
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.3, 0.7, 3), GridAxis("beta", 0.3, 0.7, 3)),
            fixed={"lambda": 0.5, "mu": 1.0},
        )
        pg = evaluate_grid(CountTrace(ZERO_WINDOW_COUNTS), "single", grid)
        for i, a in enumerate(grid.axis("alpha").values):
            for j, b in enumerate(grid.axis("beta").values):
                ll = reference_loglik(
                    "single", CountTrace(ZERO_WINDOW_COUNTS), (a, b), EmissionRates(1.0, 0.5)
                )
                assert pg.log_post[i, j] == pytest.approx(ll, rel=1e-9)
        assert pg.log_post[0, 0] == pytest.approx(-2667.3697, abs=1e-4)

    def test_dead_cell(self):
        # at lambda = mu = 0 the count 3 has probability 0, so that cell
        # dies at the step holding it and stays at zero afterwards
        counts = CountTrace([0] * 20 + [3] + [0] * 30 + [3] + [0] * 9)
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.2, 0.6, 2), GridAxis("lambda", 0.0, 2.0, 2)),
            fixed={"beta": 0.3, "mu": 0.0},
        )
        pg = evaluate_grid(counts, "single", grid)
        assert np.all(pg.log_post[:, 0] == -np.inf)
        for i, a in enumerate(grid.axis("alpha").values):
            ll = reference_loglik("single", counts, (a, 0.3), EmissionRates(0.0, 2.0))
            assert pg.log_post[i, 1] == pytest.approx(ll, rel=1e-12)

    def test_emptied_start_state(self):
        # at alpha = 0, beta = 1 the chain never mixes; its row started on
        # leaves the on state at once and nothing feeds it again
        counts = CountTrace([3, 1, 0, 2] * 10)
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.0, 0.5, 2),),
            fixed={"beta": 1.0, "lambda": 4.0, "mu": 1.0},
        )
        pg = evaluate_grid(counts, "single", grid)
        for i, a in enumerate(grid.axis("alpha").values):
            ll = reference_loglik("single", counts, (a, 1.0), EmissionRates(1.0, 4.0))
            assert pg.log_post[i] == pytest.approx(ll, rel=1e-12)

    def test_component_dip(self):
        # the on state gets 2^-500 of the off state, and then loses 2^-552
        # over six steps, so the on state turns subnormal although every
        # sum stays above 2^-600; the last step keeps only the on state
        eye = np.eye(2)
        tables = np.array(
            [[[1.0, 1.0], [2.0**-500, 0.0]], 2.0**-92 * eye, eye, [[0.0, 0.5], [0.0, 0.5]]]
        )  # [row, end, start]
        mats = tuple(
            np.ascontiguousarray(tables[:, end, begin][:, None])
            for end, begin in ((0, 0), (0, 1), (1, 0), (1, 1))
        )
        inv = np.array([0, 1, 1, 1, 1, 1, 1, 2, 3])
        start = np.array([[1 / 3], [2 / 3]])
        got = assert_forward_matches(mats, inv, start)
        assert got[0] == pytest.approx(-1052 * math.log(2) - math.log(3), rel=1e-14)

    def test_smoother_matches_log_space(self):
        em = EmissionRates(mu=1.0, lam=0.5)
        sp = state_posterior_known(
            CountTrace(ZERO_WINDOW_COUNTS), SwitchProbs(0.4, 0.3, 1), em
        )
        _, want = log_forward_backward(ZERO_WINDOW_COUNTS, 0.4, 0.3, 1.0, 0.5, (3 / 7, 4 / 7))
        np.testing.assert_allclose(sp.p_on, want, rtol=0, atol=1e-9)


def _pair_tables(model, counts, a, b, lam, mu, d):
    """Step tables and start vectors of switch pairs ``a``, ``b`` at one emission."""
    ctx = posterior._cell_context(
        CountTrace(counts),
        model,
        (0.0, 0.0),
        EmissionRates(mu, lam),
        quad=QuadratureSpec() if model == "ctmc" else None,
        d=d if model == "multistep" else None,
    )
    sets = ctx.row_sets(np.asarray(a), np.asarray(b))
    # cells that never mix run a second time, started on
    mats = tuple(np.concatenate(ms, axis=1) for ms in zip(*(s[0] for s in sets)))
    start = np.concatenate([s[1] for s in sets], axis=1)
    return mats, ctx.inv, start


_PROB = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
_EMISSION = st.one_of(st.just(0.0), st.just(1e-3), st.floats(0.0, 80.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(
    model=st.sampled_from(["single", "ctmc", "multistep"]),
    counts=st.lists(st.integers(0, 200), min_size=1, max_size=80),
    pairs=st.lists(st.tuples(_PROB, _PROB), min_size=1, max_size=20),
    lam=_EMISSION,
    mu=_EMISSION,
    d=st.sampled_from([1, 2, 4]),
)
def test_forward_matches_per_step_oracle(model, counts, pairs, lam, mu, d):
    a, b = zip(*pairs)
    if model != "single":  # switching rates rather than probabilities
        a, b = np.multiply(a, 4.0), np.multiply(b, 4.0)
    mats, inv, start = _pair_tables(model, counts, a, b, lam, mu, d)
    assert_forward_matches(mats, inv, start)


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

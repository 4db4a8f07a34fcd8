import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

import blinkinfer.posterior as posterior
import blinkinfer.state_inference as state_inference
from blinkinfer.ctmc import QuadratureConvergenceError, QuadratureSpec
from blinkinfer.kernels import (
    CountTrace,
    EmissionRates,
    StatePrior,
    SwitchProbs,
)
from blinkinfer.posterior import (
    GridAxis,
    GridSpec,
    _EngineContext,
    _grid_context,
    evaluate_grid,
)
from blinkinfer.simulate import sim_dtmc_single
from blinkinfer.single_step import StepMatrix, step_matrix_single
from blinkinfer.state_inference import (
    masked_matrices,
    state_posterior_known,
    state_posterior_marginal,
)
from blinkinfer.threshold import assign_states
from oracles import (
    assert_heaviest_prefix,
    ctmc_expm_step_matrix,
    engine_rows,
    log_forward_backward,
    log_forward_backward_mats,
    path_sum_loglik,
    per_step_forward,
    per_step_smooth,
    substep_path_matrix,
)

EM = EmissionRates(mu=2.0, lam=20.0)


def naive_masked_log(trace, probs, em, prior, k, a):
    """Log of the full matrix product with the mask inserted at position k.

    Rescales by the vector maximum (a different discipline from the
    library's sum normalisation) so the per-k product stays an independent
    reference at any trace length.
    """
    mats = [step_matrix_single(int(c), probs, em).entries for c in trace.counts]
    masked = masked_matrices(StepMatrix(mats[k - 1]))[a].entries
    v = prior.vector.copy()
    logscale = 0.0
    for t in range(1, len(trace) + 1):
        v = (masked if t == k else mats[t - 1]) @ v
        peak = v.max()
        if peak == 0.0:
            return -np.inf
        v /= peak
        logscale += np.log(peak)
    return logscale + np.log(v.sum())


def naive_p_on(trace, probs, em, prior, k):
    l0 = naive_masked_log(trace, probs, em, prior, k, 0)
    l1 = naive_masked_log(trace, probs, em, prior, k, 1)
    return 1.0 / (1.0 + np.exp(l0 - l1))


class TestMaskedMatrices:
    def test_masks_sum_back_to_original(self):
        step = step_matrix_single(6, SwitchProbs(0.3, 0.4, 1), EM)
        m0, m1 = masked_matrices(step)
        np.testing.assert_array_equal(m0.entries + m1.entries, step.entries)

    def test_diagonal_matrix_keeps_single_entries(self):
        step = step_matrix_single(6, SwitchProbs(0, 0, 1), EM)
        m0, m1 = masked_matrices(step)
        assert np.count_nonzero(m0.entries) == 1
        assert np.count_nonzero(m1.entries) == 1

    def test_masked_product_sums_selected_paths(self):
        # N=3 enumeration: the masked product equals the sum over exactly
        # the paths with the masked state at position k
        rng = np.random.default_rng(10)
        trace = CountTrace(rng.integers(0, 25, size=3))
        probs = SwitchProbs(0.35, 0.2, 1)
        prior = StatePrior(0.5, 0.5)
        mats = [step_matrix_single(int(c), probs, EM).entries for c in trace.counts]
        for k in (1, 2, 3):
            for a in (0, 1):
                expected = 0.0
                for path in np.ndindex(2, 2, 2, 2):
                    if path[k] != a:
                        continue
                    p = prior.vector[path[0]]
                    for t in (1, 2, 3):
                        p *= mats[t - 1][path[t], path[t - 1]]
                    expected += p
                got = np.exp(naive_masked_log(trace, probs, EM, prior, k, a))
                assert got == pytest.approx(expected, rel=1e-12)


class TestKnownParameters:
    def test_frozen_on_prior_gives_certainty(self):
        trace = CountTrace([25, 19, 30])
        sp = state_posterior_known(
            trace, SwitchProbs(0, 0, 1), EM, StatePrior.point(1)
        )
        np.testing.assert_array_equal(sp.p_on, np.ones(3))

    def test_matches_enumeration_n3(self):
        rng = np.random.default_rng(10)
        trace = CountTrace(rng.integers(0, 25, size=3))
        probs = SwitchProbs(0.35, 0.2, 1)
        prior = StatePrior(0.5, 0.5)
        sp = state_posterior_known(trace, probs, EM, prior)
        for k in (1, 2, 3):
            assert sp.p_on[k - 1] == pytest.approx(
                naive_p_on(trace, probs, EM, prior, k), rel=1e-12
            )

    def test_prefix_suffix_equals_naive_products(self):
        rng = np.random.default_rng(77)
        for n in (1, 2, 7, 50, 200):
            trace = CountTrace(rng.integers(0, 30, size=n))
            probs = SwitchProbs(float(rng.uniform(0.05, 0.9)), float(rng.uniform(0.05, 0.9)), 1)
            prior = StatePrior.stationary_from_probs(probs)
            sp = state_posterior_known(trace, probs, EM, prior)
            for k in {1, n // 2 + 1, n}:
                assert sp.p_on[k - 1] == pytest.approx(
                    naive_p_on(trace, probs, EM, prior, k), abs=1e-12
                )

    def test_pairs_sum_to_one_random_traces(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            trace = CountTrace(rng.integers(0, 35, size=n))
            probs = SwitchProbs(float(rng.uniform(0.02, 0.95)), float(rng.uniform(0.02, 0.95)), 1)
            sp = state_posterior_known(trace, probs, EM)
            assert np.all(sp.p_on >= 0.0) and np.all(sp.p_on <= 1.0)
            # p_off is 1 - p_on by construction; verify against the two
            # masked numerators computed independently
            prior = StatePrior.stationary_from_probs(probs)
            k = int(rng.integers(1, n + 1))
            l0 = naive_masked_log(trace, probs, EM, prior, k, 0)
            l1 = naive_masked_log(trace, probs, EM, prior, k, 1)
            total = np.logaddexp(l0, l1)
            assert np.exp(l0 - total) + np.exp(l1 - total) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_masked_consistency_with_full_product(self):
        # sum over masked products equals the unmasked product exactly
        rng = np.random.default_rng(4)
        trace = CountTrace(rng.integers(0, 30, size=6))
        probs = SwitchProbs(0.4, 0.3, 1)
        prior = StatePrior(0.5, 0.5)
        mats = [step_matrix_single(int(c), probs, EM).entries for c in trace.counts]
        v = prior.vector.copy()
        for m in mats:
            v = m @ v
        full = float(v.sum())
        for k in (1, 3, 6):
            n0 = np.exp(naive_masked_log(trace, probs, EM, prior, k, 0))
            n1 = np.exp(naive_masked_log(trace, probs, EM, prior, k, 1))
            assert n0 + n1 == pytest.approx(full, rel=1e-12)

    def test_impossible_data_rejected(self):
        with pytest.raises(ValueError):
            state_posterior_known(
                CountTrace([5]), SwitchProbs(0.2, 0.2, 1), EmissionRates(0, 0)
            )

    def test_calibration_on_long_simulation(self):
        # among positions with p_on near one half, the true state is on
        # about half the time; emission rates are close so the posterior is
        # often uncertain and the band is well populated
        em = EmissionRates(mu=3.0, lam=3.5)
        probs = SwitchProbs(0.06, 0.08, 1)
        res = sim_dtmc_single(probs, em, 100_000, seed=314)
        sp = state_posterior_known(res.trace, probs, em)
        truth = res.boundary_states[1:]
        band = (sp.p_on >= 0.45) & (sp.p_on <= 0.55)
        assert band.sum() > 300
        freq = truth[band].mean()
        sigma = np.sqrt(0.25 / band.sum())
        assert abs(freq - 0.5) < 3 * sigma


class TestMarginal:
    def test_single_cell_grid_reduces_to_known(self):
        rng = np.random.default_rng(9)
        trace = CountTrace(rng.integers(0, 30, size=25))
        grid = GridSpec(
            axes=(), fixed={"alpha": 0.3, "beta": 0.25, "lambda": 20.0, "mu": 2.0}
        )
        known = state_posterior_known(trace, SwitchProbs(0.3, 0.25, 1), EM)
        marg = state_posterior_marginal(trace, grid)
        np.testing.assert_allclose(marg.p_on, known.p_on, atol=1e-12)

    def test_entries_valid_probabilities(self):
        res = sim_dtmc_single(SwitchProbs(0.1, 0.15, 1), EM, 150, seed=23)
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.02, 0.5, 8), GridAxis("beta", 0.02, 0.5, 8)),
            fixed={"lambda": 20.0, "mu": 2.0},
        )
        sp = state_posterior_marginal(res.trace, grid)
        assert np.all(sp.p_on >= 0.0) and np.all(sp.p_on <= 1.0)
        assert len(sp) == 150

    def test_noise_spikes_do_not_flip_state(self):
        # a lone above-threshold count inside a long off stretch: the
        # threshold flips, the smoothed posterior does not
        probs = SwitchProbs(0.04, 0.05, 1)
        em = EmissionRates(mu=3.0, lam=9.0)
        res = sim_dtmc_single(probs, em, 800, seed=260)
        counts = res.trace.counts
        truth = res.boundary_states[1:]
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.005, 0.3, 12), GridAxis("beta", 0.005, 0.3, 12)),
            fixed={"lambda": 9.0, "mu": 3.0},
        )
        sp = state_posterior_marginal(res.trace, grid)
        thr_states = assign_states(res.trace, 7)
        # spike positions: threshold says on for interval k+1 while the
        # surrounding true state (boundary k) stays off
        spikes = [
            k
            for k in range(1, 799)
            if thr_states[k] == 1 and truth[k - 1] == 0 and truth[k] == 0
        ]
        assert spikes, "fixture must contain noise spikes"
        flipped = sum(1 for k in spikes if sp.p_on[k - 1] > 0.5)
        assert flipped <= len(spikes) // 2

    def test_accuracy_beats_threshold_assignment(self):
        probs = SwitchProbs(0.04, 0.05, 1)
        em = EmissionRates(mu=3.0, lam=9.0)
        res = sim_dtmc_single(probs, em, 1000, seed=261)
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.005, 0.3, 12), GridAxis("beta", 0.005, 0.3, 12)),
            fixed={"lambda": 9.0, "mu": 3.0},
        )
        sp = state_posterior_marginal(res.trace, grid)
        truth = res.boundary_states
        bayes_states = (sp.p_on > 0.5).astype(int)
        thr_states = assign_states(res.trace, 7)
        # boundary k is the emitting state of interval k+1, so the
        # threshold's estimate of boundary k comes from count k+1; compare
        # both estimators on the common positions k = 1..N-1
        bayes_acc = np.mean(bayes_states[:-1] == truth[1:-1])
        thr_acc = np.mean(thr_states[1:] == truth[1:-1])
        assert bayes_acc >= thr_acc


# At alpha = beta = 1 the chain alternates and at alpha = beta = 0 it is
# frozen, so the start state fixes the hidden path.  ALTERNATING fits one
# phase for 50 intervals and the other for 100.  BALANCED fits each phase
# for 100, so both paths carry weight while the suffix from either one's
# state trails the other's by thousands of nats.  Under FROZEN_FLIP the on
# path leads by ~2000 nats over the first 20 intervals and the off path
# wins by ~1800 at the end.
ALTERNATING = [0, 40] * 25 + [40, 0] * 50
BALANCED = [0, 40] * 50 + [40, 0] * 50
FROZEN_FLIP = [40] * 20 + [0] * 100
PINNED_CASES = [
    pytest.param(ALTERNATING, 1.0, id="alternating"),
    pytest.param(ALTERNATING, 0.0, id="alternating-frozen"),
    pytest.param(BALANCED, 1.0, id="balanced"),
    pytest.param(FROZEN_FLIP, 0.0, id="frozen-flip"),
]
PINNED_EM = EmissionRates(mu=1.0, lam=39.0)


def oracle_p_on(counts, alpha, beta, em):
    total = alpha + beta
    prior = (beta / total, alpha / total) if total > 0 else (0.5, 0.5)
    return log_forward_backward(counts, alpha, beta, em.mu, em.lam, prior)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPinnedStartPaths:
    @pytest.mark.parametrize("alpha, beta", [(0.3, 0.6), (1.0, 1.0), (0.0, 0.0)])
    def test_oracle_matches_path_enumeration(self, alpha, beta):
        counts = [3, 0, 17, 9, 1]
        trans = np.array([[1.0 - alpha, beta], [alpha, 1.0 - beta]])  # [end, start]

        def mat(t, keep=None):
            m = trans * poisson.pmf(counts[t - 1], [1.0, 12.0])[None, :]
            if keep is not None:
                m[1 - keep] = 0.0
            return m

        ll, p_on = log_forward_backward(counts, alpha, beta, 1.0, 11.0, (0.5, 0.5))
        assert ll == pytest.approx(path_sum_loglik(mat, 5, (0.5, 0.5)), rel=1e-12)
        for k in range(1, 6):
            on = path_sum_loglik(lambda t: mat(t, 1 if t == k else None), 5, (0.5, 0.5))
            assert p_on[k - 1] == pytest.approx(np.exp(on - ll), abs=1e-12)

    @pytest.mark.parametrize("counts, switch", PINNED_CASES)
    def test_known_matches_log_space(self, counts, switch):
        sp = state_posterior_known(
            CountTrace(counts), SwitchProbs(switch, switch, 1), PINNED_EM
        )
        _, want = oracle_p_on(counts, switch, switch, PINNED_EM)
        np.testing.assert_allclose(sp.p_on, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("counts, switch", PINNED_CASES)
    def test_one_cell_marginal_matches_log_space(self, counts, switch):
        grid = GridSpec(
            axes=(), fixed={"alpha": switch, "beta": switch, "lambda": 39.0, "mu": 1.0}
        )
        sp = state_posterior_marginal(CountTrace(counts), grid)
        _, want = oracle_p_on(counts, switch, switch, PINNED_EM)
        np.testing.assert_allclose(sp.p_on, want, rtol=0, atol=1e-9)

    def test_frozen_row_that_loses_its_backward_path(self):
        # the start-off path leads by ~1500 nats, and at 25 boundaries the
        # suffix from the other state leads the row's own by more than 745
        # nats, so the rolled-back vector holds 0 for the row's own state
        # there; the kernel reads the state from the prefix alone, exactly
        counts = [0, 40] * 20 + [40, 0] * 10
        sp = state_posterior_known(CountTrace(counts), SwitchProbs(1.0, 1.0, 1), PINNED_EM)
        _, want = oracle_p_on(counts, 1.0, 1.0, PINNED_EM)
        np.testing.assert_array_equal(sp.p_on, want)
        grid = GridSpec(axes=(), fixed={"alpha": 1.0, "beta": 1.0, "lambda": 39.0, "mu": 1.0})
        inv, mats, start, log_w, _, split = _rows(counts, grid)
        assert split.all()
        np.testing.assert_array_equal(per_step_smooth(*mats, inv, start, log_w), want)
        # the heavy start-off row's prefix is one-hot; at 25 boundaries it
        # is on while the rolled-back vector holds 0 for on, where the
        # ratio g1 f1 / (g0 f0 + g1 f1) alone would read 0
        m00, m01, m10, m11 = mats
        f, g = (np.empty((len(counts) + 1, *start.shape)) for _ in range(2))
        per_step_forward(*mats, inv, start, f)
        per_step_forward(m00, m10, m01, m11, inv[::-1], np.ones_like(start), g)
        assert np.all(np.count_nonzero(f[:, :, 0], axis=1) == 1)
        on = f[1:, 0, 0] == 0.0
        own = (f * g[::-1]).sum(axis=1)[1:, 0]
        assert np.count_nonzero(on & (own == 0.0)) == 25

    def test_one_way_chain_that_loses_its_backward_path(self):
        # beta = 0 and the stationary start: the chain starts on and stays
        # on, but its tables send off to both states, so its row is not
        # pinned.  Each zero count costs the on state 60 nats, so from the
        # 13th boundary before the end back the rolled-back vector holds 0
        # for the on state; p_on is 1 at every boundary all the same
        counts = [0] * 20
        em = EmissionRates(mu=0.0, lam=60.0)
        sp = state_posterior_known(CountTrace(counts), SwitchProbs(0.5, 0.0, 1), em)
        _, want = log_forward_backward(counts, 0.5, 0.0, 0.0, 60.0, (0.0, 1.0))
        np.testing.assert_array_equal(want, 1.0)
        np.testing.assert_array_equal(sp.p_on, want)

    def test_marginal_over_pinned_cells(self):
        # both cells split in two, and the cells are weighted by their
        # likelihoods: alpha = 1 leads by ~4500 nats
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.0, 1.0, 2),),
            fixed={"beta": 1.0, "lambda": 39.0, "mu": 1.0},
        )
        sp = state_posterior_marginal(CountTrace(ALTERNATING), grid)
        cells = [oracle_p_on(ALTERNATING, a, 1.0, PINNED_EM) for a in (0.0, 1.0)]
        logliks = np.array([ll for ll, _ in cells])
        weights = np.exp(logliks - logliks.max())
        want = sum(w * p for w, (_, p) in zip(weights, cells)) / weights.sum()
        np.testing.assert_allclose(sp.p_on, want, rtol=0, atol=1e-9)


_SWITCH = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(0, 60), min_size=1, max_size=60),
    alpha=_SWITCH,
    beta=_SWITCH,
    mu=st.floats(0.5, 10.0),
    lam=st.floats(0.0, 40.0),
)
def test_known_matches_log_space_oracle(counts, alpha, beta, mu, lam):
    em = EmissionRates(mu=mu, lam=lam)
    sp = state_posterior_known(CountTrace(counts), SwitchProbs(alpha, beta, 1), em)
    _, want = oracle_p_on(counts, alpha, beta, em)
    np.testing.assert_allclose(sp.p_on, want, rtol=0, atol=1e-9)


def rate_oracle(model, counts, ra, rb, mu, lam, d=None):
    """(log-likelihood, p_on) of one ctmc or multistep cell in log space.

    The step matrices come from the matrix exponential for ctmc and from
    sub-step path enumeration for multistep; the start is the rates'
    stationary law, uniform for a frozen chain.
    """
    counts = np.asarray(counts)
    if model == "ctmc":
        mats = ctmc_expm_step_matrix(counts, ra, rb, mu, lam)
    else:
        mats = substep_path_matrix(counts, d, ra, rb, mu, lam).transpose(2, 0, 1)
    total = ra + rb
    prior = (rb / total, ra / total) if total > 0 else (0.5, 0.5)
    with np.errstate(divide="ignore"):
        return log_forward_backward_mats(np.log(mats), prior)


_RATE_MODELS = [("ctmc", None), ("multistep", 1), ("multistep", 4), ("multistep", 16)]
# a rate of exactly zero freezes the chain or makes it one-way
_SWITCH_RATE = st.one_of(st.just(0.0), st.floats(0.0, 8.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    model_d=st.sampled_from(_RATE_MODELS),
    counts=st.lists(st.integers(0, 60), min_size=1, max_size=60),
    ra=_SWITCH_RATE,
    rb=_SWITCH_RATE,
    mu=st.floats(0.5, 10.0),
    lam=st.floats(0.0, 40.0),
)
# a far-tail count, where the step matrices are near 1e-30
@example(model_d=("ctmc", None), counts=[28], ra=0.0, rb=0.0, mu=1.0, lam=0.125)
def test_rate_models_match_log_space_oracle(model_d, counts, ra, rb, mu, lam):
    model, d = model_d
    grid = GridSpec(axes=(), fixed={"r_alpha": ra, "r_beta": rb, "lambda": lam, "mu": mu})
    sp = state_posterior_marginal(CountTrace(counts), grid, model=model, d=d)
    assert sp.model == model and sp.context["d"] == d
    _, want = rate_oracle(model, counts, ra, rb, mu, lam, d)
    np.testing.assert_allclose(sp.p_on, want, rtol=0, atol=1e-7)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model, d", _RATE_MODELS[:3])
def test_rate_model_grid_matches_weighted_oracle(model, d):
    # r_alpha = 0 makes one-way cells, and the cell (0, 0) is frozen
    counts = [3, 0, 17, 9, 1, 0, 0, 12, 30, 4] * 3
    grid = GridSpec(
        axes=(GridAxis("r_alpha", 0.0, 3.0, 3), GridAxis("r_beta", 0.0, 2.0, 2)),
        fixed={"lambda": 12.0, "mu": 1.0},
    )
    sp = state_posterior_marginal(CountTrace(counts), grid, model=model, d=d)
    cells = [
        rate_oracle(model, counts, ra, rb, 1.0, 12.0, d)
        for ra in grid.axis("r_alpha").values
        for rb in grid.axis("r_beta").values
    ]
    logliks = np.array([ll for ll, _ in cells])
    weights = np.exp(logliks - logliks.max())
    want = sum(w * p for w, (_, p) in zip(weights, cells)) / weights.sum()
    np.testing.assert_allclose(sp.p_on, want, rtol=0, atol=1e-7)


@pytest.mark.parametrize("nodes", [8, 16, 64])
def test_ctmc_quadrature_check_as_in_engine(nodes):
    # counts up to 80 at rates up to 8: 8 nodes do not converge, 64 do
    trace = CountTrace(np.arange(81))
    grid = GridSpec(
        axes=(GridAxis("r_alpha", 0.5, 8.0, 2), GridAxis("r_beta", 0.5, 8.0, 2)),
        fixed={"lambda": 36.0, "mu": 7.5},
    )
    quad = QuadratureSpec(nodes)
    try:
        evaluate_grid(trace, "ctmc", grid, quad=quad)
    except QuadratureConvergenceError as err:
        with pytest.raises(QuadratureConvergenceError) as got:
            state_posterior_marginal(trace, grid, model="ctmc", quad=quad)
        assert str(got.value) == str(err)
    else:
        assert nodes > 8
        state_posterior_marginal(trace, grid, model="ctmc", quad=quad)


@pytest.mark.parametrize(
    "model, options, message",
    [
        ("bogus", {}, "unknown model"),
        ("single", {"d": 4}, "applies only to the multistep model"),
        ("multistep", {"quad": QuadratureSpec()}, "applies only to the ctmc model"),
    ],
)
def test_engine_entry_rules_apply(model, options, message):
    grid = GridSpec(axes=(), fixed={"r_alpha": 1.0, "r_beta": 1.0, "lambda": 5.0, "mu": 1.0})
    with pytest.raises(ValueError, match=message):
        state_posterior_marginal(CountTrace([1, 2]), grid, model=model, **options)


def _grid_values(grid):
    """Every cell's (alpha, beta, lambda, mu), as four flat arrays."""
    named = {ax.name: ax.values for ax in grid.axes}
    named.update({k: np.array([float(v)]) for k, v in grid.fixed.items()})
    mesh = np.meshgrid(*(named[k] for k in ("alpha", "beta", "lambda", "mu")))
    return tuple(m.ravel() for m in mesh)


def weighted_oracle_p_on(counts, grid):
    """Grid-averaged p_on from ``log_forward_backward`` run on each cell.

    Each cell is weighted by its likelihood (flat priors), with the weights
    taken relative to the largest in log space.
    """
    cells = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for a, b, lam, mu in zip(*_grid_values(grid)):
            ll, p_on = oracle_p_on(counts, a, b, EmissionRates(mu=mu, lam=lam))
            if ll > -np.inf:
                cells.append((ll, p_on))
    logliks = np.array([ll for ll, _ in cells])
    weights = np.exp(logliks - logliks.max())
    return sum(w * p for w, (_, p) in zip(weights, cells)) / weights.sum()


def log_space_marginal(counts, grid, cells_per_pass=256):
    """Grid-averaged p_on by log-space forward-backward, many cells at once.

    Each cell's forward and backward log vectors are shifted by their own
    log-sum at every step, so they stay near zero however long the trace,
    and a path that trails by any number of nats is kept.  The forward
    shifts add up to the cell's log-likelihood with ``math.fsum``; summed
    in order, the log-likelihoods of a long trace carry errors that reach
    1e-9 in the weights.  Cells are then weighted as in
    :func:`weighted_oracle_p_on`.
    """
    counts = np.asarray(counts)
    n = counts.size
    alpha, beta, lam, mu = _grid_values(grid)
    peak, sum_w, sum_wp = -np.inf, 0.0, np.zeros(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, alpha.size, cells_per_pass):
            sl = slice(lo, lo + cells_per_pass)
            a, b, m, r = alpha[sl], beta[sl], mu[sl], lam[sl]
            total = a + b
            safe = np.where(total > 0, total, 1.0)
            stay_off, go_on = np.log1p(-a), np.log(a)
            go_off, stay_on = np.log(b), np.log1p(-b)
            emit_off = poisson.logpmf(counts[:, None], m[None, :])
            emit_on = poisson.logpmf(counts[:, None], (m + r)[None, :])
            fwd = np.empty((n + 1, 2, a.size))
            fwd[0] = np.log(np.where(total > 0, np.stack([b, a]) / safe, 0.5))
            shifts = np.empty((n, a.size))
            for t in range(n):
                off = fwd[t, 0] + emit_off[t]
                on = fwd[t, 1] + emit_on[t]
                fwd[t + 1, 0] = np.logaddexp(off + stay_off, on + go_off)
                fwd[t + 1, 1] = np.logaddexp(off + go_on, on + stay_on)
                shifts[t] = np.logaddexp(fwd[t + 1, 0], fwd[t + 1, 1])
                fwd[t + 1] -= shifts[t]
            p_on = np.empty((n, a.size))
            bwd = np.zeros((2, a.size))
            for t in range(n, 0, -1):
                joint = fwd[t] + bwd
                p_on[t - 1] = np.exp(joint[1] - np.logaddexp(joint[0], joint[1]))
                after_off = np.logaddexp(stay_off + bwd[0], go_on + bwd[1])
                after_on = np.logaddexp(go_off + bwd[0], stay_on + bwd[1])
                bwd = np.stack([emit_off[t - 1] + after_off, emit_on[t - 1] + after_on])
                bwd -= np.logaddexp(bwd[0], bwd[1])
            possible = np.all(np.isfinite(shifts), axis=0)
            if not possible.any():
                continue
            ll = np.array([math.fsum(col) for col in shifts[:, possible].T])
            if ll.max() > peak:
                rescale = np.exp(peak - ll.max())
                sum_w, sum_wp = sum_w * rescale, sum_wp * rescale
                peak = ll.max()
            w = np.exp(ll - peak)
            sum_w += w.sum()
            sum_wp += p_on[:, possible] @ w
    return sum_wp / sum_w


# trace lengths spread evenly up to 200
_COUNTS = st.integers(1, 200).flatmap(
    lambda n: st.lists(st.integers(0, 200), min_size=n, max_size=n)
)


_RATE = st.one_of(st.just(0.0), st.just(1e-3), st.floats(0.0, 80.0))


@st.composite
def _grids(draw):
    """Up to three alpha and beta values, two lambda values and one mu."""
    axes, fixed = [], {"mu": draw(_RATE)}
    for name, values, most in (
        ("alpha", _SWITCH, 3),
        ("beta", _SWITCH, 3),
        ("lambda", _RATE, 2),
    ):
        lo, hi = sorted((draw(values), draw(values)))
        if lo == hi:
            fixed[name] = lo
        else:
            axes.append(GridAxis(name, lo, hi, draw(st.integers(2, most))))
    return GridSpec(axes=tuple(axes), fixed=fixed)


def _fixed_grid(**switch):
    """A one-cell grid at ``switch``, with lambda = 6 and mu = 1."""
    return GridSpec(axes=(), fixed={**switch, "lambda": 6.0, "mu": 1.0})


# a rate of exactly zero freezes the chain or makes it one-way, so that
# rows are pinned or some boundary's numerator is exactly 0
_SWITCH_AXES = {
    "single": (("alpha", "beta"), _SWITCH),
    "ctmc": (("r_alpha", "r_beta"), _SWITCH_RATE),
    "multistep": (("r_alpha", "r_beta"), _SWITCH_RATE),
}


@st.composite
def _model_grids(draw):
    """(model, counts, grid, d): any model, up to three values per switch
    axis, two lambda values and one mu, and d in {1, 2, 4} for multistep."""
    model = draw(st.sampled_from(sorted(_SWITCH_AXES)))
    names, values = _SWITCH_AXES[model]
    counts = draw(st.lists(st.integers(0, 60), min_size=1, max_size=60))
    axes, fixed = [], {"mu": draw(_RATE)}
    for name, strategy, most in (
        (names[0], values, 3),
        (names[1], values, 3),
        ("lambda", _RATE, 2),
    ):
        lo, hi = sorted((draw(strategy), draw(strategy)))
        if lo == hi:
            fixed[name] = lo
        else:
            axes.append(GridAxis(name, lo, hi, draw(st.integers(2, most))))
    d = draw(st.sampled_from([1, 2, 4])) if model == "multistep" else None
    return model, counts, GridSpec(axes=tuple(axes), fixed=fixed), d


def _smooth_at(counts, grid, width):
    """``_smooth`` with the prefix budget set to blocks of ``width`` rows.

    Returns p_on, None where the trace has zero probability everywhere,
    the block widths, weights and start vectors the kernel was given, and
    its numerator sums, or None if it never ran.
    """
    lib = posterior._forward_kernel()
    widths, weights, starts, num = [], [], [], [None]

    def smooth(n, rows, width, *args):
        widths.append(width)
        starts.append(args[5].copy())
        weights.append(args[6].copy())
        num[0] = args[8]
        lib.smooth(n, rows, width, *args)

    kernel = SimpleNamespace(
        mix=lib.mix, forward=lib.forward, forward_products=lib.forward_products, smooth=smooth
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(posterior, "_forward_kernel", lambda: kernel)
        mp.setattr(state_inference, "_PREFIX_BUDGET", width * (len(counts) + 1))
        try:
            ctx = _EngineContext(CountTrace(counts), "single", grid, None, None, None)
            p_on = state_inference._smooth(ctx)
        except ValueError:
            p_on = None
    return p_on, widths, weights, starts, num[0]


def _rows(counts, grid, model="single", quad=None, d=None):
    """``inv`` and every row of ``grid`` in the smoother's order, from
    ``row_sets`` on the whole grid: step tables, start vectors, log
    weights, log-likelihoods and pinned masks, the start-on rows of pinned
    cells last.  The log weights are what ``row_sets`` adds to the forward
    pass, read with both paths' passes stubbed out to zeros."""
    ctx = _EngineContext(CountTrace(counts), model, grid, None, quad, d)
    mats, start, loglik, split = engine_rows(ctx)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_forward_cells", "_forward_products"):
            mp.setattr(posterior, name, lambda *args: np.zeros(args[-1].shape[1]))
        log_w = engine_rows(ctx)[2]
    return ctx.inv, mats, start, log_w, loglik, split


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBlockedSmoother:
    """The smoother takes rows in blocks through the kernel's forward and
    backward passes.  Every row's numerators add up in row order, so p_on
    is bitwise the same at every block width."""

    @settings(max_examples=60, deadline=None)
    @given(counts=_COUNTS, grid=_grids())
    def test_block_width_changes_no_bit(self, counts, grid):
        whole, widths, *_ = _smooth_at(counts, grid, 32)
        for width in (1, 7):
            got, used, *_ = _smooth_at(counts, grid, width)
            if whole is None:
                assert got is None
            else:
                assert set(used) == {width}
                np.testing.assert_array_equal(got, whole)
        # Where counts lie far above both rates, the linear-space step
        # tables underflow and the smoother raises although the log-space
        # likelihood is finite; that fault is not the blocks' doing
        if whole is not None:
            assert set(widths) == {32}
            assert np.all((whole >= 0.0) & (whole <= 1.0))
            want = weighted_oracle_p_on(counts, grid)
            np.testing.assert_allclose(whole, want, rtol=0, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(counts=_COUNTS, grid=_grids())
    def test_weights_are_forward_cells(self, counts, grid):
        # the kernel gets the forward pass's weights, heaviest first, and
        # stops only where no row it does not get can change a bit
        inv, mats, start, log_w, loglik, split = _rows(counts, grid)
        np.testing.assert_array_equal(loglik, log_w + per_step_forward(*mats, inv, start))
        p_on, _, weights, starts, num = _smooth_at(counts, grid, 7)
        if p_on is None:
            assert loglik.max() == -np.inf
        else:
            want = np.exp(loglik - loglik.max())
            assert_heaviest_prefix(
                want, start, np.concatenate(weights), np.concatenate(starts, axis=1), num
            )

    @settings(max_examples=100, deadline=None)
    @given(case=_model_grids())
    @example(case=("single", [3, 0, 5, 1], _fixed_grid(alpha=0.0, beta=0.4), None))
    @example(case=("single", [3, 0, 5, 1], _fixed_grid(alpha=1.0, beta=1.0), None))
    @example(case=("ctmc", [3, 0, 5, 1], _fixed_grid(r_alpha=0.0, r_beta=0.0), None))
    @example(case=("multistep", [3, 0, 5, 1], _fixed_grid(r_alpha=0.0, r_beta=2.0), 4))
    # one-way and not pinned: starts on, stays on, loses its backward path
    @example(case=("single", [0] * 20, GridSpec(
        axes=(), fixed={"alpha": 0.5, "beta": 0.0, "lambda": 60.0, "mu": 0.0}), None))
    def test_stop_keeps_every_bit(self, case):
        # the heaviest-first run with its stop gives the bits of the oracle
        # that runs every row in the same order, at every block width
        model, counts, grid, d = case
        quad = QuadratureSpec() if model == "ctmc" else None
        inv, mats, start, log_w, loglik, _ = _rows(counts, grid, model, quad, d)
        for width in (1, 7, 32):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(state_inference, "_PREFIX_BUDGET", width * (len(counts) + 1))
                if loglik.max() == -np.inf:
                    with pytest.raises(ValueError, match="zero probability"):
                        state_inference._smooth_rows(inv, mats, start, loglik)
                    continue
                got = state_inference._smooth_rows(inv, mats, start, loglik)
            np.testing.assert_array_equal(got, per_step_smooth(*mats, inv, start, log_w))
            assert np.all((got >= 0.0) & (got <= 1.0))

    def test_kernel_runs_few_rows_on_a_long_trace(self):
        # the 48 x 48 grid of the benchmark's state workload at N = 1e4:
        # the stop leaves most rows of nonzero weight out of the kernel,
        # and p_on keeps the bits of the oracle that runs every row
        probs = SwitchProbs(0.1, 0.15, 1)
        res = sim_dtmc_single(probs, EmissionRates(mu=4.0, lam=6.0), 10_000, seed=5)
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.01, 0.48, 48), GridAxis("beta", 0.01, 0.48, 48)),
            fixed={"lambda": 6.0, "mu": 4.0},
        )
        inv, mats, start, log_w, loglik, _ = _rows(res.trace.counts, grid)
        weighs = np.count_nonzero(np.exp(loglik - loglik.max()))
        p_on, widths, weights, *_ = _smooth_at(res.trace.counts, grid, 32)
        sent = sum(w.size for w in weights)
        assert set(widths) == {32}
        assert 0 < sent < weighs // 10
        want = per_step_smooth(*mats, inv, start, log_w)
        np.testing.assert_array_equal(p_on, want)

    def test_log_space_marginal_matches_oracle_per_cell(self):
        counts = [3, 0, 17, 9, 1, 0, 0, 12, 30, 4] * 3
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.0, 1.0, 3), GridAxis("beta", 0.1, 0.7, 2)),
            fixed={"lambda": 12.0, "mu": 1.0},
        )
        np.testing.assert_allclose(
            log_space_marginal(counts, grid, cells_per_pass=4),
            weighted_oracle_p_on(counts, grid),
            rtol=0,
            atol=1e-12,
        )

    def test_long_trace_many_cells(self):
        # 2000 cells at N = 1e4: 63 blocks of rows
        probs = SwitchProbs(0.1, 0.15, 1)
        res = sim_dtmc_single(probs, EmissionRates(mu=4.0, lam=6.0), 10_000, seed=88)
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.01, 0.48, 40), GridAxis("beta", 0.01, 0.48, 50)),
            fixed={"lambda": 6.0, "mu": 4.0},
        )
        sp = state_posterior_marginal(res.trace, grid)
        assert np.all((sp.p_on >= 0.0) & (sp.p_on <= 1.0))
        want = log_space_marginal(res.trace.counts, grid)
        np.testing.assert_allclose(sp.p_on, want, rtol=0, atol=1e-9)


# grids of each model with 16 switch pairs at 6 emission cells, a switch
# axis reaching 0 so that the pair (0, 0) is pinned
_CHUNK_GRIDS = {
    "single": GridSpec(
        axes=(
            GridAxis("alpha", 0.0, 0.6, 4),
            GridAxis("beta", 0.0, 0.6, 4),
            GridAxis("lambda", 2.0, 8.0, 3),
            GridAxis("mu", 1.0, 3.0, 2),
        )
    ),
    "ctmc": GridSpec(
        axes=(
            GridAxis("r_alpha", 0.0, 1.5, 4),
            GridAxis("r_beta", 0.0, 1.5, 4),
            GridAxis("lambda", 2.0, 8.0, 3),
            GridAxis("mu", 1.0, 3.0, 2),
        )
    ),
}
_CHUNK_GRIDS["multistep"] = _CHUNK_GRIDS["ctmc"]


def _chunk_trace(n, seed):
    """A single-step simulation of ``n`` intervals, emission bands overlapping."""
    return sim_dtmc_single(SwitchProbs(0.2, 0.3, 1), EmissionRates(mu=2.0, lam=5.0), n, seed=seed)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestEngineChunks:
    """The smoother's weight pass runs the grid engine's chunks: its row
    log-likelihoods are the engine's, bit for bit, and it builds one chunk
    of tables at a time."""

    @pytest.mark.parametrize("model", ["single", "ctmc", "multistep"])
    def test_weights_match_the_engine(self, monkeypatch, model):
        # chunks of 10 cells' tables at the trace's 12 distinct counts, a
        # run's weights and one emission cell's tables within that: runs
        # of 8 pairs (single), of 6, 6 and 4 (multistep) or of one ctmc
        # pair, each by one emission cell.  On a short trace every row lies
        # within 746 nats of the peak, so every row reaches _smooth_rows
        monkeypatch.setattr(posterior, "_CHUNK_BYTES", 32 * 12 * 10)
        trace, grid = _chunk_trace(40, seed=5).trace, _CHUNK_GRIDS[model]
        d = 4 if model == "multistep" else None
        seen = []
        smooth_rows = state_inference._smooth_rows

        def spy(inv, tables, start, loglik):
            seen.append(loglik.copy())
            return smooth_rows(inv, tables, start, loglik)

        monkeypatch.setattr(state_inference, "_smooth_rows", spy)
        state_posterior_marginal(trace, grid, model=model, d=d)
        ctx = _grid_context(trace, model, grid, None, None, d)
        assert len(list(ctx.chunks())) >= 3
        want = evaluate_grid(trace, model, grid, d=d).log_post.ravel()
        (loglik,) = seen
        acc, on = loglik[: want.size], loglik[want.size :]
        split = engine_rows(ctx)[3][: want.size]
        assert split.any() and on.size == np.count_nonzero(split)
        acc[split] = np.logaddexp(acc[split], on)
        np.testing.assert_array_equal(acc, want)

    @pytest.mark.parametrize("model", ["single", "ctmc", "multistep"])
    def test_no_table_outgrows_a_chunk(self, monkeypatch, model):
        # 3 x 43 switch pairs at 32 x 16 emission cells, whose tables at 40
        # distinct counts would take 85 MB.  Every table the engine and the
        # smoother build fits the chunk budget
        switch = ("alpha", 0.05, 0.95) if model == "single" else ("r_alpha", 0.5, 2.0)
        grid = GridSpec(
            axes=(
                GridAxis(*switch, 3),
                GridAxis("beta" if model == "single" else "r_beta", 0.05, 0.95, 43),
                GridAxis("lambda", 5.0, 36.0, 32),
                GridAxis("mu", 0.0, 7.5, 16),
            )
        )
        d = 4 if model == "multistep" else None
        trace = CountTrace(np.arange(40))
        ctx = _grid_context(trace, model, grid, None, None, d)
        assert ctx.a.size == 129 and ctx.n_em == 512
        assert 32 * len(ctx.distinct) * 129 * 512 > 50e6
        built = []
        mix_nodes = posterior._mix_nodes

        def spy(*args):
            tables = mix_nodes(*args)
            built.append(sum(m.nbytes for m in tables))
            return tables

        monkeypatch.setattr(posterior, "_mix_nodes", spy)
        evaluate_grid(trace, model, grid, d=d)
        state_posterior_marginal(trace, grid, model=model, d=d)
        # (the ctmc quadrature check builds tables of one cell, twice per run)
        assert len(built) > 2 * 4 * 2
        assert max(built) <= posterior._CHUNK_BYTES

    @pytest.mark.parametrize("model", ["single", "ctmc", "multistep"])
    def test_rows_keep_the_flat_cell_order(self, monkeypatch, model):
        # chunks take a run of pairs' cells emission cell by emission cell;
        # the rows still reach the kernel in flat cell order, start-on rows
        # last, as one pass over the whole grid gives them, so p_on is the
        # oracle's on those rows, bit for bit, at any chunk budget
        trace, grid = _chunk_trace(40, seed=5).trace, _CHUNK_GRIDS[model]
        d = 4 if model == "multistep" else None
        inv, mats, start, log_w, *_ = _rows(trace.counts, grid, model, QuadratureSpec(), d)
        want = per_step_smooth(*mats, inv, start, log_w)
        for budget in (32 * 12 * 7, 32 * 12 * 40, posterior._CHUNK_BYTES):
            monkeypatch.setattr(posterior, "_CHUNK_BYTES", budget)
            got = state_posterior_marginal(trace, grid, model=model, d=d).p_on
            np.testing.assert_array_equal(got, want)

    def test_sorting_holds_the_kept_rows_about_once(self):
        # each kept piece is written to its rows' ranks and dropped, so the
        # sort adds one copy of the rows, not a concatenation besides
        rng = np.random.default_rng(3)
        depth, sizes = 20, (3000, 1000, 4000, 2000)
        keys = rng.permutation(sum(sizes))
        kept, at = [], 0
        for n in sizes:
            mats = tuple(rng.random((depth, n)) for _ in range(4))
            kept.append((keys[at : at + n], mats, rng.random((2, n)), rng.random(n)))
            at += n
        del mats
        order = np.argsort(keys)
        want = (
            [np.concatenate(ms, axis=1)[:, order] for ms in zip(*(c[1] for c in kept))],
            *(np.concatenate([c[i] for c in kept], axis=-1)[..., order] for i in (2, 3)),
        )
        tracemalloc.start()
        try:
            tables, start, loglik = state_inference._sorted_rows(kept, depth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows_bytes = sum(sizes) * 8 * (4 * depth + 3)
        assert peak < 1.1 * rows_bytes and not kept
        for got, wanted in zip(tables, want[0]):
            np.testing.assert_array_equal(got, wanted)
        np.testing.assert_array_equal(start, want[1])
        np.testing.assert_array_equal(loglik, want[2])

    def test_cut_keeps_every_row_of_nonzero_weight(self):
        # the cell at alpha = 0 never turns on, so it adds 0 to every
        # numerator, and the other cell lies 741.8 nats below it: its
        # subnormal weight alone makes some p_on nonzero, and a cut any
        # tighter than 746 nats would drop it
        counts = np.random.default_rng(1).poisson(5.0, 1000)
        grid = GridSpec(
            axes=(GridAxis("alpha", 0.0, 0.527, 2),),
            fixed={"beta": 0.5, "lambda": 20.0, "mu": 5.0},
        )
        log_post = evaluate_grid(CountTrace(counts), "single", grid).log_post
        assert -746.0 < log_post[1] - log_post[0] < -741.0
        p_on = state_posterior_marginal(CountTrace(counts), grid).p_on
        inv, mats, start, log_w, *_ = _rows(counts, grid)
        np.testing.assert_array_equal(p_on, per_step_smooth(*mats, inv, start, log_w))
        assert np.count_nonzero(p_on) > 0

    def test_single_step_p_on_ignores_chunk_size(self, monkeypatch):
        # single-step table entries do not depend on the chunk, so neither
        # does p_on.  On 5 000 intervals some rows kept from early chunks
        # are dropped once a later chunk raises the peak, and the rows
        # kept in the end are the same at every chunk size
        trace = _chunk_trace(5000, seed=6).trace
        grid = GridSpec(
            axes=(
                GridAxis("alpha", 0.0, 1.0, 9),
                GridAxis("beta", 0.0, 1.0, 7),
                GridAxis("lambda", 2.0, 8.0, 3),
            ),
            fixed={"mu": 2.0},
        )
        sizes = []
        smooth_rows = state_inference._smooth_rows

        def spy(inv, tables, start, loglik):
            sizes.append(loglik.size)
            return smooth_rows(inv, tables, start, loglik)

        monkeypatch.setattr(state_inference, "_smooth_rows", spy)
        whole = state_posterior_marginal(trace, grid).p_on
        for budget in (100, 2000):
            monkeypatch.setattr(posterior, "_CHUNK_BYTES", budget)
            np.testing.assert_array_equal(state_posterior_marginal(trace, grid).p_on, whole)
        assert len(set(sizes)) == 1 and sizes[0] < 9 * 7 * 3


def test_state_inference_demo_beats_threshold():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, str(root / "demos" / "06_state_inference.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    threshold = re.search(r"^threshold accuracy: ([0-9.]+)$", run.stdout, re.M)
    smoothed = re.search(r"^smoothed posterior accuracy: ([0-9.]+)$", run.stdout, re.M)
    assert threshold and smoothed, run.stdout
    assert float(smoothed.group(1)) >= float(threshold.group(1))

"""Tests of the benchmark's references against brute-force path sums.

Run with ``python3 -m pytest perfbench/test_references.py``.  Each reference
is checked on short traces where every hidden path can be enumerated.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import poisson

import reference as ref
from reference import _mmpp_generator
from workloads import WORKLOADS, make_inputs

CASES = [
    # (on-switch, off-switch, lambda, mu)
    (0.3, 0.6, 8.0, 1.5),
    (0.9, 0.05, 3.0, 0.5),
    (0.0, 0.0, 6.0, 2.0),
    (1.0, 1.0, 5.0, 1.0),
    (0.2, 0.7, 0.0, 3.0),
    (0.5, 0.5, 4.0, 0.0),
]
COUNTS = np.array([0, 3, 7, 1, 9, 4, 0, 2])


def _log_sum(terms):
    terms = [t for t in terms if t > -math.inf]
    if not terms:
        return -math.inf
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def _stationary(p_on, p_off):
    total = p_on + p_off
    on = p_on / total if total > 0 else 0.5
    return (1.0 - on, on)


def _path_sum(step_prob, counts, prior):
    """Sum over every boundary-state path of prior * prod of step probabilities."""
    terms = []
    for path in itertools.product((0, 1), repeat=counts.size + 1):
        p = prior[path[0]]
        for t, c in enumerate(counts):
            p *= step_prob(int(c), path[t], path[t + 1])
        terms.append(math.log(p) if p > 0 else -math.inf)
    return _log_sum(terms)


def _tables_args(case, n_cells=1):
    return tuple(np.full(n_cells, float(v)) for v in case)


@pytest.mark.parametrize("case", CASES)
def test_single_step_forward_matches_path_sum(case):
    a, b, lam, mu = case
    flip = ((1 - a, a), (b, 1 - b))

    def step(c, s, e):
        return poisson.pmf(c, mu + lam * s) * flip[s][e]

    want = _path_sum(step, COUNTS, _stationary(a, b))
    distinct, idx = np.unique(COUNTS, return_inverse=True)
    args = _tables_args(case)
    logm = ref.single_step_logm(distinct, *args)
    got = ref.forward_loglik(logm, idx, ref.stationary_log_prior(args[0], args[1]))[0]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12) or got == want == -math.inf


def _uniformised_rows(r_on, r_off, lam, mu, k_max):
    """exp(Q) rows for count 0 as a sum over paths of the uniformised chain."""
    q = _mmpp_generator(r_on, r_off, lam, mu, k_max)
    rate = max(-np.diag(q).min(), 1e-300)
    jump = np.eye(q.shape[0]) + q / rate
    rows = np.eye(q.shape[0])[:2]
    acc = np.zeros_like(rows)
    for k in range(int(rate + 40 * math.sqrt(rate) + 200)):
        acc += poisson.pmf(k, rate) * rows
        rows = rows @ jump
    return acc.reshape(2, k_max + 1, 2)  # [start, count, end]


@pytest.mark.parametrize("case", [(0.5, 1.5, 8.0, 1.5), (3.0, 0.4, 3.0, 0.5),
                                  (0.0, 0.0, 6.0, 2.0), (2.0, 2.0, 20.0, 2.0)])
def test_ctmc_forward_matches_uniformised_path_sum(case):
    k_max = int(COUNTS.max())
    rows = _uniformised_rows(*case, k_max)
    want = _path_sum(lambda c, s, e: rows[s, c, e], COUNTS, _stationary(case[0], case[1]))
    distinct, idx = np.unique(COUNTS, return_inverse=True)
    args = _tables_args(case)
    logm = ref.ctmc_logm(distinct, *args)
    np.testing.assert_allclose(np.exp(logm[:, 0]), rows[:, distinct].transpose(1, 2, 0),
                               rtol=1e-9, atol=0)
    got = ref.forward_loglik(logm, idx, ref.stationary_log_prior(args[0], args[1]))[0]
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("case", [(0.5, 1.5, 8.0, 1.5), (3.0, 0.4, 3.0, 0.5),
                                  (2.0, 2.0, 20.0, 2.0)])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_multistep_product_matches_substep_path_sum(case, d):
    r_on, r_off, lam, mu = case
    counts = COUNTS[:3]
    p_on, p_off = -math.expm1(-r_on / d), -math.expm1(-r_off / d)
    flip = np.array([[1 - p_on, p_on], [p_off, 1 - p_off]])
    paths = np.array(list(itertools.product((0, 1), repeat=counts.size * d + 1)))
    # the package starts multistep chains from the rates' stationary law
    prior = np.array(_stationary(r_on, r_off))
    weight = prior[paths[:, 0]] * np.prod(flip[paths[:, :-1], paths[:, 1:]], axis=1)
    frac = paths[:, :-1].reshape(len(paths), counts.size, d).mean(axis=2)
    weight = weight * np.prod(poisson.pmf(counts, mu + lam * frac), axis=1)
    want = math.log(weight.sum())
    distinct, idx = np.unique(counts, return_inverse=True)
    args = _tables_args(case)
    logm = ref.multistep_logm(distinct, *args, d)
    got = ref.forward_loglik(logm, idx, ref.stationary_log_prior(args[0], args[1]))[0]
    assert got == pytest.approx(want, rel=1e-11)


def test_smoother_matches_weighted_path_posterior():
    lam, mu = 6.0, 2.0
    grid = [(a, b) for a in (0.1, 0.3, 0.8) for b in (0.2, 0.5)]
    num = np.zeros(COUNTS.size)
    den = 0.0
    for a, b in grid:
        flip = ((1 - a, a), (b, 1 - b))
        prior = _stationary(a, b)
        for path in itertools.product((0, 1), repeat=COUNTS.size + 1):
            p = prior[path[0]]
            for t, c in enumerate(COUNTS):
                p *= poisson.pmf(c, mu + lam * path[t]) * flip[path[t]][path[t + 1]]
            num += p * np.array(path[1:])
            den += p
    a = np.array([g[0] for g in grid])
    b = np.array([g[1] for g in grid])
    distinct, idx = np.unique(COUNTS, return_inverse=True)
    logm = ref.single_step_logm(distinct, a, b, np.full(a.size, lam), np.full(a.size, mu))
    got = ref.smoothed_p_on(logm, idx, ref.stationary_log_prior(a, b))
    np.testing.assert_allclose(got, num / den, rtol=1e-10)


def test_hpd_mask_takes_largest_cells_first():
    m = np.array([[0.05, 0.5], [0.3, 0.15]])
    np.testing.assert_array_equal(ref.hpd_mask(m, 0.8), [[False, True], [True, False]])
    np.testing.assert_array_equal(ref.hpd_mask(m, 0.81), [[False, True], [True, True]])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed_and_follow_the_truth(name):
    first = make_inputs(name, 5)
    again = make_inputs(name, 5)
    other = make_inputs(name, 6)
    for key in first:
        np.testing.assert_array_equal(first[key], again[key])
    assert not np.array_equal(first["counts"], other["counts"])
    wl = WORKLOADS[name]
    n = wl["n"]
    assert first["counts"].shape == (n,) and first["states"].shape == (n + 1,)
    t = wl["truth"]
    mean = t["mu"] + t["lambda"] * first["on_fraction"].mean()
    assert abs(first["counts"].mean() - mean) < 5 * math.sqrt(mean / n)

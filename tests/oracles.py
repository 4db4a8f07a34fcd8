"""Independent reference computations shared by the test modules.

Everything here deliberately avoids the library's forward recursion: path
sums are enumerated, integrals are done with locally constructed quadrature
rules, so agreement with the package is a two-route check.
"""

import itertools
import math

import numpy as np
from scipy.special import logsumexp
from scipy.stats import poisson


def path_sum_loglik(step_matrix_for_interval, n, prior_vec):
    """Log-likelihood by explicit enumeration over all boundary-state paths.

    ``step_matrix_for_interval(t)`` returns the 2x2 matrix (entry [end,
    start]) of interval t (1-based).  Exponential in n; keep n small.
    """
    mats = [np.asarray(step_matrix_for_interval(t), dtype=float) for t in range(1, n + 1)]
    with np.errstate(divide="ignore"):
        log_mats = [np.log(m) for m in mats]
        log_prior = np.log(np.asarray(prior_vec, dtype=float))
    n_paths = 1 << (n + 1)
    paths = (np.arange(n_paths)[:, None] >> np.arange(n + 1)[None, :]) & 1
    terms = log_prior[paths[:, 0]]
    for t in range(1, n + 1):
        terms = terms + log_mats[t - 1][paths[:, t], paths[:, t - 1]]
    return float(logsumexp(terms))


def gauss_legendre_integral(func, lo, hi, n=96):
    """Definite integral with a dedicated Gauss-Legendre rule on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(n)
    xm = lo + (hi - lo) * (x + 1.0) / 2.0
    wm = (hi - lo) * w / 2.0
    return float(np.dot(wm, func(xm)))


def substep_path_matrix(count, d, r_alpha, r_beta, mu, lam):
    """Step matrix (entry [end, start]) of the d-sub-step model by enumeration.

    Sums over all 2**d sub-step state sequences that follow the start state:
    the product of the sub-step switching probabilities along the sequence
    times the Poisson probability of ``count`` at rate mu + lam * k / d,
    where k is the number of sub-steps that start on.  ``count`` may be an
    array; the result then has shape (2, 2) + count.shape.
    """
    p_on = -math.expm1(-r_alpha / d)
    p_off = -math.expm1(-r_beta / d)
    trans = ((1.0 - p_on, p_on), (p_off, 1.0 - p_off))  # [from][to]
    count = np.asarray(count)
    out = np.zeros((2, 2) + count.shape)
    for start in (0, 1):
        for later in itertools.product((0, 1), repeat=d):
            states = (start,) + later
            weight = math.prod(trans[s][t] for s, t in zip(states, states[1:]))
            k = sum(states[:-1])
            out[states[-1], start] += weight * poisson.pmf(count, mu + lam * k / d)
    return out

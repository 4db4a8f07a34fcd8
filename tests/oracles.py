"""Independent reference computations shared by the test modules.

Everything here deliberately avoids the library's forward recursion: path
sums are enumerated, integrals are done with locally constructed quadrature
rules or replaced by a matrix exponential, so agreement with the package is
a two-route check.
"""

import itertools
import math

import numpy as np
from scipy.linalg import expm
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


def ctmc_expm_step_matrix(counts, r_alpha, r_beta, mu, lam):
    """Continuous-time step matrices by the matrix exponential.

    Exponentiates the generator of the Markov-modulated Poisson process on
    (count, state), states 2 * count + state, counts 0..max(counts).  Mass
    leaving the largest count is dropped; counts only rise within an
    interval, so that changes no entry returned.  No Bessel function and no
    quadrature.  Returns shape (len(counts), 2, 2), entry [k, end, start].
    """
    counts = np.asarray(counts)
    k_max = int(counts.max())
    leave = (r_alpha, r_beta)
    emit = (mu, mu + lam)
    q = np.zeros((2 * (k_max + 1), 2 * (k_max + 1)))
    for c in range(k_max + 1):
        for s in (0, 1):
            i = 2 * c + s
            q[i, i] = -(leave[s] + emit[s])
            q[i, 2 * c + 1 - s] = leave[s]
            if c < k_max:
                q[i, i + 2] = emit[s]
    rows = expm(q)[:2].reshape(2, k_max + 1, 2)  # [start, count, end]
    return rows[:, counts, :].transpose(1, 2, 0)


def log_forward_backward(counts, alpha, beta, mu, lam, prior_vec):
    """Single-step log-likelihood and on-state posteriors in log space.

    Runs the forward and backward passes on log step matrices built here
    from scipy's Poisson log-pmf, combining terms with logsumexp, so no
    hidden path is lost to rescaling however far it falls behind.
    ``prior_vec`` is (P(off), P(on)) at the start.  Returns (log-likelihood,
    p_on) with ``p_on[k-1]`` = P(on at boundary k | all counts), k = 1..N.
    """
    counts = np.asarray(counts)
    n = counts.size
    with np.errstate(divide="ignore"):
        log_trans = np.log(np.array([[1.0 - alpha, alpha], [beta, 1.0 - beta]]))
        log_prior = np.log(np.asarray(prior_vec, dtype=float))
    # log_mats[t, end, start]; the emission depends on the start state
    emit = np.stack(
        [poisson.logpmf(counts, mu), poisson.logpmf(counts, mu + lam)], axis=1
    )
    log_mats = log_trans.T[None, :, :] + emit[:, None, :]
    fwd = np.empty((n + 1, 2))
    bwd = np.zeros((n + 1, 2))
    fwd[0] = log_prior
    for t in range(1, n + 1):
        fwd[t] = logsumexp(log_mats[t - 1] + fwd[t - 1][None, :], axis=1)
    for t in range(n, 0, -1):
        bwd[t - 1] = logsumexp(log_mats[t - 1] + bwd[t][:, None], axis=0)
    joint = fwd[1:] + bwd[1:]
    log_p = joint - logsumexp(joint, axis=1, keepdims=True)
    return float(logsumexp(fwd[n])), np.exp(log_p[:, 1])

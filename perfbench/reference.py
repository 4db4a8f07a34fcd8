"""Independent references for the benchmark's output checks.

None of this calls ``blinkinfer`` or copies its route:

* single-step: a forward recursion carried out in log space;
* ctmc: step probabilities from the matrix exponential of the generator of
  the equivalent Markov-modulated Poisson process on (count, state), with
  no Bessel functions and no quadrature;
* multistep: the d-fold product of the sub-step transfer matrix on
  (count, state), with no interval halving and no convolution;
* state smoothing: a log-space forward-backward pass per grid cell,
  averaged over the grid with likelihood weights.

Step tables are arrays ``logm[k, cell, end, start]`` over the distinct
counts k of a trace; ``idx`` maps each interval to its row k.  Counts can
only rise inside an interval, so truncating the (count, state) chain above
the largest observed count leaves every entry that is read exact.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm
from scipy.stats import poisson


def stationary_log_prior(p_on_rate, p_off_rate) -> np.ndarray:
    """Log stationary state law (cells, 2); uniform for a frozen chain."""
    a = np.asarray(p_on_rate, dtype=float)
    b = np.asarray(p_off_rate, dtype=float)
    total = a + b
    safe = np.where(total > 0, total, 1.0)
    p_on = np.where(total > 0, a / safe, 0.5)
    with np.errstate(divide="ignore"):
        return np.log(np.stack([1.0 - p_on, p_on], axis=-1))


def forward_loglik(logm, idx, log_prior) -> np.ndarray:
    """Per-cell log-likelihood by the forward recursion in log space."""
    a0 = log_prior[:, 0].copy()
    a1 = log_prior[:, 1].copy()
    for k in idx:
        m = logm[k]
        n0 = np.logaddexp(a0 + m[:, 0, 0], a1 + m[:, 0, 1])
        a1 = np.logaddexp(a0 + m[:, 1, 0], a1 + m[:, 1, 1])
        a0 = n0
    return np.logaddexp(a0, a1)


def single_step_logm(distinct, alpha, beta, lam, mu) -> np.ndarray:
    """Single-step tables: emission by the start state, then a flip."""
    c = np.asarray(distinct)[:, None]
    with np.errstate(divide="ignore"):
        emit = np.stack(
            [poisson.logpmf(c, mu[None, :]), poisson.logpmf(c, (mu + lam)[None, :])],
            axis=-1,
        )  # (K, cells, start)
        flip = np.log(
            np.stack(
                [np.stack([1.0 - alpha, beta], -1), np.stack([alpha, 1.0 - beta], -1)],
                axis=-2,
            )
        )  # (cells, end, start)
    return emit[:, :, None, :] + flip[None]


def _mmpp_generator(r_on, r_off, lam, mu, k_max) -> np.ndarray:
    """Generator on states 2*count + state, counts 0..k_max.

    Mass that would leave count k_max is dropped, which changes no entry
    at or below k_max.
    """
    size = 2 * (k_max + 1)
    q = np.zeros((size, size))
    emit = (mu, mu + lam)
    switch = (r_on, r_off)
    for c in range(k_max + 1):
        for s in (0, 1):
            i = 2 * c + s
            q[i, 2 * c + 1 - s] = switch[s]
            if c < k_max:
                q[i, i + 2] = emit[s]
            q[i, i] = -(switch[s] + emit[s])
    return q


def ctmc_logm(distinct, r_on, r_off, lam, mu) -> np.ndarray:
    """Continuous-time tables from expm of the (count, state) generator."""
    distinct = np.asarray(distinct)
    k_max = int(distinct.max())
    cells = np.size(r_on)
    out = np.empty((distinct.size, cells, 2, 2))
    for j in range(cells):
        p = expm(_mmpp_generator(r_on[j], r_off[j], lam[j], mu[j], k_max))
        rows = p[:2].reshape(2, k_max + 1, 2)  # [start, count, end]
        out[:, j] = rows[:, distinct, :].transpose(1, 2, 0)
    with np.errstate(divide="ignore"):
        return np.log(np.clip(out, 0.0, None))


def multistep_logm(distinct, r_on, r_off, lam, mu, d) -> np.ndarray:
    """Multistep tables as the d-fold product of the sub-step transfer matrix.

    Over one sub-step the count is Poisson at the start state's rate / d,
    then the state flips with probability 1 - exp(-r / d).
    """
    distinct = np.asarray(distinct)
    k_max = int(distinct.max())
    size = 2 * (k_max + 1)
    kk = np.arange(k_max + 1)
    cells = np.size(r_on)
    out = np.empty((distinct.size, cells, 2, 2))
    for j in range(cells):
        p_on = -np.expm1(-r_on[j] / d)
        p_off = -np.expm1(-r_off[j] / d)
        flip = np.array([[1.0 - p_on, p_on], [p_off, 1.0 - p_off]])  # [from, to]
        t = np.zeros((size, size))
        for s, rate in ((0, mu[j] / d), (1, (mu[j] + lam[j]) / d)):
            pmf = poisson.pmf(kk, rate)
            for c in range(k_max + 1):
                span = pmf[: k_max + 1 - c]
                for e in (0, 1):
                    t[2 * c + s, 2 * (c + np.arange(span.size)) + e] = span * flip[s, e]
        rows = np.eye(size)[:2]
        for _ in range(d):
            rows = rows @ t
        rows = rows.reshape(2, k_max + 1, 2)
        out[:, j] = rows[:, distinct, :].transpose(1, 2, 0)
    with np.errstate(divide="ignore"):
        return np.log(out)


def smoothed_p_on(logm, idx, log_prior, weight_floor=1e-18) -> np.ndarray:
    """P(state at boundary t = on | trace), t = 1..N, averaged over cells.

    Cells are weighted by their likelihood (flat prior).  Cells whose
    weight is below ``weight_floor`` times the largest are left out; their
    total share of the average is below cells * weight_floor.
    """
    ll = forward_loglik(logm, idx, log_prior)
    keep = np.flatnonzero(ll - ll.max() > np.log(weight_floor))
    w = np.exp(ll[keep] - ll.max())
    logm = logm[:, keep]
    n = len(idx)
    la = np.empty((n + 1, 2, keep.size))
    la[0] = log_prior[keep].T
    for t, k in enumerate(idx, start=1):
        m = logm[k]
        la[t, 0] = np.logaddexp(la[t - 1, 0] + m[:, 0, 0], la[t - 1, 1] + m[:, 0, 1])
        la[t, 1] = np.logaddexp(la[t - 1, 0] + m[:, 1, 0], la[t - 1, 1] + m[:, 1, 1])
    p_on = np.empty(n)
    b0 = np.zeros(keep.size)
    b1 = np.zeros(keep.size)
    for t in range(n, 0, -1):
        post_on = np.exp(la[t, 1] + b1 - ll[keep])
        p_on[t - 1] = np.dot(w, post_on) / w.sum()
        m = logm[idx[t - 1]]
        n0 = np.logaddexp(m[:, 0, 0] + b0, m[:, 1, 0] + b1)
        b1 = np.logaddexp(m[:, 0, 1] + b0, m[:, 1, 1] + b1)
        b0 = n0
    return p_on


def hpd_mask(marginal, level) -> np.ndarray:
    """Smallest set of cells, largest first, holding at least ``level``."""
    flat = marginal.ravel()
    order = np.argsort(-flat, kind="stable")
    k = int(np.searchsorted(np.cumsum(flat[order]), level * (1.0 - 1e-12))) + 1
    mask = np.zeros(flat.size, dtype=bool)
    mask[order[:k]] = True
    return mask.reshape(marginal.shape)

"""Likelihood of a count trace under the single-step switching model.

The hidden state is constant over each detector interval and may flip only
at interval boundaries, so the joint probability of one interval's count and
the next boundary state factorises into a Poisson emission term (set by the
state at the interval's start) and a chain transition term.  Collecting the
four start/end combinations into a 2x2 matrix per interval turns the full
path sum into a single rescaled matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    CountTrace,
    EmissionRates,
    StatePrior,
    SwitchProbs,
    poisson_pmf,
)
from .posterior import _cell_context

__all__ = [
    "StepMatrix",
    "step_matrix_single",
    "trace_loglik_single",
    "brute_force_loglik",
]

_BRUTE_FORCE_MAX_N = 20


@dataclass(frozen=True)
class StepMatrix:
    """Joint count-and-transition probabilities for one interval.

    ``entries[b, a]`` is P(observed count, next state b | previous state a),
    so each column sums to the count's probability given the previous state.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("step matrix must be 2x2")
        if np.any(m < 0):
            raise ValueError("step matrix entries must be non-negative")
        if np.any(m.sum(axis=0) > 1.0 + 1e-9):
            raise ValueError("step matrix columns must sum to at most 1")
        object.__setattr__(self, "entries", m)


def step_matrix_single(
    count: int, probs: SwitchProbs, emissions: EmissionRates
) -> StepMatrix:
    """Build the interval matrix for one observed count.

    The emission depends only on the state at the interval's start, so
    column a carries poisson(mu, c) for a = 0 and poisson(mu + lam, c) for
    a = 1, split across the two possible end states.
    """
    if probs.d != 1:
        raise ValueError("single-step model requires d = 1")
    if count < 0:
        raise ValueError("count must be non-negative")
    p_off = poisson_pmf(emissions.mu, count)
    p_on = poisson_pmf(emissions.on_rate, count)
    a, b = probs.alpha, probs.beta
    entries = np.array(
        [
            [p_off * (1.0 - a), p_on * b],
            [p_off * a, p_on * (1.0 - b)],
        ]
    )
    return StepMatrix(entries)


def trace_loglik_single(
    trace: CountTrace,
    probs: SwitchProbs,
    emissions: EmissionRates,
    prior: StatePrior | None = None,
) -> float:
    """Log-likelihood of the whole trace by the rescaled matrix product.

    Equals the log of the sum over all hidden state paths.  Runs the grid
    engine on a grid of this one cell, whose interval matrices are bitwise
    those of :func:`step_matrix_single`.  The default prior is the chain's
    stationary distribution.  Returns -inf when no state path can produce
    the data (for example positive counts with mu = lam = 0).
    """
    if probs.d != 1:
        raise ValueError("single-step model requires d = 1")
    switch = (probs.alpha, probs.beta)
    ctx = _cell_context(trace, "single", switch, emissions, prior)
    return float(ctx.logliks()[0, 0])


def brute_force_loglik(
    trace: CountTrace,
    probs: SwitchProbs,
    emissions: EmissionRates,
    prior: StatePrior | None = None,
) -> float:
    """Exact log-likelihood by explicit enumeration of all state paths.

    Sums P(s_0) * prod_t P(c_t, s_t | s_{t-1}) over every assignment of the
    N+1 boundary states.  Exponential cost; refuses traces longer than 20.
    Exists as an independent check of :func:`trace_loglik_single`.
    """
    n = len(trace)
    if n > _BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is limited to N <= {_BRUTE_FORCE_MAX_N}")
    if prior is None:
        prior = StatePrior.stationary_from_probs(probs)

    mats = [step_matrix_single(int(c), probs, emissions).entries for c in trace.counts]
    with np.errstate(divide="ignore"):
        log_mats = np.log(np.stack(mats))
        log_prior = np.log(prior.vector)

    n_paths = 1 << (n + 1)
    paths = (np.arange(n_paths)[:, None] >> np.arange(n + 1)[None, :]) & 1
    log_terms = log_prior[paths[:, 0]]
    for t in range(1, n + 1):
        log_terms = log_terms + log_mats[t - 1, paths[:, t], paths[:, t - 1]]
    return float(np.logaddexp.reduce(log_terms))

"""Shared domain types and elementary probability kernels.

Everything downstream (the three likelihood backends, the simulators, the
posterior engine) is built from the pieces defined here: count traces,
emission and switching parameters, the Poisson emission law, and the
conversion between continuous switching rates and per-step switching
probabilities.

Time is measured in detector-interval units throughout, so a "rate" is an
expected number of events per detector interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = [
    "CountTrace",
    "EmissionRates",
    "SwitchProbs",
    "SwitchRates",
    "StatePrior",
    "poisson_pmf",
    "log_poisson_pmf",
    "probs_from_rates",
    "rates_from_probs",
    "scaled_chain_loglik",
]


@dataclass(frozen=True)
class CountTrace:
    """Photon counts accumulated over consecutive unit detector intervals."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("trace must be a non-empty 1-d sequence of counts")
        if not np.issubdtype(arr.dtype, np.integer):
            rounded = np.rint(arr).astype(np.int64)
            if not np.array_equal(rounded, arr):
                raise ValueError("counts must be integers")
            arr = rounded
        else:
            arr = arr.astype(np.int64)
        if arr.min() < 0:
            raise ValueError("counts must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    def __len__(self) -> int:
        return int(self.counts.size)

    @property
    def max_count(self) -> int:
        return int(self.counts.max())


@dataclass(frozen=True)
class EmissionRates:
    """Expected counts per interval: background ``mu``, added fluorescence ``lam``.

    An emitter that is off for a whole interval produces Poisson(mu) counts;
    fully on produces Poisson(mu + lam).
    """

    mu: float
    lam: float

    def __post_init__(self):
        if self.mu < 0 or self.lam < 0:
            raise ValueError("emission rates must be non-negative")

    @property
    def on_rate(self) -> float:
        return self.mu + self.lam


@dataclass(frozen=True)
class SwitchProbs:
    """Per-step switching probabilities for a stepped chain.

    ``alpha`` is the off-to-on probability and ``beta`` the on-to-off
    probability at each of the ``d`` step boundaries per detector interval.
    ``d`` must be a power of two so interval distributions can be built by
    repeated halving.
    """

    alpha: float
    beta: float
    d: int = 1

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0 or not 0.0 <= self.beta <= 1.0:
            raise ValueError("switching probabilities must lie in [0, 1]")
        d = int(self.d)
        if d < 1 or d & (d - 1):
            raise ValueError("steps per interval d must be a power of two >= 1")
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class SwitchRates:
    """Continuous-time switching rates per detector interval.

    ``r_alpha`` is the rate of leaving the off state (switch-on) and
    ``r_beta`` the rate of leaving the on state (switch-off).
    """

    r_alpha: float
    r_beta: float

    def __post_init__(self):
        if self.r_alpha < 0 or self.r_beta < 0:
            raise ValueError("switching rates must be non-negative")


@dataclass(frozen=True)
class StatePrior:
    """Distribution of the hidden state at the start of the trace."""

    p_off: float
    p_on: float

    def __post_init__(self):
        if not 0.0 <= self.p_off <= 1.0 or not 0.0 <= self.p_on <= 1.0:
            raise ValueError("prior probabilities must lie in [0, 1]")
        if abs(self.p_off + self.p_on - 1.0) > 1e-12:
            raise ValueError("prior probabilities must sum to 1")

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.p_off, self.p_on])

    @classmethod
    def point(cls, state: int) -> "StatePrior":
        """Prior concentrated on a single state (0 = off, 1 = on)."""
        if state not in (0, 1):
            raise ValueError("state must be 0 or 1")
        return cls(p_off=1.0 - state, p_on=float(state))

    @classmethod
    def uniform(cls) -> "StatePrior":
        return cls(0.5, 0.5)

    @classmethod
    def stationary_from_probs(cls, probs: SwitchProbs) -> "StatePrior":
        """Stationary distribution of the stepped chain; uniform if frozen."""
        total = probs.alpha + probs.beta
        if total == 0.0:
            return cls.uniform()
        return cls(p_off=probs.beta / total, p_on=probs.alpha / total)

    @classmethod
    def stationary_from_rates(cls, rates: SwitchRates) -> "StatePrior":
        """Stationary distribution of the continuous chain; uniform if frozen."""
        total = rates.r_alpha + rates.r_beta
        if total == 0.0:
            return cls.uniform()
        return cls(p_off=rates.r_beta / total, p_on=rates.r_alpha / total)


def poisson_pmf(rate, count):
    """Probability of observing ``count`` events at Poisson mean ``rate``.

    Computes rate**count * exp(-rate) / count!.  A zero rate gives a point
    mass at zero counts.  Accepts scalars or arrays and broadcasts.
    """
    out = np.exp(log_poisson_pmf(rate, count))
    if np.isscalar(rate) and np.isscalar(count):
        return float(out)
    return out


def log_poisson_pmf(rate, count):
    """Log of :func:`poisson_pmf`, safe against under- and overflow.

    Evaluated as count*log(rate) - rate - lgamma(count + 1).  A zero rate
    with a positive count yields -inf (a sentinel, not an error).
    """
    rate_arr = np.asarray(rate, dtype=float)
    count_arr = np.asarray(count)
    if np.any(rate_arr < 0):
        raise ValueError("Poisson rate must be non-negative")
    if np.any(count_arr < 0):
        raise ValueError("count must be non-negative")
    count_arr = count_arr.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = count_arr * np.log(rate_arr) - rate_arr - gammaln(count_arr + 1.0)
    zero = rate_arr == 0.0
    if np.any(zero):
        logp = np.where(zero, np.where(count_arr == 0, 0.0, -np.inf), logp)
    if np.isscalar(rate) and np.isscalar(count):
        return float(logp)
    return logp


def probs_from_rates(rates: SwitchRates, d: int) -> SwitchProbs:
    """Per-step switching probabilities equivalent to continuous rates.

    With d steps per unit interval, the probability that an exponential
    holding time ends within one step of length 1/d is 1 - exp(-r/d).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    alpha = -math.expm1(-rates.r_alpha / d)
    beta = -math.expm1(-rates.r_beta / d)
    return SwitchProbs(alpha=alpha, beta=beta, d=d)


def rates_from_probs(probs: SwitchProbs) -> SwitchRates:
    """Inverse of :func:`probs_from_rates`: r = -d * log(1 - p)."""
    return SwitchRates(
        r_alpha=-probs.d * math.log1p(-probs.alpha),
        r_beta=-probs.d * math.log1p(-probs.beta),
    )


def scaled_chain_loglik(step_matrices, prior: StatePrior) -> float:
    """Log of ``[1 1] (prod_t M_t) prior`` with per-step sum rescaling.

    ``step_matrices`` yields one 2x2 array per interval in increasing time
    order; each is applied on the left of the running state vector.  After
    every application the vector is renormalised to sum 1 and the log of the
    scale is accumulated, which keeps the recursion in range for arbitrarily
    long traces.  Returns -inf when the data has zero probability.

    When no matrix sends a start state to both end states, the hidden path
    is fixed by its start state, and a path falling more than the float
    range behind the other would be lost to the renormalisation; the
    recursion then runs from each start state on its own.
    """
    mats = list(step_matrices)
    if any((m[0, 0] > 0 and m[1, 0] > 0) or (m[0, 1] > 0 and m[1, 1] > 0) for m in mats):
        return _chain_loglik(mats, prior.vector)
    starts = [(p, v) for p, v in zip(prior.vector, np.eye(2)) if p > 0.0]
    logs = [math.log(p) + _chain_loglik(mats, v) for p, v in starts]
    return float(np.logaddexp.reduce(logs))


def _chain_loglik(mats, v0) -> float:
    v = v0.copy()
    logscale = 0.0
    for m in mats:
        w0 = m[0, 0] * v[0] + m[0, 1] * v[1]
        w1 = m[1, 0] * v[0] + m[1, 1] * v[1]
        s = w0 + w1
        if s <= 0.0 or not math.isfinite(s):
            return -math.inf
        v[0] = w0 / s
        v[1] = w1 / s
        logscale += math.log(s)
    return logscale

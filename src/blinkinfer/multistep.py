"""Stepped approximation to continuous switching by interval halving.

A detector interval is divided into d = 2**m sub-steps; the state may flip
only at sub-step boundaries.  Over one sub-step the count distribution is a
weighted Poissonian at rate mu/d or (mu+lam)/d, and the joint law of
(counts, end state | start state) over a doubled interval is the sum over
the mid-point state of discrete convolutions of the two halves.  Applying
the doubling m times yields full-interval distributions that converge to
the continuous-time kernel as d grows.  The same distributions are a
Poisson mixture over the number of sub-steps that start on
(:func:`on_count_weights`), which is how the grid engine builds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    CountTrace,
    EmissionRates,
    StatePrior,
    SwitchProbs,
    SwitchRates,
    poisson_pmf,
    probs_from_rates,
)

__all__ = [
    "JointCountDist",
    "base_distributions",
    "convolve_halving",
    "interval_distributions",
    "on_count_weights",
    "trace_loglik_multistep",
    "default_c_max",
    "choose_subinterval_count",
]

DEFAULT_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class JointCountDist:
    """Joint count/end-state distributions over a fraction of an interval.

    ``probs[i, j, k]`` is P(counts = k, end state j | start state i) over a
    stretch of length ``interval_fraction``.  Arrays are truncated at
    ``c_max``; the missing tail mass per start state is available from
    :meth:`mass_deficit`.
    """

    probs: np.ndarray
    interval_fraction: float
    c_max: int

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (2, 2, self.c_max + 1):
            raise ValueError("probs must have shape (2, 2, c_max + 1)")
        if np.any(p < 0):
            raise ValueError("probabilities must be non-negative")
        object.__setattr__(self, "probs", p)

    def mass_deficit(self) -> float:
        """Largest truncated tail mass across the two start states."""
        return float(np.max(1.0 - self.probs.sum(axis=(1, 2))))


def default_c_max(max_count: int, emissions: EmissionRates) -> int:
    """Truncation bound: observed maximum plus a generous Poisson tail margin."""
    margin = 10.0 * math.sqrt(emissions.on_rate) + 20.0
    return max(40, int(math.ceil(max_count + margin)))


def choose_subinterval_count(r_alpha: float, r_beta: float) -> int:
    """Smallest d = 2**m whose sub-steps are short enough for the given rates.

    Uses the applicability rule r_alpha * r_beta < 0.1 * 2**(2m), the
    single-step validity bound rescaled to sub-steps of length 1/d.  Raises
    ValueError where the product is not finite, since no d meets the rule.
    """
    product = r_alpha * r_beta
    if not math.isfinite(product):
        raise ValueError(f"switching rate product r_alpha * r_beta = {product} is not finite")
    m = 0
    while product >= 0.1 * 4.0**m:
        m += 1
    return 2**m


def base_distributions(
    d: int, probs: SwitchProbs, emissions: EmissionRates, c_max: int
) -> JointCountDist:
    """Sub-step distributions: weighted Poissonians at the sub-step rates.

    Valid when the sub-step is short enough that at most one switch matters;
    crossing terms then factor into the switch probability times the count
    law of the starting state.
    """
    # imported here: scipy.stats takes longer to import than the package
    from scipy.stats import poisson as _poisson_dist

    if d != probs.d:
        raise ValueError(f"probs built for d={probs.d}, requested d={d}")
    tail = float(_poisson_dist.sf(c_max, emissions.on_rate / d))
    if tail >= DEFAULT_TAIL_TOL:
        needed = int(_poisson_dist.isf(DEFAULT_TAIL_TOL, emissions.on_rate / d))
        raise ValueError(
            f"c_max={c_max} leaves tail mass {tail:.2e} at sub-step rate "
            f"{emissions.on_rate / d:.4g}; need c_max >= {needed}"
        )
    kappa = np.arange(c_max + 1)
    off_pmf = poisson_pmf(emissions.mu / d, kappa)
    on_pmf = poisson_pmf(emissions.on_rate / d, kappa)
    out = np.empty((2, 2, c_max + 1))
    out[0, 0] = (1.0 - probs.alpha) * off_pmf
    out[0, 1] = probs.alpha * off_pmf
    out[1, 0] = probs.beta * on_pmf
    out[1, 1] = (1.0 - probs.beta) * on_pmf
    return JointCountDist(out, interval_fraction=1.0 / d, c_max=c_max)


def convolve_halving(half: JointCountDist) -> JointCountDist:
    """Distributions over a doubled stretch from those over one half.

    Marginalises the mid-point state: each (i, j) entry is the sum of the
    two discrete convolutions through mid-state 0 and 1, truncated back to
    the same c_max.
    """
    c_max = half.c_max
    p = half.probs
    out = np.empty_like(p)
    for i in (0, 1):
        for j in (0, 1):
            acc = np.convolve(p[i, 0], p[0, j])[: c_max + 1]
            acc = acc + np.convolve(p[i, 1], p[1, j])[: c_max + 1]
            out[i, j] = acc
    return JointCountDist(
        out, interval_fraction=2.0 * half.interval_fraction, c_max=c_max
    )


def interval_distributions(
    d: int, rates: SwitchRates, emissions: EmissionRates, c_max: int
) -> JointCountDist:
    """Full-interval joint distributions for d = 2**m sub-steps.

    Converts the rates to per-sub-step switching probabilities, builds the
    sub-step base case, and doubles m times.  Approximates the
    continuous-time kernel with error decreasing in d.
    """
    _check_subinterval_count(d)
    probs = probs_from_rates(rates, d)
    dist = base_distributions(d, probs, emissions, c_max)
    for _ in range(d.bit_length() - 1):
        dist = convolve_halving(dist)
    return dist


def on_count_weights(d: int, r_alpha, r_beta) -> np.ndarray:
    """Joint law of (end state, number of on sub-steps) over one interval.

    ``out[i, j, ..., n]`` is P(end state j, n of the d sub-steps start on |
    start state i) for n = 0..d, broadcast over the rate arrays.  A
    sub-step that starts on emits at rate (mu + lam)/d and one that starts
    off at mu/d, and Poisson counts add up, so mixing Poisson(mu + lam*n/d)
    over this law gives :func:`interval_distributions` exactly, with no
    count truncation.
    """
    _check_subinterval_count(d)
    ra, rb = np.broadcast_arrays(np.asarray(r_alpha, float), np.asarray(r_beta, float))
    a = -np.expm1(-ra / d)[..., None]
    b = -np.expm1(-rb / d)[..., None]
    off = np.zeros((2,) + ra.shape + (d + 1,))  # [start, ..., n], now off
    on = np.zeros_like(off)  # now on
    off[0, ..., 0] = 1.0
    on[1, ..., 0] = 1.0
    for _ in range(d):
        on_counted = np.zeros_like(on)
        on_counted[..., 1:] = on[..., :-1]
        off, on = (1.0 - a) * off + b * on_counted, a * off + (1.0 - b) * on_counted
    return np.stack([off, on], axis=1)


def _check_subinterval_count(d: int) -> None:
    if d < 1 or d & (d - 1):
        raise ValueError("d must be a power of two >= 1")


def trace_loglik_multistep(
    trace: CountTrace,
    rates: SwitchRates,
    emissions: EmissionRates,
    prior: StatePrior | None = None,
    d: int | None = None,
) -> float:
    """Log-likelihood of the trace under the d-sub-step model.

    Runs the grid engine on a grid of this one cell.  Its interval
    matrices are the exact Poisson mixtures over :func:`on_count_weights`,
    so counts of any size are accepted; they equal the tables of
    :func:`interval_distributions`, the paper's truncated halving
    construction, which the tests keep as the reference.  ``d`` defaults
    to the applicability rule for the given rates, and the prior to the
    chain's stationary distribution.
    """
    from .posterior import _cell_context

    switch = (rates.r_alpha, rates.r_beta)
    ctx = _cell_context(trace, "multistep", switch, emissions, prior, d=d)
    return float(ctx.logliks()[0, 0])

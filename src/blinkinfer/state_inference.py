"""Posterior probability of the hidden state at each interval boundary.

Zeroing one row of an interval matrix restricts the matrix-product
likelihood to paths passing through that state, so the ratio of a masked
product to the full product is the state's posterior probability given the
whole trace.  Computed for every position by a forward-backward pass on
the grid engine's compiled kernel.  A first forward pass gives every row's
likelihood.  Rows then go in small blocks through a forward pass that
keeps each prefix vector and a backward pass on the transposed step
tables.  Prefix and suffix vectors are both rescaled by a power of two at
every step.  The scale factors of the two passes are common to both states
at a position, so they cancel in the ratio and never need exponentiating.

Exposed for the single-step model; with parameters unknown the masked
products are averaged over a parameter grid weighted by each cell's
likelihood (flat priors).  A cell whose chain never mixes is split into
two start-pinned rows, as in the grid engine, so that no hidden path is
lost to the rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import posterior as _posterior
from .kernels import CountTrace, EmissionRates, StatePrior, SwitchProbs
from .posterior import GridSpec, _cell_context, _EngineContext
from .single_step import StepMatrix

__all__ = [
    "StatePosterior",
    "masked_matrices",
    "state_posterior_known",
    "state_posterior_marginal",
]

# Prefix vectors one block of rows may store, (steps + 1) x rows: 64 MB of
# (off, on) pairs, so that a long trace takes blocks of fewer rows
_PREFIX_BUDGET = 4_000_000
# Rows per block at most, and at most the kernel's BLOCK: at N = 1e4, 32
# rows' prefixes take 5 MB; wider blocks leave the L2 cache and run slower
_MAX_WIDTH = 32


@dataclass(frozen=True)
class StatePosterior:
    """Per-position on-state probabilities given the entire trace.

    ``p_on[k-1]`` is P(state at boundary k = on | all counts) for
    k = 1..N; boundary k is the end of interval k.  ``context`` records the
    model and parameters (or grid) used.
    """

    p_on: np.ndarray
    model: str = "single"
    context: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.p_on.size)


def masked_matrices(step: StepMatrix) -> tuple[StepMatrix, StepMatrix]:
    """Split an interval matrix by the end state.

    Returns (kept end state 0, kept end state 1); the two masked matrices
    sum back to the original, and inserting one of them into the matrix
    product restricts the path sum to histories with that end state at the
    masked position.
    """
    m0 = step.entries.copy()
    m1 = step.entries.copy()
    m0[1, :] = 0.0
    m1[0, :] = 0.0
    return StepMatrix(m0), StepMatrix(m1)


def state_posterior_known(
    trace: CountTrace,
    probs: SwitchProbs,
    emissions: EmissionRates,
    prior: StatePrior | None = None,
) -> StatePosterior:
    """State posterior with all four parameters known.

    The smoother of :func:`state_posterior_marginal` on a grid of one cell.
    """
    if probs.d != 1:
        raise ValueError("single-step model requires d = 1")
    if prior is None:
        prior = StatePrior.stationary_from_probs(probs)
    switch = (probs.alpha, probs.beta)
    return StatePosterior(
        p_on=_smooth(_cell_context(trace, "single", switch, emissions, prior)),
        model="single",
        context={"probs": probs, "emissions": emissions, "prior": prior},
    )


def state_posterior_marginal(
    trace: CountTrace,
    grid: GridSpec,
    prior: StatePrior | None = None,
) -> StatePosterior:
    """State posterior with unknown parameters marginalised over a grid.

    Averages each grid cell's masked-product numerators with weights
    proportional to the cell's likelihood (flat priors on the box), the
    grid realisation of integrating the parameters out.  Only the
    single-step model is supported.
    """
    return StatePosterior(
        p_on=_smooth(_EngineContext(trace, "single", grid, prior, None, None)),
        model="single",
        context={"grid": grid, "prior": prior},
    )


def _smooth(ctx):
    """On-probability at every boundary, averaged over the context's rows.

    A start-pinned row follows one hidden path, so its prefixes alone give
    its state; its suffix vectors stay at ones, since rolled back they could
    underflow on that path.
    """
    a, b = ctx.pair_params(0, ctx.n_pairs())
    return _smooth_rows(ctx.inv, ctx.row_sets(a, b))


def _smooth_rows(inv, row_sets):
    """Weighted mean over rows of P(on at boundary k), k = 1..len(inv).

    Each of ``row_sets`` is (tables, start, log_w, pinned): four (D, rows)
    step tables, (2, rows) start vectors, log weights, and a bool mask of
    the rows whose suffix vectors stay at ones.  A row weighs its
    likelihood, from one ``_forward_cells`` pass per set, times exp(log_w).
    The kernel's ``smooth`` takes the rows in blocks of as many as keep a
    block's prefixes within ``_PREFIX_BUDGET`` vectors, at most
    ``_MAX_WIDTH``.  Numerators and the weight total both add up row by row
    in the sets' order, so p_on is bitwise the same at every block width,
    and monotone rounding keeps it <= 1.
    """
    n = len(inv)
    logliks = [w + _posterior._forward_cells(*m, inv, s) for m, s, w, _ in row_sets]
    peak = max(ll.max() for ll in logliks)
    if peak == -np.inf:
        raise ValueError("trace has zero probability everywhere on the grid")
    weights = [np.exp(ll - peak) for ll in logliks]
    width = min(max(_PREFIX_BUDGET // (n + 1), 1), _MAX_WIDTH)
    prefixes = np.empty((n + 1, 2, width))
    num = np.zeros(n)
    smooth = _posterior._forward_kernel().smooth
    for (mats, start, _, pinned), w in zip(row_sets, weights):
        if pinned.shape != w.shape:
            raise ValueError("pinned mask and start vectors disagree in shape")
        smooth(n, w.size, width, *mats, inv, start, w, pinned, prefixes, num)
    return num / np.cumsum(np.concatenate(weights))[-1]

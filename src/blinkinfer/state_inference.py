"""Posterior probability of the hidden state at each interval boundary.

Zeroing one row of an interval matrix restricts the matrix-product
likelihood to paths passing through that state, so the ratio of a masked
product to the full product is the state's posterior probability given the
whole trace.  Computed for every position by a forward-backward pass on
the grid engine's compiled kernel.  A first forward pass gives every row's
likelihood.  The rows then go heaviest first, in small blocks, through a
forward pass that keeps each prefix vector and a backward pass on the
transposed step tables, each block's table columns gathered in the
engine's (D, rows) layout.  The run stops once no row left is heavy
enough to change a bit of any sum, which leaves out every row of weight
exactly 0 and, on long traces, most of the rest.  Prefix and suffix
vectors are both rescaled by a power of two at every step.  The scale
factors of the two passes are common to both states at a position, so
they cancel in the ratio and never need exponentiating.

Exposed for all three models.  With parameters unknown the masked
products are averaged over a parameter grid weighted by each cell's
likelihood (flat priors); a grid of fixed values gives known-parameter
smoothing under any model.  A cell whose chain never mixes is split into
two start-pinned rows, as in the grid engine, so that no hidden path is
lost to the rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import posterior as _posterior
from .ctmc import QuadratureSpec
from .kernels import CountTrace, EmissionRates, StatePrior, SwitchProbs
from .posterior import GridSpec, _grid_context
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
# Rows per block at most, and at most the kernel's BLOCK.  On (D, rows)
# tables at N = 1e4 (2-CPU Xeon, AVX-512, shared host, min of 11), blocks of
# 16 and 32 rows tied at 6.5-7 ns per kept cell-step, and 64, whose
# prefixes take 10 MB, ran 15-25% slower
_MAX_WIDTH = 32
# BLOCK of _forward.c: smooth keeps a block's backward vectors in stack
# arrays of this many rows
_KERNEL_BLOCK = 256


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
    cell = dict(alpha=probs.alpha, beta=probs.beta, mu=emissions.mu)
    cell["lambda"] = emissions.lam
    p_on = state_posterior_marginal(trace, GridSpec(axes=(), fixed=cell), prior).p_on
    context = {"probs": probs, "emissions": emissions, "prior": prior}
    return StatePosterior(p_on=p_on, context=context)


def state_posterior_marginal(
    trace: CountTrace,
    grid: GridSpec,
    prior: StatePrior | None = None,
    model: str = "single",
    quad: QuadratureSpec | None = None,
    d: int | None = None,
) -> StatePosterior:
    """State posterior with unknown parameters marginalised over a grid.

    Averages each grid cell's masked-product numerators with weights
    proportional to the cell's likelihood (flat priors on the box), the
    grid realisation of integrating the parameters out.  ``model``,
    ``quad`` and ``d`` are those of :func:`evaluate_grid`, under any of the
    three models; a grid of fixed values gives known-parameter smoothing.
    """
    ctx = _grid_context(trace, model, grid, prior, quad, d)
    context = {"grid": grid, "prior": prior, "d": ctx.d}
    return StatePosterior(p_on=_smooth(ctx), model=model, context=context)


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
    The sets become one row list, in their order, and the rows of nonzero
    weight go to the kernel's ``smooth`` heaviest first (a stable sort, so
    equal weights keep that order), in blocks of as many as keep a block's
    prefixes within ``_PREFIX_BUDGET`` vectors, at most ``_MAX_WIDTH``.
    Each block's table columns are gathered from the full tables, never
    rebuilt.  The weight pass checks each set's tables, starts and ``inv``
    before any ``smooth`` call.

    Numerators add up row by row in that order, so p_on is bitwise the same
    at every block width, and the run stops before the first block whose
    heaviest weight w satisfies 2 w < spacing(num[k]) at every k; spacing
    grows with the value, so the least numerator's is the one to test.  No
    bit is lost: every row from there on adds fl(w' r) <= w' <= w, its
    on-probability r being <= 1, which is below half the gap from num[k]
    to the next double, so round-to-nearest leaves num[k] as it was.  A
    numerator still at 0 has spacing 2^-1074 and so never lets the run
    stop.  The weight total is the cumsum of all nonzero weights in the
    same order.  Each numerator term is at most its row's weight, and
    rounding is monotone, so every numerator is at most the total and p_on
    is at most 1.
    """
    n = len(inv)
    width = min(max(_PREFIX_BUDGET // (n + 1), 1), _MAX_WIDTH)
    if width > _KERNEL_BLOCK:
        raise ValueError("block width and the kernel's row buffers disagree in shape")
    for _, start, log_w, pinned in row_sets:
        if not log_w.shape == pinned.shape == start.shape[-1:]:
            raise ValueError("starts, weights and pinned mask disagree in shape")
    logliks = [w + _posterior._forward_cells(*m, inv, s) for m, s, w, _ in row_sets]
    peak = max(ll.max() for ll in logliks)
    if peak == -np.inf:
        raise ValueError("trace has zero probability everywhere on the grid")
    tables = [np.concatenate(ms, axis=1) for ms in zip(*(s[0] for s in row_sets))]
    start, pinned = (np.concatenate([s[i] for s in row_sets], axis=-1) for i in (1, 3))
    w = np.exp(np.concatenate(logliks) - peak)
    order = np.argsort(-w, kind="stable")[: np.count_nonzero(w)]
    w = w[order]
    prefixes = np.empty((n + 1, 2, width))
    num = np.zeros(n)
    smooth = _posterior._forward_kernel().smooth
    for lo in range(0, w.size, width):
        if 2.0 * w[lo] < np.spacing(num.min()):
            break
        rows = order[lo : lo + width]
        block = [m.take(rows, axis=1) for m in tables]
        smooth(n, rows.size, width, *block, inv, start.take(rows, axis=1),
               w[lo : lo + width], pinned[rows], prefixes, num)
    return num / np.cumsum(w)[-1]

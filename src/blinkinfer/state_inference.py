"""Posterior probability of the hidden state at each interval boundary.

Zeroing one row of an interval matrix restricts the matrix-product
likelihood to paths passing through that state, so the ratio of a masked
product to the full product is the state's posterior probability given the
whole trace.  Computed for every position by a forward-backward pass on
the grid engine's compiled kernel.  A first forward pass gives every row's
likelihood.  The rows of nonzero weight then go in small blocks through a
forward pass that keeps each prefix vector and a backward pass on the
transposed step tables; a row of weight exactly 0 would add exactly 0, so
it is left out.  Each block reads its rows' table columns from one
contiguous piece of a block-major copy.  Prefix and suffix vectors are
both rescaled by a power of two at every step.  The scale factors of the
two passes are common to both states at a position, so they cancel in the
ratio and never need exponentiating.

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
# Rows per block at most, and at most the kernel's BLOCK.  On block-major
# tables at N = 1e4 (2-CPU Xeon, AVX-512, shared host), blocks of 16 and 32
# rows tied at 5.5-9 ns per cell-step, and 64, whose prefixes take 10 MB,
# ran 20-30% slower
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
    Only the rows of nonzero weight go on to the kernel's ``smooth``, in
    row order, and a set with none left is skipped: a dropped row would add
    exactly +0.0 to every numerator and to the weight total.  The kept rows'
    table columns are gathered from the full tables, never rebuilt, into
    block-major copies (:func:`_block_major`).  ``smooth`` takes the rows in
    blocks of as many as keep a block's prefixes within ``_PREFIX_BUDGET``
    vectors, at most ``_MAX_WIDTH``.  Numerators and the weight total both
    add up row by row in the sets' order, so p_on is bitwise the same at
    every block width and with or without the zero-weight rows, and
    monotone rounding keeps it <= 1.
    """
    n = len(inv)
    width = min(max(_PREFIX_BUDGET // (n + 1), 1), _MAX_WIDTH)
    if width > _KERNEL_BLOCK:
        raise ValueError("block width and the kernel's row buffers disagree in shape")
    for mats, start, log_w, pinned in row_sets:
        depth, rows = len(mats[0]), start.shape[-1]
        if (
            {m.shape for m in mats} != {(depth, rows)}
            or start.shape != (2, rows)
            or not log_w.shape == pinned.shape == (rows,)
        ):
            raise ValueError("step tables, starts, weights and pinned mask disagree in shape")
        if n and not 0 <= inv.min() <= inv.max() < depth:
            raise ValueError("an interval reads a row outside the step tables")
    logliks = [w + _posterior._forward_cells(*m, inv, s) for m, s, w, _ in row_sets]
    peak = max(ll.max() for ll in logliks)
    if peak == -np.inf:
        raise ValueError("trace has zero probability everywhere on the grid")
    weights = [np.exp(ll - peak) for ll in logliks]
    prefixes = np.empty((n + 1, 2, width))
    num = np.zeros(n)
    smooth = _posterior._forward_kernel().smooth
    for (mats, start, _, pinned), w in zip(row_sets, weights):
        keep = np.flatnonzero(w)
        if keep.size:
            tables = _block_major(mats, keep, width)
            kept_start = np.ascontiguousarray(start[:, keep])
            smooth(n, keep.size, width, len(mats[0]), *tables, inv, kept_start, w[keep],
                   pinned[keep], prefixes, num)
    return num / np.cumsum(np.concatenate(weights))[-1]


def _block_major(mats, keep, width):
    """Columns ``keep`` of four (D, rows) tables, each as (blocks, D, width).

    A block of ``width`` kept rows then finds its entries of a table in one
    contiguous (D, width) piece; the last block is padded with copies of
    its last column, which the kernel never reads.
    """
    blocks = -(-keep.size // width)
    cols = np.pad(keep, (0, blocks * width - keep.size), mode="edge")
    return tuple(
        np.ascontiguousarray(m[:, cols].reshape(len(m), blocks, width).transpose(1, 0, 2))
        for m in mats
    )

"""Posterior probability of the hidden state at each interval boundary.

Zeroing one row of an interval matrix restricts the matrix-product
likelihood to paths passing through that state, so the ratio of a masked
product to the full product is the state's posterior probability given the
whole trace.  Computed for every position by a forward-backward pass on
the grid engine's compiled kernel.  A weight pass runs the grid engine's
blocks and their forward pass, one block of tables at a time, and keeps
only the rows whose likelihood lies within 746 nats of the running peak:
every other row has weight exactly 0.  The kept rows then go heaviest
first, in small blocks, through a forward pass that keeps each prefix
vector and a backward pass on the transposed step tables, each block's
table columns gathered in the engine's (D, rows) layout.  The run stops
once no row left is heavy enough to change a bit of any sum, which on
long traces leaves out most of the rows of nonzero weight.  Prefix and
suffix vectors are both rescaled by a power of two at every step.  The
scale factors of the two passes are common to both states at a position,
so they cancel in the ratio and never need exponentiating.

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

    The weight pass runs the grid engine's blocks, as ``evaluate_grid``
    does: ``row_sets`` builds one block's tables and gives each row's
    log-likelihood l.  After each block, with P_run the largest l so far,
    only rows with l >= P_run - 746 keep their table columns, start,
    log-likelihood and pinned flag, gathered from the block's tables, and
    rows kept from earlier blocks that fall below a risen cut are dropped.
    The cut loses nothing.  The final peak P is at least P_run, so a
    dropped row has l < P - 746 up to the rounding of the cut, at most
    half an ulp of P: 1/8 while |P| < 2^50, which only a trace of some
    10^15 intervals could pass.  The computed l - P is then below -745.8,
    and exp of it is 0.0, exp underflowing to 0 below about -745.13.  So
    the row weighs exactly 0 in ``_smooth_rows``, which never runs such a
    row and adds only +0.0 for it to the weight total; so does a row of
    log-likelihood -inf, which is dropped too.  Memory is one block's
    tables plus the kept rows.

    The kept rows stay in the order of one pass over the whole grid: every
    block's start-off rows, cell by cell, then every block's pinned
    start-on rows.  The stable heaviest-first sort then gives the kernel
    the rows, and the sums their terms, in the same order whatever the
    block size.  A start-pinned row follows one hidden path, so its
    prefixes alone give its state; its suffix vectors stay at ones, since
    rolled back they could underflow on that path.
    """
    peak = -np.inf
    off, on = [], []  # start-off rows and pinned start-on rows, block by block
    for blk in ctx.block_ranges():
        sets = ctx.row_sets(*ctx.pair_params(*blk))
        peak = max(peak, *(loglik.max() for _, _, loglik, _ in sets))
        off, on = (
            [_heavy_rows(*rows, peak - 746.0) for rows in chunks]
            for chunks in (off + sets[:1], on + sets[1:])
        )
        del sets  # so that the next block's tables are built with this one freed
    chunks = off + on
    tables = tuple(np.concatenate(ms, axis=1) for ms in zip(*(c[0] for c in chunks)))
    start, loglik, pinned = (np.concatenate([c[i] for c in chunks], axis=-1) for i in (1, 2, 3))
    return _smooth_rows(ctx.inv, tables, start, loglik, pinned)


def _heavy_rows(tables, start, loglik, pinned, cut):
    """The rows of finite log-likelihood at least ``cut``, in their order."""
    keep = np.flatnonzero((loglik >= cut) & (loglik > -np.inf))
    if keep.size == loglik.size:
        return tables, start, loglik, pinned
    tables = tuple(m.take(keep, axis=1) for m in tables)
    return tables, start.take(keep, axis=1), loglik[keep], pinned[keep]


def _smooth_rows(inv, tables, start, loglik, pinned):
    """Weighted mean over rows of P(on at boundary k), k = 1..len(inv).

    ``tables`` are four (D, rows) step tables, ``start`` the (2, rows) start
    vectors, ``loglik`` each row's log-likelihood from the weight pass, and
    ``pinned`` a bool mask of the rows whose suffix vectors stay at ones.
    A row weighs exp(loglik - peak).  The rows of nonzero weight go to the
    kernel's ``smooth`` heaviest first (a stable sort, so equal weights keep
    row order), in blocks of as many as keep a block's prefixes within
    ``_PREFIX_BUDGET`` vectors, at most ``_MAX_WIDTH``.  Each block's table
    columns are gathered from ``tables``, never rebuilt.  Shapes and ``inv``
    are checked before any ``smooth`` call.

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
    _posterior._check_rows(tables, inv, start)
    if not loglik.shape == pinned.shape == start.shape[-1:]:
        raise ValueError("starts, log-likelihoods and pinned mask disagree in shape")
    peak = loglik.max(initial=-np.inf)
    if peak == -np.inf:
        raise ValueError("trace has zero probability everywhere on the grid")
    w = np.exp(loglik - peak)
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

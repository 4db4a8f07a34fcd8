"""Posterior probability of the hidden state at each interval boundary.

Zeroing one row of an interval matrix restricts the matrix-product
likelihood to paths passing through that state, so the ratio of a masked
product to the full product is the state's posterior probability given the
whole trace.  Computed for every position by a forward-backward pass on
the grid engine's compiled kernel.  A weight pass runs the grid engine's
chunks and their forward pass, one chunk at a time, and keeps
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
lost to the rescaling, and the kernel reads such a row's state from its
prefix vectors, which follow its one path.
"""

from __future__ import annotations

import functools
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
# Rows per block at most, for the kernel's stack vectors.  On (D, rows)
# tables at N = 1e4 (2-CPU Xeon, AVX-512, shared host, min of 11), blocks of
# 16 and 32 rows tied at 6.5-7 ns per kept cell-step, and 64, whose
# prefixes take 10 MB, ran 15-25% slower
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

    The weight pass runs the grid engine's chunks, as ``evaluate_grid``
    does, one at a time: ``row_sets`` gives each row's log-likelihood l.
    With P_run the largest l so far, only rows with l >= P_run - 746 keep
    their table columns, start and log-likelihood, the columns asked of
    their set, which mixes them then on the engine's product path, and
    rows kept from earlier chunks are dropped once P_run rises above them.
    The cut loses nothing.  The final peak P is at least P_run, so a
    dropped row has l < P - 746 up to the rounding of the cut, at most
    half an ulp of P: 1/8 while |P| < 2^50, which only a trace of some
    10^15 intervals could pass.  The computed l - P is then below -745.8,
    and exp of it is 0.0, exp underflowing to 0 below about -745.13.  So
    the row weighs exactly 0 in ``_smooth_rows``, which never runs such a
    row and adds only +0.0 for it to the weight total; so does a row of
    log-likelihood -inf, which is dropped too.  Memory is one chunk's
    tables plus the kept rows.

    The kept rows go to ``_smooth_rows`` in the order of the grid's flat
    cells: every start-off row, cell by cell, then every pinned start-on
    row.  Chunks take a run of pairs' cells emission cell by emission
    cell, so the rows are sorted by the flat cell index that ``row_sets``
    gives each, start-on rows offset by the grid's cell count, into tables
    written piece by piece.  The stable heaviest-first sort then gives the
    kernel the rows, and the sums their terms, in the same order whatever
    the chunk sizes.  The kernel needs no pinned mask:
    a start-pinned row follows one hidden path, and its prefixes give its
    state.
    """
    cells = ctx.a.size * ctx.n_em
    peak = -np.inf
    kept = []  # (key, tables, start, loglik) of each set's rows above the cut
    for chunk in ctx.chunks():
        sets = ctx.row_sets(*chunk)
        top = max(rows[3].max() for rows in sets)
        if top > peak:
            peak = top
            kept = [_heavy_rows(key, functools.partial(_posterior._columns, mats), *rest,
                                peak - 746.0) for key, mats, *rest in kept]
        # start-on rows after all others
        kept += [_heavy_rows(rows[0] + i * cells, *rows[1:4], peak - 746.0)
                 for i, rows in enumerate(sets)]
        del sets  # so that the next chunk's tables take this one's memory
    return _smooth_rows(ctx.inv, *_sorted_rows(kept, len(ctx.distinct)))


def _sorted_rows(kept, depth):
    """The tables, starts and log-likelihoods of the ``kept`` rows, in the
    order of their keys.  Each piece is written to its rows' ranks and then
    dropped, so that the rows are held about once, not twice."""
    keys = np.concatenate([piece[0] for piece in kept])
    rank = np.empty(keys.size, dtype=np.intp)
    rank[np.argsort(keys)] = np.arange(keys.size)
    tables = np.empty((4, depth, keys.size))
    start = np.empty((2, keys.size))
    loglik = np.empty(keys.size)
    end = keys.size
    while kept:
        _, mats, piece_start, piece_loglik = kept.pop()
        cols = rank[end - piece_loglik.size : end]
        end -= piece_loglik.size
        for table, m in zip(tables, mats):
            table[:, cols] = m
        start[:, cols] = piece_start
        loglik[cols] = piece_loglik
    return tuple(tables), start, loglik


def _heavy_rows(key, tables, start, loglik, cut):
    """The rows of finite log-likelihood at least ``cut``, in their order,
    with the step tables that ``tables`` gives for their indices."""
    keep = np.flatnonzero((loglik >= cut) & (loglik > -np.inf))
    if keep.size == loglik.size:
        return key, tables(keep), start, loglik
    return key[keep], tables(keep), start.take(keep, axis=1), loglik[keep]


def _smooth_rows(inv, tables, start, loglik):
    """Weighted mean over rows of P(on at boundary k), k = 1..len(inv).

    ``tables`` are four (D, rows) step tables, ``start`` the (2, rows) start
    vectors and ``loglik`` each row's log-likelihood from the weight pass.
    A row that starts in one state and never branches has one nonzero
    prefix component, its state.  A row weighs exp(loglik - peak).  The
    rows of nonzero weight go to ``smooth`` heaviest first (a stable sort,
    so equal weights keep row order), in blocks of as many as keep a
    block's prefixes within ``_PREFIX_BUDGET`` vectors, at most ``_MAX_WIDTH``.
    Each block's table columns are gathered from ``tables``, never rebuilt.
    Shapes and ``inv`` are checked before any ``smooth`` call.

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
    _posterior._check_rows(tables, inv, start)
    if loglik.shape != start.shape[-1:]:
        raise ValueError("starts and log-likelihoods disagree in shape")
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
               w[lo : lo + width], prefixes, num)
    return num / np.cumsum(w)[-1]

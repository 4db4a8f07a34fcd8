"""Conventional threshold analysis of a blinking trace.

The baseline the Bayesian machinery is compared against: pick an intensity
threshold, call each interval on or off, histogram the run durations, and
fit exponential decays to read off switching probabilities.  Every stage
involves an arbitrary choice (threshold rule, bin count), and the sweep
tooling here exists to expose how much the estimates move as those choices
vary.  The fitting deliberately follows common practice rather than trying
to improve on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import CountTrace, poisson_pmf

__all__ = [
    "ThresholdConfig",
    "FitDiagnostics",
    "RateEstimate",
    "PoissonMixture",
    "ThresholdRules",
    "SweepRow",
    "SweepSummary",
    "SweepResult",
    "assign_states",
    "run_durations",
    "fit_exponential_prob",
    "fit_switch_probs",
    "fit_poisson_mixture",
    "literature_thresholds",
    "threshold_sweep",
]

# fit_poisson_mixture stops after this many EM sweeps, or sooner once the
# log-likelihood moves by less than this fraction of itself
_EM_MAX_ITER = 200
_EM_TOL = 1e-8


@dataclass(frozen=True)
class ThresholdConfig:
    """One analysis configuration: intensity cut and duration bin count."""

    threshold: float
    bin_count: int = 10

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.bin_count < 2:
            raise ValueError("bin_count must be >= 2")


@dataclass(frozen=True)
class FitDiagnostics:
    """Least-squares details of one exponential duration fit."""

    rate: float
    slope: float
    intercept: float
    residual_norm: float
    bins_used: int


@dataclass(frozen=True)
class RateEstimate:
    """Threshold-analysis estimates of the switching probabilities.

    ``alpha_hat`` comes from the off-duration histogram (off lifetime is
    set by the switch-on process) and ``beta_hat`` from the on durations.
    """

    alpha_hat: float
    beta_hat: float
    alpha_fit: FitDiagnostics
    beta_fit: FitDiagnostics


def assign_states(trace: CountTrace, threshold: float) -> np.ndarray:
    """On/off assignment per interval: on iff count strictly above threshold."""
    return (np.asarray(trace.counts) > threshold).astype(np.int8)


def run_durations(states, include_partial: bool = True):
    """Lengths of maximal on-runs and off-runs, as (on_runs, off_runs).

    The first and last runs are truncated by the trace edges; they are
    included by default and can be dropped with ``include_partial=False``
    for sensitivity checks.
    """
    s = np.asarray(states)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("states must be a non-empty 1-d sequence")
    change = np.flatnonzero(np.diff(s) != 0)
    starts = np.concatenate([[0], change + 1])
    ends = np.concatenate([change + 1, [s.size]])
    lengths = ends - starts
    run_state = s[starts]
    if not include_partial and lengths.size > 1:
        lengths = lengths[1:-1]
        run_state = run_state[1:-1]
    elif not include_partial:
        lengths = lengths[:0]
        run_state = run_state[:0]
    return lengths[run_state == 1], lengths[run_state == 0]


def fit_exponential_prob(durations, bin_count: int):
    """Switching probability from an exponential fit to a duration histogram.

    Histograms the durations into ``bin_count`` equal bins, least-squares
    fits log(bin count) against bin centre over the occupied bins, and
    converts the decay rate to a per-interval probability 1 - exp(-rate).
    Returns (probability, :class:`FitDiagnostics`).
    """
    if bin_count < 2:
        raise ValueError("bin_count must be >= 2")
    d = np.asarray(durations, dtype=float)
    if d.size == 0:
        raise ValueError("no durations to fit")
    hist, edges = np.histogram(d, bins=bin_count)
    centers = 0.5 * (edges[:-1] + edges[1:])
    occupied = hist > 0
    if occupied.sum() < 2:
        raise ValueError(
            "duration histogram has a single occupied bin; "
            "try a different bin count"
        )
    x = centers[occupied]
    y = np.log(hist[occupied].astype(float))
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    rate = max(-slope, 0.0)
    diag = FitDiagnostics(
        rate=float(rate),
        slope=float(slope),
        intercept=float(intercept),
        residual_norm=float(np.sqrt(np.mean(residuals**2))),
        bins_used=int(occupied.sum()),
    )
    return float(-math.expm1(-rate)), diag


def fit_switch_probs(durations, bin_count: int) -> RateEstimate:
    """Both switching probabilities from the (on_runs, off_runs) pair."""
    on_runs, off_runs = durations
    alpha_hat, alpha_fit = fit_exponential_prob(off_runs, bin_count)
    beta_hat, beta_fit = fit_exponential_prob(on_runs, bin_count)
    return RateEstimate(
        alpha_hat=alpha_hat, beta_hat=beta_hat, alpha_fit=alpha_fit, beta_fit=beta_fit
    )


@dataclass(frozen=True)
class PoissonMixture:
    """Two-component Poisson mixture fitted to the count histogram."""

    weight_bg: float
    mu_bg: float
    mu_on: float
    loglik: float
    iterations: int
    converged: bool

    @property
    def separated(self) -> bool:
        """Components are far enough apart to define two histogram peaks."""
        gap = self.mu_on - self.mu_bg
        spread = math.sqrt(max(self.mu_bg, 1e-12)) + math.sqrt(max(self.mu_on, 1e-12))
        return gap > spread and 0.02 <= self.weight_bg <= 0.98

    def pmf(self, counts):
        return self.weight_bg * poisson_pmf(self.mu_bg, counts) + (
            1.0 - self.weight_bg
        ) * poisson_pmf(self.mu_on, counts)


def fit_poisson_mixture(trace: CountTrace) -> PoissonMixture:
    """Expectation-maximisation fit of a double Poissonian to the counts.

    Initialised by splitting the counts at their mean; capped at
    ``_EM_MAX_ITER`` sweeps or a relative log-likelihood change below
    ``_EM_TOL``.  Components are returned ordered, background first.
    """
    values, freq = np.unique(trace.counts, return_counts=True)
    values = values.astype(float)
    weight_total = freq.sum()
    mean = float(np.dot(values, freq) / weight_total)
    lo = values <= mean
    if lo.all() or not lo.any():
        mu1, mu2 = 0.5 * mean, 1.5 * mean + 1.0
        w = 0.5
    else:
        mu1 = float(np.dot(values[lo], freq[lo]) / freq[lo].sum())
        mu2 = float(np.dot(values[~lo], freq[~lo]) / freq[~lo].sum())
        w = float(freq[lo].sum() / weight_total)

    loglik = -np.inf
    converged = False
    iterations = 0
    for iterations in range(1, _EM_MAX_ITER + 1):
        p1 = w * poisson_pmf(mu1, values)
        p2 = (1.0 - w) * poisson_pmf(mu2, values)
        total = p1 + p2
        total = np.where(total > 0, total, 1e-300)
        new_loglik = float(np.dot(freq, np.log(total)))
        resp = p1 / total
        mass1 = float(np.dot(freq, resp))
        if mass1 <= 0 or mass1 >= weight_total:
            break
        mu1 = float(np.dot(freq * resp, values) / mass1)
        mu2 = float(np.dot(freq * (1 - resp), values) / (weight_total - mass1))
        w = mass1 / weight_total
        if abs(new_loglik - loglik) <= _EM_TOL * max(abs(new_loglik), 1.0):
            loglik = new_loglik
            converged = True
            break
        loglik = new_loglik

    if mu1 > mu2:
        mu1, mu2, w = mu2, mu1, 1.0 - w
    return PoissonMixture(
        weight_bg=w,
        mu_bg=mu1,
        mu_on=mu2,
        loglik=loglik,
        iterations=iterations,
        converged=converged,
    )


@dataclass(frozen=True)
class ThresholdRules:
    """The four threshold choices in common use, where defined.

    Rules based on two separate histogram peaks (minimum between peaks,
    midpoint of peaks) are None with a reason when the fitted mixture is
    effectively unimodal.
    """

    min_between_peaks: float | None
    bg_mean_plus_2sd: float
    bg_tail_below_one: float
    midpoint_of_peaks: float | None
    mixture: PoissonMixture
    note: str = ""


def literature_thresholds(trace: CountTrace) -> ThresholdRules:
    """Evaluate the four standard threshold rules on one trace.

    1. minimum of the fitted double-Poissonian between its two peaks;
    2. background mean plus two standard deviations;
    3. smallest count at which the background Poissonian, scaled by the
       number of intervals, drops below one expected interval (scanned
       upward from the background mode, one reading of "dips below 1");
    4. midpoint of the two component means.
    """
    mix = fit_poisson_mixture(trace)
    n = len(trace)

    rule2 = mix.mu_bg + 2.0 * math.sqrt(max(mix.mu_bg, 0.0))

    c = int(math.floor(mix.mu_bg))
    while n * poisson_pmf(mix.mu_bg, c) >= 1.0:
        c += 1
    rule3 = float(c)

    if mix.separated:
        lo = int(math.floor(mix.mu_bg))
        hi = int(math.ceil(mix.mu_on))
        grid_counts = np.arange(lo, hi + 1)
        rule1 = float(grid_counts[np.argmin(mix.pmf(grid_counts))])
        rule4 = 0.5 * (mix.mu_bg + mix.mu_on)
        note = ""
    else:
        rule1 = None
        rule4 = None
        note = "count histogram is effectively unimodal; peak-based rules unavailable"

    return ThresholdRules(
        min_between_peaks=rule1,
        bg_mean_plus_2sd=float(rule2),
        bg_tail_below_one=rule3,
        midpoint_of_peaks=rule4,
        mixture=mix,
        note=note,
    )


@dataclass(frozen=True)
class SweepRow:
    threshold: float
    bins: int
    alpha_hat: float
    beta_hat: float


@dataclass(frozen=True)
class SweepSummary:
    """Mean and spread of the estimates over a designated threshold range."""

    threshold_range: tuple[float, float]
    n_rows: int
    alpha_mean: float
    alpha_std: float
    beta_mean: float
    beta_std: float


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    summary: SweepSummary | None


def threshold_sweep(
    trace: CountTrace,
    thresholds,
    bin_counts,
    summary_range: tuple[float, float] | None = None,
) -> SweepResult:
    """Estimates over the full cross-product of thresholds and bin counts.

    Rows are ordered by (threshold, bins); configurations whose duration
    fit degenerates are recorded with NaN estimates.  When
    ``summary_range`` is given, the summary aggregates all finite rows
    whose threshold lies inside it (inclusive).  A bin count below 2 is
    an error in the request, not a degenerate fit, and raises
    ``ValueError`` before any fit runs.
    """
    bin_counts = sorted(bin_counts)
    if bin_counts and bin_counts[0] < 2:
        raise ValueError("bin_count must be >= 2")
    rows = []
    for thr in sorted(thresholds):
        states = assign_states(trace, thr)
        durations = run_durations(states)
        for bins in bin_counts:
            try:
                est = fit_switch_probs(durations, bins)
                rows.append(SweepRow(float(thr), int(bins), est.alpha_hat, est.beta_hat))
            except ValueError:
                rows.append(SweepRow(float(thr), int(bins), math.nan, math.nan))

    summary = None
    if summary_range is not None:
        lo, hi = summary_range
        picked = [
            r
            for r in rows
            if lo <= r.threshold <= hi
            and math.isfinite(r.alpha_hat)
            and math.isfinite(r.beta_hat)
        ]
        if picked:
            a = np.array([r.alpha_hat for r in picked])
            b = np.array([r.beta_hat for r in picked])
            summary = SweepSummary(
                threshold_range=(float(lo), float(hi)),
                n_rows=len(picked),
                alpha_mean=float(a.mean()),
                alpha_std=float(a.std()),
                beta_mean=float(b.mean()),
                beta_std=float(b.std()),
            )
    return SweepResult(rows=rows, summary=summary)

"""Workload definitions and the benchmark's own seeded trace generator.

Nothing here imports ``blinkinfer``: the inputs are made by this module
alone, so a change to the package's simulators cannot change what the
benchmark measures.  A workload is a plain dict; ``make_inputs`` turns a
workload and a seed into a count trace plus the hidden truth.
"""

from __future__ import annotations

import math

import numpy as np

# Axes are (name, lo, hi, n) as given to ``--grid name=lo:hi:n``.  Every
# true switching value sits exactly on a grid point.  No grid reaches a
# switching probability of 0 or 1 or a rate of 0: there the chain cannot
# mix, and the package's rescaled recursion can drop a whole hidden path
# on some traces (see FAULT_PROBE below and README.md).
WORKLOADS = {
    # Forward recursion dominates: the single-step tables are one einsum.
    "single_marg": {
        "model": "single",
        "chain": "dtmc",
        "substeps": 1,
        "truth": {"alpha": 0.8, "beta": 0.9, "lambda": 20.0, "mu": 2.0},
        "n": 10_000,
        "axes": [
            ("alpha", 0.05, 0.95, 19),
            ("beta", 0.05, 0.95, 19),
            ("lambda", 0.0, 32.0, 9),
            ("mu", 0.0, 6.0, 7),
        ],
        "fixed": {},
        "workers": 1,
        "d": None,
    },
    # Bessel/quadrature tables, the quadrature check, the fork pool and the
    # JSON writer all take a visible share.  32 lambda x 16 mu values give
    # 512 emission cells, so the engine cuts the 256 switch pairs into two
    # equal blocks of 128 pairs, one per worker.
    "ctmc_cli": {
        "model": "ctmc",
        "chain": "ctmc",
        "truth": {"r_alpha": 2.0, "r_beta": 2.0, "lambda": 20.0, "mu": 2.0},
        "n": 2000,
        "axes": [
            ("r_alpha", 0.5, 8.0, 16),
            ("r_beta", 0.5, 8.0, 16),
            ("lambda", 5.0, 36.0, 32),
            ("mu", 0.0, 7.5, 16),
        ],
        "fixed": {},
        "workers": 2,
        "d": None,
    },
    # Building tables one (switch pair, emission) cell at a time dominates.
    "multistep_free": {
        "model": "multistep",
        "chain": "dtmc",
        "substeps": 16,
        "truth": {"r_alpha": 2.0, "r_beta": 2.0, "lambda": 20.0, "mu": 2.0},
        "n": 2000,
        "axes": [
            ("r_alpha", 0.5, 4.0, 8),
            ("r_beta", 0.5, 4.0, 8),
            ("lambda", 8.0, 36.0, 8),
            ("mu", 0.5, 4.0, 8),
        ],
        "fixed": {},
        "workers": 1,
        "d": 16,
    },
    # The smoother: one full pass, then prefixes and a backward pass per
    # chunk of cells.  Emission bands overlap, so the state is not obvious
    # from a single count.
    "state_marg": {
        "model": "single",
        "chain": "dtmc",
        "substeps": 1,
        "truth": {"alpha": 0.1, "beta": 0.15, "lambda": 6.0, "mu": 4.0},
        "n": 10_000,
        "axes": [
            ("alpha", 0.01, 0.48, 48),
            ("beta", 0.01, 0.48, 48),
        ],
        "fixed": {"lambda": 6.0, "mu": 4.0},
        "workers": 1,
        "d": None,
    },
}

# A fixed input, the same for every seed, on which the package is known to
# be wrong: at alpha = beta = 1 the chain alternates, so the two hidden
# paths never meet.  The first 50 counts fit one phase and the last 100 the
# other; the rescaled recursion drops the second path while the first
# leads by more than the float range, and reports the first path's
# likelihood, about 3700 nats low.  Every round of every workload runs this
# probe once; it counts as a failed operation until the package is fixed.
FAULT_PROBE = {
    "model": "single",
    "axes": [("alpha", 0.5, 1.0, 2), ("beta", 0.5, 1.0, 2)],
    "fixed": {"lambda": 39.0, "mu": 1.0},
    "d": None,
}


def fault_probe_counts() -> np.ndarray:
    return np.array([0, 40] * 25 + [40, 0] * 50, dtype=np.int64)


# Index of each workload in the seed sequence, so that every workload draws
# from its own stream for a given --seed.
_STREAM = {name: i for i, name in enumerate(WORKLOADS)}


def axis_values(axis) -> np.ndarray:
    _, lo, hi, n = axis
    return np.linspace(lo, hi, n)


def grid_shape(wl) -> tuple[int, ...]:
    return tuple(ax[3] for ax in wl["axes"])


def params_of(wl) -> dict[str, np.ndarray]:
    """Values of all four parameters, a 1-point array for each fixed one."""
    out = {ax[0]: axis_values(ax) for ax in wl["axes"]}
    for name, value in wl["fixed"].items():
        out[name] = np.array([float(value)])
    return out


def switch_names(wl) -> tuple[str, str]:
    return ("alpha", "beta") if wl["model"] == "single" else ("r_alpha", "r_beta")


def true_index(wl) -> tuple[int, ...]:
    """Grid index of the cell nearest the truth, over the free axes."""
    return tuple(
        int(np.argmin(np.abs(axis_values(ax) - wl["truth"][ax[0]])))
        for ax in wl["axes"]
    )


def make_inputs(name: str, seed: int) -> dict:
    """Trace and hidden truth of workload ``name`` for ``seed``.

    Returns ``counts`` (N,), ``states`` (N+1,) at interval boundaries and
    ``on_fraction`` (N,).  Counts are Poisson at mu + lambda * on_fraction.
    """
    wl = WORKLOADS[name]
    rng = np.random.default_rng([int(seed), _STREAM[name]])
    t = wl["truth"]
    if wl["chain"] == "dtmc":
        d = wl["substeps"]
        if wl["model"] == "single":
            p_on, p_off = t["alpha"], t["beta"]
        else:
            p_on = -math.expm1(-t["r_alpha"] / d)
            p_off = -math.expm1(-t["r_beta"] / d)
        states, frac = _dtmc_path(rng, p_on, p_off, wl["n"], d)
    else:
        states, frac = _ctmc_path(rng, t["r_alpha"], t["r_beta"], wl["n"])
    counts = rng.poisson(t["mu"] + t["lambda"] * frac)
    return {"counts": counts.astype(np.int64), "states": states, "on_fraction": frac}


def _dtmc_path(rng, p_on, p_off, n, d):
    """Two-state chain flipping only at the d sub-step boundaries per interval.

    ``p_on`` is the off-to-on and ``p_off`` the on-to-off probability per
    sub-step; the first state is drawn from the stationary law.
    """
    steps = n * d
    u = rng.random(steps + 1)
    sub = np.empty(steps + 1, dtype=np.int64)
    sub[0] = int(u[0] < p_on / (p_on + p_off))
    s = sub[0]
    for k in range(1, steps + 1):
        if s == 0:
            s = int(u[k] < p_on)
        else:
            s = int(u[k] >= p_off)
        sub[k] = s
    # a sub-step emits at the rate of the state at its start
    frac = sub[:-1].reshape(n, d).mean(axis=1)
    return sub[::d].copy(), frac


def _ctmc_path(rng, r_on, r_off, n):
    """Continuous-time chain with exponential holding times over [0, n]."""
    state0 = int(rng.random() < r_on / (r_on + r_off))
    times = [0.0]
    s = state0
    while times[-1] < n:
        times.append(times[-1] + rng.exponential(1.0 / (r_on if s == 0 else r_off)))
        s = 1 - s
    knots = np.asarray(times)
    seg_state = (state0 + np.arange(knots.size - 1)) % 2
    on_time = np.concatenate([[0.0], np.cumsum(np.diff(knots) * seg_state)])
    boundaries = np.arange(n + 1, dtype=float)
    cum_on = np.interp(boundaries, knots, on_time)
    frac = np.clip(np.diff(cum_on), 0.0, 1.0)
    seg = np.searchsorted(knots, boundaries, side="right") - 1
    states = (state0 + seg) % 2
    return states.astype(np.int64), frac


def write_trace_csv(path, counts) -> None:
    """Trace CSV as the package reads it: header ``t,count``, 1-based t."""
    lines = ["t,count"]
    lines.extend(f"{t},{int(c)}" for t, c in enumerate(counts, start=1))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

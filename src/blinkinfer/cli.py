"""Command-line surface and the file formats it reads and writes.

Subcommands: ``simulate`` (trace + ground-truth CSVs), ``infer`` (posterior
JSON), ``infer-state`` (per-interval on-probability CSV), and ``threshold``
(sweep table CSV).  Model parameters are passed as ``--fix name=value`` and
free inference axes as ``--grid name=lo:hi:n``.

Every command is deterministic given its arguments: reruns produce
byte-identical files, and inference output does not depend on ``--workers``.
Floats are serialised with Python's shortest round-trip repr, so loading a
file and re-serialising it reproduces the bytes exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .ctmc import QuadratureSpec
from .kernels import (
    CountTrace,
    EmissionRates,
    SwitchProbs,
    SwitchRates,
    probs_from_rates,
)
from .multistep import choose_subinterval_count
from .posterior import _MODELS, GridAxis, GridSpec, credible_regions, evaluate_grid
from .simulate import sim_ctmc, sim_dtmc_multi, sim_dtmc_single
from .state_inference import state_posterior_marginal
from .threshold import literature_thresholds, threshold_sweep

__all__ = [
    "RunConfig",
    "main",
    "cmd_simulate",
    "cmd_infer",
    "cmd_infer_state",
    "cmd_threshold",
    "read_trace_csv",
    "write_trace_csv",
    "write_posterior_json",
    "read_posterior_json",
]

POSTERIOR_FORMAT_VERSION = 1


@dataclass
class RunConfig:
    """Validated bundle of one command's options."""

    command: str
    model: str | None = None
    grid: GridSpec | None = None
    fixed: dict[str, float] = field(default_factory=dict)
    d: int | None = None
    quad_nodes: int | None = None
    seed: int = 0
    n: int | None = None
    workers: int = 1
    levels: tuple[float, ...] = (0.5, 0.9, 0.99)
    in_path: str | None = None
    out_path: str | None = None
    truth_path: str | None = None
    thresholds: tuple[int, ...] = ()
    bins: tuple[int, ...] = ()
    summary_range: tuple[float, float] | None = None

    def __post_init__(self):
        if self.model is not None and self.model not in _MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.d is not None and self.model != "multistep":
            raise ValueError("--d applies only to the multistep model")
        if self.quad_nodes is not None and self.model != "ctmc":
            raise ValueError("--quad-nodes applies only to the ctmc model")
        if not all(0.0 < level < 1.0 for level in self.levels):
            raise ValueError("credible levels must be inside (0, 1)")


# ---------------------------------------------------------------------------
# file formats


def write_trace_csv(path: str, trace: CountTrace) -> None:
    """Trace CSV: header ``t,count``, 1-based interval index, integer counts."""
    with open(path, "w") as fh:
        fh.write("t,count\n")
        for t, c in enumerate(trace.counts, start=1):
            fh.write(f"{t},{int(c)}\n")


def read_trace_csv(path: str) -> CountTrace:
    """Counts of a trace CSV.

    After the header ``t,count``, every non-blank row holds exactly two
    integers ``t,count``, with t = 1, 2, ... in order.  Raises
    ``ValueError`` naming the file and the first line that breaks this.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,count":
            raise ValueError(f"{path}: expected header 't,count', got {header!r}")
        counts = []
        for number, line in enumerate(fh, start=2):
            if line.isspace():
                continue
            try:
                t, count = map(int, line.split(","))
            except ValueError:
                count = None
            if count is None or not -(2**63) <= count < 2**63:
                raise ValueError(
                    f"{path}, line {number}: expected 't,count' with an "
                    f"integer count, got {line.strip()!r}"
                )
            if t != len(counts) + 1:
                raise ValueError(
                    f"{path}, line {number}: expected t = {len(counts) + 1}, got {line.strip()!r}"
                )
            counts.append(count)
    return CountTrace(np.asarray(counts, dtype=np.int64))


def write_truth_csv(path: str, result) -> None:
    """Ground truth CSV: ``t,state,on_fraction``; state at the interval start."""
    with open(path, "w") as fh:
        fh.write("t,state,on_fraction\n")
        for t in range(len(result.trace)):
            fh.write(
                f"{t + 1},{int(result.boundary_states[t])},"
                f"{repr(float(result.on_fractions[t]))}\n"
            )


def write_state_csv(path: str, p_on) -> None:
    with open(path, "w") as fh:
        fh.write("t,p_on\n")
        for t, p in enumerate(p_on, start=1):
            fh.write(f"{t},{repr(float(p))}\n")


def _json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def write_posterior_json(path: str, posterior, levels) -> None:
    """Posterior JSON: axes metadata, row-major log-posterior, marginals,
    mode, and HPD thresholds on the switch-parameter marginal."""
    spec = posterior.spec
    doc = {
        "format_version": POSTERIOR_FORMAT_VERSION,
        "model": posterior.model,
        "d": posterior.d,
        "axes": [
            {"name": ax.name, "lo": ax.lo, "hi": ax.hi, "n": ax.n,
             "values": ax.values.tolist()}
            for ax in spec.axes
        ],
        "fixed": {k: float(v) for k, v in sorted(spec.fixed.items())},
        "log_posterior": posterior.log_post.ravel().tolist(),
        "marginals": {k: v.tolist() for k, v in posterior.marginals.items()},
        "mode": {
            name: float(value)
            for name, value in zip(spec.free_names, posterior.mode)
        },
        "mode_index": list(posterior.mode_index),
    }
    if len(posterior.switch_names) == 2:
        marginal = posterior.switch_marginal()
        regions = credible_regions(marginal, levels)
        doc["switch_marginal"] = {
            "axes": list(posterior.switch_names),
            "shape": list(marginal.shape),
            "values": marginal.ravel().tolist(),
        }
        doc["hpd"] = [
            {
                "level": r.level,
                "threshold": r.threshold,
                "contained_mass": r.contained_mass,
            }
            for r in regions
        ]
    with open(path, "wb") as fh:
        fh.write(_json_bytes(doc))


def read_posterior_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_threshold_csv(path: str, rules, sweep) -> None:
    """Sweep CSV with the literature thresholds and summary as comment lines."""
    with open(path, "w") as fh:
        fmt = lambda v: "" if v is None else repr(float(v))
        fh.write(f"# min_between_peaks={fmt(rules.min_between_peaks)}\n")
        fh.write(f"# bg_mean_plus_2sd={fmt(rules.bg_mean_plus_2sd)}\n")
        fh.write(f"# bg_tail_below_one={fmt(rules.bg_tail_below_one)}\n")
        fh.write(f"# midpoint_of_peaks={fmt(rules.midpoint_of_peaks)}\n")
        if rules.note:
            fh.write(f"# note={rules.note}\n")
        if sweep.summary is not None:
            s = sweep.summary
            fh.write(
                f"# summary_range={s.threshold_range[0]:g}:{s.threshold_range[1]:g}"
                f" rows={s.n_rows}"
                f" alpha_mean={repr(s.alpha_mean)} alpha_std={repr(s.alpha_std)}"
                f" beta_mean={repr(s.beta_mean)} beta_std={repr(s.beta_std)}\n"
            )
        fh.write("threshold,bins,alpha_hat,beta_hat\n")
        for row in sweep.rows:
            fh.write(
                f"{row.threshold:g},{row.bins},"
                f"{repr(row.alpha_hat)},{repr(row.beta_hat)}\n"
            )


# ---------------------------------------------------------------------------
# commands


def _require_fixed(cfg: RunConfig, names) -> list[float]:
    missing = [n for n in names if n not in cfg.fixed]
    if missing:
        raise ValueError(
            f"{cfg.command} with model {cfg.model} needs --fix for {missing}"
        )
    return [cfg.fixed[n] for n in names]


def cmd_simulate(cfg: RunConfig) -> None:
    """Write a simulated trace CSV and its ground-truth CSV; print the seed."""
    if cfg.n is None or cfg.n < 1:
        raise ValueError("simulate needs --n >= 1")
    if cfg.out_path is None:
        raise ValueError("simulate needs --out")
    mu, lam = _require_fixed(cfg, ("mu", "lambda"))
    emissions = EmissionRates(mu=mu, lam=lam)
    a, b = _require_fixed(cfg, _MODELS[cfg.model])
    if cfg.model == "single":
        result = sim_dtmc_single(SwitchProbs(a, b, 1), emissions, cfg.n, seed=cfg.seed)
    elif cfg.model == "ctmc":
        result = sim_ctmc(SwitchRates(a, b), emissions, cfg.n, seed=cfg.seed)
    else:
        d = cfg.d if cfg.d is not None else choose_subinterval_count(a, b)
        probs = probs_from_rates(SwitchRates(a, b), d)
        result = sim_dtmc_multi(probs, emissions, cfg.n, seed=cfg.seed)
        print(f"d: {d}")
    write_trace_csv(cfg.out_path, result.trace)
    truth_path = cfg.truth_path or _default_truth_path(cfg.out_path)
    write_truth_csv(truth_path, result)
    print(f"seed: {cfg.seed}")
    print(f"trace: {cfg.out_path}")
    print(f"truth: {truth_path}")


def _default_truth_path(out_path: str) -> str:
    stem, dot, ext = out_path.rpartition(".")
    return f"{stem}.truth.{ext}" if dot else f"{out_path}.truth"


def _read_input(cfg: RunConfig) -> CountTrace:
    if cfg.in_path is None or cfg.out_path is None:
        raise ValueError(f"{cfg.command} needs --in and --out")
    return read_trace_csv(cfg.in_path)


def _model_options(cfg: RunConfig) -> dict:
    """The ``quad`` and ``d`` keywords of the engine, from the options."""
    quad = QuadratureSpec(cfg.quad_nodes) if cfg.quad_nodes is not None else None
    return {"quad": quad, "d": cfg.d}


def cmd_infer(cfg: RunConfig) -> None:
    """Run the grid posterior on a trace file and write the posterior JSON."""
    trace = _read_input(cfg)
    posterior = evaluate_grid(
        trace, cfg.model, cfg.grid, workers=cfg.workers, **_model_options(cfg)
    )
    if cfg.model == "multistep":
        print(f"d: {posterior.d}")
    write_posterior_json(cfg.out_path, posterior, cfg.levels)
    mode_str = ", ".join(
        f"{name}={value:g}"
        for name, value in zip(posterior.spec.free_names, posterior.mode)
    )
    print(f"mode: {mode_str}")
    print(f"posterior: {cfg.out_path}")


def cmd_infer_state(cfg: RunConfig) -> None:
    """Per-interval on-state probabilities from the whole trace, under any
    model; a grid of fixed values gives known-parameter smoothing."""
    trace = _read_input(cfg)
    state_post = state_posterior_marginal(
        trace, cfg.grid, model=cfg.model, **_model_options(cfg)
    )
    if cfg.model == "multistep":
        print(f"d: {state_post.context['d']}")
    write_state_csv(cfg.out_path, state_post.p_on)
    print(f"states: {cfg.out_path}")


def cmd_threshold(cfg: RunConfig) -> None:
    """Threshold sweep plus the four standard threshold rules, as CSV."""
    if not cfg.thresholds or not cfg.bins:
        raise ValueError("threshold needs --thresholds and --bins")
    trace = _read_input(cfg)
    rules = literature_thresholds(trace)
    sweep = threshold_sweep(
        trace, cfg.thresholds, cfg.bins, summary_range=cfg.summary_range
    )
    write_threshold_csv(cfg.out_path, rules, sweep)
    print(f"sweep: {cfg.out_path}")


# ---------------------------------------------------------------------------
# argument parsing


def _parse_grid(value: str) -> GridAxis:
    try:
        name, spec = value.split("=", 1)
        lo, hi, n = spec.split(":")
        return GridAxis(name=name, lo=float(lo), hi=float(hi), n=int(n))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected name=lo:hi:n, got {value!r} ({exc})"
        ) from None


def _parse_fix(value: str):
    try:
        name, raw = value.split("=", 1)
        return name, float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected name=value, got {value!r}") from None


def _parse_int_range(value: str) -> tuple[int, ...]:
    if ":" in value:
        lo, hi = value.split(":")
        values = tuple(range(int(lo), int(hi) + 1))
        if not values:
            raise argparse.ArgumentTypeError(f"empty range {value!r}: lo must not exceed hi")
        return values
    return (int(value),)


def _parse_float_pair(value: str) -> tuple[float, float]:
    lo, hi = value.split(":")
    return float(lo), float(hi)


def _parse_levels(value: str) -> tuple[float, ...]:
    return tuple(float(part) for part in value.split(","))


def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes only the flags it reads; any other exits 2."""
    parser = argparse.ArgumentParser(
        prog="blinkinfer",
        description="Bayesian switching-rate inference for blinking emitters",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser("simulate", help="generate a trace and its ground truth")
    p_inf = sub.add_parser("infer", help="grid posterior over switching parameters")
    p_st = sub.add_parser("infer-state", help="per-interval state probabilities")
    p_th = sub.add_parser("threshold", help="threshold-analysis baseline sweep")

    def flag(parsers, *names, **options):
        for p in parsers:
            p.add_argument(*names, **options)

    modelled, inferring = (p_sim, p_inf, p_st), (p_inf, p_st)
    flag(modelled, "--model", required=True, choices=tuple(_MODELS))
    flag(inferring, "--grid", action="append", type=_parse_grid, default=[],
         metavar="NAME=LO:HI:N")
    flag(modelled, "--fix", action="append", type=_parse_fix, default=[],
         metavar="NAME=VALUE")
    flag(modelled, "--d", type=int, default=None)
    flag(inferring, "--quad-nodes", type=int, default=None)
    flag((p_inf, p_st, p_th), "--in", dest="in_path", default=None)
    flag((p_sim, p_inf, p_st, p_th), "--out", dest="out_path", default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--truth-out", dest="truth_path", default=None)
    p_inf.add_argument("--workers", type=int, default=1)
    p_inf.add_argument("--levels", type=_parse_levels, default=(0.5, 0.9, 0.99))
    p_th.add_argument("--thresholds", type=_parse_int_range, default=())
    p_th.add_argument("--bins", type=_parse_int_range, default=())
    p_th.add_argument("--summary", type=_parse_float_pair, default=None,
                      dest="summary_range", metavar="LO:HI")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    options = dict(vars(args))
    axes = options.pop("grid", None)
    fixed = dict(options.pop("fix", []))
    # simulate has no --grid, but its --fix values pass the same checks
    grid = GridSpec(axes=tuple(axes or ()), fixed=fixed)
    return RunConfig(grid=grid, fixed=fixed, **options)


_COMMANDS = {
    "simulate": cmd_simulate,
    "infer": cmd_infer,
    "infer-state": cmd_infer_state,
    "threshold": cmd_threshold,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _COMMANDS[cfg.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

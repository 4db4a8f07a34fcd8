"""Command-line surface and the file formats it reads and writes.

Subcommands: ``simulate`` (trace + ground-truth CSVs), ``infer`` (posterior
JSON), ``infer-state`` (per-interval on-probability CSV), and ``threshold``
(sweep table CSV).  Model parameters are passed as ``--fix name=value`` and
free inference axes as ``--grid name=lo:hi:n``.

Each command reads the parsed argparse namespace, checked before any file
is read by the library's own rules (``GridSpec``, and ``posterior``'s
``_check_model_options`` and ``_check_levels``): a misuse exits 1 with the
library's message.  Malformed values, unknown flags and a missing
required flag exit 2.

Every command is deterministic given its arguments: reruns produce
byte-identical files, and inference output does not depend on ``--workers``.
Floats are serialised with Python's shortest round-trip repr, so loading a
file and re-serialising it reproduces the bytes exactly.  Neither the
trace reader nor the two writers of inference output make a Python call
per row or per float: a canonical trace CSV is parsed in one numpy pass
(numpy only, so ``threshold`` never loads the compiled library), the
compiled ``repr_doubles`` writes the floats of the posterior JSON a chunk
of each array at a time, straight to the file, and the compiled
``repr_rows`` writes the state CSV's rows, each with the bytes of
``f"{t},{p!r}\n"``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

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
from .posterior import (
    _MODELS,
    GridAxis,
    GridSpec,
    LibraryError,
    _check_levels,
    _check_model_options,
    _forward_kernel,
    credible_regions,
    evaluate_grid,
)
from .simulate import sim_ctmc, sim_dtmc_multi
from .state_inference import state_posterior_marginal
from .threshold import literature_thresholds, threshold_sweep

__all__ = [
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
_WRITE_CHUNK = 1 << 15  # floats formatted per call of the compiled writers


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
    A canonical file (see ``_canonical_counts``) is parsed in one numpy
    pass; any other goes through ``_read_rows``, one line at a time.
    """
    with open(path, "rb", buffering=0) as fh:
        counts = _canonical_counts(fh)
    if counts is None:
        counts = _read_rows(path)
    return CountTrace(np.asarray(counts, dtype=np.int64))


def _canonical_counts(fh):
    """The counts of the binary file ``fh``, with no Python call per row,
    or None where the file is not canonical: the header ``t,count`` and
    rows ``t,count``, each field 1 to 18 ASCII digits with no leading zero,
    each row ending in ``\n``, and t = 1, 2, ..., N.

    ``np.fromstring`` saturates a value beyond int64, and at a token it
    cannot read it stops or raises, by numpy version.  So the bytes are
    checked before it parses them, and what it returns after: 2N values,
    t = 1..N, and counts below 10^18.  Every check is a bytes method or a
    numpy pass, and none holds more than a few copies of the file.
    """
    if fh.read(8) != b"t,count\n":
        return None
    body = fh.read()
    rows = body.count(b"\n")
    if (
        not body.endswith(b"\n")
        or body.translate(None, b"0123456789,\n")
        or body.translate(None, b"0123456789") != b",\n" * rows
    ):
        return None
    text = body.replace(b"\n", b",")
    del body
    # no field is empty, and none starts with 0 unless it is the digit 0
    if (
        text.startswith((b",", b"0"))
        or b",," in text
        or text.count(b",0") != text.count(b",0,")
    ):
        return None
    values = np.fromstring(text, dtype=np.int64, sep=",")
    del text
    counts = values[1::2]
    if (
        values.size != 2 * rows
        or not np.array_equal(values[::2], np.arange(1, rows + 1))
        or counts.max() >= 10**18
    ):
        return None
    return counts


def _read_rows(path: str) -> list[int]:
    """The counts of a trace CSV, read one line at a time: accepts blank
    lines, spaces around values, any line ending, and any integer
    ``int`` reads, and raises ``ValueError`` at the first bad line."""
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
    return counts


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
    """State CSV: header ``t,p_on``, 1-based boundary index, p_on's repr."""
    with open(path, "wb") as fh:
        fh.write(b"t,p_on\n")
        for lo in range(0, len(p_on), _WRITE_CHUNK):
            fh.write(_state_rows(p_on[lo : lo + _WRITE_CHUNK], lo + 1))


@functools.cache
def _pow5_tables():
    """The powers of five that ``repr_doubles`` reads, as (low, high) words
    of exact integers: 5^i scaled to 125 bits, truncated, for i < 326, and
    floor(2^(bits(5^i) + 124) / 5^i) + 1 for i < 342."""
    powers = [5**i for i in range(342)]
    pow5 = [(p << 125) >> p.bit_length() for p in powers[:326]]
    pow5_inv = [(1 << (p.bit_length() + 124)) // p + 1 for p in powers]
    return tuple(
        np.array([(v & (2**64 - 1), v >> 64) for v in table], dtype=np.uint64)
        for table in (pow5, pow5_inv)
    )


def _reprs(values, sep: bytes, as_json: bool = False) -> bytes:
    """``repr`` of each float in ``values``, joined by the one byte ``sep``;
    with ``as_json``, non-finite values are spelled as ``json.dumps`` spells
    them.  Written by the compiled library's ``repr_doubles``."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    out = np.empty(25 * x.size, dtype=np.uint8)
    size = _forward_kernel().repr_doubles(
        x.size, x, ord(sep), as_json, *_pow5_tables(), out
    )
    return out[:size].tobytes()


def _state_rows(p_on, first: int) -> bytes:
    """The state CSV rows ``t,repr(p)``, each ending in a newline, of the
    values ``p_on`` with t counting up from ``first``.  Written by the
    compiled library's ``repr_rows``."""
    x = np.ascontiguousarray(p_on, dtype=np.float64).ravel()
    out = np.empty(46 * x.size, dtype=np.uint8)
    size = _forward_kernel().repr_rows(x.size, x, first, *_pow5_tables(), out)
    return out[:size].tobytes()


def _json_parts(obj):
    """The bytes of ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
    in pieces, where ``obj`` may hold 1-d float arrays as well as JSON
    values: float arrays and float scalars are written by ``_reprs``, with
    no Python call per float and ``_WRITE_CHUNK`` floats per piece, and
    every other leaf by ``json.dumps``."""
    if isinstance(obj, dict):
        yield b"{"
        for i, key in enumerate(sorted(obj)):
            yield (b"," if i else b"") + json.dumps(key).encode() + b":"
            yield from _json_parts(obj[key])
        yield b"}"
    elif isinstance(obj, list):
        yield b"["
        for i, item in enumerate(obj):
            if i:
                yield b","
            yield from _json_parts(item)
        yield b"]"
    elif isinstance(obj, np.ndarray):
        x = obj.ravel()
        yield b"["
        for lo in range(0, x.size, _WRITE_CHUNK):
            if lo:
                yield b","
            yield _reprs(x[lo : lo + _WRITE_CHUNK], b",", as_json=True)
        yield b"]"
    elif isinstance(obj, float):
        yield _reprs(obj, b",", as_json=True)
    else:
        yield json.dumps(obj).encode()


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
             "values": ax.values}
            for ax in spec.axes
        ],
        "fixed": {k: float(v) for k, v in sorted(spec.fixed.items())},
        "log_posterior": posterior.log_post.ravel(),
        "marginals": posterior.marginals,
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
            "values": marginal.ravel(),
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
        fh.writelines(_json_parts(doc))
        fh.write(b"\n")


def read_posterior_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _g(value):
    """``value`` as ``:g`` writes it where that reads back as the same
    float, else as its shortest round-trip ``repr``."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


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
                f"# summary_range={_g(s.threshold_range[0])}:{_g(s.threshold_range[1])}"
                f" rows={s.n_rows}"
                f" alpha_mean={repr(s.alpha_mean)} alpha_std={repr(s.alpha_std)}"
                f" beta_mean={repr(s.beta_mean)} beta_std={repr(s.beta_std)}\n"
            )
        fh.write("threshold,bins,alpha_hat,beta_hat\n")
        for row in sweep.rows:
            fh.write(
                f"{_g(row.threshold)},{row.bins},"
                f"{repr(row.alpha_hat)},{repr(row.beta_hat)}\n"
            )


# ---------------------------------------------------------------------------
# commands


def _require_fixed(cfg: argparse.Namespace, names) -> list[float]:
    fixed = cfg.grid.fixed
    missing = [n for n in names if n not in fixed]
    if missing:
        raise ValueError(
            f"{cfg.command} with model {cfg.model} needs --fix for {missing}"
        )
    return [fixed[n] for n in names]


def cmd_simulate(cfg: argparse.Namespace) -> None:
    """Write a simulated trace CSV and its ground-truth CSV; print the seed."""
    mu, lam = _require_fixed(cfg, ("mu", "lambda"))
    emissions = EmissionRates(mu=mu, lam=lam)
    a, b = _require_fixed(cfg, _MODELS[cfg.model])
    if cfg.model == "ctmc":
        result = sim_ctmc(SwitchRates(a, b), emissions, cfg.n, seed=cfg.seed)
    else:
        if cfg.model == "single":
            probs = SwitchProbs(a, b, 1)
        else:
            d = cfg.d if cfg.d is not None else choose_subinterval_count(a, b)
            probs = probs_from_rates(SwitchRates(a, b), d)
        result = sim_dtmc_multi(probs, emissions, cfg.n, seed=cfg.seed)
    if cfg.model == "multistep":
        print(f"d: {probs.d}")
    write_trace_csv(cfg.out_path, result.trace)
    truth_path = cfg.truth_path or _default_truth_path(cfg.out_path)
    write_truth_csv(truth_path, result)
    print(f"seed: {cfg.seed}")
    print(f"trace: {cfg.out_path}")
    print(f"truth: {truth_path}")


def _default_truth_path(out_path: str) -> str:
    stem, dot, ext = out_path.rpartition(".")
    return f"{stem}.truth.{ext}" if dot else f"{out_path}.truth"


def cmd_infer(cfg: argparse.Namespace) -> None:
    """Run the grid posterior on a trace file and write the posterior JSON."""
    trace = read_trace_csv(cfg.in_path)
    posterior = evaluate_grid(
        trace, cfg.model, cfg.grid, quad=cfg.quad, d=cfg.d, workers=cfg.workers
    )
    if cfg.model == "multistep":
        print(f"d: {posterior.d}")
    write_posterior_json(cfg.out_path, posterior, cfg.levels)
    mode_str = ", ".join(
        f"{name}={_g(value)}"
        for name, value in zip(posterior.spec.free_names, posterior.mode)
    )
    print(f"mode: {mode_str}")
    print(f"posterior: {cfg.out_path}")


def cmd_infer_state(cfg: argparse.Namespace) -> None:
    """Per-interval on-state probabilities from the whole trace, under any
    model; a grid of fixed values gives known-parameter smoothing."""
    trace = read_trace_csv(cfg.in_path)
    state_post = state_posterior_marginal(
        trace, cfg.grid, model=cfg.model, quad=cfg.quad, d=cfg.d
    )
    if cfg.model == "multistep":
        print(f"d: {state_post.context['d']}")
    write_state_csv(cfg.out_path, state_post.p_on)
    print(f"states: {cfg.out_path}")


def cmd_threshold(cfg: argparse.Namespace) -> None:
    """Threshold sweep plus the four standard threshold rules, as CSV."""
    trace = read_trace_csv(cfg.in_path)
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
    lo, hi = map(float, value.split(":"))
    if not lo <= hi:  # also false where either bound is NaN
        raise argparse.ArgumentTypeError(
            f"empty range {value!r}: lo must not exceed hi, and neither may be NaN"
        )
    return lo, hi


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
    flag(modelled, "--d", type=int)
    flag(inferring, "--quad-nodes", type=int)
    flag((p_inf, p_st, p_th), "--in", dest="in_path", required=True)
    flag((p_sim, p_inf, p_st, p_th), "--out", dest="out_path", required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--truth-out", dest="truth_path")
    p_inf.add_argument("--workers", type=int, default=1)
    p_inf.add_argument("--levels", type=_parse_levels, default=(0.5, 0.9, 0.99))
    p_th.add_argument("--thresholds", type=_parse_int_range, required=True)
    p_th.add_argument("--bins", type=_parse_int_range, required=True)
    p_th.add_argument("--summary", type=_parse_float_pair, dest="summary_range",
                      metavar="LO:HI")
    return parser


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """``args``, checked by the library's own rules.  A command that takes
    --model gains ``grid``, the GridSpec of its --grid axes and --fix values
    (simulate has no --grid, but its --fix values pass the same checks), and
    ``quad``, the QuadratureSpec of --quad-nodes or None."""
    if "model" in args:
        args.grid = GridSpec(axes=tuple(getattr(args, "grid", ())), fixed=dict(args.fix))
        nodes = getattr(args, "quad_nodes", None)
        args.quad = None if nodes is None else QuadratureSpec(nodes)
        _check_model_options(args.model, args.quad, args.d)
    if "levels" in args:
        _check_levels(args.levels)
    return args


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
    except (ValueError, OSError, LibraryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

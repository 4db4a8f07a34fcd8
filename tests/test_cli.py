import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blinkinfer.cli as cli
from blinkinfer.cli import main, read_posterior_json, read_trace_csv
from blinkinfer.ctmc import QuadratureSpec
from blinkinfer.kernels import CountTrace
from blinkinfer.multistep import choose_subinterval_count
from blinkinfer.posterior import _MODELS, GridAxis, GridSpec, _check_levels, _check_model_options
from blinkinfer.state_inference import state_posterior_marginal


def run(argv):
    return main(argv)


@pytest.fixture
def trace_file(tmp_path):
    out = tmp_path / "trace.csv"
    code = run(
        [
            "simulate", "--model", "single",
            "--fix", "alpha=0.8", "--fix", "beta=0.9",
            "--fix", "lambda=20", "--fix", "mu=2",
            "--n", "300", "--seed", "7", "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestSimulate:
    def test_writes_trace_and_truth(self, trace_file, tmp_path):
        trace = read_trace_csv(trace_file)
        assert len(trace) == 300
        truth = (tmp_path / "trace.truth.csv").read_text().splitlines()
        assert truth[0] == "t,state,on_fraction"
        assert len(truth) == 301

    def test_same_seed_identical_files(self, tmp_path):
        args = [
            "simulate", "--model", "ctmc",
            "--fix", "r_alpha=1", "--fix", "r_beta=0.5",
            "--fix", "lambda=20", "--fix", "mu=2",
            "--n", "100", "--seed", "3",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_length_rejected(self, tmp_path, capsys):
        code = run(
            [
                "simulate", "--model", "single",
                "--fix", "alpha=0.1", "--fix", "beta=0.1",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--n", "0", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_parameters_rejected(self, tmp_path):
        code = run(
            [
                "simulate", "--model", "single",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--n", "10", "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1

    def test_zero_d_rejected(self, tmp_path, capsys):
        # d = 0 is a value, not "unset": no d is chosen in its place
        out = tmp_path / "x.csv"
        code = run(
            [
                "simulate", "--model", "multistep",
                "--fix", "r_alpha=1", "--fix", "r_beta=1",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--d", "0", "--n", "10", "--out", str(out),
            ]
        )
        assert code == 1
        assert "error: d must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, fixed, message",
        [
            ("multistep", "r_alpha=inf r_beta=0.5 lambda=5 mu=1", "fixed r_alpha must be finite"),
            ("ctmc", "r_alpha=1 r_beta=nan lambda=5 mu=1", "fixed r_beta must be finite"),
            ("single", "alpha=0.1 beta=1.5 lambda=5 mu=1", "fixed beta must lie in [0, 1]"),
            ("single", "alpha=0.1 beta=0.1 lambda=-2 mu=1", "fixed lambda must be non-negative"),
        ],
        ids=["multistep-inf", "ctmc-nan", "single-above-one", "single-negative"],
    )
    def test_bad_fixed_value_rejected(self, tmp_path, capsys, model, fixed, message):
        # the checks of GridSpec, as for infer, before anything is drawn
        out = tmp_path / "x.csv"
        options = [f"--fix={value}" for value in fixed.split()]
        code = run(["simulate", "--model", model, *options, "--n", "10", "--out", str(out)])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


    def test_overflowing_rate_product_rejected(self, tmp_path, capsys):
        # r_alpha * r_beta overflows to inf, so no d meets the rule
        out = tmp_path / "x.csv"
        code = run(
            [
                "simulate", "--model", "multistep",
                "--fix", "r_alpha=1e200", "--fix", "r_beta=1e200",
                "--fix", "lambda=5", "--fix", "mu=1",
                "--n", "10", "--out", str(out),
            ]
        )
        assert code == 1
        assert "error: switching rate product" in capsys.readouterr().err
        assert not out.exists()


class TestInfer:
    def test_known_emissions_two_free_axes(self, trace_file, tmp_path):
        out = tmp_path / "post.json"
        code = run(
            [
                "infer", "--in", str(trace_file), "--model", "single",
                "--grid", "alpha=0.4:1:15", "--grid", "beta=0.5:1:15",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = read_posterior_json(out)
        assert doc["format_version"] == 1
        assert [ax["name"] for ax in doc["axes"]] == ["alpha", "beta"]
        assert len(doc["log_posterior"]) == 225
        assert set(doc["marginals"]) == {"alpha", "beta"}
        assert abs(doc["mode"]["alpha"] - 0.8) < 0.15
        levels = [entry["level"] for entry in doc["hpd"]]
        assert levels == [0.5, 0.9, 0.99]

    def test_round_trip_bytes(self, trace_file, tmp_path):
        out = tmp_path / "post.json"
        run(
            [
                "infer", "--in", str(trace_file), "--model", "single",
                "--grid", "alpha=0.4:1:8", "--grid", "beta=0.5:1:8",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--out", str(out),
            ]
        )
        raw = out.read_bytes()
        doc = json.loads(raw)
        again = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
        assert raw == again

    def test_negative_infinity_round_trip(self, trace_file, tmp_path, monkeypatch):
        # lambda = mu = 0 gives every nonzero count zero likelihood
        args = [
            "infer", "--in", str(trace_file), "--model", "single",
            "--grid", "alpha=0.1:0.9:3", "--grid", "beta=0.1:0.9:3",
            "--grid", "lambda=0:6:3", "--grid", "mu=0:2:3",
        ]
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        assert run(args + ["--out", str(new)]) == 0
        # the writer the compiled formatter replaced: json.dumps of plain lists
        monkeypatch.setattr(
            cli,
            "_json_parts",
            lambda doc: [
                json.dumps(doc, sort_keys=True, separators=(",", ":"),
                           default=np.ndarray.tolist).encode()
            ],
        )
        assert run(args + ["--out", str(old)]) == 0
        raw = new.read_bytes()
        assert raw == old.read_bytes()
        doc = read_posterior_json(new)
        assert doc["log_posterior"].count(-np.inf) == 9
        assert b"-Infinity" in raw
        again = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
        assert raw == again

    def test_rerun_identical_bytes(self, trace_file, tmp_path):
        args = [
            "infer", "--in", str(trace_file), "--model", "single",
            "--grid", "alpha=0.4:1:8", "--grid", "beta=0.5:1:8",
            "--fix", "lambda=20", "--fix", "mu=2",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_multistep_reports_chosen_d(self, tmp_path, capsys):
        tr = tmp_path / "t.csv"
        run(
            [
                "simulate", "--model", "ctmc",
                "--fix", "r_alpha=2", "--fix", "r_beta=2",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--n", "150", "--seed", "5", "--out", str(tr),
            ]
        )
        capsys.readouterr()
        out = tmp_path / "post.json"
        code = run(
            [
                "infer", "--in", str(tr), "--model", "multistep",
                "--grid", "r_alpha=0.5:4:6", "--grid", "r_beta=0.5:4:6",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--out", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        # largest grid rates are (4, 4): product 16 needs 0.1 * 2^(2m) > 16,
        # first m is 4, so d = 16
        assert "d: 16" in stdout
        assert read_posterior_json(out)["d"] == 16

    def test_mode_prints_values_that_read_back(self, tmp_path, capsys):
        # every count is 1500001 and mu is 0, so the mode is lambda=1500001,
        # which :g alone would print as 1.5e+06; its repr reads back
        tr = tmp_path / "t.csv"
        tr.write_text("t,count\n" + "".join(f"{t},1500001\n" for t in range(1, 6)))
        code = run(
            [
                "infer", "--in", str(tr), "--model", "single",
                "--grid", "lambda=1500001:3000002:2",
                "--fix", "alpha=0.5", "--fix", "beta=0.5", "--fix", "mu=0",
                "--out", str(tmp_path / "p.json"),
            ]
        )
        assert code == 0
        assert "mode: lambda=1500001.0\n" in capsys.readouterr().out

    def test_missing_file_rejected(self, tmp_path):
        code = run(
            [
                "infer", "--in", str(tmp_path / "nope.csv"), "--model", "single",
                "--grid", "alpha=0:1:5", "--grid", "beta=0:1:5",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--out", str(tmp_path / "p.json"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("row", ["2", "2,1.5", "2,x"])
    def test_malformed_row_rejected(self, tmp_path, capsys, row):
        trace = tmp_path / "bad.csv"
        trace.write_text(f"t,count\n1,4\n{row}\n3,0\n")
        code = run(
            [
                "infer", "--in", str(trace), "--model", "single",
                "--grid", "alpha=0:1:5", "--grid", "beta=0:1:5",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--out", str(tmp_path / "p.json"),
            ]
        )
        assert code == 1
        assert f"bad.csv, line 3: expected 't,count' with an integer count, got {row!r}" in (
            capsys.readouterr().err
        )
        with pytest.raises(ValueError, match="line 3"):
            read_trace_csv(trace)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,4\n2,1,9\n3,0\n", "expected 't,count' with an integer count, got '2,1,9'"),
            ("1,4\n3,1\n4,0\n", "expected t = 2, got '3,1'"),
            ("1,4\n1,1\n2,0\n", "expected t = 2, got '1,1'"),
            (
                "1,4\n2,99999999999999999999\n",
                "expected 't,count' with an integer count, got '2,99999999999999999999'",
            ),
        ],
        ids=["three-fields", "t-skips", "t-repeats", "beyond-int64"],
    )
    def test_bad_row_named(self, tmp_path, capsys, body, message):
        trace = tmp_path / "bad.csv"
        trace.write_text(f"t,count\n{body}")
        with pytest.raises(ValueError) as err:
            read_trace_csv(trace)
        assert str(err.value) == f"{trace}, line 3: {message}"
        code = run(
            [
                "infer", "--in", str(trace), "--model", "single",
                "--grid", "alpha=0:1:5", "--grid", "beta=0:1:5",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--out", str(tmp_path / "p.json"),
            ]
        )
        assert code == 1
        assert f"bad.csv, line 3: {message}" in capsys.readouterr().err

    def test_blank_lines_and_spaces_accepted(self, tmp_path):
        trace = tmp_path / "loose.csv"
        trace.write_text("t,count\n1,4\n\n  \n2 , 7\r\n3,0\n\n")
        assert read_trace_csv(trace).counts.tolist() == [4, 7, 0]

    @pytest.mark.parametrize(
        "grid",
        [
            ["--grid", "alpha=0.4:1:4", "--fix", "beta=0.9"],
            ["--grid", "alpha=0.4:1:4", "--grid", "beta=0.5:1:4"],
        ],
        ids=["one-switch-axis", "both-switch-axes"],
    )
    def test_level_outside_unit_interval_rejected(
        self, trace_file, tmp_path, monkeypatch, capsys, grid
    ):
        # refused from the options alone, before any grid cell is evaluated
        def evaluated(*args, **kwargs):
            raise AssertionError("the grid was evaluated")

        monkeypatch.setattr(cli, "evaluate_grid", evaluated)
        out = tmp_path / "p.json"
        code = run(
            [
                "infer", "--in", str(trace_file), "--model", "single", *grid,
                "--fix", "lambda=20", "--fix", "mu=2",
                "--levels", "0.5,1.5", "--out", str(out),
            ]
        )
        assert code == 1
        assert "credible levels must be inside (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, model, name, options",
        [
            ("infer", "multistep", "r_alpha",
             ["--grid", "lambda=1:9:3", "--fix", "r_alpha=inf", "--fix", "r_beta=0.5",
              "--fix", "mu=1"]),
            ("infer", "single", "lambda",
             ["--grid", "alpha=0:1:3", "--fix", "beta=0.5", "--fix", "lambda=nan",
              "--fix", "mu=1"]),
            ("infer", "ctmc", "mu",
             ["--grid", "r_alpha=0:4:3", "--fix", "r_beta=0.5", "--fix", "lambda=20",
              "--fix", "mu=-inf"]),
            ("infer-state", "single", "beta",
             ["--grid", "alpha=0:1:3", "--fix", "beta=inf", "--fix", "lambda=20",
              "--fix", "mu=1"]),
        ],
        ids=["multistep-inf", "single-nan", "ctmc-minus-inf", "infer-state-inf"],
    )
    def test_non_finite_fixed_value_rejected(
        self, trace_file, tmp_path, capsys, command, model, name, options
    ):
        out = tmp_path / "out"
        code = run(
            [command, "--in", str(trace_file), "--model", model, *options, "--out", str(out)]
        )
        assert code == 1
        assert f"error: fixed {name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, trace_file, tmp_path, capsys, workers):
        out = tmp_path / "p.json"
        code = run(
            [
                "infer", "--in", str(trace_file), "--model", "single",
                "--grid", "alpha=0:1:3", "--grid", "beta=0:1:3",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--workers", workers, "--out", str(out),
            ]
        )
        assert code == 1
        assert "error: workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_rate_product_rejected(self, trace_file, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = run(
            [
                "infer", "--in", str(trace_file), "--model", "multistep",
                "--grid", "r_alpha=0:1e200:2", "--grid", "r_beta=0:1e200:2",
                "--fix", "lambda=5", "--fix", "mu=1", "--out", str(out),
            ]
        )
        assert code == 1
        assert "error: switching rate product" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_model_mismatch_rejected(self, trace_file, tmp_path):
        code = run(
            [
                "infer", "--in", str(trace_file), "--model", "single",
                "--grid", "r_alpha=0:4:5", "--grid", "r_beta=0:4:5",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--out", str(tmp_path / "p.json"),
            ]
        )
        assert code == 1


def _mutated_trace(counts, mutations):
    """A trace CSV of ``counts``, with each (kind, row, value) mutation
    applied in turn; ``value`` is a count of 18 to 20 digits, and its
    parity picks the field or the variant of some mutations."""
    rows = [[str(t), str(c), "\n"] for t, c in enumerate(counts, start=1)]
    for kind, i, value in mutations:
        if kind == "header only":
            rows = []
        if not rows:
            continue
        row = rows[i % len(rows)]
        if kind == "blank line":
            rows.insert(i % len(rows), ["", "", " \n" if value % 2 else "\n"])
        elif kind == "crlf":
            row[2] = "\r\n"
        elif kind == "spaces":
            row[:2] = [f" {row[0]} ", f" {row[1]}\t"]
        elif kind == "no final newline":
            rows[-1][2] = ""
        elif kind in ("leading zero", "plus sign"):
            row[value % 2] = ("0" if kind == "leading zero" else "+") + row[value % 2]
        elif kind == "negative":
            row[1] = "-" + row[1]
        elif kind == "long count":
            row[1] = str(value)
        elif kind in ("skipped t", "repeated t"):
            try:
                row[0] = str(int(row[0] or 0) + (1 if kind == "skipped t" else -1))
            except ValueError:  # a blank line's t, made " " or "+" by an earlier mutation
                pass
        elif kind == "non-ascii digit":
            zero = (0x660, 0x6F0, 0x966, 0xFF10)[value % 4]
            row[0] = "".join(chr(zero + int(d)) if d.isdigit() else d for d in row[0])
    return "t,count\n" + "".join(f"{t},{c}{end}" if t or c else end for t, c, end in rows)


_MUTATIONS = (
    "blank line", "crlf", "spaces", "no final newline", "leading zero", "plus sign",
    "negative", "long count", "skipped t", "repeated t", "header only", "non-ascii digit",
)
# 18 digits (the longest canonical count), 19 below and above 2^63, and 20
_LONG_COUNTS = (10**18 - 1, 10**18, 2**63 - 1, 2**63, 10**19 - 1, 10**19, 2**64)


def _outcome(read):
    try:
        return read().counts.tolist()
    except ValueError as exc:
        return str(exc)


class TestTraceReader:
    """``read_trace_csv`` parses a canonical file in one numpy pass and sends
    any other to the line-by-line loop ``_read_rows``: on every file both
    give the loop's counts, or its ValueError text."""

    @settings(max_examples=400, deadline=None)
    @given(
        counts=st.lists(
            st.integers(0, 30) | st.integers(0, 10**18 - 1), min_size=1, max_size=30
        ),
        mutations=st.lists(
            st.tuples(
                st.sampled_from(_MUTATIONS), st.integers(0, 100), st.sampled_from(_LONG_COUNTS)
            ),
            max_size=3,
        ),
    )
    def test_matches_line_loop(self, tmp_path_factory, counts, mutations):
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        path.write_bytes(_mutated_trace(counts, mutations).encode())
        loop = _outcome(lambda: CountTrace(np.asarray(cli._read_rows(path), dtype=np.int64)))
        assert _outcome(lambda: read_trace_csv(path)) == loop
        if not mutations:
            assert loop == counts
            with open(path, "rb", buffering=0) as fh:
                assert cli._canonical_counts(fh).tolist() == counts

    @pytest.mark.parametrize(
        "body",
        ["", "1,4\n2,7", "1,04\n", "01,4\n", "1,+4\n", "1,-4\n", "1,,4\n", "1,4,\n",
         ",4\n", "1,\n", "1,4\n\n", "1,4\r\n", "1, 4\n", "0,4\n", "2,4\n",
         "1,4\n1,5\n", "1,1000000000000000000\n", "1,4\n2,\u0663\n"],
    )
    def test_non_canonical_goes_to_the_loop(self, tmp_path, body):
        path = tmp_path / "trace.csv"
        path.write_bytes(("t,count\n" + body).encode())
        with open(path, "rb", buffering=0) as fh:
            assert cli._canonical_counts(fh) is None

    def test_canonical_read_holds_a_few_copies_of_the_file(self, tmp_path, monkeypatch):
        # 200 000 rows in one numpy pass, never through the loop: the bytes,
        # their copy with commas and the parsed pairs come to about 3 times
        # the file's size
        counts = np.random.default_rng(4).poisson(6.0, 200_000)
        path = tmp_path / "long.csv"
        rows = (f"{t},{c}\n" for t, c in enumerate(counts.tolist(), start=1))
        path.write_text("t,count\n" + "".join(rows))

        def loop(path):
            raise AssertionError("a canonical file reached the line-by-line loop")

        monkeypatch.setattr(cli, "_read_rows", loop)
        tracemalloc.start()
        try:
            trace = read_trace_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(trace.counts, counts)
        assert peak < 4 * path.stat().st_size


class TestInferState:
    def test_writes_probability_column(self, trace_file, tmp_path):
        out = tmp_path / "states.csv"
        code = run(
            [
                "infer-state", "--in", str(trace_file), "--model", "single",
                "--grid", "alpha=0.4:1:8", "--grid", "beta=0.5:1:8",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,p_on"
        assert len(lines) == 301
        values = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.all(values >= 0) and np.all(values <= 1)

    def test_rerun_identical(self, trace_file, tmp_path):
        args = [
            "infer-state", "--in", str(trace_file), "--model", "single",
            "--grid", "alpha=0.4:1:6", "--grid", "beta=0.5:1:6",
            "--fix", "lambda=20", "--fix", "mu=2",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    RATE_GRID = [
        "--grid", "r_alpha=0:4:5", "--grid", "r_beta=0:4:5",
        "--fix", "lambda=20", "--fix", "mu=2",
    ]

    @staticmethod
    def _p_on(path):
        return [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]

    @pytest.mark.parametrize(
        "model, extra, options, d",
        [
            ("ctmc", [], {}, None),
            ("ctmc", ["--quad-nodes", "32"], {"quad": QuadratureSpec(32)}, None),
            ("multistep", [], {}, choose_subinterval_count(4.0, 4.0)),
            ("multistep", ["--d", "2"], {"d": 2}, 2),
        ],
    )
    def test_rate_model_round_trip(
        self, trace_file, tmp_path, capsys, model, extra, options, d
    ):
        args = ["infer-state", "--in", str(trace_file), "--model", model,
                *self.RATE_GRID, *extra]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        first = capsys.readouterr().out
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert ("d: " in first) == (model == "multistep")
        if d is not None:
            assert f"d: {d}\n" in first
        # the CSV holds the library's p_on under the same options
        grid = GridSpec(
            axes=(GridAxis("r_alpha", 0, 4, 5), GridAxis("r_beta", 0, 4, 5)),
            fixed={"lambda": 20.0, "mu": 2.0},
        )
        trace = read_trace_csv(trace_file)
        want = state_posterior_marginal(trace, grid, model=model, **options)
        assert self._p_on(a) == want.p_on.tolist()
        assert want.model == model and want.context["d"] == d

    def test_quad_nodes_honoured(self, trace_file, tmp_path):
        args = ["infer-state", "--in", str(trace_file), "--model", "ctmc", *self.RATE_GRID]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(a)])
        run(args + ["--quad-nodes", "32", "--out", str(b)])
        assert self._p_on(a) != self._p_on(b)
        np.testing.assert_allclose(self._p_on(a), self._p_on(b), rtol=0, atol=1e-9)

    def test_d_with_ctmc_rejected(self, trace_file, tmp_path):
        out = tmp_path / "s.csv"
        code = run(
            ["infer-state", "--in", str(trace_file), "--model", "ctmc",
             *self.RATE_GRID, "--d", "4", "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()


class TestThreshold:
    def test_thresholds_keep_every_digit(self, tmp_path):
        # counts on both sides of 1.5e6: each threshold and the summary
        # bounds read back as written, where :g gave 1.5e+06 to all; :g
        # stays where it is exact
        rng = np.random.default_rng(4)
        levels = np.repeat(rng.integers(0, 2, 400), rng.integers(1, 6, 400))
        counts = np.where(levels == 1, 1500010, 1499990) + rng.integers(-3, 4, levels.size)
        tr = tmp_path / "t.csv"
        tr.write_text("t,count\n" + "".join(f"{t},{c}\n" for t, c in enumerate(counts, 1)))
        out = tmp_path / "sweep.csv"
        code = run(
            [
                "threshold", "--in", str(tr), "--thresholds", "1500000:1500002",
                "--bins", "8:8", "--summary", "1500000:1500001", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert "# summary_range=1.5e+06:1500001.0 rows=2 " in next(
            line + " " for line in lines if line.startswith("# summary_range=")
        )
        rows = lines[lines.index("threshold,bins,alpha_hat,beta_hat") + 1 :]
        assert [row.split(",")[0] for row in rows] == ["1.5e+06", "1500001.0", "1500002.0"]

    def test_sweep_table(self, tmp_path):
        tr = tmp_path / "t.csv"
        run(
            [
                "simulate", "--model", "single",
                "--fix", "alpha=0.02", "--fix", "beta=0.05",
                "--fix", "lambda=30", "--fix", "mu=2",
                "--n", "4000", "--seed", "9", "--out", str(tr),
            ]
        )
        out = tmp_path / "sweep.csv"
        code = run(
            [
                "threshold", "--in", str(tr),
                "--thresholds", "15:24", "--bins", "8:12",
                "--summary", "17:21", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        comments = [line for line in lines if line.startswith("#")]
        assert any("midpoint_of_peaks" in line for line in comments)
        assert any("summary_range" in line for line in comments)
        header_at = lines.index("threshold,bins,alpha_hat,beta_hat")
        assert len(lines) - header_at - 1 == 50

    @pytest.mark.parametrize("bins", ["0", "1", "1:9"])
    def test_bin_count_below_two_fails(self, trace_file, tmp_path, capsys, bins):
        out = tmp_path / "s.csv"
        code = run(
            [
                "threshold", "--in", str(trace_file),
                "--thresholds", "10:12", "--bins", bins, "--out", str(out),
            ]
        )
        assert code == 1
        assert "bin_count must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, ranges", [("--thresholds", ["5:3", "4"]), ("--bins", ["10:12", "9:4"])]
    )
    def test_reversed_range_exits_2(self, trace_file, tmp_path, capsys, flag, ranges):
        # an empty range is a malformed flag value, named as such
        out = tmp_path / "s.csv"
        thresholds, bins = ranges
        with pytest.raises(SystemExit) as exc:
            run(
                [
                    "threshold", "--in", str(trace_file), "--thresholds", thresholds,
                    "--bins", bins, "--out", str(out),
                ]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        bad = thresholds if flag == "--thresholds" else bins
        assert f"argument {flag}: empty range {bad!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("summary", ["12:5", "nan:9", "5:nan"])
    def test_bad_summary_range_exits_2(self, trace_file, tmp_path, capsys, summary):
        # a reversed or NaN range would select no row and drop the summary
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            run(
                [
                    "threshold", "--in", str(trace_file), "--thresholds", "10:12",
                    "--bins", "8:9", "--summary", summary, "--out", str(out),
                ]
            )
        assert exc.value.code == 2
        assert f"argument --summary: empty range {summary!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_ranges(self, trace_file, tmp_path, capsys):
        # a missing required flag is a usage error
        with pytest.raises(SystemExit) as exc:
            run(["threshold", "--in", str(trace_file), "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "the following arguments are required: --thresholds, --bins" in err


class TestCtmcCli:
    def test_ctmc_with_quad_nodes_and_levels(self, tmp_path, capsys):
        tr = tmp_path / "t.csv"
        run(
            [
                "simulate", "--model", "ctmc",
                "--fix", "r_alpha=2", "--fix", "r_beta=2",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--n", "400", "--seed", "6", "--out", str(tr),
            ]
        )
        out = tmp_path / "post.json"
        code = run(
            [
                "infer", "--in", str(tr), "--model", "ctmc",
                "--grid", "r_alpha=0.5:4:15", "--grid", "r_beta=0.5:4:15",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--quad-nodes", "48", "--levels", "0.6,0.95",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = read_posterior_json(out)
        assert [e["level"] for e in doc["hpd"]] == [0.6, 0.95]
        # mode lands in the right neighbourhood of the truth (2, 2)
        assert 1.0 <= doc["mode"]["r_alpha"] <= 3.5
        assert 1.0 <= doc["mode"]["r_beta"] <= 3.5

    def test_quad_nodes_rejected_for_single(self, trace_file, tmp_path):
        code = run(
            [
                "infer", "--in", str(trace_file), "--model", "single",
                "--grid", "alpha=0:1:5", "--grid", "beta=0:1:5",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--quad-nodes", "32", "--out", str(tmp_path / "p.json"),
            ]
        )
        assert code == 1

    def test_zero_quad_nodes_rejected(self, trace_file, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = run(
            [
                "infer", "--in", str(trace_file), "--model", "ctmc",
                "--grid", "r_alpha=0:4:5", "--grid", "r_beta=0:4:5",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--quad-nodes", "0", "--out", str(out),
            ]
        )
        assert code == 1
        assert "error: node_count must be >= 8" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_d_rejected_for_multistep(self, trace_file, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = run(
            [
                "infer", "--in", str(trace_file), "--model", "multistep",
                "--grid", "r_alpha=0:4:5", "--grid", "r_beta=0:4:5",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--d", "0", "--out", str(out),
            ]
        )
        assert code == 1
        assert "error: d must be a power of two >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_d_rejected_for_ctmc(self, trace_file, tmp_path):
        code = run(
            [
                "infer", "--in", str(trace_file), "--model", "ctmc",
                "--grid", "r_alpha=0:4:5", "--grid", "r_beta=0:4:5",
                "--fix", "lambda=20", "--fix", "mu=2",
                "--d", "8", "--out", str(tmp_path / "p.json"),
            ]
        )
        assert code == 1


class TestThresholdDeterminism:
    def test_rerun_identical(self, tmp_path):
        tr = tmp_path / "t.csv"
        run(
            [
                "simulate", "--model", "single",
                "--fix", "alpha=0.02", "--fix", "beta=0.05",
                "--fix", "lambda=30", "--fix", "mu=2",
                "--n", "3000", "--seed", "9", "--out", str(tr),
            ]
        )
        args = [
            "threshold", "--in", str(tr),
            "--thresholds", "15:24", "--bins", "8:12",
            "--summary", "17:21",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestUnreadFlags:
    """A subcommand takes only the flags it reads: any other is a usage
    error (exit 2), never silently ignored."""

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("infer-state", ["--workers", "8"]),
            ("infer-state", ["--seed", "5"]),
            ("infer-state", ["--levels", "0.5,0.9"]),
            ("infer", ["--seed", "5"]),
            ("threshold", ["--grid", "alpha=0:1:3"]),
            ("threshold", ["--fix", "mu=2"]),
            ("threshold", ["--workers", "7"]),
            ("simulate", ["--grid", "alpha=0:1:3"]),
            ("simulate", ["--in", "trace.csv"]),
            ("simulate", ["--quad-nodes", "32"]),
        ],
    )
    def test_unread_flag_exits_2(self, trace_file, tmp_path, capsys, command, extra):
        out = tmp_path / "out.csv"
        argv = {
            "simulate": ["simulate", "--model", "single", "--fix", "alpha=0.1",
                         "--fix", "beta=0.1", "--fix", "lambda=20", "--fix", "mu=2",
                         "--n", "10"],
            "infer": ["infer", "--in", str(trace_file), "--model", "single",
                      "--grid", "alpha=0.4:1:3", "--grid", "beta=0.5:1:3",
                      "--fix", "lambda=20", "--fix", "mu=2"],
            "threshold": ["threshold", "--in", str(trace_file),
                          "--thresholds", "15:16", "--bins", "8:9"],
        }
        argv["infer-state"] = ["infer-state", *argv["infer"][1:]]
        # without the flag the command runs
        assert run(argv[command] + ["--out", str(out)]) == 0
        out.unlink()
        with pytest.raises(SystemExit) as exc:
            run(argv[command] + extra + ["--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, dropped",
        [
            ("simulate", "--out"),
            ("infer", "--in"),
            ("infer", "--out"),
            ("infer-state", "--in"),
            ("infer-state", "--out"),
            ("threshold", "--in"),
            ("threshold", "--out"),
            ("threshold", "--thresholds"),
            ("threshold", "--bins"),
        ],
    )
    def test_missing_required_flag_exits_2(self, trace_file, tmp_path, capsys, command, dropped):
        out = tmp_path / "out.csv"
        argv = {
            "simulate": ["simulate", "--model", "single", "--fix", "alpha=0.1",
                         "--fix", "beta=0.1", "--fix", "lambda=20", "--fix", "mu=2",
                         "--n", "10", "--out", str(out)],
            "infer": ["infer", "--in", str(trace_file), "--model", "single",
                      "--grid", "alpha=0.4:1:3", "--grid", "beta=0.5:1:3",
                      "--fix", "lambda=20", "--fix", "mu=2", "--out", str(out)],
            "threshold": ["threshold", "--in", str(trace_file), "--out", str(out),
                          "--thresholds", "15:16", "--bins", "8:9"],
        }
        argv["infer-state"] = ["infer-state", *argv["infer"][1:]]
        at = argv[command].index(dropped)
        with pytest.raises(SystemExit) as exc:
            run(argv[command][:at] + argv[command][at + 2 :])
        assert exc.value.code == 2
        assert f"the following arguments are required: {dropped}" in capsys.readouterr().err
        assert not out.exists()


# each misuse of a model option or of --levels that the library refuses
_MISUSES = [
    *[(c, m, "--d", "4")
      for c in ("simulate", "infer", "infer-state") for m in ("single", "ctmc")],
    *[(c, m, "--quad-nodes", "32")
      for c in ("infer", "infer-state") for m in ("single", "multistep")],
    ("infer", "single", "--levels", "0.5,1.5"),
]


def _library_refusal(model, flag):
    """The message of the library check that refuses ``flag`` under ``model``."""
    with pytest.raises(ValueError) as exc:
        if flag == "--levels":
            _check_levels((0.5, 1.5))
        elif flag == "--d":
            _check_model_options(model, None, 4)
        else:
            _check_model_options(model, QuadratureSpec(32), None)
    return str(exc.value)


class TestLibraryRules:
    """The rules on --model, --d, --quad-nodes and --levels are the
    library's: the CLI runs the library's check before any file is read,
    so a misuse exits 1 with the library's message although --in names no
    file, and writes nothing."""

    @pytest.mark.parametrize("command, model, flag, value", _MISUSES)
    def test_misuse_exits_1_with_library_message(
        self, tmp_path, capsys, command, model, flag, value
    ):
        on, off = _MODELS[model]
        if command == "simulate":
            argv = ["simulate", "--fix", f"{on}=0.5", "--fix", f"{off}=0.5", "--n", "10"]
        else:
            argv = [command, "--in", str(tmp_path / "missing.csv"),
                    "--grid", f"{on}=0:1:3", "--grid", f"{off}=0:1:3"]
        argv += ["--model", model, "--fix", "lambda=20", "--fix", "mu=2", flag, value]
        assert run(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {_library_refusal(model, flag)}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "message",
        [
            "unknown model",
            "applies only to the ctmc model",
            "applies only to the multistep model",
            "credible levels must be inside (0, 1)",
        ],
    )
    def test_message_raised_in_one_place(self, message):
        src = Path(cli.__file__).parent
        found = [
            (path.name, number)
            for path in sorted(src.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if "raise" in line and message in line
        ]
        assert len(found) == 1, found

"""The compiled kernels: block edges, scaled runs, tall tables and the build.

The forward kernel takes cells in blocks of ``BLOCK`` (read from its
source), and the smoother kernel takes rows in blocks of at most
``_MAX_WIDTH``.  The block-edge tests place the corner cases at the first
and last cell of a block and compare the results bitwise with the numpy
oracles; the scaled-run tests draw tables and start vectors around the
bound that lets the forward kernel run up to ``RUN`` steps unscaled, and
compare its end vectors too; the tall-table tests do the same for tables of many rows, and
of more rows than the steps read, and the zero-weight tests for rows that
mostly never reach the smoother kernel.  The build tests each
run a fresh interpreter with its own cache directory, and the source must
compile with every gcc warning on and no flag that loosens IEEE
arithmetic.
"""

import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blinkinfer.posterior as posterior
import blinkinfer.state_inference as state_inference
from oracles import (
    assert_forward_matches,
    assert_heaviest_prefix,
    per_step_forward,
    per_step_smooth,
)

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "blinkinfer" / "_forward.c"
BLOCK = int(re.search(r"#define BLOCK (\d+)", SOURCE.read_text()).group(1))
RUN = int(re.search(r"#define RUN (\d+)", SOURCE.read_text()).group(1))
WIDTH = state_inference._MAX_WIDTH


def _block_case(cells, n, seed):
    """Tables, rows and starts with the corner cases on block edges.

    Row 0, read by the first step, sends the last cell of the first block
    to a subnormal sum and kills every cell of the second block.  Every
    third cell starts pinned off and every fifth pinned on.
    """
    rng = np.random.default_rng(seed)
    mats = [rng.random((3, cells)) * 0.5 for _ in range(4)]
    for m in mats:
        m[0, min(cells, BLOCK) - 1] = 2.0**-1060
        m[0, BLOCK : 2 * BLOCK] = 0.0
    inv = rng.integers(0, 3, n)
    inv[0] = 0
    start = rng.random((2, cells))
    start /= start.sum(axis=0)
    start[:, ::3] = [[1.0], [0.0]]
    start[:, ::5] = [[0.0], [1.0]]
    return mats, inv, start


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBlockEdges:
    @pytest.mark.parametrize("n", [1, 6])
    @pytest.mark.parametrize("cells", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_matches_oracle(self, cells, n):
        mats, inv, start = _block_case(cells, n, seed=cells + n)
        # the kernel's log-likelihoods and end vectors are the oracle's bits
        want = assert_forward_matches(mats, inv, start)
        assert np.isfinite(want[min(cells, BLOCK) - 1])
        assert np.all(want[BLOCK : 2 * BLOCK] == -np.inf)

    def test_rejects_mismatched_buffers(self):
        mats, inv, start = _block_case(4, 3, seed=0)
        with pytest.raises(ValueError, match="disagree in shape"):
            posterior._forward_cells(*mats, inv, start[:, :3])
        with pytest.raises(ValueError, match="outside the step tables"):
            posterior._forward_cells(*mats, inv + 3, start)


# table entries: zero, subnormal, a power of two 2^-k, uniform on [0, 1),
# uniform on [0, 4) and a power of two 2^k, the last two reaching entries of
# 2 or more, which no run may take
_KINDS = ("zero", "subnormal", "power", "uniform", "large", "huge")


def _entries(rng, kinds, k_max, shape):
    """Entries of the drawn ``kinds`` mixed at random; powers 2^-k and 2^k
    have k uniform on 1..``k_max``."""
    kind = rng.choice(kinds, shape)
    out = rng.random(shape)
    out[kind == "zero"] = 0.0
    out[kind == "subnormal"] = 2.0**-1060
    for name, sign in (("power", -1), ("huge", 1)):
        pick = kind == name
        out[pick] = np.ldexp(1.0, sign * rng.integers(1, k_max + 1, pick.sum()))
    out[kind == "large"] *= 4.0
    return out


def _start_vectors(rng, kinds, cells):
    """(2, cells) components that are zero, subnormal or uniform."""
    kind = rng.choice(kinds, (2, cells))
    out = rng.random((2, cells))
    out[kind == "zero"] = 0.0
    tiny = kind == "subnormal"
    out[tiny] = rng.integers(1, 2**52, tiny.sum()) * 2.0**-1074
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestScaledRuns:
    """forward scales once per run of up to ``RUN`` steps that its bound
    keeps in the normal range; every bit must be the per-step oracle's."""

    @settings(max_examples=300, deadline=None)
    @given(
        cells=st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
        | st.integers(1, 2 * BLOCK + 1),
        n=st.integers(1, 3 * RUN + 1),
        rows=st.integers(1, 4),
        kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=4, unique=True),
        zero_tables=st.lists(st.booleans(), min_size=4, max_size=4),
        k_max=st.integers(1, 1000),
        start_kinds=st.lists(
            st.sampled_from(["zero", "subnormal", "uniform"]),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_step_oracle(
        self, cells, n, rows, kinds, zero_tables, k_max, start_kinds, seed
    ):
        rng = np.random.default_rng(seed)
        mats = [
            _entries(rng, ["zero"] if zero else kinds, k_max, (rows, cells))
            for zero in zero_tables
        ]
        inv = rng.integers(0, rows, n)
        assert_forward_matches(mats, inv, _start_vectors(rng, start_kinds, cells))

    def test_growing_vector(self):
        # the off state grows by 1.99 a step, so the per-step recursion
        # halves the vector at every step, and the on state, scaled by
        # 1.1 * 2^-68 a step, lies 2^-14 lower there after 14 steps than
        # unscaled: it turns subnormal there first, which the bound's
        # max(0, hi + 4) foresees.  The last step moves the on state to
        # off, so that its bits make the result.
        mats = [np.array([[e], [f]]) for e, f in ((1.99, 0.0), (0.0, 1.0), (0.0, 0.0))]
        mats.append(np.array([[1.1 * 2.0**-68], [0.0]]))
        assert_forward_matches(mats, np.array([0] * 15 + [1]), np.array([[0.5], [0.5]]))

    @pytest.mark.parametrize("k, n", [(73, 15), (64, 17), (64, 40)])
    def test_run_ends_at_the_normal_range(self, k, n):
        # one state, scaled by (1 + 3 2^-20) 2^-k a step, from about 2^-1
        # after the first: runs must end where the bound reaches 2^-1022,
        # to the bit, for 14 steps of 2^-73 reach 2^-1023 and round there
        mats = [np.array([[x]]) for x in ((1 + 3 * 2.0**-20) * 2.0**-k, 0.0, 0.0, 0.0)]
        assert_forward_matches(mats, np.zeros(n, dtype=np.int64), np.array([[1.0], [0.0]]))

    def test_run_is_cut_where_an_unguarded_one_changes_bits(self):
        # with every entry 2^-150, sixteen unscaled steps take the vector
        # from about 2^-2 to 2^-2402, to zero; the bound cuts runs at six
        # steps, 2^-902, and the result is the oracle's, finite
        cells, n = BLOCK + 1, 16
        mats = [np.full((1, cells), 2.0**-150) for _ in range(4)]
        inv = np.zeros(n, dtype=np.int64)
        start = np.tile([[0.25], [0.75]], cells)
        want = per_step_forward(*mats, inv, start)
        assert np.all(np.isfinite(want))
        assert_forward_matches(mats, inv, start)
        v = start
        for _ in range(n):
            v = 2.0**-150 * v.sum(axis=0)  # both components of M v
        assert np.all(v == 0.0)


def _smooth_rows(inv, mats, start, log_w, pinned):
    """``_smooth_rows`` on rows weighed as the weight pass weighs them: each
    row's log weight plus its forward-pass log-likelihood."""
    loglik = log_w + posterior._forward_cells(*mats, inv, start)
    return state_inference._smooth_rows(inv, tuple(mats), start, loglik, pinned)


def _smooth_case(rows, n, seed):
    """Corner cases on the smoother's block edges: ``rows`` rows, then
    three rows pinned to start on.

    Row 0 has every table entry 1, so its columns sum to 2.  Table row 0,
    which the first two steps read, gives row W - 3 subnormal sums forward
    and back, and kills row W, whose weight is then 0.  Rows W - 1 and
    2W - 1, the last slots of the first two blocks, are pinned.
    """
    rng = np.random.default_rng(seed)
    cells = rows + 3
    mats = [rng.random((3, cells)) * 0.5 for _ in range(4)]
    start = rng.random((2, cells))
    start /= start.sum(axis=0)
    log_w = rng.normal(0.0, 2.0, cells)
    pinned = np.zeros(cells, dtype=bool)
    for m in mats:
        m[:, 0] = 1.0
        if WIDTH - 3 < rows:
            m[0, WIDTH - 3] = 2.0**-1060
        if WIDTH < rows:
            m[0, WIDTH] = 0.0
    for j in (WIDTH - 1, 2 * WIDTH - 1):
        if j < rows:
            pinned[j] = True
            start[:, j] = [1.0, 0.0]
    pinned[rows:] = True
    start[:, rows:] = [[0.0], [1.0]]
    inv = rng.integers(0, 3, n)
    inv[:2] = 0
    return mats, inv, start, log_w, pinned


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSmootherBlockEdges:
    @pytest.mark.parametrize("n", [1, 6])
    @pytest.mark.parametrize("rows", [1, WIDTH - 1, WIDTH, WIDTH + 1, 2 * WIDTH + 1])
    def test_matches_oracle(self, rows, n):
        mats, inv, start, log_w, pinned = _smooth_case(rows, n, seed=rows + n)
        got = _smooth_rows(inv, mats, start, log_w, pinned)
        want = per_step_smooth(*mats, inv, start, log_w, pinned)
        np.testing.assert_array_equal(got, want)
        assert np.all((got >= 0.0) & (got <= 1.0))
        loglik = per_step_forward(*mats, inv, start)
        if WIDTH < rows:
            assert np.isfinite(loglik[WIDTH - 3]) and loglik[WIDTH] == -np.inf

    def test_rejects_mismatched_buffers(self, monkeypatch):
        # checked before any kernel runs: a wrong shape would make the
        # kernel's offsets read out of bounds
        mats, inv, start, log_w, pinned = _smooth_case(4, 3, seed=0)
        monkeypatch.setattr(posterior, "_forward_kernel", _no_kernel)
        good = dict(mats=tuple(mats), start=start, loglik=log_w, pinned=pinned)
        for name, bad in [
            ("mats", (*mats[:3], mats[3][:, :-1])),
            ("mats", (*mats[:3], mats[3][:2])),
            ("start", start[:, :-1]),
            ("start", start[:1]),
            ("loglik", log_w[:-1]),
            ("pinned", pinned[:-1]),
        ]:
            parts = {**good, name: bad}
            with pytest.raises(ValueError, match="disagree in shape"):
                state_inference._smooth_rows(inv, *parts.values())
        with pytest.raises(ValueError, match="outside the step tables"):
            state_inference._smooth_rows(inv + 3, *good.values())
        monkeypatch.setattr(state_inference, "_MAX_WIDTH", BLOCK + 1)
        with pytest.raises(ValueError, match="disagree in shape"):
            state_inference._smooth_rows(inv, *good.values())

    def test_kernel_block_matches_source(self):
        assert state_inference._KERNEL_BLOCK == BLOCK


def _no_kernel():
    raise AssertionError("the kernel ran on buffers that disagree in shape")


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestZeroWeightRows:
    """Rows of weight exactly 0 never reach the smoother kernel, nor do
    rows too light to change a bit, yet p_on keeps every bit of the oracle
    that runs every row in the same order."""

    @pytest.mark.parametrize("width", [1, 7, 32])
    @pytest.mark.parametrize("rows", [WIDTH + 1, 2 * WIDTH + 1])
    def test_matches_oracle_that_runs_every_row(self, monkeypatch, rows, width):
        n = 6
        mats, inv, start, log_w, pinned = _smooth_case(rows, n, seed=rows + width)
        # every fifth row, the subnormal row, a pinned row and the last
        # carry weight; the rest, and the whole pinned start-on set, lie
        # more than 745 nats below the peak
        heavy = np.zeros(rows + 3, dtype=bool)
        heavy[:rows:5] = True
        heavy[[WIDTH - 3, WIDTH - 1, rows - 1]] = True
        log_w[~heavy] = -1000.0
        log_w[-1] = -np.inf
        lib = posterior._forward_kernel()
        calls, sent = [], []

        def smooth(n, rows, width, *args):
            # args[6:8] are the weights and pinned flags, args[9] the sums
            calls.append((rows, width))
            sent.append((args[6].copy(), args[7].copy(), args[9]))
            lib.smooth(n, rows, width, *args)

        kernel = SimpleNamespace(forward=lib.forward, smooth=smooth)
        monkeypatch.setattr(posterior, "_forward_kernel", lambda: kernel)
        monkeypatch.setattr(state_inference, "_PREFIX_BUDGET", width * (n + 1))
        got = _smooth_rows(inv, mats, start, log_w, pinned)
        want = per_step_smooth(*mats, inv, start, log_w, pinned)
        np.testing.assert_array_equal(got, want)
        # the kernel gets the heaviest rows first, in blocks of the width,
        # and none of weight 0: the start-on set is skipped
        loglik = log_w + per_step_forward(*mats, inv, start)
        weight = np.exp(loglik - loglik.max())
        assert not weight[rows:].any() and np.count_nonzero(weight) < rows // 2
        assert {used for _, used in calls} == {width}
        assert all(size <= width for size, _ in calls)
        sent_w, sent_pinned, nums = zip(*sent)
        assert_heaviest_prefix(
            weight, pinned, np.concatenate(sent_w), np.concatenate(sent_pinned), nums[-1]
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestHeaviestFirst:
    """Hand-built rows whose terms are known exactly, at block width 1: the
    smoother stops only where no bit can change, tests the least
    numerator, and sums equal weights in row order, as the oracle does."""

    def _smooth(self, monkeypatch, mats, inv, start, log_w):
        """p_on of one row set, checked bitwise against the oracle, and
        the number of rows the kernel ran."""
        pinned = np.zeros(start.shape[1], dtype=bool)
        lib = posterior._forward_kernel()
        sent = []

        def smooth(n, rows, width, *args):
            sent.append(rows)
            lib.smooth(n, rows, width, *args)

        kernel = SimpleNamespace(forward=lib.forward, smooth=smooth)
        monkeypatch.setattr(posterior, "_forward_kernel", lambda: kernel)
        monkeypatch.setattr(state_inference, "_PREFIX_BUDGET", len(inv) + 1)
        got = _smooth_rows(inv, mats, start, log_w, pinned)
        np.testing.assert_array_equal(got, per_step_smooth(*mats, inv, start, log_w, pinned))
        return got, sum(sent)

    @pytest.mark.parametrize("light, runs", [(0.75, 3), (0.4, 1)])
    def test_stop_needs_half_a_spacing(self, monkeypatch, light, runs):
        # every row stays on, so each term is its weight and num[k] is the
        # running weight sum, 1 after the first row: a row of weight
        # 0.75 * spacing(1) rounds num up and must run, one of 0.4 * spacing(1)
        # is rounded away and must not
        n, rows = 3, 3
        on = np.full((1, rows), 0.5)
        mats = [np.zeros((1, rows)), np.zeros((1, rows)), np.zeros((1, rows)), on]
        inv = np.zeros(n, dtype=np.int64)
        start = np.tile([[0.0], [1.0]], rows)
        log_w = np.log([1.0, light * 2.0**-52, light * 2.0**-52])
        _, ran = self._smooth(monkeypatch, mats, inv, start, log_w)
        assert ran == runs

    def test_stop_tests_the_least_numerator(self, monkeypatch):
        # row 0 is on at boundary 1 and leaves at the second step but for a
        # 2^-30 chance, so num = (1, ~2^-30); row 1 stays on and weighs
        # 0.75 * 2^-82, too little to move num[0] but not num[1]
        m00, m01, m10, m11 = (np.zeros((2, 2)) for _ in range(4))
        m11[0] = 1.0
        m01[1, 0], m11[1] = 1.0, (2.0**-30, 1.0)
        start = np.array([[0.0, 0.0], [1.0, 1.0]])
        log_w = np.log([1.0, 0.75 * 2.0**-82])
        got, ran = self._smooth(monkeypatch, [m00, m01, m10, m11], np.arange(2), start, log_w)
        assert ran == 2 and got[0] == 1.0 and 0.0 < got[1] < 2.0**-29

    def test_equal_weights_keep_row_order(self, monkeypatch):
        # rows of two weights, 1 and 1/2, that never switch and are on with
        # probability e in [0.5, 1): every likelihood is exactly 1/2 and
        # every term is w * e, so the sum's bits depend on the order
        rng = np.random.default_rng(3)
        rows = 40
        e = 0.5 + 0.5 * rng.random((1, rows))
        zero = np.zeros((1, rows))
        start = np.full((2, rows), 0.5)
        log_w = np.where(rng.random(rows) < 0.5, 0.0, np.log(0.5))
        _, ran = self._smooth(monkeypatch, [1.0 - e, zero, zero, e], np.zeros(1, np.int64),
                              start, log_w)
        assert ran == rows


class TestTallTables:
    """Tables of many rows, over more than two blocks of cells; the rows
    past max(inv) are never read."""

    CELLS = 2 * BLOCK + 1

    def _case(self, rows, read, n, seed):
        """Tables of ``rows`` rows, NaN past row ``read`` - 1, and steps
        that read rows 0 to ``read`` - 1, the last of them at least once."""
        rng = np.random.default_rng(seed)
        mats = [rng.random((rows, self.CELLS)) * 0.5 for _ in range(4)]
        for m in mats:
            m[read:] = np.nan
        inv = rng.integers(0, read, n)
        inv[n // 2] = read - 1
        start = rng.random((2, self.CELLS))
        return mats, inv, start / start.sum(axis=0)

    @pytest.mark.parametrize("read", [300, 7])
    def test_forward_matches_oracle(self, read):
        mats, inv, start = self._case(300, read, 400, seed=read)
        got = posterior._forward_cells(*mats, inv, start)
        np.testing.assert_array_equal(got, per_step_forward(*mats, inv, start))
        assert np.all(np.isfinite(got))

    @pytest.mark.parametrize("read", [300, 7])
    def test_smooth_matches_oracle(self, read):
        mats, inv, start = self._case(300, read, 60, seed=read + 1)
        log_w = np.zeros(self.CELLS)
        pinned = np.zeros(self.CELLS, dtype=bool)
        got = _smooth_rows(inv, mats, start, log_w, pinned)
        np.testing.assert_array_equal(got, per_step_smooth(*mats, inv, start, log_w, pinned))
        assert np.all((got >= 0.0) & (got <= 1.0))


def _start(code, cache, **variables):
    """Start ``code`` in a fresh interpreter with its own cache directory."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), XDG_CACHE_HOME=str(cache))
    env.update(variables)
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(code)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _finish(proc):
    """Wait for a started interpreter; kill it if it runs past 300 s."""
    try:
        out, err = proc.communicate(timeout=300)
    finally:
        proc.kill()
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def _fresh(code, cache, **variables):
    """Run ``code`` in a fresh interpreter with its own cache directory."""
    return _finish(_start(code, cache, **variables))


FIRST_CALL = """
    import numpy as np
    from blinkinfer.posterior import _forward_cells
    mats = [np.full((1, 2), 0.25) for _ in range(4)]
    out = _forward_cells(*mats, np.zeros(3, dtype=np.int64), np.full((2, 2), 0.5))
    print(out.tolist())
"""


def _libraries(cache):
    return sorted((cache / "blinkinfer").glob("*.so"))


class TestBuild:
    def test_import_builds_nothing(self, tmp_path):
        run = _fresh("import blinkinfer.cli", tmp_path)
        assert run.returncode == 0, run.stderr
        assert not (tmp_path / "blinkinfer").exists()

    def test_first_call_builds_one_library_reused_without_gcc(self, tmp_path):
        run = _fresh(FIRST_CALL, tmp_path)
        assert run.returncode == 0, run.stderr
        built = _libraries(tmp_path)
        assert len(built) == 1
        assert list((tmp_path / "blinkinfer").iterdir()) == built
        stamp = built[0].stat().st_mtime_ns
        again = _fresh(FIRST_CALL, tmp_path, PATH=str(tmp_path / "empty"))
        assert again.returncode == 0, again.stderr
        assert again.stdout == run.stdout
        assert _libraries(tmp_path) == built
        assert built[0].stat().st_mtime_ns == stamp

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="needs gcc")
    def test_build_falls_back_without_native_flag(self, tmp_path):
        # a gcc that refuses -march=native and passes everything else on
        shims, log = tmp_path / "bin", tmp_path / "gcc.log"
        shims.mkdir()
        shim = shims / "gcc"
        shim.write_text(
            "#!/bin/sh\n"
            f"echo \"$*\" >> '{log}'\n"
            'for arg; do [ "$arg" = -march=native ] && exit 1; done\n'
            f"exec '{shutil.which('gcc')}' \"$@\"\n"
        )
        shim.chmod(0o755)
        native = _fresh(FIRST_CALL, tmp_path / "native")
        assert native.returncode == 0, native.stderr
        path = f"{shims}{os.pathsep}{os.environ.get('PATH', '')}"
        run = _fresh(FIRST_CALL, tmp_path / "fallback", PATH=path)
        assert run.returncode == 0, run.stderr
        assert run.stdout == native.stdout
        assert len(_libraries(tmp_path / "fallback")) == 1
        builds = [ln for ln in log.read_text().splitlines() if "-shared" in ln]
        assert ["-march=native" in ln for ln in builds] == [True, False]

    def test_no_gcc_and_empty_cache_raises(self, tmp_path):
        code = f"try:\n{textwrap.indent(textwrap.dedent(FIRST_CALL), '    ')}"
        code += "except ImportError as err:\n    print('ImportError:', err)\n"
        run = _fresh(code, tmp_path, PATH=str(tmp_path / "empty"))
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("ImportError:")
        assert "gcc" in run.stdout

    def test_unusable_cache_falls_back_to_temp_dir(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        temp = tmp_path / "temp"
        temp.mkdir()
        run = _fresh(FIRST_CALL, blocker, TMPDIR=str(temp))
        assert run.returncode == 0, run.stderr
        assert len(list(temp.glob(f"blinkinfer-{os.getuid()}/*.so"))) == 1

    def test_cold_cache_workers_match_one_worker(self, tmp_path):
        run = _fresh(
            """
            import numpy as np
            import blinkinfer.posterior as posterior
            from blinkinfer.kernels import CountTrace
            from blinkinfer.posterior import GridAxis, GridSpec, evaluate_grid
            posterior._BLOCK_CELL_TARGET = 4  # several blocks, so the pool runs
            trace = CountTrace(np.random.default_rng(3).poisson(6.0, 300))
            grid = GridSpec(
                axes=(
                    GridAxis("alpha", 0.1, 0.8, 4),
                    GridAxis("beta", 0.1, 0.8, 4),
                    GridAxis("lambda", 2.0, 9.0, 3),
                ),
                fixed={"mu": 1.0},
            )
            two = evaluate_grid(trace, "single", grid, workers=2)
            one = evaluate_grid(trace, "single", grid, workers=1)
            print(two.log_post.tobytes() == one.log_post.tobytes())
            """,
            tmp_path,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "True"
        assert len(_libraries(tmp_path)) == 1

    def test_concurrent_cold_builds_leave_one_library(self, tmp_path):
        code = """
            import numpy as np
            from blinkinfer.kernels import CountTrace, EmissionRates, SwitchProbs
            from blinkinfer.state_inference import state_posterior_known
            trace = CountTrace(np.random.default_rng(5).poisson(4.0, 200))
            probs, rates = SwitchProbs(0.1, 0.2, 1), EmissionRates(mu=2.0, lam=4.0)
            print(state_posterior_known(trace, probs, rates).p_on.tobytes().hex())
        """
        started = [_start(code, tmp_path) for _ in range(2)]
        try:
            runs = [_finish(proc) for proc in started]
        finally:
            for proc in started:
                proc.kill()
        assert [run.returncode for run in runs] == [0, 0], [run.stderr for run in runs]
        assert runs[0].stdout == runs[1].stdout
        built = _libraries(tmp_path)
        assert len(built) == 1
        assert list((tmp_path / "blinkinfer").iterdir()) == built


class TestSourceBuild:
    def test_flags_keep_ieee_arithmetic(self):
        # bit-exactness rests on every product and sum rounding on its own
        for flag in ("-ffast-math", "-Ofast", "-ffp-contract=fast"):
            assert flag not in posterior._CFLAGS

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="needs gcc")
    def test_compiles_without_warnings(self, tmp_path):
        flags = [*posterior._CFLAGS, "-Wall", "-Wextra", "-Werror"]
        cmd = ["gcc", *flags, "-o", str(tmp_path / "forward.so"), str(SOURCE), "-lm"]
        built = subprocess.run(cmd, capture_output=True, text=True)
        assert built.returncode == 0, built.stderr

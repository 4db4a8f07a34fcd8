"""The compiled kernels: block edges, tall tables and the build.

The forward kernel takes cells in blocks of ``BLOCK`` (read from its
source), and the smoother kernel takes rows in blocks of at most
``_MAX_WIDTH``.  The block-edge tests place the corner cases at the first
and last cell of a block and compare the results bitwise with the numpy
oracles; the tall-table tests do the same for tables of many rows, and
of more rows than the steps read, and the zero-weight tests for row sets
whose rows mostly never reach the smoother kernel.  The build tests each
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

import blinkinfer.posterior as posterior
import blinkinfer.state_inference as state_inference
from oracles import per_step_forward, per_step_smooth

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "blinkinfer" / "_forward.c"
BLOCK = int(re.search(r"#define BLOCK (\d+)", SOURCE.read_text()).group(1))
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
        want = per_step_forward(*mats, inv, start)
        np.testing.assert_array_equal(posterior._forward_cells(*mats, inv, start), want)
        assert np.isfinite(want[min(cells, BLOCK) - 1])
        assert np.all(want[BLOCK : 2 * BLOCK] == -np.inf)

    def test_rejects_mismatched_buffers(self):
        mats, inv, start = _block_case(4, 3, seed=0)
        with pytest.raises(ValueError, match="disagree in shape"):
            posterior._forward_cells(*mats, inv, start[:, :3])
        with pytest.raises(ValueError, match="outside the step tables"):
            posterior._forward_cells(*mats, inv + 3, start)


def _smooth_case(rows, n, seed):
    """Corner cases on the smoother's block edges, in two row sets:
    ``rows`` rows, then three rows pinned to start on.

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
        row_sets = []
        for part in (slice(None, rows), slice(rows, None)):
            cut = [np.ascontiguousarray(x[..., part]) for x in (*mats, start, log_w, pinned)]
            row_sets.append((tuple(cut[:4]), *cut[4:]))
        got = state_inference._smooth_rows(inv, row_sets)
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
        good = dict(mats=tuple(mats), start=start, log_w=log_w, pinned=pinned)
        for name, bad in [
            ("mats", (*mats[:3], mats[3][:, :-1])),
            ("mats", (*mats[:3], mats[3][:2])),
            ("start", start[:, :-1]),
            ("start", start[:1]),
            ("log_w", log_w[:-1]),
            ("pinned", pinned[:-1]),
        ]:
            parts = {**good, name: bad}
            with pytest.raises(ValueError, match="disagree in shape"):
                state_inference._smooth_rows(inv, [tuple(parts.values())])
        with pytest.raises(ValueError, match="outside the step tables"):
            state_inference._smooth_rows(inv + 3, [tuple(good.values())])
        monkeypatch.setattr(state_inference, "_MAX_WIDTH", BLOCK + 1)
        with pytest.raises(ValueError, match="disagree in shape"):
            state_inference._smooth_rows(inv, [tuple(good.values())])

    def test_kernel_block_matches_source(self):
        assert state_inference._KERNEL_BLOCK == BLOCK


def _no_kernel():
    raise AssertionError("the kernel ran on buffers that disagree in shape")


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestZeroWeightRows:
    """Rows of weight exactly 0 never reach the smoother kernel, yet p_on
    keeps every bit of the oracle that runs every row."""

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
        calls = []

        def smooth(n, rows, width, *args):
            calls.append((rows, width))
            lib.smooth(n, rows, width, *args)

        kernel = SimpleNamespace(forward=lib.forward, smooth=smooth)
        monkeypatch.setattr(posterior, "_forward_kernel", lambda: kernel)
        monkeypatch.setattr(state_inference, "_PREFIX_BUDGET", width * (n + 1))
        row_sets = []
        for part in (slice(None, rows), slice(rows, None)):
            cut = [np.ascontiguousarray(x[..., part]) for x in (*mats, start, log_w, pinned)]
            row_sets.append((tuple(cut[:4]), *cut[4:]))
        got = state_inference._smooth_rows(inv, row_sets)
        want = per_step_smooth(*mats, inv, start, log_w, pinned)
        np.testing.assert_array_equal(got, want)
        # one call, on the rows that weigh: the start-on set is skipped
        loglik = log_w + per_step_forward(*mats, inv, start)
        weighs = np.exp(loglik - loglik.max()) != 0.0
        assert not weighs[rows:].any() and weighs.sum() < rows // 2
        assert calls == [(int(weighs.sum()), width)]


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
        got = state_inference._smooth_rows(inv, [(tuple(mats), start, log_w, pinned)])
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

"""The compiled float formatter and the JSON emitter built on it.

``cli._reprs`` must write exactly ``repr(x)`` of every double (and
``json.dumps(x)`` in JSON mode), so the posterior JSON and the state CSV
keep their bytes.  Every check compares bytes, with no tolerance: on
hypothesis floats, a million random bit patterns, every power of two with
its neighbours, the neighbours of every power of ten, integers around 2^53,
and values on both sides of repr's layout boundaries 1e-4 and 1e16.
"""

import json
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import blinkinfer.cli as cli
from blinkinfer.cli import _json_parts, _reprs, _state_rows, write_state_csv


def _assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    floats = values.tolist()
    assert _reprs(values, b"\n") == "\n".join(map(repr, floats)).encode()
    want = json.dumps(floats, separators=(",", ":"))[1:-1]
    assert _reprs(values, b",", as_json=True) == want.encode()


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate(
        [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
    )


@settings(max_examples=500)
@given(st.lists(st.floats(), max_size=40))
def test_hypothesis_floats(values):
    # st.floats() draws subnormals, signed zeros, infinities and nans
    _assert_reprs(values)


@settings(max_examples=300)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_hypothesis_bit_patterns(patterns):
    _assert_reprs(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_random_bit_patterns():
    rng = np.random.default_rng(20180618)
    _assert_reprs(rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64).view(np.float64))


def test_powers_of_two_and_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert powers[0] == 5e-324 and powers[-1] == 2.0**1023
    _assert_reprs(_with_neighbours(np.concatenate([powers, -powers])))


def test_neighbours_of_powers_of_ten():
    tens = np.array([float(f"1e{k}") for k in range(-324, 309)])
    _assert_reprs(_with_neighbours(np.concatenate([tens, -tens])))


def test_integers_around_two_to_the_53():
    ints = [float(2**53 + i) for i in range(-2000, 2001)]
    ints += [float(2**54 + 4 * i) for i in range(-500, 501)]
    _assert_reprs(_with_neighbours(ints))


def test_layout_boundaries():
    # repr switches between positional and exponent layout at these
    values = []
    for edge in (1e-4, 1e16, 1e-5, 1e15):
        down = up = edge
        for _ in range(100):
            values += [down, -down, up, -up]
            down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
    values += [9.999999999999999e-05, 0.0001, 9999999999999998.0, 1e16, 123.0, 0.5]
    _assert_reprs(values)
    assert _reprs([1e16, 1e-5, 0.0001, -0.0], b" ") == b"1e+16 1e-05 0.0001 -0.0"


def test_non_finite_spellings():
    values = [math.inf, -math.inf, math.nan, -math.nan]
    assert _reprs(values, b",") == b"inf,-inf,nan,nan"
    assert _reprs(values, b",", as_json=True) == b"Infinity,-Infinity,NaN,NaN"
    assert _reprs([], b",") == b""


def _state_csv(p_on):
    rows = "".join(f"{t},{p!r}\n" for t, p in enumerate(p_on.tolist(), start=1))
    return ("t,p_on\n" + rows).encode()


@settings(max_examples=100)
@given(
    arrays(np.float64, st.integers(1, 50), elements=st.floats(0.0, 1.0)),
    st.integers(1, 12),
)
def test_state_csv_rows_are_repr(tmp_path_factory, p_on, chunk):
    # with a small chunk the rows cross the writer's chunk boundaries, and
    # t its step from 9 to 10 digits
    path = tmp_path_factory.mktemp("states") / "states.csv"
    with mock.patch.object(cli, "_WRITE_CHUNK", chunk):
        write_state_csv(str(path), p_on)
    assert path.read_bytes() == _state_csv(p_on)


def test_state_csv_rows_cross_digit_counts(tmp_path):
    # t from 99 999 to 100 000 and on, at the writer's own chunk and a
    # chunk that ends inside a digit count
    p_on = np.random.default_rng(27).random(100_003)
    p_on[[0, 9, 99_999]] = [0.0, 1.0, 5e-324]
    for chunk in (cli._WRITE_CHUNK, 99_998):
        path = tmp_path / f"states-{chunk}.csv"
        with mock.patch.object(cli, "_WRITE_CHUNK", chunk):
            write_state_csv(str(path), p_on)
        assert path.read_bytes() == _state_csv(p_on)


def test_state_rows_number_from_first():
    values = np.array([0.25, -0.0, math.inf, math.nan, 2.0**-1074, 1e16])
    for first in (1, 7, 99_998, 10**18 - 3, 2**63 - values.size):
        rows = "".join(f"{t},{p!r}\n" for t, p in enumerate(values.tolist(), start=first))
        assert _state_rows(values, first) == rows.encode()
    assert _state_rows([], 1) == b""


def _json_bytes(doc):
    return b"".join(_json_parts(doc))


def _json_dumps(doc):
    """The writer the emitter replaces: json.dumps of plain lists."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist)
    return text.encode()


_leaves = st.one_of(
    st.floats(),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=5),
    arrays(np.float64, st.integers(0, 6)),
)


@settings(max_examples=300)
@given(
    st.recursive(
        _leaves,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=20,
    )
)
def test_json_bytes_match_json_dumps(doc):
    assert _json_bytes(doc) == _json_dumps(doc)


def test_json_bytes_of_a_posterior_shaped_document():
    doc = {
        "format_version": 1,
        "model": "single",
        "d": None,
        "axes": [{"name": "lambda", "lo": 0.0, "hi": 6.0, "n": 3,
                  "values": np.linspace(0.0, 6.0, 3)}],
        "log_posterior": np.array([-math.inf, -1e-320, -0.0, 1234.5678]),
        "mode": {"lambda": np.float64(3.0)},
        "mode_index": [1],
    }
    assert _json_bytes(doc) == _json_dumps(doc)
    assert b'"log_posterior":[-Infinity,-1e-320,-0.0,1234.5678]' in _json_bytes(doc)


def test_json_arrays_cross_chunk_boundaries():
    # each float array is written a chunk at a time, with a comma between chunks
    doc = {"a": [np.arange(n, dtype=np.float64) / 3 for n in range(8)], "b": np.zeros(5)}
    for chunk in (1, 2, 3, 7):
        with mock.patch.object(cli, "_WRITE_CHUNK", chunk):
            assert _json_bytes(doc) == _json_dumps(doc)

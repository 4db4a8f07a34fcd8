"""The numpy ports of Cephes against ``scipy.special``, bit for bit.

No tolerance: the ports promise scipy's exact doubles, so every posterior
and state CSV stays byte-identical to one computed through scipy.
"""

import numpy as np
import pytest
from scipy import special as sp

from blinkinfer._special import i0e, i1e, log_factorial


def assert_same_bits(got, expected):
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    got, expected = got.ravel(), expected.ravel()
    differ = np.flatnonzero(got.view(np.int64) != expected.view(np.int64))
    assert differ.size == 0, (
        f"{differ.size} of {got.size} differ; first at index {differ[0]}: "
        f"{got[differ[0]]!r} != {expected[differ[0]]!r}"
    )


def around(points, width=3):
    """Each point and the ``width`` integers on either side of it."""
    offsets = np.arange(-width, width + 1)
    return np.unique((np.asarray(points)[:, None] + offsets).ravel())


class TestLogFactorial:
    def test_every_count_to_a_million(self):
        k = np.arange(0, 1_000_001, dtype=float)
        assert_same_bits(log_factorial(k), sp.gammaln(k + 1.0))

    def test_log_spaced_counts_to_1e12(self):
        k = np.unique(np.floor(np.logspace(0, 12, 100_000)))
        assert_same_bits(log_factorial(k), sp.gammaln(k + 1.0))

    def test_branch_edges(self):
        # lgam switches formula at x = 13, 1000 and 1e8, x = k + 1
        k = around(np.array([12.0, 999.0, 1e8 - 1.0]))
        assert k.min() >= 0
        assert_same_bits(log_factorial(k), sp.gammaln(k + 1.0))

    def test_overflow_edge(self):
        # lgam returns inf above 2.556348e305, where the Stirling sum is
        # still finite
        maxlgm = 2.556348e305
        k = np.array([np.nextafter(maxlgm, 0.0), maxlgm, np.nextafter(maxlgm, np.inf), 1e308])
        got = log_factorial(k)
        assert np.isfinite(got[:2]).all() and np.isinf(got[2:]).all()
        assert_same_bits(got, sp.gammaln(k + 1.0))

    def test_keeps_shape_and_integer_input(self):
        k = np.array([[0, 5, 9169], [12, 5, 1000]])
        got = log_factorial(k)
        assert got.shape == (2, 3)
        assert_same_bits(got, sp.gammaln(k + 1.0))
        assert_same_bits(log_factorial(7), sp.gammaln(8.0))


def bessel_points():
    rng = np.random.default_rng(20)
    tiny = np.finfo(float).tiny
    return np.concatenate(
        [
            [0.0, 5e-324, tiny, np.nextafter(tiny, 0.0), 8.0, np.inf],
            np.nextafter(8.0, 0.0) - np.arange(4) * np.spacing(8.0),
            np.nextafter(8.0, 16.0) + np.arange(4) * np.spacing(8.0),
            np.logspace(-323, -308, 1_000),
            np.logspace(-300, 7, 1_000_000),
            rng.uniform(0.0, 20.0, 200_000),
            rng.uniform(0.0, 1e7, 50_000),
        ]
    )


@pytest.mark.parametrize("port, reference", [(i0e, sp.i0e), (i1e, sp.i1e)])
class TestScaledBessel:
    def test_against_scipy(self, port, reference):
        z = bessel_points()
        assert z.size >= 1_000_000
        assert_same_bits(port(z), reference(z))

    def test_negative_and_scalar_arguments(self, port, reference):
        z = -bessel_points()[:1000]
        assert_same_bits(port(z), reference(z))
        for x in (0.0, 3.5, 8.0, 12.0):
            assert_same_bits(port(x), reference(x))

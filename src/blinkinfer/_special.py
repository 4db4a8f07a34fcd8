"""The three Cephes special functions on the inference path, in numpy.

``log_factorial`` is Cephes ``lgam`` at x = k + 1, ``i0e`` and ``i1e`` are
Cephes ``i0e`` and ``i1e`` (Moshier, *Methods and Programs for Mathematical
Functions*, 1989).  Each takes the same floating-point operations in the
same order, on the same coefficients, as the C routines that
``scipy.special.gammaln``, ``i0e`` and ``i1e`` run, so the results carry
scipy's exact bits; ``tests/test_special.py`` checks that bit for bit on
millions of points.  Importing ``scipy.special`` costs more than the whole
inference on small workloads, and only these three routines are needed.

The coefficient tables are Cephes' own: the i0 tables as numpy ships them
in ``numpy.lib._function_base_impl`` (``_i0A``, ``_i0B``), the i1 tables as
Cephes ``i1.c`` gives them (the doubles compiled into scipy's
``_special_ufuncs`` extension).

``log_factorial`` evaluates ``lgam`` once per distinct count on Python
floats with :func:`math.log`, which is the C library's ``log``, as in the
compiled Cephes.  numpy's vectorised ``np.log`` is not the C library's and
differs from it in the last bit on some arguments (the first integer count
where that reaches ``lgam`` is 9169), so a vectorised version would not
give scipy's bits.  The Bessel routines use only multiply, add, divide and
square root, which numpy rounds exactly as C does, so they run vectorised.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["log_factorial", "i0e", "i1e"]

# Cephes gamma.c: Stirling series for lgam on 13 <= x <= 1000
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305

# Cephes i0.c: Chebyshev coefficients of exp(-x) I0(x) on [0, 8] ...
_I0_A = (
    -4.41534164647933937950e-18,
    3.33079451882223809783e-17,
    -2.43127984654795469359e-16,
    1.71539128555513303061e-15,
    -1.16853328779934516808e-14,
    7.67618549860493561688e-14,
    -4.85644678311192946090e-13,
    2.95505266312963983461e-12,
    -1.72682629144155570723e-11,
    9.67580903537323691224e-11,
    -5.18979560163526290666e-10,
    2.65982372468238665035e-9,
    -1.30002500998624804212e-8,
    6.04699502254191894932e-8,
    -2.67079385394061173391e-7,
    1.11738753912010371815e-6,
    -4.41673835845875056359e-6,
    1.64484480707288970893e-5,
    -5.75419501008210370398e-5,
    1.88502885095841655729e-4,
    -5.76375574538582365885e-4,
    1.63947561694133579842e-3,
    -4.32430999505057594430e-3,
    1.05464603945949983183e-2,
    -2.37374148058994688156e-2,
    4.93052842396707084878e-2,
    -9.49010970480476444210e-2,
    1.71620901522208775349e-1,
    -3.04682672343198398683e-1,
    6.76795274409476084995e-1,
)
# ... and of sqrt(x) exp(-x) I0(x) on (8, inf) in 32/x - 2
_I0_B = (
    -7.23318048787475395456e-18,
    -4.83050448594418207126e-18,
    4.46562142029675999901e-17,
    3.46122286769746109310e-17,
    -2.82762398051658348494e-16,
    -3.42548561967721913462e-16,
    1.77256013305652638360e-15,
    3.81168066935262242075e-15,
    -9.55484669882830764870e-15,
    -4.15056934728722208663e-14,
    1.54008621752140982691e-14,
    3.85277838274214270114e-13,
    7.18012445138366623367e-13,
    -1.79417853150680611778e-12,
    -1.32158118404477131188e-11,
    -3.14991652796324136454e-11,
    1.18891471078464383424e-11,
    4.94060238822496958910e-10,
    3.39623202570838634515e-9,
    2.26666899049817806459e-8,
    2.04891858946906374183e-7,
    2.89137052083475648297e-6,
    6.88975834691682398426e-5,
    3.36911647825569408990e-3,
    8.04490411014108831608e-1,
)
# Cephes i1.c: Chebyshev coefficients of exp(-x) I1(x) / x on [0, 8] ...
_I1_A = (
    2.77791411276104639959e-18,
    -2.11142121435816608115e-17,
    1.55363195773620046921e-16,
    -1.10559694773538630805e-15,
    7.60068429473540693410e-15,
    -5.04218550472791168711e-14,
    3.22379336594557470981e-13,
    -1.98397439776494371520e-12,
    1.17361862988909016308e-11,
    -6.66348972350202774223e-11,
    3.62559028155211703701e-10,
    -1.88724975172282928790e-9,
    9.38153738649577178388e-9,
    -4.44505912879632808065e-8,
    2.00329475355213526229e-7,
    -8.56872026469545474066e-7,
    3.47025130813767847674e-6,
    -1.32731636560394358279e-5,
    4.78156510755005422638e-5,
    -1.61760815825896745588e-4,
    5.12285956168575772895e-4,
    -1.51357245063125314899e-3,
    4.15642294431288815669e-3,
    -1.05640848946261981558e-2,
    2.47264490306265168283e-2,
    -5.29459812080949914269e-2,
    1.02643658689847095384e-1,
    -1.76416518357834055153e-1,
    2.52587186443633654823e-1,
)
# ... and of sqrt(x) exp(-x) I1(x) on (8, inf) in 32/x - 2
_I1_B = (
    7.51729631084210481353e-18,
    4.41434832307170791151e-18,
    -4.65030536848935832153e-17,
    -3.20952592199342395980e-17,
    2.96262899764595013876e-16,
    3.30820231092092828324e-16,
    -1.88035477551078244854e-15,
    -3.81440307243700780478e-15,
    1.04202769841288027642e-14,
    4.27244001671195135429e-14,
    -2.10154184277266431302e-14,
    -4.08355111109219731823e-13,
    -7.19855177624590851209e-13,
    2.03562854414708950722e-12,
    1.41258074366137813316e-11,
    3.25260358301548823856e-11,
    -1.89749581235054123450e-11,
    -5.58974346219658380687e-10,
    -3.83538038596423702205e-9,
    -2.63146884688951950684e-8,
    -2.51223623787020892529e-7,
    -3.88256480887769039346e-6,
    -1.10588938762623716291e-4,
    -9.76109749136146840777e-3,
    7.78576235018280120474e-1,
)


@functools.cache
def _lgam(x: float) -> float:
    """Cephes ``lgam`` at an integer x >= 1, cached for the engine's chunks."""
    if x < 13.0:
        # log of (x - 1)(x - 2)...2, which is exact in a double
        return math.log(float(math.factorial(int(x) - 1)))
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    poly = _LGAM_A[0]
    for c in _LGAM_A[1:]:
        poly = poly * p + c
    return q + poly / x


def log_factorial(k) -> np.ndarray:
    """log k! at finite non-negative integer-valued ``k``, of its shape.

    Bitwise ``scipy.special.gammaln(k + 1.0)``; see the module docstring.
    """
    x = np.asarray(k, dtype=float) + 1.0
    distinct, inverse = np.unique(x, return_inverse=True)
    values = np.array([_lgam(v) for v in distinct.tolist()], dtype=float)
    return values[inverse].reshape(x.shape)


def _chbevl(y, coef):
    """Cephes ``chbevl``: the Chebyshev series ``coef`` at ``y``."""
    b0 = coef[0]
    b1 = 0.0
    for c in coef[1:]:
        b2 = b1
        b1 = b0
        b0 = y * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _bessel_e(z, coef_a, coef_b, times_z: bool) -> np.ndarray:
    z = np.abs(z)
    low = z <= 8.0
    # each branch sees only its own arguments, so neither overflows nor
    # divides by zero on the other's
    z_low = np.where(low, z, 0.0)
    z_high = np.where(low, 32.0, z)
    near = _chbevl(z_low / 2.0 - 2.0, coef_a)
    if times_z:
        near = near * z_low
    far = _chbevl(32.0 / z_high - 2.0, coef_b) / np.sqrt(z_high)
    return np.where(low, near, far)


def i0e(z) -> np.ndarray:
    """exp(-|z|) I0(z), bitwise ``scipy.special.i0e``."""
    return _bessel_e(np.asarray(z, dtype=float), _I0_A, _I0_B, times_z=False)


def i1e(z) -> np.ndarray:
    """exp(-|z|) I1(z), bitwise ``scipy.special.i1e``."""
    z = np.asarray(z, dtype=float)
    out = _bessel_e(z, _I1_A, _I1_B, times_z=True)
    return np.where(z < 0.0, -out, out)

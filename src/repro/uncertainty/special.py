"""The error function, ported from Cephes (``ndtr.c``).

The Gaussian error model integrates its density through ``erf``.  Every
pinned figure, oracle and transcript carries the bits of the Cephes
algorithm (the one ``scipy.special.erf`` runs), so this port reproduces it
operation for operation instead of approximating it:

* ``|x| <= 1``: ``x * T(x^2) / U(x^2)``; ``T`` in ``polevl`` form, ``U`` in
  ``p1evl`` form (implicit leading 1), each Horner step a separate multiply
  and add;
* ``1 < |x| < 6``: ``1 - erfc(|x|)`` with ``erfc = (exp(-x^2) * P(x)) / Q(x)``;
* ``|x| >= 6``: ``1.0``, which is what ``1 - erfc`` rounds to there;
* the sign is restored with ``copysign`` (so ``erf(-0.0)`` is ``-0.0``) and
  NaN passes through.

The ``exp`` must be the C library's: on AVX-512 hosts numpy's float64 ``exp``
runs its own SIMD kernel, which is 1 ulp off libm on a few percent of inputs.  numpy's
complex ``exp`` of ``v + 0j`` returns libm's ``exp(v)`` as its real part, at a
fraction of the cost of a per-element ``math.exp``.
``tests/uncertainty/test_error_models.py`` pins the result bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["erf"]

# |x| <= 1: erf(x) = x * T(x^2) / U(x^2).
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (  # leading coefficient 1.0 implied
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
# 1 < x < 8: erfc(x) = exp(-x^2) * P(x) / Q(x).
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (  # leading coefficient 1.0 implied
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)


def _polevl(x: np.ndarray, coefficients: tuple[float, ...]) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule from the leading coefficient."""
    result = x * coefficients[0]
    result += coefficients[1]
    for coefficient in coefficients[2:]:
        result *= x
        result += coefficient
    return result


def _p1evl(x: np.ndarray, coefficients: tuple[float, ...]) -> np.ndarray:
    """Cephes ``p1evl``: ``polevl`` with an implied leading coefficient of 1."""
    result = x + coefficients[0]
    for coefficient in coefficients[1:]:
        result *= x
        result += coefficient
    return result


def erf(x) -> np.ndarray:
    """Elementwise error function of a float64 array, bit-identical to Cephes."""
    x = np.asarray(x, dtype=np.float64)
    shape = x.shape
    x = x.reshape(-1)
    magnitude = np.abs(x)
    out = np.minimum(magnitude, 1.0)  # |x| >= 6 reads 1.0; NaN stays NaN

    small = magnitude <= 1.0
    s = magnitude[small]
    s2 = s * s
    numerator = _polevl(s2, _T)
    numerator *= s
    numerator /= _p1evl(s2, _U)
    out[small] = numerator

    middle = magnitude < 6.0
    middle &= ~small
    m = magnitude[middle]
    numerator = _polevl(m, _P)
    denominator = _p1evl(m, _Q)
    np.multiply(m, m, out=m)
    np.negative(m, out=m)
    numerator *= np.exp(m.astype(np.complex128)).real
    numerator /= denominator
    out[middle] = np.subtract(1.0, numerator, out=numerator)
    return np.copysign(out, x, out=out).reshape(shape)

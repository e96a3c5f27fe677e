"""Extended-precision references for the double-precision routes.

The production modules sum their series in plain double precision.  The
functions here exist to be compared against them: the terminating
definition of the one-point moments, the explicit two-point coefficient
sum, the two-point recursion run in extended precision, and the closed
form of the three-point moments.  This is the only module that imports
mpmath.
"""

import math
from itertools import islice

import mpmath

from .core import pochhammer
from .errors import DomainError, PoleError, SingularityError
from .twopoint import _initial_pair, _recursion


def _mpc(z: complex):
    # -0.0 imaginary parts collapse to +0.0, the side of the cut that
    # core.cpow_principal takes
    return mpmath.mpc(z.real, 0.0 if z.imag == 0.0 else z.imag)


def _terminating_sum(n: int, b, c, x, one):
    """sum_{k<=n} (-n)_k (b)_k x^k / ((c)_k k!) in the arithmetic of one."""
    s = term = one
    for k in range(n):
        term *= (-n + k) * (b + k) * x / ((c + k) * (k + 1))
        s += term
    return s


def phi_brute(n: int, b: float, c: float, w: complex = 0.5, dps: int | None = None) -> complex:
    """Terminating-series definition of Phi_n, the correctness oracle.

    Sums 2F1(-n, b, c; 1/w) = sum_{k<=n} (-n)_k (b)_k (1/w)^k / ((c)_k k!)
    directly.  The sum cancels heavily for large n (the terms reach
    ~(1+|1/w|)^n while the value stays O(1)), so pass dps to evaluate in
    extended precision when n is beyond ~15.
    """
    w = complex(w)
    if w == 0:
        raise DomainError("expansion point w must be nonzero")
    x = 1.0 / w
    if dps is None:
        return _terminating_sum(n, b, c, x, 1.0 + 0j)
    with mpmath.workdps(dps):
        s = _terminating_sum(n, mpmath.mpf(b), mpmath.mpf(c), mpmath.mpc(x), mpmath.mpc(1))
        return complex(s)


def twopoint_coeffs_mp(a: float, z: complex, n_max: int, dps: int) -> tuple[tuple[complex, ...], ...]:
    """twopoint_coeffs_recursive run at dps digits, rounded back to complex.

    Gives the recursion the precision of twopoint_coeffs_explicit when the
    two routes are compared at large n, where double-precision
    coefficients of either route have lost relative accuracy.
    """
    z = complex(z)
    if z == 1.0:
        raise SingularityError("z = 1: recursion divides by 1 - z")
    with mpmath.workdps(dps):
        am, zm = mpmath.mpf(a), _mpc(z)
        pairs = islice(_recursion(am, zm, mpmath.mpc(1), (1 - zm) ** (-am) - 1), n_max + 1)
        return tuple(zip(*((complex(A), complex(B)) for A, B in pairs)))


def _auto_dps(z: complex, n: int) -> int:
    # Cancellation in the explicit sum is ~n * log10(4 R) digits, where
    # R = |1/z (1/z - 1)| is the coefficient decay rate.
    if z == 0:
        return 30
    r = abs(1.0 - z) / (abs(z) * abs(z))
    extra = max(0.0, math.log10(max(r, 1.0)))
    return min(300, 40 + int(n * (0.65 + extra)))


def twopoint_coeffs_explicit(
    a: float, z: complex, n: int, dps: int | None = None
) -> tuple[complex, complex]:
    """(A_n, B_n) by the explicit double sum, the verification route.

    Evaluated in extended precision (mpmath) because the sum cancels to
    roughly 4^n below its largest term; dps=None picks a working precision
    from n and z.  n = 0 returns the initial pair.
    """
    z = complex(z)
    if z == 1.0:
        raise SingularityError("z = 1 is a singular point of the coefficient formulas")
    if n < 0:
        raise ValueError("coefficient index must be non-negative")
    if n == 0:
        return _initial_pair(a, z)
    if dps is None:
        dps = _auto_dps(z, n)
    with mpmath.workdps(dps):
        am = mpmath.mpf(a)
        zm = _mpc(z)
        one_m_z = 1 - zm
        A = mpmath.mpc(0)
        B = mpmath.mpc(0)
        sign_n = (-1) ** n
        for k in range(n + 1):
            common = mpmath.rf(am, n - k) * zm ** (n - k)
            binA = mpmath.factorial(n + k - 1) / (mpmath.factorial(k) * mpmath.factorial(n - k))
            binB = binA * (n + k)
            pw = one_m_z ** (k - am - n)
            sign_k = (-1) ** k
            A += binA * (sign_n * n - sign_k * k * pw) * common
            B += binB * (sign_k * pw - sign_n) * common
        fact = mpmath.factorial(n)
        return complex(A / fact), complex(B / fact)


def _phi3_direct(n: int, b, c):
    """Three-point moment Phi_n(b, c) by its terminating closed form, in the arithmetic of b, c."""
    den = pochhammer(c, 2 * n)
    if den == 0.0:
        raise PoleError(f"(c)_{2 * n} = 0 for c = {c}")
    f = 1.0
    term = 1.0
    for k in range(n):
        term *= 2.0 * (-n + k) * (b + n + k) / ((c + 2 * n + k) * (k + 1))
        f += term
    sign = -1.0 if n % 2 else 1.0
    return sign * pochhammer(b, n) * pochhammer(c - b, n) / (2**n * den) * f


def phi3_direct_sequence(n_max: int, b: float, c: float, dps: int | None = None) -> list[float]:
    """Phi_0 .. Phi_{n_max} of the three-point expansion by the closed form.

    In double precision (dps=None) the sum cancels heavily beyond n ~ 12;
    pass dps to evaluate at that many digits, rounded back to float.
    """
    if dps is None:
        return [_phi3_direct(n, b, c) for n in range(n_max + 1)]
    with mpmath.workdps(dps):
        bm, cm = mpmath.mpf(b), mpmath.mpf(c)
        return [float(_phi3_direct(n, bm, cm)) for n in range(n_max + 1)]

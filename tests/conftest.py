"""Shared fixtures: benchmark parameter sets, the exceptional point, samplers."""

import cmath
import math
import random

import pytest

from gausshyp import HypParams

#: exp(i*pi/3), the intersection of |z| = 1 and |z-1| = 1.
Z_EXC = cmath.exp(1j * math.pi / 3.0)

#: (params, z) where a maclaurin term's parts are finite but its modulus overflows, at n = 1934;
#: conj(z) does the same.
MACLAURIN_OVERFLOW = (
    HypParams(0.19838897387944393, 268.3966270090092, 2.4154936601104113),
    -0.7491905741068264 + 0.5973727050042109j,
)

#: (params, z) where the one-point sum times its prefactor (1 - z/2)^(-a) overflows; auto takes onepoint-half there.
ONEPOINT_OVERFLOW = (
    HypParams(-143.51404798423812, 0.6114950902627185, 32.043446800768365),
    -240.78944137136045 - 133.34506742637686j,
)

#: The four parameter triples used across the benchmark tables.
TABLE_PARAM_SETS = (
    HypParams(1.2, 2.1, 3.0),
    HypParams(1.2, 2.5, 3.0),
    HypParams(1.2, 2.1, 3.5),
    HypParams(1.2, 2.01, 3.0),
)


@pytest.fixture
def z_exc() -> complex:
    return Z_EXC


@pytest.fixture
def params_main() -> HypParams:
    return HypParams(1.2, 2.1, 3.0)


def sample_in_region(predicate, count: int, seed: int, box: float = 3.0) -> list[complex]:
    """Deterministic rejection sampling of z with predicate(z) True."""
    rng = random.Random(seed)
    out: list[complex] = []
    while len(out) < count:
        z = complex(rng.uniform(-box, box), rng.uniform(-box, box))
        if predicate(z):
            out.append(z)
    return out


def rel_err(value: complex, reference: complex) -> float:
    return abs(value - reference) / abs(reference)


def phi3_xyz_ref(n, b, c):
    """(X_n, Y_n, Z_n) of X_n Phi_{n-1} + Y_n Phi_n + Z_n Phi_{n+1} = 0, every factor at index n.

    The three-point moment recurrence as written out, for exact (Fraction) and
    float references of threepoint._phi3_stream.
    """
    x = n * (-c - 2 * n - 5 * n * c - 6 * n * n - 4 * b * c + 4 * b * b) * (-n + b - c + 1) * (n + b - 1)
    p0 = 16 * b * (b - 1) * (b - c + 1) * (b - c)
    p1 = -4 + 21 * c + 40 * b * b - 17 * c * c - 32 * b * b * c + 32 * b * c * c - 40 * b * c
    p2 = 24 * b * c + 24 - 24 * b * b + 15 * c * c - 57 * c
    p3 = 18 * (c - 2)
    y = 2 * (2 * b - c) * (p0 + p1 * n + p2 * n * n + p3 * n**3)
    z = (
        16
        * (3 * n + c)
        * (3 * n + 1 + c)
        * (3 * n + 2 + c)
        * (-5 * n * c - 6 * n * n + 10 * n + 4 * b * b - 4 * b * c + 4 * c - 4)
    )
    return x, y, z


def within_factor(computed: float, expected: float, factor: float = 10.0) -> bool:
    return expected / factor <= computed <= expected * factor

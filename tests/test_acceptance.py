"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import math
import random
import time

import mpmath
import pytest

from gausshyp import (
    HypParams,
    IntegerDifferenceError,
    MethodId,
    classify_region,
    euler_integral,
    evaluate,
    maclaurin,
    run_table,
)
from gausshyp.core import cpow_principal, pochhammer
from gausshyp.onepoint import onepoint_margin
from gausshyp.select import buhring_eval, eval_onepoint, eval_threepoint, eval_twopoint
from gausshyp.threepoint import phi3_sequence, threepoint_coeffs, threepoint_margin
from gausshyp.twopoint import twopoint_coeffs_recursive, twopoint_margin
from gausshyp.verify import phi3_direct_sequence, twopoint_coeffs_explicit, twopoint_coeffs_mp
from conftest import TABLE_PARAM_SETS, Z_EXC, rel_err, sample_in_region, within_factor

PARAMS_MAIN = HypParams(1.2, 2.1, 3.0)

T1_FORMULA = {5: 0.995e-2, 10: 0.431e-3, 15: 0.223e-4, 20: 0.118e-5}
T1_BUHRING = {0: 0.263e2, 5: 0.879e1, 10: 0.103e1, 15: 0.955e-1, 20: 0.803e-2}


def _report(name: str) -> None:
    print(f"PASS {name}")


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    result = run_table(1)
    elapsed = time.perf_counter() - start
    row = result.cells[0]
    for n, expected in T1_FORMULA.items():
        got = row[MethodId.ONEPOINT_HALF.value][n]
        assert within_factor(got, expected), (n, got, expected)
    for n, expected in T1_BUHRING.items():
        got = row[MethodId.BUHRING.value][n]
        assert within_factor(got, expected), (n, got, expected)
    assert elapsed < 1.0, f"table 1 took {elapsed:.2f}s"
    _report(
        "criterion 1: table-1 errors within factor 10 for formula and continuation "
        f"columns, runtime {elapsed * 1e3:.0f} ms"
    )


def test_criterion_2_table2_generic_w():
    ref = euler_integral(PARAMS_MAIN, Z_EXC).value
    res = eval_onepoint(PARAMS_MAIN, Z_EXC, w=complex(0.5, 0.5), n_terms=20)
    err = rel_err(res.value, ref)
    assert err <= 1.5e-6, err
    _report(f"criterion 2: generic-w expansion error {err:.3e} <= 1.5e-6 at n=20")


def test_criterion_3_table3_twopoint():
    ref = euler_integral(PARAMS_MAIN, Z_EXC).value
    res = eval_twopoint(PARAMS_MAIN, Z_EXC, n_terms=20)
    err = rel_err(res.value, ref)
    assert err <= 1e-11, err
    _report(f"criterion 3: two-point expansion error {err:.3e} <= 1e-11 at n=20")


def test_criterion_4_table4_threepoint():
    ref = euler_integral(PARAMS_MAIN, Z_EXC).value
    err_exc = rel_err(eval_threepoint(PARAMS_MAIN, Z_EXC, n_terms=20).value, ref)
    assert err_exc <= 1e-12, err_exc

    near = HypParams(1.2, 2.01, 3.0)
    ref_near = euler_integral(near, -5.0 + 0j).value
    err_near = rel_err(eval_threepoint(near, -5.0 + 0j, n_terms=20).value, ref_near)
    assert err_near <= 2e-5, err_near

    # reproduction of the table-4 reference ordering (its error columns
    # correspond to series index ceil(n/2); the harness reproduces that)
    result = run_table(4)
    for row_idx in (0, 1):  # the z = exp(i pi/3) rows, where the table shows
        row = result.cells[row_idx]  # the continuation trailing by >= 10x
        buh5 = row[MethodId.BUHRING.value][5]
        three5 = row[MethodId.THREEPOINT.value][5]
        assert buh5 >= 10.0 * three5, (row_idx, buh5, three5)
    exc_row = result.cells[0]
    assert exc_row[MethodId.BUHRING.value][20] > 1e-1
    assert exc_row[MethodId.THREEPOINT.value][20] < 1e-10
    _report(
        f"criterion 4: three-point errors {err_exc:.3e} (exceptional point) and "
        f"{err_near:.3e} (near-integer b-a); table-4 reference ordering reproduced"
    )


def test_criterion_5_oracle_consistency():
    start = time.perf_counter()
    rng = random.Random(2024)
    grid = []
    while len(grid) < 50:
        r = rng.uniform(0.02, 0.8)
        th = rng.uniform(0.0, 2.0 * math.pi)
        grid.append(complex(r * math.cos(th), r * math.sin(th)))
    worst = 0.0
    for params in TABLE_PARAM_SETS:
        for z in grid:
            m = maclaurin(params, z)
            e = euler_integral(params, z)
            worst = max(worst, rel_err(m.value, e.value))
            assert rel_err(m.value, e.value) <= 1e-11, (params, z)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle grid took {elapsed:.2f}s"
    _report(
        f"criterion 5: maclaurin vs euler integral worst deviation {worst:.3e} <= 1e-11 "
        f"on 50-point grid x 4 parameter sets, runtime {elapsed:.2f} s"
    )


def test_criterion_6_dual_path_equivalence():
    # two-point: explicit sum vs differential-equation recursion, matched
    # extended precision (double loses the coefficients' relative accuracy
    # beyond n ~ 10; the check validates the formulas, not the rounding)
    samples = sample_in_region(
        lambda z: twopoint_margin(z) > 0.2 and abs(z) > 0.3, 20, seed=314
    )
    worst_two = 0.0
    for z in samples:
        rec_a, rec_b = twopoint_coeffs_mp(1.2, z, 20, dps=70)
        for n in (1, 5, 10, 15, 20):
            ae, be = twopoint_coeffs_explicit(1.2, z, n, dps=70)
            da = abs(ae - rec_a[n]) / abs(ae)
            db = abs(be - rec_b[n]) / abs(be)
            worst_two = max(worst_two, da, db)
            assert da <= 1e-10 and db <= 1e-10, (z, n, da, db)

    # three-point moments: three-term recurrence route vs terminating closed form
    worst_three = 0.0
    for b, c in ((2.1, 3.0), (2.5, 3.0), (2.01, 3.0), (2.1, 3.5)):
        rec = phi3_sequence(25, b, c)
        direct = phi3_direct_sequence(25, b, c, dps=60)
        for n in range(26):
            d = abs(rec[n] - direct[n]) / max(abs(direct[n]), 1e-300)
            worst_three = max(worst_three, d)
            assert d <= 1e-9, (b, c, n, d)
    _report(
        f"criterion 6: dual-path agreement, two-point {worst_two:.3e} <= 1e-10, "
        f"three-point moments {worst_three:.3e} <= 1e-9"
    )


def test_criterion_7_function_reconstruction():
    a = 1.2
    rng_box = 3.0

    # one-point: Taylor series of (1-zt)^(-a) at t = 1/2, Re z < 1
    ones = sample_in_region(lambda z: z.real < 0.9 and 0.2 < abs(z) < 3.0, 10, seed=11, box=rng_box)
    for z in ones:
        pref_base = 1.0 - z / 2.0
        for t in (0.25, 0.6):
            s = 0j
            zpow = 1.0 + 0j
            for n in range(121):
                s += zpow * pochhammer(a, n) / math.factorial(n) * cpow_principal(
                    pref_base, -a - n
                ) * (t - 0.5) ** n
                zpow *= z
            f = cpow_principal(1.0 - z * t, -a)
            assert abs(s - f) <= 1e-8, (z, t)

    # two-point: coefficients from the package recursion
    twos = sample_in_region(
        lambda z: abs(1.0 - z) >= 0.4 * abs(z) ** 2 and abs(z) > 0.1, 10, seed=22, box=rng_box
    )
    for z in twos:
        A, B = twopoint_coeffs_recursive(a, z, 80)
        for t in (0.25, 0.5, 0.75):
            s = sum((A[n] + B[n] * t) * (t * (t - 1.0)) ** n for n in range(81))
            assert abs(s - cpow_principal(1.0 - z * t, -a)) <= 1e-8, (z, t)

    # three-point: contraction ratio bounded away from 1
    threes = sample_in_region(
        lambda z: abs(z) ** 3 < 0.5 * 6.0 * math.sqrt(3.0) * abs((1.0 - z) * (2.0 - z))
        and abs(z) > 0.1,
        10,
        seed=33,
        box=rng_box,
    )
    for z in threes:
        A, B, C = threepoint_coeffs(a, z, 60)
        for t in (0.2, 0.5, 0.9):
            s = sum(
                (A[n] + B[n] * t + C[n] * t * t) * (t * (t - 1.0) * (t - 0.5)) ** n
                for n in range(61)
            )
            assert abs(s - cpow_principal(1.0 - z * t, -a)) <= 1e-8, (z, t)
    _report(
        "criterion 7: one-, two-, three-point expansions reconstruct (1-zt)^(-a) "
        "to 1e-8 at interior t for 10 random in-region z each"
    )


def test_criterion_8_region_coverage():
    for z in (Z_EXC, Z_EXC.conjugate()):
        assert onepoint_margin(z, 0.5) > 0
        assert twopoint_margin(z) > 0
        assert threepoint_margin(z) > 0
        for rho in (0.9, 0.95, 0.99):
            assert classify_region(z, rho) == set()
    assert not twopoint_margin(1.0 + 0j) > 0.0
    assert not twopoint_margin(2.0 + 0j) > 0.0
    assert not threepoint_margin(1.0 + 0j) > 0.0
    assert not threepoint_margin(2.0 + 0j) > 0.0
    _report(
        "criterion 8: exp(+-i pi/3) strictly inside all three new regions, outside "
        "every classical region at rho in {0.9, 0.95, 0.99}; z = 1, 2 excluded"
    )


def test_criterion_9_integer_difference_handling():
    for b in (2.2, 1.2, 0.2, 4.2):  # b - a in {1, 0, -1, 3}
        with pytest.raises(IntegerDifferenceError):
            evaluate(HypParams(1.2, b, 3.0), -5.0 + 0j, "buhring", n_terms=10)

    near = HypParams(1.2, 2.2 + 1e-6, 3.0)
    res = buhring_eval(near, Z_EXC, n_terms=20)
    base = buhring_eval(PARAMS_MAIN, Z_EXC, n_terms=20)
    assert math.isfinite(abs(res.value))
    assert res.est_error > 100.0 * base.est_error
    _report(
        "criterion 9: integer b-a raises IntegerDifferenceError; b-a = 1+1e-6 "
        f"evaluates with est_error inflated to {res.est_error:.2e} "
        f"(vs {base.est_error:.2e} far from integer)"
    )


def test_criterion_10_near_integer_b_minus_a():
    # The abstract's closing claim: near exp(i pi/3) the three-point
    # expansion beats the continuation, above all when b - a nears an
    # integer.  Reference: mpmath.hyp2f1 at 30 digits.
    def err(res, p):
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(p.a, p.b, p.c, mpmath.mpc(Z_EXC.real, Z_EXC.imag)))
        return rel_err(res.value, ref)

    buhring, three = {}, {}
    for delta in (1e-1, 1e-3, 1e-5, 1e-7):
        p = HypParams(1.2, 2.2 + delta, 3.5)
        buhring[delta] = err(buhring_eval(p, Z_EXC, n_terms=40), p)
        three[delta] = err(eval_threepoint(p, Z_EXC, n_terms=20), p)
        assert three[delta] <= 1e-14, (delta, three[delta])
    growth = buhring[1e-5] / buhring[1e-1]
    assert growth >= 1e4, (buhring, growth)
    _report(
        "criterion 10: b - a = 1 + delta at exp(i pi/3): continuation error "
        f"{buhring[1e-1]:.1e} -> {buhring[1e-5]:.1e} (x{growth:.0e}) from delta 1e-1 to 1e-5 "
        f"at n=40; three-point <= {max(three.values()):.1e} at n=20"
    )

"""Theta* by Jacobi's imaginary transformation, the mod-4 route for q < 0,
the double-double functions behind them, and the oracle that checks them."""

import math
import random

import mpmath as mp
import pytest

from conftest import assert_covers
from ptheta.certified import series_log_max_term
from ptheta.core import theta_certified
from ptheta.ddarith import DD_FN_ERR, cdd_log_turns, dd_exp, dd_log, dd_sincos_turns
from ptheta.errors import RangeOverflowError
from ptheta.oracle import OracleError, theta_ref, theta_star_ref
from ptheta.tripleprod import jacobi_theta_star, theta_via_triple_product

# direct two-sided and one-sided sums over |j| < 3000 at 400 digits
with mp.workdps(30):
    THETA_STAR_099_M6 = mp.mpf("2.07556434537793001684938228506e-143")
    THETA_099_M6 = mp.mpf("0.143032714346732019668337646201")


def covers(cv, ref):
    return abs(mp.mpc(complex(cv.value)) - ref) <= cv.err


def dd_value(h, l):
    return mp.mpf(h) + mp.mpf(l)


def dd_of(v):
    h = float(v)
    return h, float(v - mp.mpf(h))


class TestDDFunctions:
    """Each function within its stated bound of a 60-digit reference."""

    @pytest.fixture(autouse=True)
    def digits(self):
        with mp.workdps(60):
            yield

    def test_exp(self):
        rng = random.Random(11)
        for _ in range(200):
            a = dd_of(mp.mpf(rng.uniform(-650.0, 709.0)) * (1 + mp.mpf(rng.random()) * 1e-17))
            ref = mp.exp(dd_value(*a))
            assert abs(dd_value(*dd_exp(*a)) / ref - 1) <= DD_FN_ERR / 2

    def test_log(self):
        rng = random.Random(12)
        for i in range(200):
            v = 1 - mp.mpf(rng.random()) * 1e-3 if i % 2 else mp.mpf(10) ** rng.uniform(-300, 300)
            a = dd_of(v)
            ref = mp.log(dd_value(*a))
            assert abs(dd_value(*dd_log(*a)) - ref) <= DD_FN_ERR * (1 + abs(ref))

    def test_sincos_in_turns(self):
        rng = random.Random(13)
        for _ in range(200):
            f = dd_of(mp.mpf(rng.uniform(-2000.0, 2000.0)) * (1 + mp.mpf(rng.random()) * 1e-17))
            s = dd_sincos_turns(*f)
            angle = 2 * mp.pi * dd_value(*f)
            assert abs(dd_value(s[0], s[1]) - mp.sin(angle)) <= DD_FN_ERR
            assert abs(dd_value(s[2], s[3]) - mp.cos(angle)) <= DD_FN_ERR

    def test_complex_log_in_turns(self):
        rng = random.Random(14)
        points = [complex(rng.uniform(-1, 1) * 10 ** rng.uniform(-5, 5),
                          rng.uniform(-1, 1) * 10 ** rng.uniform(-5, 5)) for _ in range(200)]
        points += [3.0, -3.0, 2.5j, -2.5j, complex(-1.0, 1e-300), complex(-1.0, -1e-300)]
        for z in points:
            r = cdd_log_turns((z.real, 0.0, z.imag, 0.0))
            ref = mp.log(mp.mpc(z.real, z.imag))
            assert abs(dd_value(r[0], r[1]) - ref.real) <= 2 * DD_FN_ERR * (1 + abs(ref.real))
            assert abs(dd_value(r[2], r[3]) - ref.imag / (2 * mp.pi)) <= DD_FN_ERR
            assert (-0.5, 0.0) < (r[2], r[3]) <= (0.5, 0.0)  # normalized DD order


class TestEnclosure:
    def test_seeded_sweep(self):
        # Theta*, the split and theta against the oracle for |q| in
        # [0.5, 0.99] of both signs and |x| from 10^-0.5 to 10^3, a third
        # complex; a refusal is allowed only past the range
        rng = random.Random(2026)
        checked = 0
        for i in range(60):
            qa = rng.uniform(0.5, 0.99)
            q = -qa if i % 2 else qa
            r = 10 ** rng.uniform(-0.5, 3.0)
            if i % 3 == 0:
                phi = rng.uniform(-math.pi, math.pi)
                x = complex(r * math.cos(phi), r * math.sin(phi))
            else:
                x = rng.choice([r, -r])
            try:
                star = jacobi_theta_star(q, x)
                split = theta_via_triple_product(q, x, 1e-13).difference
                value = theta_certified(q, x)
            except RangeOverflowError:
                assert series_log_max_term(qa, r) > 680.0, (q, x)
                continue
            ref = theta_ref(q, x)
            assert covers(star, theta_star_ref(q, x)), (q, x)
            assert covers(split, ref), (q, x)
            assert covers(value, ref), (q, x)
            checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("q", [0.6, 0.9, 0.99, -0.7, -0.95])
    @pytest.mark.parametrize("m", [1, 3, 10, 40])
    def test_near_the_zeros_of_theta_star(self, q, m):
        # x = -q^-m (1 + delta) is within 1e-6 relative of a zero
        for delta in (1e-6, -1e-6, 1e-9):
            x = float(-(mp.mpf(q) ** -m) * (1 + delta))
            if series_log_max_term(abs(q), abs(x)) > 680.0:
                continue
            assert covers(jacobi_theta_star(q, x), theta_star_ref(q, x)), (q, m, delta)
            assert covers(theta_certified(q, x), theta_ref(q, x)), (q, m, delta)

    @pytest.mark.parametrize("x", [1e40, -1e40, complex(3e30, 4e30), complex(-1e35, 1e20)])
    def test_small_q_needs_about_ten_terms(self, x):
        # q = 1e-10, t = 23: the terms fall off as e^{-2 pi^2 k^2/t}, K = 10
        assert covers(jacobi_theta_star(1e-10, x), theta_star_ref(1e-10, x))

    @pytest.mark.parametrize("q,x", [(-0.95, 7.0), (-0.99, complex(-30.0, 2.0)),
                                     (-0.9514481688088846, 152.4416495822927)])
    def test_mod4_points(self, q, x):
        # the last is the point where theta's quartic parts cancel 3000-fold
        ref = theta_ref(q, x)
        cv = theta_certified(q, x)
        assert covers(cv, ref)
        assert abs(mp.mpc(complex(cv.value)) - ref) <= 1e-12 * abs(ref)
        assert cv.err <= 1e-12 * abs(ref)
        assert covers(jacobi_theta_star(q, x), theta_star_ref(q, x))

    def test_pinned_values_at_099_minus_6(self):
        star = jacobi_theta_star(0.99, -6.0)
        assert_covers(star, THETA_STAR_099_M6)
        assert star.err <= 1e-14 * THETA_STAR_099_M6
        assert_covers(theta_certified(0.99, -6.0), THETA_099_M6)

    @pytest.mark.parametrize("x", [1e3, -1e3, complex(0.0, 1e3)])
    def test_prefactor_past_binary64(self, x):
        with pytest.raises(RangeOverflowError):
            jacobi_theta_star(0.99, x)

    @pytest.mark.parametrize("q", [0.5, 0.6, 0.99, -0.5, -0.93])
    def test_exact_zero_at_minus_one_for_every_q(self, q):
        # x = -q^0: a factor of the triple product vanishes
        cv = jacobi_theta_star(q, -1.0)
        assert cv.value == 0.0 and cv.err == 0.0


class TestOracle:
    def test_theta_star_at_099_minus_6(self):
        ref = theta_star_ref(0.99, -6.0)
        with mp.workdps(30):
            assert abs(ref - THETA_STAR_099_M6) <= mp.mpf(10) ** -28 * THETA_STAR_099_M6

    def test_agrees_with_itself_at_two_precisions(self):
        rng = random.Random(5)
        for _ in range(10):
            q = rng.choice([-1, 1]) * rng.uniform(0.5, 0.99)
            x = rng.choice([-1, 1]) * 10 ** rng.uniform(0.0, 2.0)
            a, b = theta_ref(q, x, 50), theta_ref(q, x, 80)
            with mp.workdps(80):
                assert abs(a - b) <= mp.mpf(10) ** -50 * abs(b)

    def test_unsettled_sum_raises(self):
        # an exact zero whose terms do not cancel exactly never settles
        with pytest.raises(OracleError):
            theta_star_ref(0.6, -0.6)

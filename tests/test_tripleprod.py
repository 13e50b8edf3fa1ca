"""The infinite product, the negative-index tail, and their difference."""

import math
import random

import mpmath as mp
import pytest

from conftest import assert_covers
from ptheta.core import theta_certified
from ptheta.errors import DomainError, RangeOverflowError
from ptheta.oracle import g_ref, theta_ref, theta_star_ref
from ptheta.tripleprod import g_tail, jacobi_theta_star, theta_via_triple_product

THETA_STAR_HALF_TWO = mp.mpf("3.283265121310307732588")
G_HALF_TWO = mp.mpf("0.6416325606551538662938")


class TestProduct:
    def test_reference_point(self):
        assert_covers(jacobi_theta_star(0.5, 2.0, 1e-14), THETA_STAR_HALF_TWO)

    def test_exact_zero_at_minus_one(self):
        cv = jacobi_theta_star(0.5, -1.0)
        assert cv.value == 0.0 and cv.err == 0.0

    def test_near_zero_at_negative_integer_power(self):
        # x = -q^{-a} with integer a kills one factor
        for a in (1, 2):
            q = 0.6
            cv = jacobi_theta_star(q, -(q ** -a), 1e-13)
            assert abs(cv.value) < 1e-10

    def test_negative_q_matches_two_sided_sum(self):
        for q, x in [(-0.6, 2.5), (-0.9, -3.0)]:
            assert_covers(jacobi_theta_star(q, x, 1e-14), theta_star_ref(q, x))

    def test_complex_argument(self):
        z = complex(1.5, 2.0)
        cv = jacobi_theta_star(0.7, z, 1e-14)
        ref = theta_star_ref(0.7, mp.mpc(z))
        assert abs(mp.mpc(cv.value) - ref) <= cv.err

    def test_rejects_zero_x(self):
        with pytest.raises(DomainError):
            jacobi_theta_star(0.5, 0.0)


class TestTail:
    def test_reference_point(self):
        assert_covers(g_tail(0.5, 2.0, 1e-14), G_HALF_TWO)

    def test_leibniz_interval_at_minus6(self):
        # alternating tail at x = -6: between -1/6 and -1/6 + q/36
        for q in (0.2, 0.5, 0.9, 0.99):
            cv = g_tail(q, -6.0, 1e-14, q_max=0.99)
            assert -1.0 / 6.0 < cv.real < -1.0 / 6.0 + q / 36.0

    def test_q_zero_gives_inverse(self):
        cv = g_tail(0.0, 4.0)
        assert cv.value == 0.25

    def test_rejects_zero_x(self):
        with pytest.raises(DomainError):
            g_tail(0.5, 0.0)

    def test_negative_q(self):
        assert_covers(g_tail(-0.7, 3.0, 1e-14), g_ref(-0.7, 3.0))

    def test_enclosure_sweep(self):
        # G is the direct series at 1/x, times 1/x: every err must enclose
        # the oracle, for either sign of q and real or complex x
        rng = random.Random(4)
        for i in range(90):
            qa = rng.uniform(0.02, 0.99)
            q = -qa if i % 4 == 0 else qa
            r = 10 ** rng.uniform(-0.5, 3.0)
            if i % 3 == 0:
                x = complex(r * rng.uniform(-1, 1), r * rng.uniform(-1, 1))
            else:
                x = rng.choice([r, -r])
            cv = g_tail(q, x, 1e-14, q_max=0.99)
            assert abs(mp.mpc(cv.value) - g_ref(q, x)) <= cv.err, (q, x)

    def test_reciprocal_past_the_square_range(self):
        # |x|^2 underflows or overflows binary64 while 1/x and G do not
        assert_covers(g_tail(1e-300, 1e-160), g_ref(1e-300, 1e-160))
        assert_covers(g_tail(0.5, 1e200), g_ref(0.5, 1e200))


class TestFailClosed:
    ENTRY_POINTS = (g_tail, jacobi_theta_star, theta_via_triple_product)

    @pytest.mark.parametrize("fn", ENTRY_POINTS)
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)])
    def test_rejects_non_finite_x(self, fn, x):
        with pytest.raises(DomainError):
            fn(0.5, x)

    @pytest.mark.parametrize("fn", ENTRY_POINTS)
    def test_tiny_x_overflows(self, fn):
        with pytest.raises(RangeOverflowError):
            fn(0.5, 1e-300)

    def test_reciprocal_past_binary64(self):
        with pytest.raises(RangeOverflowError):
            g_tail(0.5, 1e-310)

    def test_tail_sum_past_binary64(self):
        # 1/x = 1e160 fits, q/x^2 does not
        with pytest.raises(RangeOverflowError):
            g_tail(0.5, 1e-160)

    def test_product_order_bound_past_binary64(self):
        with pytest.raises(RangeOverflowError):
            jacobi_theta_star(1e-20, 1e-300)


class TestSplit:
    @pytest.mark.parametrize("q,x", [(0.5, 2.0), (0.9, -6.0), (0.3, 0.5),
                                     (0.7, complex(2, 2))])
    def test_difference_equals_direct(self, q, x):
        parts = theta_via_triple_product(q, x, 1e-14)
        direct = theta_certified(q, x, 1e-13)
        diff = abs(complex(parts.difference.value) - complex(direct.value))
        assert diff <= parts.difference.err + direct.err

    def test_minus_one_reduces_to_tail(self):
        # the product vanishes at x = -1, so theta = -G there
        parts = theta_via_triple_product(0.8, -1.0, 1e-14)
        assert parts.theta_star.value == 0.0
        direct = theta_certified(0.8, -1.0, 1e-13)
        diff = abs(direct.value + parts.g_tail.real)
        assert diff <= direct.err + parts.g_tail.err

    def test_high_q_agreement(self):
        parts = theta_via_triple_product(0.9, -6.0, 1e-14)
        assert_covers(parts.difference, theta_ref(0.9, -6.0))
